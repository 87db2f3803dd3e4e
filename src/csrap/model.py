"""Domain model for frame-based uplink scheduling of surveillance cameras.

The scheduling canvas is a frame of M subchannels by T time slots.  A camera
transmits on one contiguous run of subchannels inside a single slot; because a
single-carrier uplink must use one modulation scheme for the whole run, the
weakest subchannel in the run dictates the usable per-RB rate.  A run is a
*candidate allocation* for a camera when it just achieves the camera's rate
requirement: one RB fewer would fall short.

Subchannel and slot indices are 1-based everywhere, including serialized
documents.  All types are immutable after construction and all operations are
pure functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from math import ceil, inf, isfinite
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:
    from .exact import Root
    from .solvers import CandidateTable, SolverResult

__all__ = [
    "FrameGrid",
    "TargetObject",
    "Omnidirectional",
    "Directional",
    "CameraNode",
    "CandidateAllocation",
    "Schedule",
    "Scenario",
    "ConstraintCheck",
    "FeasibilityReport",
    "runs_by_length",
    "verify_schedule",
]


def _integer(value: object, field: str) -> int:
    """``value`` as an ``int`` by ``operator.index``; a ``bool``, float,
    string or other non-integer raises ``ValueError`` naming ``field``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, not {value!r}")


@dataclass(frozen=True)
class FrameGrid:
    """One scheduling frame: ``num_subchannels`` x ``num_slots`` resource blocks.

    ``slot_capacity`` caps how many RBs may be allocated in each slot (some may
    be reserved for other users).  It defaults to the full width ``M`` per slot.
    """

    num_subchannels: int
    num_slots: int
    slot_capacity: tuple[int, ...] | None = None
    frame_duration_ms: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_subchannels", _integer(self.num_subchannels, "num_subchannels"))
        object.__setattr__(self, "num_slots", _integer(self.num_slots, "num_slots"))
        if self.num_subchannels < 1:
            raise ValueError("num_subchannels must be >= 1")
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        # A size no sequence can index is malformed, not merely large.
        if max(self.num_subchannels, self.num_slots) > sys.maxsize:
            raise ValueError(f"num_subchannels and num_slots must be at most {sys.maxsize}")
        if not 0 < self.frame_duration_ms < inf:
            raise ValueError("frame_duration_ms must be positive and finite")
        cap = self.slot_capacity
        if cap is None:
            cap = (self.num_subchannels,) * self.num_slots
        else:
            cap = tuple(_integer(c, "each slot_capacity entry") for c in cap)
        if len(cap) != self.num_slots:
            raise ValueError("slot_capacity must have one entry per slot")
        for c in cap:
            if c < 0 or c > self.num_subchannels:
                raise ValueError("slot capacities must lie in [0, num_subchannels]")
        object.__setattr__(self, "slot_capacity", cap)

    def capacity(self, slot: int) -> int:
        """Allocatable RB count for a 1-based slot index."""
        return self.slot_capacity[slot - 1]


def _finite_position(position: tuple[float, float]) -> tuple[float, float]:
    x, y = float(position[0]), float(position[1])
    if not (isfinite(x) and isfinite(y)):
        raise ValueError("position must be finite")
    return (x, y)


def _check_view(view_distance: float) -> None:
    if not view_distance > 0:
        raise ValueError("view_distance must be positive")
    if not view_distance < inf:
        raise ValueError("view_distance must be finite")


@dataclass(frozen=True)
class TargetObject:
    """A static surveilled object that must be watched by some camera."""

    id: int
    position: tuple[float, float]

    def __post_init__(self) -> None:
        if type(self.id) is not int:
            object.__setattr__(self, "id", _integer(self.id, "id"))
        object.__setattr__(self, "position", _finite_position(self.position))


@dataclass(frozen=True)
class Omnidirectional:
    """Camera that sees every direction out to ``view_distance`` meters."""

    view_distance: float

    def __post_init__(self) -> None:
        _check_view(self.view_distance)


@dataclass(frozen=True)
class Directional:
    """Camera with a limited angular field of view.

    ``orientation_deg`` is the boresight bearing (degrees, counterclockwise
    from +x) and ``fov_deg`` the full monitored angle, boundary inclusive.
    """

    view_distance: float
    orientation_deg: float
    fov_deg: float

    def __post_init__(self) -> None:
        _check_view(self.view_distance)
        if not isfinite(self.orientation_deg):
            raise ValueError("orientation_deg must be finite")
        if not 0 < self.fov_deg <= 360:
            raise ValueError("fov_deg must lie in (0, 360]")


Geometry = Omnidirectional | Directional


class _Rates(tuple):
    """A rate vector of floats, checked finite and non-negative when built.

    Building one from a ``_Rates`` returns it unchanged, so a vector shared
    by many cameras is converted and checked once.
    """

    __slots__ = ()

    def __new__(cls, rates: Iterable[float]) -> "_Rates":
        if type(rates) is cls:
            return rates
        self = super().__new__(cls, map(float, rates))
        # Both tests run without a Python-level loop.  A sum of rates is
        # finite exactly when every rate is, unless finite rates overflow it.
        if not isfinite(sum(self)) and not all(map(isfinite, self)):
            raise ValueError("per-subchannel rates must be finite")
        if min(self, default=0.0) < 0:
            raise ValueError("per-subchannel rates must be non-negative")
        return self


@dataclass(frozen=True)
class CameraNode:
    """A camera with its channel quality, demand and derived coverage.

    ``per_subchannel_rate`` holds the achievable per-RB rate on each of the M
    subchannels, constant across the slots of one frame.  A value of 0 marks
    the subchannel as unusable for this camera.  ``slot_rate_overrides`` is an
    optional escape hatch mapping a 1-based slot index to a replacement rate
    vector for that slot.  Rates must be finite and non-negative, and the
    rate requirement finite and positive.
    """

    id: int
    position: tuple[float, float]
    geometry: Geometry
    rate_requirement: float
    per_subchannel_rate: tuple[float, ...]
    coverage_set: frozenset[int] = frozenset()
    slot_rate_overrides: Mapping[int, tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if type(self.id) is not int:
            object.__setattr__(self, "id", _integer(self.id, "id"))
        if not self.rate_requirement > 0:
            raise ValueError("rate_requirement must be positive")
        if not self.rate_requirement < inf:
            raise ValueError("rate_requirement must be finite")
        rates = _Rates(self.per_subchannel_rate)
        object.__setattr__(self, "per_subchannel_rate", rates)
        object.__setattr__(self, "position", _finite_position(self.position))
        coverage = frozenset(self.coverage_set)
        # At most one type pass; a set holding anything but exact ints is checked.
        if coverage and not {int}.issuperset(map(type, coverage)):
            coverage = frozenset(_integer(target, "each coverage_set entry") for target in coverage)
        object.__setattr__(self, "coverage_set", coverage)
        if self.slot_rate_overrides is not None:
            fixed = {}
            for slot, vec in self.slot_rate_overrides.items():
                vec = _Rates(vec)
                if len(vec) != len(rates):
                    raise ValueError("slot rate override length must match per_subchannel_rate")
                fixed[_integer(slot, "each slot_rate_overrides key")] = vec
            object.__setattr__(self, "slot_rate_overrides", fixed)

    def rates_in_slot(self, slot: int) -> tuple[float, ...]:
        if self.slot_rate_overrides is not None:
            override = self.slot_rate_overrides.get(slot)
            if override is not None:
                return override
        return self.per_subchannel_rate


@dataclass(frozen=True)
class CandidateAllocation:
    """A contiguous run of ``length`` RBs in one slot that just achieves a
    camera's rate requirement.

    ``robust_rate`` is the minimum per-subchannel rate over the run; the
    membership condition is ``robust_rate*(length-1) < R <= robust_rate*length``.
    """

    camera_id: int
    slot: int
    start: int
    length: int
    robust_rate: float

    def __post_init__(self) -> None:
        # Solvers build allocations of exact ints on hot paths; only others pay for the check.
        if not type(self.camera_id) is type(self.slot) is type(self.start) is type(self.length) is int:
            for name in ("camera_id", "slot", "start", "length"):
                object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.slot < 1 or self.start < 1 or self.length < 1:
            raise ValueError("slot, start and length are 1-based and must be >= 1")
        if not self.robust_rate > 0:
            raise ValueError("robust_rate must be positive")

    def cells(self) -> tuple[tuple[int, int], ...]:
        """The (slot, subchannel) resource blocks this run occupies."""
        return tuple((self.slot, m) for m in range(self.start, self.start + self.length))

    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.camera_id, self.slot, self.start, self.length)


@dataclass(frozen=True)
class Schedule:
    """A set of candidate allocations, one per assigned camera."""

    assignments: tuple[CandidateAllocation, ...]
    total_rbs: int
    covered_targets: frozenset[int]

    @classmethod
    def build(
        cls,
        assignments: Iterable[CandidateAllocation],
        cameras: Iterable[CameraNode],
        target_ids: Iterable[int],
    ) -> "Schedule":
        """Assemble a schedule, deriving totals and the covered ones of ``target_ids``."""
        cams = {c.id: c for c in cameras}
        ordered = tuple(sorted(assignments, key=CandidateAllocation.sort_key))
        covered: set[int] = set()
        for alloc in ordered:
            if alloc.camera_id not in cams:
                raise ValueError(f"assignment references unknown camera {alloc.camera_id}")
            covered |= cams[alloc.camera_id].coverage_set
        covered &= set(target_ids)
        return cls(
            assignments=ordered,
            total_rbs=sum(a.length for a in ordered),
            covered_targets=frozenset(covered),
        )

    @classmethod
    def empty(cls) -> "Schedule":
        return cls(assignments=(), total_rbs=0, covered_targets=frozenset())


@dataclass(frozen=True)
class Scenario:
    """A full problem instance: frame, cameras and targets.

    ``area_side``, ``channel`` and ``seed`` are provenance metadata kept so a
    generated scenario can be serialized back out; hand-built instances may
    leave them unset.
    """

    grid: FrameGrid
    cameras: tuple[CameraNode, ...]
    targets: tuple[TargetObject, ...]
    area_side: float | None = None
    channel: object | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "cameras", tuple(self.cameras))
        object.__setattr__(self, "targets", tuple(self.targets))
        cam_ids = [c.id for c in self.cameras]
        if len(set(cam_ids)) != len(cam_ids):
            raise ValueError("camera ids must be unique")
        tgt_ids = [t.id for t in self.targets]
        if len(set(tgt_ids)) != len(tgt_ids):
            raise ValueError("target ids must be unique")
        m, t = self.grid.num_subchannels, self.grid.num_slots
        for cam in self.cameras:
            if len(cam.per_subchannel_rate) != m:
                raise ValueError(
                    f"camera {cam.id} has {len(cam.per_subchannel_rate)} subchannel rates, expected {m}"
                )
            for slot in cam.slot_rate_overrides or ():
                if not 1 <= slot <= t:
                    raise ValueError(f"camera {cam.id} overrides the rates of slot {slot}, outside 1..{t}")

    @cached_property
    def target_ids(self) -> frozenset[int]:
        """The target ids, built on the first read and kept (not a field)."""
        return frozenset(t.id for t in self.targets)

    @cached_property
    def coverage(self) -> Mapping[int, frozenset[int]]:
        """The covering relation: each camera that covers a target, in camera
        order, mapped to ``coverage_set & target_ids``.  Read-only, built on
        the first read and kept (not a field)."""
        targets = self.target_ids
        return MappingProxyType(
            {cam.id: cam.coverage_set & targets for cam in self.cameras if not cam.coverage_set.isdisjoint(targets)}
        )

    @cached_property
    def table(self) -> CandidateTable:
        """The :class:`~csrap.solvers.CandidateTable` over the cameras and
        grid, built on the first read and kept (not a field).  Every solver
        given no table reads it, so the solvers run on one scenario share
        its runs, and none may change them."""
        from .solvers import CandidateTable

        return CandidateTable(self.cameras, self.grid)

    @cached_property
    def exact_root(self) -> Root:
        """The :class:`~csrap.exact.Root` of the exact search over this
        scenario, computed on the first read and kept (not a field).  Both
        modes of ``exact_solve`` read it, so their solves share its bound,
        prices and branch order."""
        from .exact import exact_root

        return exact_root(self)

    @cached_property
    def mramc(self) -> SolverResult:
        """The :func:`~csrap.solvers.mramc` result over ``table``, computed
        on the first read and kept (not a field).  ``mramc`` given no table
        returns it, ``m_mramc`` extends it and both exact modes start their
        search from its cost."""
        from .solvers import mramc

        return mramc(self, self.table)

    def uncovered_targets(self) -> tuple[int, ...]:
        """Targets no camera can see; a non-empty result means no solver can succeed."""
        return tuple(sorted(self.target_ids.difference(*self.coverage.values())))


def runs_by_length(rates: Sequence[float], requirement: float) -> dict[int, list[tuple[int, float]]]:
    """All runs over one rate vector that just achieve ``requirement``, as
    ``length -> [(start, robust_rate), ...]`` with each list in start order.

    Rates must be finite and non-negative.  Runs containing a zero-rate
    subchannel can never satisfy the membership condition and are skipped.

    A run from a start keeps one robust rate until the next lower rate, and
    a robust rate ``r`` admits exactly one length: the smallest ``L`` with
    ``r*L >= requirement`` (rounded multiplication is monotone in ``L``).  So
    each start jumps from one rate drop to the next and tests that one
    length per drop; its work is the number of drops it crosses, capped at
    the longest possible run, not the run length.
    """
    if not requirement > 0:
        raise ValueError("requirement must be positive")
    rates = list(map(float, rates))
    m = len(rates)
    out: dict[int, list[tuple[int, float]]] = {}

    def just_enough(rate: float) -> int:
        """The smallest ``L`` with ``rate*L >= requirement``, or ``m + 1`` if
        it exceeds ``m``; settled with the membership multiplications."""
        ratio = requirement / rate
        length = m + 1 if ratio > m else max(1, ceil(ratio))
        while length > 1 and rate * (length - 1) >= requirement:
            length -= 1
        while length <= m and rate * length < requirement:
            length += 1
        return length

    first = rates[0] if m else 0.0
    if first > 0 and rates.count(first) == m:
        # Uniform rates admit exactly one run length.
        length = just_enough(first)
        if length > m:
            return out
        return {length: list(zip(range(1, m - length + 2), repeat(first)))}

    by_rate = {r: just_enough(r) for r in set(rates) if r > 0}
    if not by_rate:
        return out
    # A run's robust rate is at least the smallest positive rate, so a run
    # longer than ``longest`` has robust*(length-1) >= requirement.
    longest = min(by_rate[min(by_rate)], m)
    # need[j]: the one run length robust rate rates[j] admits; a zero rate
    # admits none, so it needs more than the whole vector.
    need = [by_rate[r] if r > 0 else m + 1 for r in rates]
    # nxt[j]: the first index after j with a lower rate, m if none.
    nxt = [m] * m
    stack: list[int] = []
    for j, r in enumerate(rates):
        while stack and rates[stack[-1]] > r:
            nxt[stack.pop()] = j
        stack.append(j)

    for i in range(m):
        stop = i + longest
        if stop > m:
            stop = m
        j = i
        while True:
            # Runs from i whose last index lies in [j, nxt[j]) have robust
            # rate rates[j], and only the one ending before i + need[j] just
            # achieves the requirement.  Later drops need longer runs.
            end = i + need[j]
            if end > stop:
                break
            j_next = nxt[j]
            if j < end <= j_next:
                run = out.get(end - i)
                if run is None:
                    out[end - i] = [(i + 1, rates[j])]
                else:
                    run.append((i + 1, rates[j]))
            j = j_next
            if j >= stop:
                break
    return out


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of one feasibility rule; ``violations`` lists offending entities."""

    name: str
    passed: bool
    violations: tuple = ()


@dataclass(frozen=True)
class FeasibilityReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def feasible(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ConstraintCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            detail = "" if c.passed else f"  {c.violations}"
            out.append(f"{c.name}: {mark}{detail}")
        return out


def verify_schedule(schedule: Schedule, scenario: Scenario) -> FeasibilityReport:
    """Check a schedule against the scenario's feasibility rules.

    The named checks are: every assignment is a genuine candidate run
    (``allocation_validity``), every target is covered (``coverage``), per-slot
    allocation counts respect capacities (``slot_capacity``), no RB is claimed
    twice (``rb_exclusivity``), each camera holds at most one allocation
    (``single_allocation``), and the schedule's declared totals match what is
    recomputed here (``declared_totals``).

    Unknown camera or target ids are an argument error, not a failed check.
    """
    grid = scenario.grid
    cams = {c.id: c for c in scenario.cameras}
    bad_allocs: list[tuple[int, str]] = []
    in_frame: list[CandidateAllocation] = []
    covered: set[int] = set()
    slot_used: dict[int, int] = {}
    # One bitmask of used subchannels per slot (bit ``m - 1`` for subchannel
    # ``m``) screens for a shared RB; only then are the cells listed below,
    # to name each shared one with its owners.
    used: dict[int, int] = {}
    shared = False
    per_cam: dict[int, int] = {}
    for alloc in schedule.assignments:
        cam_id, slot, start, length = alloc.camera_id, alloc.slot, alloc.start, alloc.length
        cam = cams.get(cam_id)
        if cam is None:
            raise ValueError(f"schedule references unknown camera {cam_id}")
        covered |= cam.coverage_set
        slot_used[slot] = slot_used.get(slot, 0) + length
        per_cam[cam_id] = per_cam.get(cam_id, 0) + 1
        # A run outside the frame fails here, and its cells may be too many
        # to enumerate, so it takes no part in the exclusivity check.
        if slot > grid.num_slots or start + length - 1 > grid.num_subchannels:
            bad_allocs.append((cam_id, "run outside frame"))
            continue
        in_frame.append(alloc)
        run = ((1 << length) - 1) << (start - 1)
        busy = used.get(slot, 0)
        shared = shared or bool(busy & run)
        used[slot] = busy | run
        r = alloc.robust_rate
        if min(cam.rates_in_slot(slot)[start - 1 : start - 1 + length]) != r:
            bad_allocs.append((cam_id, "robust rate mismatch"))
        elif not (r * (length - 1) < cam.rate_requirement <= r * length):
            bad_allocs.append((cam_id, "run does not just achieve the requirement"))
    unknown_targets = schedule.covered_targets - scenario.target_ids
    if unknown_targets:
        raise ValueError(f"schedule references unknown targets {sorted(unknown_targets)}")

    clashes: tuple = ()
    if shared:
        cell_owners: dict[tuple[int, int], list[int]] = {}
        for alloc in in_frame:
            for cell in alloc.cells():
                cell_owners.setdefault(cell, []).append(alloc.camera_id)
        clashes = tuple(
            (cell[0], cell[1], tuple(sorted(owners)))
            for cell, owners in sorted(cell_owners.items())
            if len(owners) > 1
        )
    over = tuple(
        (slot, n, grid.capacity(slot))
        for slot, n in sorted(slot_used.items())
        if slot <= grid.num_slots and n > grid.capacity(slot)
    )
    actual_total = sum(slot_used.values())
    mismatches = []
    if actual_total != schedule.total_rbs:
        mismatches.append(f"total_rbs declared {schedule.total_rbs}, recomputed {actual_total}")
    if covered & scenario.target_ids != schedule.covered_targets:
        mismatches.append("covered_targets does not match assigned cameras")
    uncovered = tuple(sorted(scenario.target_ids - covered))
    dupes = tuple(sorted(k for k, n in per_cam.items() if n > 1))
    checks = (
        ConstraintCheck("allocation_validity", not bad_allocs, tuple(bad_allocs)),
        ConstraintCheck("coverage", not uncovered, uncovered),
        ConstraintCheck("slot_capacity", not over, over),
        ConstraintCheck("rb_exclusivity", not clashes, clashes),
        ConstraintCheck("single_allocation", not dupes, dupes),
        ConstraintCheck("declared_totals", not mismatches, tuple(mismatches)),
    )
    return FeasibilityReport(checks)
