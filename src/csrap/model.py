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

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
    "robust_rate",
    "candidate_runs",
    "enumerate_candidates",
    "verify_schedule",
]


def robust_rate(rates: Sequence[float]) -> float:
    """Usable per-RB rate of a contiguous run: the minimum over the run."""
    rates = list(rates)
    if not rates:
        raise ValueError("robust_rate requires a non-empty rate list")
    return min(rates)


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
        if self.num_subchannels < 1:
            raise ValueError("num_subchannels must be >= 1")
        if self.num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if not self.frame_duration_ms > 0:
            raise ValueError("frame_duration_ms must be positive")
        cap = self.slot_capacity
        if cap is None:
            cap = (self.num_subchannels,) * self.num_slots
        else:
            cap = tuple(int(c) for c in cap)
        if len(cap) != self.num_slots:
            raise ValueError("slot_capacity must have one entry per slot")
        for c in cap:
            if c < 0 or c > self.num_subchannels:
                raise ValueError("slot capacities must lie in [0, num_subchannels]")
        object.__setattr__(self, "slot_capacity", cap)

    def capacity(self, slot: int) -> int:
        """Allocatable RB count for a 1-based slot index."""
        return self.slot_capacity[slot - 1]

    @property
    def total_rbs(self) -> int:
        return self.num_subchannels * self.num_slots


@dataclass(frozen=True)
class TargetObject:
    """A static surveilled object that must be watched by some camera."""

    id: int
    position: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))


@dataclass(frozen=True)
class Omnidirectional:
    """Camera that sees every direction out to ``view_distance`` meters."""

    view_distance: float

    def __post_init__(self) -> None:
        if not self.view_distance > 0:
            raise ValueError("view_distance must be positive")


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
        if not self.view_distance > 0:
            raise ValueError("view_distance must be positive")
        if not 0 < self.fov_deg <= 360:
            raise ValueError("fov_deg must lie in (0, 360]")


Geometry = Omnidirectional | Directional


@dataclass(frozen=True)
class CameraNode:
    """A camera with its channel quality, demand and derived coverage.

    ``per_subchannel_rate`` holds the achievable per-RB rate on each of the M
    subchannels, constant across the slots of one frame.  A value of 0 marks
    the subchannel as unusable for this camera.  ``slot_rate_overrides`` is an
    optional escape hatch mapping a 1-based slot index to a replacement rate
    vector for that slot.
    """

    id: int
    position: tuple[float, float]
    geometry: Geometry
    rate_requirement: float
    per_subchannel_rate: tuple[float, ...]
    coverage_set: frozenset[int] = frozenset()
    slot_rate_overrides: Mapping[int, tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if not self.rate_requirement > 0:
            raise ValueError("rate_requirement must be positive")
        rates = tuple(float(r) for r in self.per_subchannel_rate)
        if any(r < 0 for r in rates):
            raise ValueError("per-subchannel rates must be non-negative")
        object.__setattr__(self, "per_subchannel_rate", rates)
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        object.__setattr__(self, "coverage_set", frozenset(self.coverage_set))
        if self.slot_rate_overrides is not None:
            fixed = {}
            for slot, vec in self.slot_rate_overrides.items():
                vec = tuple(float(r) for r in vec)
                if len(vec) != len(rates):
                    raise ValueError("slot rate override length must match per_subchannel_rate")
                if any(r < 0 for r in vec):
                    raise ValueError("per-subchannel rates must be non-negative")
                fixed[int(slot)] = vec
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
        target_ids: Iterable[int] | None = None,
    ) -> "Schedule":
        """Assemble a schedule, deriving totals and covered targets."""
        cams = {c.id: c for c in cameras}
        ordered = tuple(sorted(assignments, key=CandidateAllocation.sort_key))
        covered: set[int] = set()
        for alloc in ordered:
            if alloc.camera_id not in cams:
                raise ValueError(f"assignment references unknown camera {alloc.camera_id}")
            covered |= cams[alloc.camera_id].coverage_set
        if target_ids is not None:
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
        m = self.grid.num_subchannels
        for cam in self.cameras:
            if len(cam.per_subchannel_rate) != m:
                raise ValueError(
                    f"camera {cam.id} has {len(cam.per_subchannel_rate)} subchannel rates, expected {m}"
                )

    def camera(self, camera_id: int) -> CameraNode:
        for cam in self.cameras:
            if cam.id == camera_id:
                return cam
        raise KeyError(camera_id)

    @property
    def target_ids(self) -> frozenset[int]:
        return frozenset(t.id for t in self.targets)

    def uncovered_targets(self) -> tuple[int, ...]:
        """Targets no camera can see; a non-empty result means no solver can succeed."""
        covered: set[int] = set()
        for cam in self.cameras:
            covered |= cam.coverage_set
        return tuple(sorted(self.target_ids - covered))


def candidate_runs(rates: Sequence[float], requirement: float) -> list[tuple[int, int, float]]:
    """All (start, length, robust_rate) runs over one rate vector that just
    achieve ``requirement``.

    Results are ordered by start then length.  Runs containing a zero-rate
    subchannel can never satisfy the membership condition and are skipped.
    """
    if not requirement > 0:
        raise ValueError("requirement must be positive")
    rates = [float(r) for r in rates]
    m = len(rates)
    out: list[tuple[int, int, float]] = []

    first = rates[0] if m else 0.0
    if m and first > 0 and all(r == first for r in rates):
        # Uniform rates admit exactly one run length; find it with the same
        # multiplication comparisons the general scan uses.
        if first * m < requirement:
            return out
        length = 1
        while first * length < requirement:
            length += 1
        return [(start, length, first) for start in range(1, m - length + 2)]

    # A run's robust rate is at least the smallest positive rate, so a run
    # longer than ``longest`` has robust*(length-1) >= requirement.
    floor = min((r for r in rates if r > 0), default=None)
    if floor is None:
        return out
    longest = 1
    while longest < m and floor * longest < requirement:
        longest += 1

    for i in range(m):
        robust = rates[i]
        if robust <= 0:
            continue
        for j in range(i, min(m, i + longest)):
            r = rates[j]
            if r <= 0:
                break
            if r < robust:
                robust = r
            length = j - i + 1
            if robust * length >= requirement and robust * (length - 1) < requirement:
                out.append((i + 1, length, robust))
    return out


def enumerate_candidates(camera: CameraNode, grid: FrameGrid) -> list[CandidateAllocation]:
    """Every candidate allocation for ``camera`` in the frame, ordered by
    slot, then start, then length.

    Returns an empty list when no contiguous run in any slot can achieve the
    camera's rate requirement.
    """
    if len(camera.per_subchannel_rate) != grid.num_subchannels:
        raise ValueError("camera rate vector length must equal the number of subchannels")
    return [
        CandidateAllocation(camera.id, slot, start, length, robust)
        for slot in range(1, grid.num_slots + 1)
        for start, length, robust in candidate_runs(camera.rates_in_slot(slot), camera.rate_requirement)
    ]


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
    cams = {c.id: c for c in scenario.cameras}
    for alloc in schedule.assignments:
        if alloc.camera_id not in cams:
            raise ValueError(f"schedule references unknown camera {alloc.camera_id}")
    unknown_targets = schedule.covered_targets - scenario.target_ids
    if unknown_targets:
        raise ValueError(f"schedule references unknown targets {sorted(unknown_targets)}")

    grid = scenario.grid
    checks: list[ConstraintCheck] = []

    bad_allocs: list[tuple[int, str]] = []
    for alloc in schedule.assignments:
        cam = cams[alloc.camera_id]
        if alloc.slot > grid.num_slots or alloc.start + alloc.length - 1 > grid.num_subchannels:
            bad_allocs.append((alloc.camera_id, "run outside frame"))
            continue
        rates = cam.rates_in_slot(alloc.slot)
        run = rates[alloc.start - 1 : alloc.start - 1 + alloc.length]
        expect = min(run)
        if expect != alloc.robust_rate:
            bad_allocs.append((alloc.camera_id, "robust rate mismatch"))
            continue
        r = alloc.robust_rate
        if not (r * (alloc.length - 1) < cam.rate_requirement <= r * alloc.length):
            bad_allocs.append((alloc.camera_id, "run does not just achieve the requirement"))
    checks.append(ConstraintCheck("allocation_validity", not bad_allocs, tuple(bad_allocs)))

    covered: set[int] = set()
    for alloc in schedule.assignments:
        covered |= cams[alloc.camera_id].coverage_set
    uncovered = tuple(sorted(scenario.target_ids - covered))
    checks.append(ConstraintCheck("coverage", not uncovered, uncovered))

    slot_used: dict[int, int] = {}
    for alloc in schedule.assignments:
        slot_used[alloc.slot] = slot_used.get(alloc.slot, 0) + alloc.length
    over = tuple(
        (slot, used, grid.capacity(slot))
        for slot, used in sorted(slot_used.items())
        if slot <= grid.num_slots and used > grid.capacity(slot)
    )
    checks.append(ConstraintCheck("slot_capacity", not over, over))

    cell_owners: dict[tuple[int, int], list[int]] = {}
    for alloc in schedule.assignments:
        for cell in alloc.cells():
            cell_owners.setdefault(cell, []).append(alloc.camera_id)
    clashes = tuple(
        (cell[0], cell[1], tuple(sorted(owners)))
        for cell, owners in sorted(cell_owners.items())
        if len(owners) > 1
    )
    checks.append(ConstraintCheck("rb_exclusivity", not clashes, clashes))

    per_cam: dict[int, int] = {}
    for alloc in schedule.assignments:
        per_cam[alloc.camera_id] = per_cam.get(alloc.camera_id, 0) + 1
    dupes = tuple(sorted(k for k, n in per_cam.items() if n > 1))
    checks.append(ConstraintCheck("single_allocation", not dupes, dupes))

    mismatches: list[str] = []
    actual_total = sum(a.length for a in schedule.assignments)
    if actual_total != schedule.total_rbs:
        mismatches.append(f"total_rbs declared {schedule.total_rbs}, recomputed {actual_total}")
    actual_covered = frozenset(covered & scenario.target_ids)
    if actual_covered != schedule.covered_targets:
        mismatches.append("covered_targets does not match assigned cameras")
    checks.append(ConstraintCheck("declared_totals", not mismatches, tuple(mismatches)))

    return FeasibilityReport(tuple(checks))
