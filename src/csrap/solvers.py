"""Scheduling algorithms: cover every target with as few RBs as possible.

All solvers minimize the total number of allocated resource blocks subject to
full target coverage, at most one allocation per camera, per-slot capacity
limits and (except where explicitly relaxed) RB exclusivity.

Determinism contract: every tie is broken by the lowest camera id, then the
earliest slot, then the lowest start subchannel, so identical inputs produce
identical results including diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import (
    CameraNode,
    CandidateAllocation,
    FrameGrid,
    Omnidirectional,
    Scenario,
    Schedule,
    TargetObject,
    candidate_runs,
)

__all__ = [
    "SolveStatus",
    "SolverResult",
    "CoverageState",
    "GreedyStep",
    "RelocationStep",
    "Diagnostics",
    "GreedyPhase",
    "TrafficItem",
    "BoundParams",
    "CandidateTable",
    "baseline_schedule",
    "greedy_based_reference",
    "mramc_greedy",
    "mramc_relocate",
    "mramc",
    "m_mramc",
    "joint_schedule",
    "traffic_scenario",
    "harmonic",
    "bound_params",
    "greedy_weighted_set_cover",
]


class SolveStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE_COVERAGE = "infeasible_coverage"
    INFEASIBLE_RELOCATION = "infeasible_relocation"
    INFEASIBLE_CAPACITY = "infeasible_capacity"


@dataclass(frozen=True)
class GreedyStep:
    """One selection during a greedy phase."""

    camera_id: int
    allocation: CandidateAllocation
    average_cost: Fraction | float


@dataclass(frozen=True)
class RelocationStep:
    camera_id: int
    allocation: CandidateAllocation
    moved: bool


@dataclass(frozen=True)
class Diagnostics:
    greedy: tuple[GreedyStep, ...] = ()
    relocation: tuple[RelocationStep, ...] = ()
    notes: tuple[str, ...] = ()
    unmet_multiplicity: tuple[tuple[int, int, int], ...] = ()  # (target, achieved, desired)
    failed_camera: int | None = None
    nodes_expanded: int = 0
    bound_prunes: int = 0  # exact search nodes cut by the lower bound
    symmetry_skips: int = 0  # exact search candidates skipped for an equivalent lower slot
    incumbent_updates: int = 0  # strict improvements of the exact search's best schedule
    root_bound: int | None = None  # exact search's lower bound at the root, in RBs


@dataclass(frozen=True)
class SolverResult:
    """Outcome of one solver run.

    ``schedule`` is complete only when ``status`` is feasible; otherwise it
    holds whatever partial assignment the solver reached.  ``relaxed`` marks
    results of the exclusivity-relaxed exact mode, whose schedules may share
    RBs between cameras.
    """

    schedule: Schedule
    status: SolveStatus
    diagnostics: Diagnostics = Diagnostics()
    relaxed: bool = False


@dataclass(frozen=True)
class CoverageState:
    """Snapshot of which targets remain uncovered and by how many cameras
    each is covered."""

    uncovered: frozenset[int]
    coverage_count: Mapping[int, int]


@dataclass(frozen=True)
class GreedyPhase:
    """Tentative assignment set from greedy scheduling; RBs may be shared."""

    assignments: tuple[CandidateAllocation, ...]
    coverage: CoverageState
    status: SolveStatus
    trace: tuple[GreedyStep, ...]

    @property
    def total_rbs(self) -> int:
        return sum(a.length for a in self.assignments)


@dataclass(frozen=True)
class TrafficItem:
    """A schedulable uplink demand: a surveillance camera or plain traffic.

    ``alpha`` is the operator-chosen priority weight; larger values schedule
    the item earlier.
    """

    id: int
    kind: str  # "surveillance" | "traditional"
    alpha: float
    camera: CameraNode | None = None
    rate_requirement: float | None = None
    per_subchannel_rate: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.kind not in ("surveillance", "traditional"):
            raise ValueError("kind must be 'surveillance' or 'traditional'")
        if self.kind == "surveillance" and self.camera is None:
            raise ValueError("surveillance traffic wraps a CameraNode")
        if self.kind == "traditional" and (self.rate_requirement is None or self.per_subchannel_rate is None):
            raise ValueError("traditional traffic needs rate_requirement and per_subchannel_rate")

    @classmethod
    def surveillance(cls, camera: CameraNode, alpha: float = 1.0) -> "TrafficItem":
        return cls(id=camera.id, kind="surveillance", alpha=alpha, camera=camera)

    @classmethod
    def traditional(
        cls, item_id: int, rate_requirement: float, rates: Sequence[float], alpha: float = 1.0
    ) -> "TrafficItem":
        return cls(
            id=item_id,
            kind="traditional",
            alpha=alpha,
            rate_requirement=float(rate_requirement),
            per_subchannel_rate=tuple(float(r) for r in rates),
        )


@dataclass(frozen=True)
class BoundParams:
    """Quantities entering the approximation-ratio guarantee."""

    d_star: int
    h_d_star: Fraction
    r_max: float
    r_min: float

    def ratio(self) -> float:
        """Worst-case multiplicative gap versus the optimum."""
        return (self.r_max / self.r_min) * float(self.h_d_star)

    def bound(self, optimum: float) -> float:
        return self.ratio() * optimum


class CandidateTable:
    """Every camera's candidate runs, indexed by slot and by run length.

    Slots with the same rate vector share one run list, computed once: a
    camera without ``slot_rate_overrides`` scans its rates once for the whole
    frame, and overridden slots are grouped by equal vectors.  Each distinct
    list is grouped by run length once, so :meth:`runs_by_cost` walks the
    candidates in cost order with no per-slot copy of the runs.
    """

    def __init__(self, cameras: Iterable[CameraNode], grid: FrameGrid):
        self.grid = grid
        num_slots = grid.num_slots
        # Per camera id: one (runs, length -> [(start, robust_rate)]) entry
        # per slot, the distinct entries in first-slot order, the sorted run
        # lengths and the best robust rate.
        self._slots: dict[int, list[tuple[list, dict]]] = {}
        self._distinct: dict[int, list[tuple[list, dict]]] = {}
        self._lengths: dict[int, list[int]] = {}
        self._best: dict[int, float | None] = {}
        for cam in cameras:
            requirement = cam.rate_requirement
            if not cam.slot_rate_overrides:
                entry = self._index(cam.per_subchannel_rate, requirement)
                distinct = [entry]
                slots = [entry] * num_slots
            else:
                cache: dict[tuple[float, ...], tuple[list, dict]] = {}
                slots = []
                for slot in range(1, num_slots + 1):
                    rates = cam.rates_in_slot(slot)
                    entry = cache.get(rates)
                    if entry is None:
                        entry = cache[rates] = self._index(rates, requirement)
                    slots.append(entry)
                distinct = list(cache.values())
            self._slots[cam.id] = slots
            self._distinct[cam.id] = distinct
            self._lengths[cam.id] = sorted({length for _, by_len in distinct for length in by_len})
            self._best[cam.id] = max((run[2] for runs, _ in distinct for run in runs), default=None)

    @staticmethod
    def _index(rates: Sequence[float], requirement: float) -> tuple[list, dict]:
        """The runs over one rate vector, and the same runs grouped by length."""
        runs = candidate_runs(rates, requirement)
        by_len: dict[int, list[tuple[int, float]]] = {}
        for start, length, robust in runs:
            by_len.setdefault(length, []).append((start, robust))
        return runs, by_len

    def runs(self, camera_id: int, slot: int) -> list[tuple[int, int, float]]:
        """(start, length, robust_rate) runs in a 1-based slot, by start then length."""
        slots = self._slots[camera_id]
        if not 1 <= slot <= len(slots):
            raise KeyError(slot)
        return slots[slot - 1][0]

    def min_phi(self, camera_id: int) -> int | None:
        lengths = self._lengths[camera_id]
        return lengths[0] if lengths else None

    def best_robust(self, camera_id: int) -> float | None:
        return self._best[camera_id]

    def candidate_count(self, camera_id: int) -> int:
        return sum(len(runs) for runs, _ in self._slots[camera_id])

    def runs_by_cost(self, camera_id: int) -> Iterator[tuple[int, int, int, float]]:
        """``(slot, start, length, robust_rate)`` ordered by length, then
        slot, then start, without building an allocation per candidate."""
        slots = self._slots[camera_id]
        for length in self._lengths[camera_id]:
            for slot, (_, by_len) in enumerate(slots, 1):
                for start, robust in by_len.get(length, ()):
                    yield slot, start, length, robust

    def iter_by_cost(self, camera_id: int) -> Iterator[CandidateAllocation]:
        """Candidates in :meth:`runs_by_cost` order."""
        for run in self.runs_by_cost(camera_id):
            yield CandidateAllocation(camera_id, *run)

    def min_allocation(self, camera_id: int) -> CandidateAllocation | None:
        return next(self.iter_by_cost(camera_id), None)

    def first_fit(self, camera_id: int, occupancy: _Occupancy) -> CandidateAllocation | None:
        """The first candidate in :meth:`runs_by_cost` order that ``occupancy``
        admits; no allocation is built for the ones it rejects."""
        for slot, start, length, robust in self.runs_by_cost(camera_id):
            if occupancy.fits(slot, start, length):
                return CandidateAllocation(camera_id, slot, start, length, robust)
        return None

    def all_robust_rates(self) -> list[float]:
        """Robust rates of the runs of each camera's distinct rate vectors, once each."""
        return [run[2] for distinct in self._distinct.values() for runs, _ in distinct for run in runs]


class _Occupancy:
    """Mutable RB usage while a schedule is being assembled.

    Per slot it keeps the allocated RB count and a bitmask of the used
    subchannels (bit ``m - 1`` for subchannel ``m``), so a test needs one
    comparison and one ``&``.  All three sequences are indexed by the 1-based
    slot; entry 0 is unused.
    """

    __slots__ = ("capacity", "load", "used")

    def __init__(self, grid: FrameGrid):
        self.capacity = (0,) + grid.slot_capacity
        self.load = [0] * (grid.num_slots + 1)
        self.used = [0] * (grid.num_slots + 1)

    def admits(self, alloc: CandidateAllocation) -> bool:
        return self.fits(alloc.slot, alloc.start, alloc.length)

    def add(self, alloc: CandidateAllocation) -> None:
        self.place(alloc.slot, alloc.start, alloc.length)

    def fits(self, slot: int, start: int, length: int) -> bool:
        """Whether a run of ``length`` RBs from ``start`` is free and within capacity."""
        if self.load[slot] + length > self.capacity[slot]:
            return False
        return not self.used[slot] & (((1 << length) - 1) << (start - 1))

    def place(self, slot: int, start: int, length: int) -> None:
        self.used[slot] |= ((1 << length) - 1) << (start - 1)
        self.load[slot] += length

    def fork(self) -> _Occupancy:
        """An independent copy."""
        copy = _Occupancy.__new__(_Occupancy)
        copy.capacity = self.capacity
        copy.load = self.load[:]
        copy.used = self.used[:]
        return copy


# ---------------------------------------------------------------------------
# Greedy phase and relocation
# ---------------------------------------------------------------------------


def mramc_greedy(scenario: Scenario, table: CandidateTable | None = None) -> GreedyPhase:
    """Coverage-greedy selection, ignoring RB exclusivity.

    Repeatedly picks the camera and candidate minimizing RBs paid per newly
    covered target (the run length divided by the number of still-uncovered
    targets the camera sees) until everything is covered.  Several cameras
    may tentatively claim the same RBs; relocation resolves that afterwards.
    """
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    target_ids = scenario.target_ids
    uncovered = set(target_ids)
    count = {t: 0 for t in sorted(target_ids)}
    # (camera, minimum run length) by id; cameras with no candidate never win.
    pool = [
        (cam, phi)
        for cam in sorted(scenario.cameras, key=lambda c: c.id)
        if (phi := table.min_phi(cam.id)) is not None
    ]
    chosen: list[CandidateAllocation] = []
    trace: list[GreedyStep] = []
    status = SolveStatus.FEASIBLE
    while uncovered:
        # Cost phi/gain, compared as phi*best_gain < best_phi*gain so that no
        # Fraction is built per candidate; the first camera wins ties.
        best_idx = -1
        best_phi, best_gain = 0, 0
        for idx, (cam, phi) in enumerate(pool):
            gain = len(cam.coverage_set & uncovered)
            if gain == 0:
                continue
            if best_idx < 0 or phi * best_gain < best_phi * gain:
                best_idx, best_phi, best_gain = idx, phi, gain
        if best_idx < 0:
            status = SolveStatus.INFEASIBLE_COVERAGE
            break
        best_cam = pool.pop(best_idx)[0]
        alloc = table.min_allocation(best_cam.id)
        assert alloc is not None
        chosen.append(alloc)
        trace.append(GreedyStep(best_cam.id, alloc, Fraction(best_phi, best_gain)))
        for t in best_cam.coverage_set & target_ids:
            count[t] += 1
        uncovered -= best_cam.coverage_set
    coverage = CoverageState(frozenset(uncovered), dict(count))
    return GreedyPhase(tuple(chosen), coverage, status, tuple(trace))


def mramc_relocate(
    tentative: Sequence[CandidateAllocation],
    scenario: Scenario,
    table: CandidateTable | None = None,
    greedy_trace: tuple[GreedyStep, ...] = (),
) -> SolverResult:
    """Turn a covering tentative assignment into a conflict-free schedule.

    Fixes the unadjusted camera with the smallest run (ties by camera id)
    unchanged, then reassigns every unadjusted camera that now overlaps a
    fixed allocation to its smallest candidate on still-free RBs.  A camera
    left without any conflict-free candidate ends the pass; it is reported
    as ``failed_camera`` with the allocations fixed so far.
    """
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    occupancy = _Occupancy(scenario.grid)
    unadjusted: dict[int, CandidateAllocation] = {a.camera_id: a for a in tentative}
    fixed: list[CandidateAllocation] = []
    trace: list[RelocationStep] = []

    def fix(camera_id: int, alloc: CandidateAllocation, moved: bool) -> None:
        fixed.append(alloc)
        occupancy.add(alloc)
        trace.append(RelocationStep(camera_id, alloc, moved))
        del unadjusted[camera_id]

    failed: int | None = None
    while unadjusted and failed is None:
        cam_id = min(unadjusted, key=lambda c: (unadjusted[c].length, c))
        alloc = unadjusted[cam_id]
        if occupancy.admits(alloc):
            fix(cam_id, alloc, moved=False)
        # Otherwise cam_id is the first conflicted camera and moves below.
        while failed is None:
            conflicted = [c for c in unadjusted if not occupancy.admits(unadjusted[c])]
            if not conflicted:
                break
            nxt = min(conflicted, key=lambda c: (unadjusted[c].length, c))
            moved = table.first_fit(nxt, occupancy)
            if moved is None:
                failed = nxt
            else:
                fix(nxt, moved, moved=True)

    schedule = Schedule.build(fixed, scenario.cameras, scenario.target_ids)
    diag = Diagnostics(greedy=greedy_trace, relocation=tuple(trace))
    if failed is None:
        return SolverResult(schedule, SolveStatus.FEASIBLE, diag)
    note = f"camera {failed} has no candidate disjoint from fixed allocations"
    diag = replace(diag, notes=(note,), failed_camera=failed)
    return SolverResult(schedule, SolveStatus.INFEASIBLE_RELOCATION, diag)


def mramc(scenario: Scenario, table: CandidateTable | None = None) -> SolverResult:
    """Greedy coverage selection followed by RB relocation."""
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    phase = mramc_greedy(scenario, table)
    if phase.status is not SolveStatus.FEASIBLE:
        schedule = Schedule.build(phase.assignments, scenario.cameras, scenario.target_ids)
        diag = Diagnostics(
            greedy=phase.trace,
            notes=(f"uncovered targets: {sorted(phase.coverage.uncovered)}",),
        )
        return SolverResult(schedule, phase.status, diag)
    return mramc_relocate(phase.assignments, scenario, table, phase.trace)


# ---------------------------------------------------------------------------
# Scan schedulers: the baseline and the channel-quality reference
# ---------------------------------------------------------------------------


def _scan_schedule(
    scenario: Scenario,
    rate: Callable[[CameraNode, int, int], float],
) -> SolverResult:
    """Left-to-right RB scan with contiguous extension.

    At the current (slot, subchannel) the eligible camera with the highest
    positive ``rate(camera, slot, subchannel)`` wins, the first one on ties;
    the camera then extends over adjacent RBs, downgrading to the most robust
    rate, until its requirement is met.  A run cut off by the end of the slot
    (or by a zero-rate subchannel) is released and retried at the next scan
    position; the skipped spectrum is not revisited.  Cameras that still fail
    in the last slot are dropped from consideration.
    """
    grid = scenario.grid
    target_ids = scenario.target_ids
    uncovered = set(target_ids)
    assignments: list[CandidateAllocation] = []
    scheduled: set[int] = set()
    excluded: set[int] = set()
    trace: list[GreedyStep] = []
    slot, pos = 1, 1
    pending: CameraNode | None = None
    status = SolveStatus.FEASIBLE

    def eligible() -> list[CameraNode]:
        return [
            cam
            for cam in scenario.cameras
            if cam.id not in scheduled and cam.id not in excluded and cam.coverage_set & uncovered
        ]

    while uncovered:
        pool = eligible()
        if pending is not None and (pending.id in scheduled or not pending.coverage_set & uncovered):
            pending = None
        if not pool:
            status = SolveStatus.INFEASIBLE_COVERAGE
            break
        if slot > grid.num_slots:
            status = SolveStatus.INFEASIBLE_CAPACITY
            break
        width = min(grid.num_subchannels, grid.capacity(slot))
        if pos > width:
            slot += 1
            pos = 1
            continue
        cam = pending
        pending = None
        if cam is None:
            best_rate = 0.0
            for candidate in pool:
                r = rate(candidate, slot, pos)
                if r > best_rate:
                    best_rate = r
                    cam = candidate
            if cam is None:
                pos += 1
                continue
        rates = cam.rates_in_slot(slot)
        robust = math.inf
        length = 0
        achieved = False
        j = pos
        while j <= width:
            r = rates[j - 1]
            if r <= 0:
                break
            robust = min(robust, r)
            length += 1
            if robust * length >= cam.rate_requirement:
                achieved = True
                break
            j += 1
        if achieved:
            alloc = CandidateAllocation(cam.id, slot, pos, length, robust)
            assignments.append(alloc)
            trace.append(GreedyStep(cam.id, alloc, float(length)))
            scheduled.add(cam.id)
            uncovered -= cam.coverage_set
            pos += length
        elif j <= width:
            # Blocked by a zero-rate subchannel: the camera retries just past it.
            pending = cam
            pos = j + 1
        else:
            if slot == grid.num_slots:
                excluded.add(cam.id)
            else:
                pending = cam
                slot += 1
                pos = 1

    schedule = Schedule.build(assignments, scenario.cameras, target_ids)
    diag = Diagnostics(greedy=tuple(trace))
    if status is not SolveStatus.FEASIBLE:
        diag = Diagnostics(greedy=tuple(trace), notes=(f"uncovered targets: {sorted(uncovered)}",))
    return SolverResult(schedule, status, diag)


def baseline_schedule(scenario: Scenario, table: CandidateTable | None = None) -> SolverResult:
    """Channel-quality scan scheduler.

    Walks the frame slot by slot and subchannel by subchannel; at each free
    RB it hands the run to the camera with the highest rate on that
    subchannel among cameras that still cover an uncovered target.  It
    needs no candidate table; ``table`` is accepted, and ignored, so that
    every solver takes the same arguments.
    """
    return _scan_schedule(scenario, lambda cam, slot, pos: cam.rates_in_slot(slot)[pos - 1])


def greedy_based_reference(scenario: Scenario, table: CandidateTable | None = None) -> SolverResult:
    """Channel-quality-only comparator.

    Repeatedly schedules, among cameras still covering an uncovered target,
    the one whose best candidate run has the highest robust rate, ignoring
    run lengths and coverage counts; runs are then laid down by the same
    left-to-right scan allocator the baseline uses.
    """
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    return _scan_schedule(scenario, lambda cam, slot, pos: table.best_robust(cam.id) or 0.0)


# ---------------------------------------------------------------------------
# Multi-coverage extension
# ---------------------------------------------------------------------------


def m_mramc(
    scenario: Scenario,
    multiplicity: Mapping[int, int],
    table: CandidateTable | None = None,
) -> SolverResult:
    """Cover every target, then add cameras until each target is watched by
    its desired number of cameras or no resources remain.

    Extra rounds never move earlier assignments: round ``r`` gives each
    target still below ``r`` cameras (and wanting at least ``r``) the
    cheapest unscheduled covering camera whose candidate fits the free RBs.
    Targets wanting more cameras than exist are reported, not errors.
    """
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    target_ids = scenario.target_ids
    for t, want in multiplicity.items():
        if t not in target_ids:
            raise ValueError(f"multiplicity references unknown target {t}")
        if want < 1:
            raise ValueError("multiplicities must be >= 1")
    desired = {t: int(multiplicity.get(t, 1)) for t in sorted(target_ids)}

    base = mramc(scenario, table)
    if base.status is not SolveStatus.FEASIBLE:
        return base

    occupancy = _Occupancy(scenario.grid)
    fixed: dict[int, CandidateAllocation] = {}
    for alloc in base.schedule.assignments:
        occupancy.add(alloc)
        fixed[alloc.camera_id] = alloc
    count = {t: 0 for t in desired}
    for cam_id in fixed:
        for t in scenario.camera(cam_id).coverage_set & target_ids:
            count[t] += 1

    covering: dict[int, list[CameraNode]] = {t: [] for t in desired}
    for cam in scenario.cameras:
        for t in cam.coverage_set & target_ids:
            covering[t].append(cam)
    notes: list[str] = []
    for t in sorted(desired):
        if desired[t] > len(covering[t]):
            notes.append(f"target {t} wants {desired[t]} cameras but only {len(covering[t])} cover it")

    extra_trace: list[RelocationStep] = []
    max_round = max(desired.values(), default=1)
    for rnd in range(2, max_round + 1):
        progress = False
        for t in sorted(desired):
            if desired[t] < rnd or count[t] >= rnd:
                continue
            best: tuple[int, int, CandidateAllocation] | None = None
            for cam in covering[t]:
                if cam.id in fixed:
                    continue
                cand = table.first_fit(cam.id, occupancy)
                if cand is not None and (best is None or (cand.length, cam.id) < best[:2]):
                    best = (cand.length, cam.id, cand)
            if best is None:
                continue
            _, cam_id, alloc = best
            fixed[cam_id] = alloc
            occupancy.add(alloc)
            extra_trace.append(RelocationStep(cam_id, alloc, True))
            for covered in scenario.camera(cam_id).coverage_set & target_ids:
                count[covered] += 1
            progress = True
        if not progress:
            break

    unmet = tuple((t, count[t], desired[t]) for t in sorted(desired) if count[t] < desired[t])
    schedule = Schedule.build(fixed.values(), scenario.cameras, target_ids)
    diag = Diagnostics(
        greedy=base.diagnostics.greedy,
        relocation=base.diagnostics.relocation + tuple(extra_trace),
        notes=tuple(notes),
        unmet_multiplicity=unmet,
    )
    return SolverResult(schedule, SolveStatus.FEASIBLE, diag)


# ---------------------------------------------------------------------------
# Joint surveillance/traditional scheduling
# ---------------------------------------------------------------------------


def _traffic_cameras(traffic: Sequence[TrafficItem]) -> list[CameraNode]:
    ids = [item.id for item in traffic]
    if len(set(ids)) != len(ids):
        raise ValueError("traffic item ids must be unique")
    cams = []
    for item in traffic:
        if item.kind == "surveillance":
            cams.append(item.camera)
        else:
            cams.append(
                CameraNode(
                    id=item.id,
                    position=(0.0, 0.0),
                    geometry=Omnidirectional(1.0),
                    rate_requirement=item.rate_requirement,
                    per_subchannel_rate=item.per_subchannel_rate,
                    coverage_set=frozenset(),
                )
            )
    return cams


def traffic_scenario(
    traffic: Sequence[TrafficItem],
    grid: FrameGrid,
    target_ids: Iterable[int] | None = None,
) -> Scenario:
    """Synthesize a scenario over a traffic mix, for solving and verification.

    Traditional items become cameras with empty coverage sets.  When
    ``target_ids`` is omitted the universe is the union of the surveillance
    coverage sets.
    """
    cams = _traffic_cameras(traffic)
    if target_ids is None:
        ids: set[int] = set()
        for item in traffic:
            if item.kind == "surveillance":
                ids |= item.camera.coverage_set
        target_ids = ids
    targets = tuple(TargetObject(t, (0.0, 0.0)) for t in sorted(target_ids))
    return Scenario(grid=grid, cameras=tuple(cams), targets=targets)


def joint_schedule(
    traffic: Sequence[TrafficItem],
    grid: FrameGrid,
    target_ids: Iterable[int] | None = None,
) -> SolverResult:
    """Schedule surveillance and traditional traffic in one priority order.

    Each round selects the item with the smallest weighted cost: run length
    over ``alpha`` times newly covered targets for surveillance items, run
    length over ``alpha`` for traditional ones.  The loop ends when coverage
    is complete and every traditional item is scheduled or unschedulable;
    relocation then resolves RB sharing exactly as in the pure surveillance
    case.
    """
    scn = traffic_scenario(traffic, grid, target_ids)
    table = CandidateTable(scn.cameras, grid)
    items = {item.id: item for item in traffic}
    uncovered = set(scn.target_ids)
    unscheduled = set(items)
    tentative: list[CandidateAllocation] = []
    trace: list[GreedyStep] = []

    while True:
        best_key: float | None = None
        best_id: int | None = None
        for item_id in sorted(unscheduled):
            item = items[item_id]
            phi = table.min_phi(item_id)
            if phi is None:
                continue
            if item.kind == "surveillance":
                if not uncovered:
                    continue
                gain = len(item.camera.coverage_set & uncovered)
                if gain == 0:
                    continue
                key = phi / (item.alpha * gain)
            else:
                key = phi / item.alpha
            if best_key is None or key < best_key:
                best_key = key
                best_id = item_id
        if best_id is None:
            break
        alloc = table.min_allocation(best_id)
        assert alloc is not None
        tentative.append(alloc)
        trace.append(GreedyStep(best_id, alloc, best_key))
        unscheduled.discard(best_id)
        if items[best_id].kind == "surveillance":
            uncovered -= items[best_id].camera.coverage_set

    if uncovered:
        schedule = Schedule.build(tentative, scn.cameras, scn.target_ids)
        diag = Diagnostics(greedy=tuple(trace), notes=(f"uncovered targets: {sorted(uncovered)}",))
        return SolverResult(schedule, SolveStatus.INFEASIBLE_COVERAGE, diag)
    stranded = sorted(i for i in unscheduled if items[i].kind == "traditional")
    if stranded:
        schedule = Schedule.build(tentative, scn.cameras, scn.target_ids)
        diag = Diagnostics(
            greedy=tuple(trace),
            notes=(f"traditional items with no achievable allocation: {stranded}",),
        )
        return SolverResult(schedule, SolveStatus.INFEASIBLE_CAPACITY, diag)

    result = mramc_relocate(tentative, scn, table, tuple(trace))
    failed = result.diagnostics.failed_camera
    if failed is None:
        return result
    note = f"item {failed} has no candidate disjoint from fixed allocations"
    return replace(
        result,
        status=SolveStatus.INFEASIBLE_CAPACITY if items[failed].kind == "traditional" else result.status,
        diagnostics=replace(result.diagnostics, notes=(note,)),
    )


# ---------------------------------------------------------------------------
# Bound parameters and the set-cover reference
# ---------------------------------------------------------------------------


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number."""
    if n < 1:
        raise ValueError("harmonic is defined for n >= 1")
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def bound_params(scenario: Scenario, table: CandidateTable | None = None) -> BoundParams:
    """Instance quantities for the approximation guarantee.

    ``d_star`` is the largest coverage set, and ``r_max``/``r_min`` the best
    and worst robust rates over every candidate allocation in the instance.
    """
    if not scenario.cameras:
        raise ValueError("scenario has no cameras")
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    d_star = max(len(cam.coverage_set & scenario.target_ids) for cam in scenario.cameras)
    if d_star == 0:
        raise ValueError("no camera covers any target")
    rates = [r for r in table.all_robust_rates() if r > 0]
    if not rates:
        raise ValueError("no candidate allocations in the instance")
    return BoundParams(d_star=d_star, h_d_star=harmonic(d_star), r_max=max(rates), r_min=min(rates))


def greedy_weighted_set_cover(
    universe: Iterable[int],
    sets: Mapping[int, Iterable[int]],
    weights: Mapping[int, int | float | Fraction],
) -> list[int]:
    """Classic weighted set cover greedy: repeatedly take the set with the
    smallest weight per newly covered element, ties to the lowest id.

    Returns the chosen set ids in selection order; raises if some element is
    in no set.
    """
    remaining = set(universe)
    families = {sid: frozenset(members) for sid, members in sets.items()}
    order: list[int] = []
    used: set[int] = set()
    while remaining:
        best_key: Fraction | None = None
        best_id: int | None = None
        for sid in sorted(families):
            if sid in used:
                continue
            gain = len(families[sid] & remaining)
            if gain == 0:
                continue
            key = Fraction(weights[sid]) / gain
            if best_key is None or key < best_key:
                best_key = key
                best_id = sid
        if best_id is None:
            raise ValueError(f"elements not coverable by any set: {sorted(remaining)}")
        order.append(best_id)
        used.add(best_id)
        remaining -= families[best_id]
    return order
