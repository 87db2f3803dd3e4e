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
from bisect import bisect_left
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
    _integer,
    run_lengths,
    runs_of_length,
)

__all__ = [
    "SolveStatus",
    "SolverResult",
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
    average_cost: Fraction


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
class GreedyPhase:
    """Tentative assignment set from greedy scheduling; RBs may be shared."""

    assignments: tuple[CandidateAllocation, ...]
    uncovered: frozenset[int]
    status: SolveStatus
    trace: tuple[GreedyStep, ...]

    @property
    def total_rbs(self) -> int:
        return sum(a.length for a in self.assignments)


@dataclass(frozen=True)
class TrafficItem:
    """A schedulable uplink demand: a camera plus a priority weight.

    A surveillance item wraps a camera of the scenario; a traditional item
    wraps a camera that covers nothing.  ``alpha`` is the operator-chosen
    priority weight; larger values schedule the item earlier.
    """

    camera: CameraNode
    kind: str  # "surveillance" | "traditional"
    alpha: float

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if self.kind not in ("surveillance", "traditional"):
            raise ValueError("kind must be 'surveillance' or 'traditional'")
        if self.kind == "traditional" and self.camera.coverage_set:
            raise ValueError("a traditional item's camera must cover no target")

    @property
    def id(self) -> int:
        return self.camera.id

    @classmethod
    def surveillance(cls, camera: CameraNode, alpha: float = 1.0) -> "TrafficItem":
        return cls(camera, "surveillance", alpha)

    @classmethod
    def traditional(
        cls, item_id: int, rate_requirement: float, rates: Sequence[float], alpha: float = 1.0
    ) -> "TrafficItem":
        """Plain traffic: a camera at the origin that covers nothing."""
        camera = CameraNode(item_id, (0.0, 0.0), Omnidirectional(1.0), float(rate_requirement), rates)
        return cls(camera, "traditional", alpha)


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


class _CameraRuns(dict):
    """One camera's runs, built one run length and one rate vector at a time:
    ``self[length, v]`` is :func:`~csrap.model.runs_of_length` of ``length``
    over ``vectors[v]``, built on the first lookup.

    ``vectors`` are the camera's distinct slot rate vectors in the order of
    their first slot, and ``slot_vector`` holds the index of each slot's
    vector, slot 1 first.  ``lengths`` maps the run lengths the camera's
    rates admit (:func:`~csrap.model.run_lengths`), ascending from
    ``phi``, the shortest with a run (None if none has one), to the rates
    that admit them.
    """

    __slots__ = ("vectors", "slot_vector", "lengths", "phi")

    def __init__(self, cam: CameraNode, one_vector: tuple[int, ...]):
        rates = cam.per_subchannel_rate
        if not cam.slot_rate_overrides:
            self.vectors = (rates,)
            self.slot_vector = one_vector
        else:
            order: dict[tuple[float, ...], int] = {}
            self.slot_vector = tuple(order.setdefault(cam.rates_in_slot(slot), len(order)) for slot in range(1, len(one_vector) + 1))
            self.vectors = tuple(order)
            rates = tuple(set().union(*order))
        # Every slot shares the camera's requirement, so the lengths come
        # once from the union of its rates; a length may have no run in
        # some vector, or in any.
        lengths = self.lengths = run_lengths(rates, cam.rate_requirement, len(cam.per_subchannel_rate))
        self.phi = None
        for length in tuple(lengths):
            for v in range(len(self.vectors)):
                if self[length, v][0]:
                    self.phi = length
                    return
            del lengths[length]

    def __missing__(self, key: tuple[int, int]) -> tuple[Sequence[int], list[float]]:
        length, v = key
        runs = self[key] = runs_of_length(self.vectors[v], length, *self.lengths[length])
        return runs


class CandidateTable:
    """Every camera's candidate runs, indexed by slot and by run length,
    built lazily per camera and per run length.

    A camera's first read groups its slots by equal rate vectors and takes
    its run lengths from its rates (:func:`~csrap.model.run_lengths`).  The
    runs of one length over one vector (:func:`~csrap.model.runs_of_length`)
    are built the first time a walk reaches them, once for every slot with
    that vector.  So a camera no method is asked about is never scanned, and
    a walk that stops at a camera's shortest (free) run never builds its
    longer ones.  :meth:`runs_by_cost` walks the candidates in cost order
    with no per-slot copy of the runs.
    """

    def __init__(self, cameras: Iterable[CameraNode], grid: FrameGrid):
        self.grid = grid
        self._cameras = {cam.id: cam for cam in cameras}
        self._runs: dict[int, _CameraRuns] = {}
        # The slot -> vector map of every camera without slot overrides.
        self._one_vector = (0,) * grid.num_slots

    def _camera_runs(self, camera_id: int) -> _CameraRuns:
        """The runs of ``camera_id``, set up on the first call; an unknown
        id raises ``KeyError``."""
        runs = self._runs.get(camera_id)
        if runs is None:
            runs = self._runs[camera_id] = _CameraRuns(self._cameras[camera_id], self._one_vector)
        return runs

    def min_phi(self, camera_id: int) -> int | None:
        """The shortest run length with a run, or None; setting up a camera
        builds no longer length."""
        return self._camera_runs(camera_id).phi

    def best_rate(self, camera_id: int) -> float:
        """The highest robust rate of any run, 0.0 without runs.

        A longer run length is admitted only by lower rates, so the best
        rate is read from the runs of :meth:`min_phi` alone.
        """
        cam = self._camera_runs(camera_id)
        phi = cam.phi
        if phi is None:
            return 0.0
        lowest, highest = cam.lengths[phi]
        if lowest == highest:
            # Every run of that length has the one rate that admits it.
            return highest
        return max(max(cam[phi, v][1], default=0.0) for v in range(len(cam.vectors)))

    def robust_rates(self, camera_id: int) -> list[float]:
        """Robust rates of the runs of each distinct slot rate vector, once
        each: a vector's runs by length, then start.  Builds every length."""
        cam = self._camera_runs(camera_id)
        return [robust for v in range(len(cam.vectors)) for length in cam.lengths for robust in cam[length, v][1]]

    def candidate_count(self, camera_id: int) -> int:
        """The number of runs over all slots.  Builds every length."""
        cam = self._camera_runs(camera_id)
        return sum(len(cam[length, v][0]) for length in cam.lengths for v in cam.slot_vector)

    def runs_by_cost(self, camera_id: int) -> Iterator[tuple[int, int, int, float]]:
        """``(slot, start, length, robust_rate)`` ordered by length, then
        slot, then start, without building an allocation per candidate."""
        cam = self._camera_runs(camera_id)
        for length in cam.lengths:
            for slot, v in enumerate(cam.slot_vector, 1):
                starts, robust = cam[length, v]
                for start, rate in zip(starts, robust):
                    yield slot, start, length, rate

    def min_allocation(self, camera_id: int) -> CandidateAllocation | None:
        run = next(self.runs_by_cost(camera_id), None)
        return None if run is None else CandidateAllocation(camera_id, *run)

    def free_runs(self, camera_id: int, occupancy: _Occupancy) -> Iterator[tuple[int, int, int, float]]:
        """The runs of :meth:`runs_by_cost` that ``occupancy`` admits, in
        that order; the ones it rejects are not tested one by one.

        A slot without room for ``length`` more RBs is skipped whole, before
        its runs of that length are built.  When a run clashes with used
        subchannels, every later run of its length that starts at or before
        the highest clashing subchannel covers that subchannel too, so the
        walk jumps past them.  A caller may place a yielded run while it
        holds the walk, as long as it unplaces the run before asking for the
        next.
        """
        cam = self._camera_runs(camera_id)
        capacity, load, used = occupancy.capacity, occupancy.load, occupancy.used
        for length in cam.lengths:
            mask = (1 << length) - 1
            for slot, v in enumerate(cam.slot_vector, 1):
                if load[slot] + length > capacity[slot]:
                    continue
                starts, robust = cam[length, v]
                busy = used[slot]
                i = 0
                while i < len(starts):
                    start = starts[i]
                    clash = busy & (mask << (start - 1))
                    if not clash:
                        yield slot, start, length, robust[i]
                        i += 1
                    else:
                        i = bisect_left(starts, clash.bit_length() + 1, i + 1)

    def first_fit(self, camera_id: int, occupancy: _Occupancy) -> CandidateAllocation | None:
        """The first run of :meth:`free_runs`, or None."""
        run = next(self.free_runs(camera_id, occupancy), None)
        return None if run is None else CandidateAllocation(camera_id, *run)


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

    def fits(self, slot: int, start: int, length: int) -> bool:
        """Whether a run of ``length`` RBs from ``start`` is free and within capacity."""
        if self.load[slot] + length > self.capacity[slot]:
            return False
        return not self.used[slot] & (((1 << length) - 1) << (start - 1))

    def place(self, slot: int, start: int, length: int) -> None:
        self.used[slot] |= ((1 << length) - 1) << (start - 1)
        self.load[slot] += length

    def unplace(self, slot: int, start: int, length: int) -> None:
        """Undoes :meth:`place` of the same run."""
        self.used[slot] &= ~(((1 << length) - 1) << (start - 1))
        self.load[slot] -= length


# A laid-out run as CandidateAllocation fields (camera, slot, start, length,
# robust rate); allocations are built for the result only.
_Run = tuple[int, int, int, int, float]


def _overlap_free_layout(
    cameras: list[int],
    table: CandidateTable,
    ceiling: int,
    step: Callable[[], bool],
) -> tuple[list[_Run], int] | None:
    """The cheapest overlap-free layout of one run per camera that costs
    less than ``ceiling``, with its cost, or None.

    Cameras are placed in the order given, each camera's runs in
    :meth:`CandidateTable.free_runs` order on one occupancy, and each
    placement is undone once its subtree is searched.  A partial layout is
    pruned once its cost plus the minimum runs of the unplaced cameras
    reaches the ceiling.  ``step()`` is called once per placement call; when
    it returns False the search stops with what it has found.
    """
    rest = [0] * (len(cameras) + 1)  # rest[i]: minimum runs of cameras[i:]
    for i in reversed(range(len(cameras))):
        rest[i] = rest[i + 1] + table.min_phi(cameras[i])
    occupancy = _Occupancy(table.grid)
    layout: list[_Run] = []
    best: tuple[list[_Run], int] | None = None

    def place(i: int, cost: int) -> bool:
        """Lays out ``cameras[i:]``; False once the steps run out."""
        nonlocal best, ceiling
        if not step():
            return False
        if i == len(cameras):
            best, ceiling = (list(layout), cost), cost
            return True
        cam_id = cameras[i]
        for slot, start, length, robust in table.free_runs(cam_id, occupancy):
            if cost + length + rest[i + 1] >= ceiling:
                break  # runs arrive in non-decreasing length
            occupancy.place(slot, start, length)
            layout.append((cam_id, slot, start, length, robust))
            going = place(i + 1, cost + length)
            layout.pop()
            occupancy.unplace(slot, start, length)
            if not going:
                return False
        return True

    place(0, 0)
    return best


# ---------------------------------------------------------------------------
# Greedy phase and relocation
# ---------------------------------------------------------------------------


def _cover_greedy(
    pool: Iterable[tuple[int, frozenset, int | Fraction]],
    universe: Iterable,
    table: CandidateTable,
) -> GreedyPhase:
    """Weighted set-cover greedy over ``(id, covers, price)`` entries: take
    the entry with the least price per newly covered element of ``universe``
    (ties to the lowest id) at its minimum-cost candidate, until the universe
    is covered or no entry covers anything still uncovered."""
    pool = sorted(pool, key=lambda entry: entry[0])
    uncovered = set(universe)
    chosen: list[CandidateAllocation] = []
    trace: list[GreedyStep] = []
    status = SolveStatus.FEASIBLE
    while uncovered:
        # Cost price/gain, compared as price*best_gain < best_price*gain so
        # that an integer price needs no Fraction; the first entry wins ties.
        best_idx = -1
        best_price, best_gain = 0, 0
        dead = False
        for idx, (_, covers, price) in enumerate(pool):
            gain = len(covers & uncovered)
            if gain == 0:
                dead = True
                continue
            if best_idx < 0 or price * best_gain < best_price * gain:
                best_idx, best_price, best_gain = idx, price, gain
        if best_idx < 0:
            status = SolveStatus.INFEASIBLE_COVERAGE
            break
        best_id, covers, _ = pool.pop(best_idx)
        alloc = table.min_allocation(best_id)
        assert alloc is not None
        chosen.append(alloc)
        trace.append(GreedyStep(best_id, alloc, Fraction(best_price, best_gain)))
        uncovered -= covers
        if dead:
            # An entry that covers nothing still uncovered never wins again.
            pool = [entry for entry in pool if not entry[1].isdisjoint(uncovered)]
    return GreedyPhase(tuple(chosen), frozenset(uncovered), status, tuple(trace))


def mramc_greedy(scenario: Scenario, table: CandidateTable | None = None) -> GreedyPhase:
    """Coverage-greedy selection, ignoring RB exclusivity.

    Repeatedly picks the camera and candidate minimizing RBs paid per newly
    covered target (the run length divided by the number of still-uncovered
    targets the camera sees) until everything is covered.  Several cameras
    may tentatively claim the same RBs; relocation resolves that afterwards.
    """
    if table is None:
        table = scenario.table
    # Cameras that cover no target or have no candidate never win, so they
    # stay out of the pool, and the table never builds the first kind.
    pool = [
        (cam_id, covered, phi)
        for cam_id, covered in scenario.coverage.items()
        if (phi := table.min_phi(cam_id)) is not None
    ]
    return _cover_greedy(pool, scenario.target_ids, table)


def mramc_relocate(
    tentative: Sequence[CandidateAllocation],
    scenario: Scenario,
    table: CandidateTable | None = None,
    greedy_trace: tuple[GreedyStep, ...] = (),
) -> SolverResult:
    """Turn a covering tentative assignment into a conflict-free schedule.

    Sorts the runs once by length, ties by camera id.  Each step takes the
    first unadjusted run in that order that no longer fits beside the fixed
    runs and moves it to its smallest candidate on still-free RBs; when every
    run fits, the first is fixed unchanged.  The fixed runs only grow, so a
    run that stops fitting never fits again.  A camera left without any
    conflict-free candidate ends the pass; it is reported as
    ``failed_camera`` with the allocations fixed so far.
    """
    if table is None:
        table = scenario.table
    occupancy = _Occupancy(scenario.grid)
    fits = occupancy.fits
    runs = sorted({a.camera_id: a for a in tentative}.values(), key=lambda a: (a.length, a.camera_id))
    fixed: list[CandidateAllocation] = []
    trace: list[RelocationStep] = []
    failed: int | None = None
    while runs:
        # The first run that no longer fits beside the fixed ones moves; when
        # all fit, the first is kept.  Before anything is fixed only the first
        # run is tested, so the first run kept is the smallest, if it fits.
        i = next((i for i, a in enumerate(runs if fixed else runs[:1]) if not fits(a.slot, a.start, a.length)), None)
        if i is None:
            alloc, moved = runs.pop(0), False
        else:
            cam_id = runs.pop(i).camera_id
            alloc, moved = table.first_fit(cam_id, occupancy), True
            if alloc is None:
                failed = cam_id
                break
        fixed.append(alloc)
        occupancy.place(alloc.slot, alloc.start, alloc.length)
        trace.append(RelocationStep(alloc.camera_id, alloc, moved))

    schedule = Schedule.build(fixed, scenario.cameras, scenario.target_ids)
    diag = Diagnostics(greedy=greedy_trace, relocation=tuple(trace))
    if failed is None:
        return SolverResult(schedule, SolveStatus.FEASIBLE, diag)
    note = f"camera {failed} has no candidate disjoint from fixed allocations"
    diag = replace(diag, notes=(note,), failed_camera=failed)
    return SolverResult(schedule, SolveStatus.INFEASIBLE_RELOCATION, diag)


def _unrelocated(phase: GreedyPhase, scenario: Scenario, status: SolveStatus, note: str) -> SolverResult:
    """The result of a greedy phase that stops before relocation."""
    schedule = Schedule.build(phase.assignments, scenario.cameras, scenario.target_ids)
    return SolverResult(schedule, status, Diagnostics(greedy=phase.trace, notes=(note,)))


def mramc(scenario: Scenario, table: CandidateTable | None = None) -> SolverResult:
    """Greedy coverage selection followed by RB relocation.

    Given no table it returns ``scenario.mramc``, the one result kept per
    scenario; given a table it computes the result afresh over that table.
    """
    if table is None:
        return scenario.mramc
    phase = mramc_greedy(scenario, table)
    if phase.status is not SolveStatus.FEASIBLE:
        return _unrelocated(phase, scenario, phase.status, f"uncovered targets: {sorted(phase.uncovered)}")
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
    rate, until its requirement is met.  It holds the cursor until its run is
    placed: a run cut off by a zero-rate subchannel or the end of the slot is
    retried just past the zero or at the next slot's start, and the skipped
    spectrum is not revisited.  A camera cut off in the last slot is dropped.
    """
    grid = scenario.grid
    coverage = scenario.coverage
    uncovered = set(scenario.target_ids)
    assignments: list[CandidateAllocation] = []
    trace: list[GreedyStep] = []
    slot, pos = 1, 1
    cam: CameraNode | None = None  # the camera at the cursor, until its run is placed or it is dropped
    status = SolveStatus.FEASIBLE
    # The eligible cameras, in scenario order: those covering an uncovered
    # target, less the scheduled and the excluded ones.  It only shrinks, so
    # it is filtered when a camera is scheduled or excluded, not per step.
    pool = [cam for cam in scenario.cameras if cam.id in coverage]

    while uncovered:
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
        # Extend from pos until the requirement is met at j, a zero rate
        # blocks j, or j passes the end of the slot.
        rates = cam.rates_in_slot(slot)
        robust = math.inf
        j = pos
        while j <= width and rates[j - 1] > 0:
            robust = min(robust, rates[j - 1])
            if robust * (j - pos + 1) >= cam.rate_requirement:
                break
            j += 1
        if j > width:
            if slot == grid.num_slots:
                pool = [other for other in pool if other is not cam]
                cam = None
            else:
                slot += 1
                pos = 1
        elif rates[j - 1] <= 0:
            pos = j + 1  # the camera retries just past the zero rate
        else:
            alloc = CandidateAllocation(cam.id, slot, pos, j - pos + 1, robust)
            assignments.append(alloc)
            trace.append(GreedyStep(cam.id, alloc, Fraction(alloc.length)))
            uncovered -= coverage[cam.id]
            pool = [other for other in pool if not coverage[other.id].isdisjoint(uncovered)]
            pos = j + 1
            cam = None

    schedule = Schedule.build(assignments, scenario.cameras, scenario.target_ids)
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
    a caller can hand every solver the same table.
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
        table = scenario.table
    # The scan asks for a rate at every position, so read each camera's once;
    # it asks only about cameras that cover a target.
    best = {cam_id: table.best_rate(cam_id) for cam_id in scenario.coverage}
    return _scan_schedule(scenario, lambda cam, slot, pos: best[cam.id])


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

    Extra rounds never move earlier assignments: each round ``r`` up to the
    largest multiplicity, even after one that adds no camera, gives each
    target still below ``r`` cameras (and wanting at least ``r``) the
    cheapest unscheduled covering camera whose candidate fits the free RBs.
    After round ``r`` each target has ``min(r, desired)`` cameras, or nothing
    fits it any more, so the rounds stop at the largest number of cameras
    covering a target.  Targets wanting more cameras than exist are
    reported, not errors.  The rounds extend ``mramc(scenario, table)``,
    which given no table is the scenario's kept result.
    """
    target_ids = scenario.target_ids
    desired = dict.fromkeys(sorted(target_ids), 1)
    for t, want in multiplicity.items():
        if t not in target_ids:
            raise ValueError(f"multiplicity references unknown target {t}")
        want = _integer(want, f"multiplicity of target {t}")
        if want < 1:
            raise ValueError(f"multiplicity of target {t} must be >= 1, not {want}")
        desired[t] = want

    base = mramc(scenario, table)
    if base.status is not SolveStatus.FEASIBLE:
        return base
    if table is None:
        table = scenario.table

    coverage = scenario.coverage
    occupancy = _Occupancy(scenario.grid)
    fixed: dict[int, CandidateAllocation] = {}
    count = {t: 0 for t in desired}
    for alloc in base.schedule.assignments:
        occupancy.place(alloc.slot, alloc.start, alloc.length)
        fixed[alloc.camera_id] = alloc
        for t in coverage[alloc.camera_id]:
            count[t] += 1

    covering: dict[int, list[int]] = {t: [] for t in desired}
    for cam_id, covered in coverage.items():
        for t in covered:
            covering[t].append(cam_id)
    notes: list[str] = []
    for t in sorted(desired):
        if desired[t] > len(covering[t]):
            notes.append(f"target {t} wants {desired[t]} cameras but only {len(covering[t])} cover it")

    extra_trace: list[RelocationStep] = []
    rounds = min(max(desired.values(), default=1), max(map(len, covering.values()), default=1))
    for rnd in range(2, rounds + 1):
        for t in sorted(desired):
            if desired[t] < rnd or count[t] >= rnd:
                continue
            fits = [
                (fit.length, cam_id, fit)
                for cam_id in covering[t]
                if cam_id not in fixed and (fit := table.first_fit(cam_id, occupancy)) is not None
            ]
            if not fits:
                continue
            _, cam_id, alloc = min(fits)
            fixed[cam_id] = alloc
            occupancy.place(alloc.slot, alloc.start, alloc.length)
            extra_trace.append(RelocationStep(cam_id, alloc, True))
            for covered in coverage[cam_id]:
                count[covered] += 1

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


def traffic_scenario(
    traffic: Sequence[TrafficItem],
    grid: FrameGrid,
    target_ids: Iterable[int] | None = None,
) -> Scenario:
    """Synthesize a scenario over a traffic mix, for solving and verification.

    Each item contributes its camera; a traditional item's covers nothing.
    When ``target_ids`` is omitted the universe is the union of the
    surveillance coverage sets.
    """
    cams = tuple(item.camera for item in traffic)
    if target_ids is None:
        target_ids = frozenset().union(*(cam.coverage_set for cam in cams))
    targets = tuple(TargetObject(t, (0.0, 0.0)) for t in sorted(target_ids))
    return Scenario(grid=grid, cameras=cams, targets=targets)


def joint_schedule(
    traffic: Sequence[TrafficItem],
    grid: FrameGrid,
    target_ids: Iterable[int] | None = None,
) -> SolverResult:
    """Schedule surveillance and traditional traffic in one priority order.

    Each round selects the item with the smallest weighted cost, compared
    exactly with ties to the lowest id: run length over ``alpha`` times newly
    covered targets for surveillance items, run length over ``alpha`` for
    traditional ones.  ``alpha`` counts as the decimal it prints as
    (``Fraction(str(alpha))``), so costs equal in decimal are ties; its
    binary value would break them, e.g. 1/(0.6*3) against 1/(0.9*2).  The
    loop ends when coverage is complete and every traditional item is
    scheduled or unschedulable; relocation then resolves RB sharing exactly
    as in the pure surveillance case.
    """
    scn = traffic_scenario(traffic, grid, target_ids)
    table = scn.table
    # A traditional item covers a token of its own, so the greedy prices it
    # at min_phi/alpha until it is scheduled.  Surveillance items that cover
    # no target never win, so they stay out of the pool.
    tokens = {item.id: frozenset({("item", item.id)}) for item in traffic if item.kind == "traditional"}
    covers = {**scn.coverage, **tokens}
    pool = [
        (item.id, covers[item.id], Fraction(phi) / Fraction(str(item.alpha)))
        for item in traffic
        if item.id in covers and (phi := table.min_phi(item.id)) is not None
    ]
    phase = _cover_greedy(pool, scn.target_ids.union(*tokens.values()), table)

    uncovered = sorted(phase.uncovered & scn.target_ids)
    if uncovered:
        return _unrelocated(phase, scn, SolveStatus.INFEASIBLE_COVERAGE, f"uncovered targets: {uncovered}")
    stranded = sorted(item_id for _, item_id in phase.uncovered)
    if stranded:
        note = f"traditional items with no achievable allocation: {stranded}"
        return _unrelocated(phase, scn, SolveStatus.INFEASIBLE_CAPACITY, note)

    result = mramc_relocate(phase.assignments, scn, table, phase.trace)
    failed = result.diagnostics.failed_camera
    if failed is None:
        return result
    note = f"item {failed} has no candidate disjoint from fixed allocations"
    return replace(
        result,
        status=SolveStatus.INFEASIBLE_CAPACITY if failed in tokens else result.status,
        diagnostics=replace(result.diagnostics, notes=(note,)),
    )


# ---------------------------------------------------------------------------
# Bound parameters
# ---------------------------------------------------------------------------


def harmonic(n: int) -> Fraction:
    """Exact n-th harmonic number."""
    if n < 1:
        raise ValueError("harmonic is defined for n >= 1")
    total = Fraction(0)
    for i in range(1, n + 1):
        total += Fraction(1, i)
    return total


def bound_params(scenario: Scenario) -> BoundParams:
    """Instance quantities for the approximation guarantee.

    ``d_star`` is the largest coverage set, and ``r_max``/``r_min`` the best
    and worst robust rates over every candidate allocation in the instance.
    """
    if not scenario.cameras:
        raise ValueError("scenario has no cameras")
    d_star = max(map(len, scenario.coverage.values()), default=0)
    if d_star == 0:
        raise ValueError("no camera covers any target")
    rates = [r for cam in scenario.cameras for r in scenario.table.robust_rates(cam.id)]
    if not rates:
        raise ValueError("no candidate allocations in the instance")
    return BoundParams(d_star=d_star, h_d_star=harmonic(d_star), r_max=max(rates), r_min=min(rates))
