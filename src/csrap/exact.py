"""Exact minimization of allocated RBs by branch and bound.

The search branches on which camera covers the currently hardest uncovered
target, assigning concrete runs inside each branch so RB exclusivity and slot
capacities hold by construction.  Two covering bounds prune subtrees, and
the larger one counts; both ignore exclusivity, which can only lower cost,
so both are admissible:

* the share bound: every uncovered target pays the cheapest per-target share
  ``min_phi / hits`` of any remaining camera, summed in integers scaled by
  ``lcm(1..largest coverage)`` so each share is exact;
* the Lagrangian bound of the set-covering LP (Fisher, "The Lagrangian
  relaxation method for solving integer programming problems", 1981;
  Beasley, "A Lagrangian heuristic for set-covering problems", 1990):
  ``L(u) = sum of u_t over uncovered targets + sum over remaining cameras of
  min(0, min_phi - sum of u_t over the uncovered targets it covers)``.  Any
  prices ``u >= 0`` give a valid bound.  They are set once at the root by
  dual ascent in whole RBs, which leaves no camera's term negative at any
  node, so ``L`` is the sum of the uncovered targets' prices.

The share bound is rounded up to whole RBs because every cost is a whole
number of RBs.

The relaxed mode drops RB exclusivity and capacity coupling and solves the
residual weighted covering problem exactly; its optimum R never exceeds the
strict one, which makes it a useful reference point for the approximation
bounds.  Both modes lay R's minimum runs out by one search for an
overlap-free layout of at most ``min(node_budget, CERTIFICATE_NODES)``
steps, which are not nodes.  The relaxed mode returns that layout, or the
minimum runs overlapping, at the same cost R, when none is found.  The
strict mode runs the covering search first, with the same prices and the
same node counter, and uses R twice:

* as a floor: the strict search stops at the first schedule that costs R.
  It replaces its incumbent only on a strict improvement, so the schedule
  it returns is the one it would have returned without the floor;
* as a certificate: once the two searches have expanded
  ``min(node_budget, CERTIFICATE_NODES)`` nodes, it tries the layout once.
  A layout is a schedule of cost R, hence optimal, and is returned with a
  note in ``Diagnostics.notes``.  Otherwise the strict search goes on
  where it was, up to the full budget.  Where the strict search needs more
  nodes than that, the certified schedule can differ from the one it
  would have found, at the same cost.

Covering nodes count against ``node_budget`` and in ``nodes_expanded``.  A
root bound above the frame's capacity ends the covering search at its first
node, and a strict solve never starts.  The strict mode reports the larger
of the root bound and R as ``Diagnostics.root_bound`` and as
``SearchBudgetExceeded.lower_bound``; the relaxed mode reports the root
bound.

Slots with the same capacity and the same runs for every camera are
interchangeable.  The strict search skips a candidate in such a slot while a
lower twin slot holds exactly the same RBs: swapping the two slots maps that
subtree onto the twin's, searched first at equal cost (orbit pruning in the
sense of Margot, "Symmetry in Integer Linear Programming", 2010).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .model import CandidateAllocation, FrameGrid, Scenario, Schedule
from .solvers import (
    CandidateTable,
    Diagnostics,
    SolveStatus,
    SolverResult,
    _Occupancy,
)

__all__ = ["exact_solve", "SearchBudgetExceeded", "DEFAULT_NODE_BUDGET"]

DEFAULT_NODE_BUDGET = 10_000_000

# Nodes expanded, covering nodes included, before the strict mode tries the
# relaxed optimum's layout; also the most steps that layout may take.
CERTIFICATE_NODES = 20_000

MODES = ("with_exclusivity", "without_exclusivity")

# A chosen run as CandidateAllocation fields (camera, slot, start, length,
# robust rate); allocations are built for the result only.
_Run = tuple[int, int, int, int, float]


class SearchBudgetExceeded(RuntimeError):
    """The instance exceeded the configured node-expansion budget.

    ``nodes`` counts the expansions made, ``incumbent`` is the cost of the
    best schedule found (None before one exists) and ``lower_bound`` the
    search's lower bound in RBs (see ``Diagnostics.root_bound``).
    """

    def __init__(self, reason: str, nodes: int = 0, incumbent: int | None = None, lower_bound: int = 0):
        self.nodes = nodes
        self.incumbent = incumbent
        self.lower_bound = lower_bound
        found = "none" if incumbent is None else f"{incumbent} RBs"
        super().__init__(f"{reason} (nodes: {nodes}, incumbent: {found}, lower bound: {lower_bound} RBs)")


class _Certified(Exception):
    """Unwinds the strict search once the certificate holds."""

    def __init__(self, layout: list[_Run]):
        super().__init__()
        self.layout = layout


@dataclass
class _Search:
    coverage: dict[int, frozenset[int]]
    min_phi: dict[int, int]
    budget: int
    nodes: int = 0
    best_cost: int = 0  # cost of the incumbent, or the ceiling before one exists
    incumbent: int | None = None  # cost of the current pass's best leaf, reported on an overrun
    root_bound: int = 0  # the lower bound reported, set before the first node
    bound_prunes: int = 0
    symmetry_skips: int = 0
    incumbent_updates: int = 0
    # (node count, action): the action runs once, at the first node that reaches the count
    checkpoint: tuple[int, Callable[[], None]] | None = None
    scale: int = field(init=False)
    shares: dict[int, tuple[int, ...]] = field(init=False)  # camera -> scaled share by hit count
    prices: dict[int, int] = field(init=False)  # target -> Lagrangian price in RBs

    def __post_init__(self) -> None:
        # A camera covering k uncovered targets charges each min_phi/k RBs;
        # scaled by lcm(1..largest coverage) that share is an exact integer.
        self.scale = math.lcm(*range(1, max(map(len, self.coverage.values()), default=1) + 1))
        self.shares = {
            cam_id: (0,) + tuple(self.min_phi[cam_id] * self.scale // k for k in range(1, len(cov) + 1))
            for cam_id, cov in self.coverage.items()
        }
        self.prices = {target: 0 for cov in self.coverage.values() for target in cov}

    def ascend_prices(self, targets: frozenset[int], available: tuple[int, ...]) -> None:
        """Dual ascent: visit the targets hardest first (fewest covering
        cameras, then id) and raise each price to the smallest slack
        ``min_phi - sum of prices`` left among the cameras covering it.

        Slacks start at whole RBs and lose whole prices, so every price is a
        whole number of RBs.  No slack goes negative, and a node only drops
        targets and cameras, so no camera's reduced cost is negative at any
        node below ``targets`` and ``available``: there the Lagrangian bound
        is the sum of the uncovered targets' prices.
        """
        prices = dict.fromkeys(self.prices, 0)
        slack: dict[int, int] = {}
        covering: dict[int, list[int]] = {target: [] for target in targets}
        for cam_id in available:
            slack[cam_id] = self.min_phi[cam_id]
            for target in self.coverage[cam_id] & targets:
                covering[target].append(cam_id)
        for _, target in sorted((len(cams), target) for target, cams in covering.items()):
            cams = covering[target]
            price = prices[target] = min(map(slack.__getitem__, cams))
            for cam_id in cams:
                slack[cam_id] -= price
        self.prices = prices

    def overrun(self) -> SearchBudgetExceeded:
        return SearchBudgetExceeded(
            f"exceeded {self.budget} node expansions; raise the budget or shrink the instance",
            self.nodes,
            self.incumbent,
            self.root_bound,
        )

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise self.overrun()
        if self.checkpoint is not None and self.nodes >= self.checkpoint[0]:
            _, action = self.checkpoint
            self.checkpoint = None
            action()

    def bound(self, uncovered: frozenset[int], available: tuple[int, ...]) -> int | None:
        """Admissible lower bound in whole RBs: the larger of the share bound
        and the Lagrangian bound at the ascent prices of :meth:`ascend_prices`;
        None if some target is uncoverable."""
        best: dict[int, int] = {}
        for cam_id in available:
            hit = self.coverage[cam_id] & uncovered
            if hit:
                share = self.shares[cam_id][len(hit)]
                for target in hit:
                    if share < best.get(target, share + 1):
                        best[target] = share
        if len(best) < len(uncovered):
            return None
        return max(-(-sum(best.values()) // self.scale), sum(map(self.prices.__getitem__, uncovered)))

    def branch_order(self, uncovered: frozenset[int], available: tuple[int, ...]) -> list[int]:
        """Cameras covering the hardest uncovered target, cheapest first."""
        target = min(
            uncovered,
            key=lambda t: (sum(1 for c in available if t in self.coverage[c]), t),
        )
        return sorted(
            (c for c in available if target in self.coverage[c]),
            key=lambda c: (self.min_phi[c], c),
        )

    def diagnostics(self, notes: tuple[str, ...] = ()) -> Diagnostics:
        return Diagnostics(
            notes=notes,
            nodes_expanded=self.nodes,
            bound_prunes=self.bound_prunes,
            symmetry_skips=self.symmetry_skips,
            incumbent_updates=self.incumbent_updates,
            root_bound=self.root_bound,
        )


def exact_solve(
    scenario: Scenario,
    mode: str = "with_exclusivity",
    node_budget: int = DEFAULT_NODE_BUDGET,
    table: CandidateTable | None = None,
) -> SolverResult:
    """Provably minimum-RB schedule, or an infeasibility verdict.

    ``mode`` selects the full problem (``with_exclusivity``) or the
    relaxation that lets cameras share RBs (``without_exclusivity``).
    Relaxed results carry ``relaxed=True``: their feasibility refers to
    coverage and the one-allocation-per-camera rule only, and the returned
    schedule may overlap RBs when no overlap-free layout of minimum runs
    exists.  ``table`` reuses a candidate table built for ``scenario``.

    Raises :class:`SearchBudgetExceeded` rather than returning a wrong or
    partial answer when the search outgrows ``node_budget``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    relaxed = mode == "without_exclusivity"
    if table is None:
        table = CandidateTable(scenario.cameras, scenario.grid)
    grid = scenario.grid
    target_ids = scenario.target_ids

    coverage: dict[int, frozenset[int]] = {}
    min_phi: dict[int, int] = {}
    for cam in scenario.cameras:
        phi = table.min_phi(cam.id)
        covered = cam.coverage_set & target_ids
        if phi is None or not covered:
            continue  # cameras that cover nothing or can never transmit are useless
        coverage[cam.id] = covered
        min_phi[cam.id] = phi

    reachable: set[int] = set()
    for covered in coverage.values():
        reachable |= covered
    if not target_ids <= reachable:
        missing = sorted(target_ids - reachable)
        return SolverResult(
            Schedule.empty(),
            SolveStatus.INFEASIBLE_COVERAGE,
            Diagnostics(notes=(f"targets with no usable camera: {missing}",)),
            relaxed=relaxed,
        )

    search = _Search(coverage, min_phi, node_budget)
    available = tuple(sorted(coverage))
    search.ascend_prices(target_ids, available)
    root_bound = search.bound(target_ids, available)
    assert root_bound is not None  # coverage reachability was checked above
    search.root_bound = root_bound

    # The covering search: each camera is chosen once at its minimum run
    # length, and RBs may overlap.
    def once(cam_id: int, state: None, cost: int) -> tuple[tuple[int, int, None]]:
        return ((cam_id, cost + min_phi[cam_id], state),)

    # Any cover costs less than the relaxed ceiling.  Any schedule fits
    # within the per-slot capacities, so the strict ceiling is safe too; a
    # cover above it leaves no strict schedule either.
    ceiling = sum(min_phi.values() if relaxed else grid.slot_capacity) + 1
    try:
        cover = _branch_and_bound(search, target_ids, available, once, None, ceiling)
    except SearchBudgetExceeded:
        if not relaxed:
            search.incumbent = None  # a cover may share RBs, so it is no schedule
        raise search.overrun() from None
    steps = min(node_budget, CERTIFICATE_NODES)
    if relaxed:
        assert cover is not None  # the ceiling exceeds every cover's cost
        layout = _overlap_free_layout(cover, min_phi, table, grid, steps)
        if layout is None:
            # None found within the steps; RB sharing is allowed here, at the same cost.
            assignments = [table.min_allocation(cam_id) for cam_id in sorted(cover)]
        else:
            assignments = [CandidateAllocation(*run) for run in layout]
        schedule = Schedule.build(assignments, scenario.cameras, target_ids)
        return SolverResult(schedule, SolveStatus.FEASIBLE, search.diagnostics(), relaxed=True)

    runs: list[_Run] | None = None
    notes: tuple[str, ...] = ()
    if cover is not None:
        floor = sum(min_phi[cam_id] for cam_id in cover)
        search.root_bound = max(search.root_bound, floor)

        def certify() -> None:
            layout = _overlap_free_layout(cover, min_phi, table, grid, steps)
            if layout is not None:
                raise _Certified(layout)

        search.checkpoint = (steps, certify)
        twins = _slot_twins(grid, table, available)

        def placements(cam_id: int, occupancy: _Occupancy, cost: int) -> Iterator[tuple[_Run, int, _Occupancy]]:
            # A slot holding the same RBs as a lower twin offers only mirror
            # images of the twin's subtrees, which come first at equal cost.
            load, used = occupancy.load, occupancy.used
            mirrored = {
                slot
                for slot, lower in twins.items()
                if any(used[t] == used[slot] and load[t] == load[slot] for t in lower)
            }
            for slot, start, length, robust in table.runs_by_cost(cam_id):
                if cost + length >= search.best_cost:
                    break  # candidates arrive in non-decreasing length
                if occupancy.fits(slot, start, length):
                    if slot in mirrored:
                        search.symmetry_skips += 1
                        continue
                    forked = occupancy.fork()
                    forked.place(slot, start, length)
                    yield (cam_id, slot, start, length, robust), cost + length, forked

        try:
            runs = _branch_and_bound(search, target_ids, available, placements, _Occupancy(grid), ceiling, floor)
        except _Certified as proof:
            runs = proof.layout
            notes = (f"optimal by certificate: the relaxed optimum's runs ({floor} RBs) fit without overlap",)
    if runs is None:
        return SolverResult(
            Schedule.empty(),
            SolveStatus.INFEASIBLE_CAPACITY,
            search.diagnostics(("no conflict-free assignment exists",)),
        )
    assignments = [CandidateAllocation(*run) for run in runs]
    schedule = Schedule.build(assignments, scenario.cameras, target_ids)
    return SolverResult(schedule, SolveStatus.FEASIBLE, search.diagnostics(notes))


def _slot_twins(grid: FrameGrid, table: CandidateTable, cameras: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Each slot's lower slots that are interchangeable with it.

    Two slots are interchangeable when they have the same capacity and every
    searchable camera has the same runs in both: swapping them maps any
    schedule onto one of equal cost.  Slots without a lower twin are left out.
    """
    groups: list[list[int]] = []
    for slot in range(1, grid.num_slots + 1):
        for group in groups:
            first = group[0]
            if grid.capacity(first) == grid.capacity(slot) and all(
                table.runs(c, first) == table.runs(c, slot) for c in cameras
            ):
                group.append(slot)
                break
        else:
            groups.append([slot])
    return {slot: tuple(group[:i]) for group in groups for i, slot in enumerate(group) if i}


def _branch_and_bound(
    search: _Search,
    targets: frozenset[int],
    available: tuple[int, ...],
    options: Callable[[int, Any, int], Iterable[tuple[Any, int, Any]]],
    root: Any,
    ceiling: int,
    floor: int = 0,
) -> list | None:
    """Depth-first search for the cheapest covering choice list below ``ceiling``.

    Each node branches on the cameras covering the hardest uncovered target.
    ``options(cam_id, state, cost)`` yields that camera's choices as
    ``(choice, cost after it, child state)`` and may stop early against
    ``search.best_cost``.  A camera already tried at a node is left out of
    its later siblings' subtrees.  The search stops at the first leaf that
    costs ``floor`` or less, a proven lower bound on every leaf.
    """
    search.best_cost = ceiling
    search.incumbent = None
    best: list | None = None

    def dfs(uncovered: frozenset[int], avail: tuple[int, ...], state: Any, cost: int, chosen: list) -> None:
        nonlocal best
        search.tick()
        if not uncovered:
            if cost < search.best_cost:
                search.best_cost = search.incumbent = cost
                search.incumbent_updates += 1
                best = list(chosen)
            return
        bound = search.bound(uncovered, avail)
        if bound is None or cost + bound >= search.best_cost:
            search.bound_prunes += 1
            return
        tried: list[int] = []
        for cam_id in search.branch_order(uncovered, avail):
            remaining = tuple(c for c in avail if c != cam_id and c not in tried)
            left = uncovered - search.coverage[cam_id]
            for choice, child_cost, child in options(cam_id, state, cost):
                chosen.append(choice)
                dfs(left, remaining, child, child_cost, chosen)
                chosen.pop()
                if search.best_cost <= floor:
                    return
            tried.append(cam_id)

    dfs(targets, available, root, 0, [])
    return best


def _overlap_free_layout(
    chosen: list[int], min_phi: dict[int, int], table: CandidateTable, grid: FrameGrid, steps: int
) -> list[_Run] | None:
    """An overlap-free placement of each selected camera's minimum-length
    run, or None when none is found within ``steps`` layout steps (not nodes)."""
    # Runs that together exceed the frame's capacity cannot be laid out.
    if sum(min_phi[cam_id] for cam_id in chosen) > sum(grid.slot_capacity):
        return None
    order = sorted(chosen)
    layout: list[_Run] = []

    def backtrack(i: int, occupancy: _Occupancy) -> bool:
        nonlocal steps
        steps -= 1
        if i == len(order):
            return True
        cam_id = order[i]
        phi = min_phi[cam_id]
        for slot, start, length, robust in table.runs_by_cost(cam_id):
            if length > phi or not steps:
                break
            if occupancy.fits(slot, start, length):
                forked = occupancy.fork()
                forked.place(slot, start, length)
                layout.append((cam_id, slot, start, length, robust))
                if backtrack(i + 1, forked):
                    return True
                layout.pop()
        return False

    return layout if backtrack(0, _Occupancy(grid)) else None
