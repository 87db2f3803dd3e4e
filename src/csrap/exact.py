"""Exact minimization of allocated RBs by branch and bound.

The search branches on which camera covers the currently hardest uncovered
target, assigning concrete runs inside each branch so RB exclusivity and slot
capacities hold by construction.  A fractional covering bound (cheapest RBs
per still-uncovered target) prunes subtrees; dropping exclusivity can only
lower cost, so the bound is admissible.  The shares are summed in integers
scaled by ``lcm(1..largest coverage)``, so each is exact, and the sum is
rounded up to whole RBs because every cost is a whole number of RBs.

Slots with the same capacity and the same runs for every camera are
interchangeable.  The strict search skips a candidate in such a slot while a
lower twin slot holds exactly the same RBs: swapping the two slots maps that
subtree onto the twin's, searched first at equal cost (orbit pruning in the
sense of Margot, "Symmetry in Integer Linear Programming", 2010).

The relaxed mode drops RB exclusivity and capacity coupling and solves the
residual weighted covering problem exactly; its optimum never exceeds the
strict one, which makes it a useful reference point for the approximation
bounds.
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

MODES = ("with_exclusivity", "without_exclusivity")

# A chosen run as CandidateAllocation fields (camera, slot, start, length,
# robust rate); allocations are built for the result only.
_Run = tuple[int, int, int, int, float]


class SearchBudgetExceeded(RuntimeError):
    """The instance exceeded the configured node-expansion budget.

    ``nodes`` counts the expansions made, ``incumbent`` is the cost of the
    best schedule found (None before one exists) and ``lower_bound`` the root
    bound in RBs.
    """

    def __init__(self, reason: str, nodes: int = 0, incumbent: int | None = None, lower_bound: int = 0):
        self.nodes = nodes
        self.incumbent = incumbent
        self.lower_bound = lower_bound
        found = "none" if incumbent is None else f"{incumbent} RBs"
        super().__init__(f"{reason} (nodes: {nodes}, incumbent: {found}, lower bound: {lower_bound} RBs)")


@dataclass
class _Search:
    coverage: dict[int, frozenset[int]]
    min_phi: dict[int, int]
    budget: int
    nodes: int = 0
    best_cost: int = 0  # cost of the incumbent, or the ceiling before one exists
    root_bound: int = 0  # the root's bound, set before the first node
    bound_prunes: int = 0
    symmetry_skips: int = 0
    incumbent_updates: int = 0
    scale: int = field(init=False)
    shares: dict[int, tuple[int, ...]] = field(init=False)  # camera -> scaled share by hit count

    def __post_init__(self) -> None:
        # A camera covering k uncovered targets charges each min_phi/k RBs;
        # scaled by lcm(1..largest coverage) that share is an exact integer.
        self.scale = math.lcm(*range(1, max(map(len, self.coverage.values()), default=1) + 1))
        self.shares = {
            cam_id: (0,) + tuple(self.min_phi[cam_id] * self.scale // k for k in range(1, len(cov) + 1))
            for cam_id, cov in self.coverage.items()
        }

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(
                f"exceeded {self.budget} node expansions; raise the budget or shrink the instance",
                self.nodes,
                self.best_cost if self.incumbent_updates else None,
                self.root_bound,
            )

    def bound(self, uncovered: frozenset[int], available: tuple[int, ...]) -> int | None:
        """Admissible lower bound in whole RBs: every target pays at least
        the cheapest per-target share any remaining camera offers; None if
        some target is uncoverable."""
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
        return -(-sum(best.values()) // self.scale)

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
    if relaxed:
        # Each camera is chosen once at its minimum run length; RBs may overlap.
        def once(cam_id: int, state: None, cost: int) -> tuple[tuple[int, int, None]]:
            return ((cam_id, cost + min_phi[cam_id], state),)

        ceiling = sum(min_phi[c] for c in available) + 1
        chosen = _branch_and_bound(search, target_ids, available, once, None, ceiling)
        assert chosen is not None  # coverage reachability was checked above
        assignments = _realize_relaxed(search, chosen, table, scenario.grid)
        schedule = Schedule.build(assignments, scenario.cameras, target_ids)
        return SolverResult(schedule, SolveStatus.FEASIBLE, search.diagnostics(), relaxed=True)

    twins = _slot_twins(scenario.grid, table, available)

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

    # Any schedule fits within the per-slot capacities, so this ceiling is safe.
    ceiling = sum(scenario.grid.slot_capacity) + 1
    root = _Occupancy(scenario.grid)
    runs = _branch_and_bound(search, target_ids, available, placements, root, ceiling)
    if runs is None:
        return SolverResult(
            Schedule.empty(),
            SolveStatus.INFEASIBLE_CAPACITY,
            search.diagnostics(("no conflict-free assignment exists",)),
        )
    assignments = [CandidateAllocation(*run) for run in runs]
    schedule = Schedule.build(assignments, scenario.cameras, target_ids)
    return SolverResult(schedule, SolveStatus.FEASIBLE, search.diagnostics())


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
) -> list | None:
    """Depth-first search for the cheapest covering choice list below ``ceiling``.

    Each node branches on the cameras covering the hardest uncovered target.
    ``options(cam_id, state, cost)`` yields that camera's choices as
    ``(choice, cost after it, child state)`` and may stop early against
    ``search.best_cost``.  A camera already tried at a node is left out of
    its later siblings' subtrees.
    """
    search.best_cost = ceiling
    root_bound = search.bound(targets, available)
    assert root_bound is not None  # callers check that every target is reachable
    search.root_bound = root_bound
    best: list | None = None

    def dfs(uncovered: frozenset[int], avail: tuple[int, ...], state: Any, cost: int, chosen: list) -> None:
        nonlocal best
        search.tick()
        if not uncovered:
            if cost < search.best_cost:
                search.best_cost = cost
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
            tried.append(cam_id)

    dfs(targets, available, root, 0, [])
    return best


def _realize_relaxed(
    search: _Search,
    chosen: list[int],
    table: CandidateTable,
    grid: FrameGrid,
) -> list[CandidateAllocation]:
    """Place each selected camera's minimum-length run, preferring an
    overlap-free layout when one exists among minimum-length candidates.

    Every layout step is a node of ``search`` and counts against its budget.
    """
    order = sorted(chosen)
    layout: list[_Run] = []

    def backtrack(i: int, occupancy: _Occupancy) -> bool:
        search.tick()
        if i == len(order):
            return True
        cam_id = order[i]
        phi = search.min_phi[cam_id]
        for slot, start, length, robust in table.runs_by_cost(cam_id):
            if length > phi:
                break
            if occupancy.fits(slot, start, length):
                forked = occupancy.fork()
                forked.place(slot, start, length)
                layout.append((cam_id, slot, start, length, robust))
                if backtrack(i + 1, forked):
                    return True
                layout.pop()
        return False

    if backtrack(0, _Occupancy(grid)):
        return [CandidateAllocation(*run) for run in layout]
    # No overlap-free layout of minimum runs; RB sharing is allowed here.
    return [table.min_allocation(cam_id) for cam_id in order]
