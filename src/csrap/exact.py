"""Exact minimization of allocated RBs by branch and bound.

The search branches on which camera covers the currently hardest uncovered
target, assigning concrete runs inside each branch so RB exclusivity and slot
capacities hold by construction.  A fractional covering bound (cheapest RBs
per still-uncovered target) prunes subtrees; dropping exclusivity can only
lower cost, so the bound is admissible.

The relaxed mode drops RB exclusivity and capacity coupling and solves the
residual weighted covering problem exactly; its optimum never exceeds the
strict one, which makes it a useful reference point for the approximation
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .model import CandidateAllocation, Scenario, Schedule
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


class SearchBudgetExceeded(RuntimeError):
    """The instance exceeded the configured node-expansion budget."""


@dataclass
class _Search:
    coverage: dict[int, frozenset[int]]
    min_phi: dict[int, int]
    budget: int
    nodes: int = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(
                f"exceeded {self.budget} node expansions; raise the budget or shrink the instance"
            )

    def bound(self, uncovered: frozenset[int], available: tuple[int, ...]) -> Fraction | None:
        """Admissible lower bound: every target pays at least the cheapest
        per-target share any remaining camera offers; None if uncoverable."""
        total = Fraction(0)
        for target in uncovered:
            best: Fraction | None = None
            for cam_id in available:
                cov = self.coverage[cam_id]
                if target in cov:
                    share = Fraction(self.min_phi[cam_id], len(cov & uncovered))
                    if best is None or share < best:
                        best = share
            if best is None:
                return None
            total += best
        return total

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


def exact_solve(
    scenario: Scenario,
    mode: str = "with_exclusivity",
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolverResult:
    """Provably minimum-RB schedule, or an infeasibility verdict.

    ``mode`` selects the full problem (``with_exclusivity``) or the
    relaxation that lets cameras share RBs (``without_exclusivity``).
    Relaxed results carry ``relaxed=True``: their feasibility refers to
    coverage and the one-allocation-per-camera rule only, and the returned
    schedule may overlap RBs when no overlap-free layout of minimum runs
    exists.

    Raises :class:`SearchBudgetExceeded` rather than returning a wrong or
    partial answer when the search outgrows ``node_budget``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    relaxed = mode == "without_exclusivity"
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

    worst_branch = max((table.candidate_count(cid) for cid in coverage), default=0)
    if len(coverage) * worst_branch > node_budget:
        raise SearchBudgetExceeded(
            f"{len(coverage)} cameras x {worst_branch} candidates exceeds the budget {node_budget}"
        )

    search = _Search(coverage, min_phi, node_budget)
    available = tuple(sorted(coverage))
    if relaxed:
        cost, chosen = _solve_cover(search, target_ids, available)
        assert chosen is not None  # coverage reachability was checked above
        assignments = _realize_relaxed(chosen, min_phi, table, scenario)
        schedule = Schedule.build(assignments, scenario.cameras, target_ids)
        return SolverResult(
            schedule, SolveStatus.FEASIBLE, Diagnostics(nodes_expanded=search.nodes), relaxed=True
        )

    cost, assignments = _solve_strict(search, scenario, table, target_ids, available)
    if assignments is None:
        return SolverResult(
            Schedule.empty(),
            SolveStatus.INFEASIBLE_CAPACITY,
            Diagnostics(nodes_expanded=search.nodes, notes=("no conflict-free assignment exists",)),
        )
    schedule = Schedule.build(assignments, scenario.cameras, target_ids)
    return SolverResult(schedule, SolveStatus.FEASIBLE, Diagnostics(nodes_expanded=search.nodes))


def _solve_cover(
    search: _Search, targets: frozenset[int], available: tuple[int, ...]
) -> tuple[int, list[int] | None]:
    """Exact minimum of summed minimum run lengths over covering camera sets."""
    best_cost = sum(search.min_phi[c] for c in available) + 1
    best_set: list[int] | None = None

    def dfs(uncovered: frozenset[int], avail: tuple[int, ...], cost: int, chosen: list[int]) -> None:
        nonlocal best_cost, best_set
        search.tick()
        if not uncovered:
            if cost < best_cost:
                best_cost = cost
                best_set = list(chosen)
            return
        bound = search.bound(uncovered, avail)
        if bound is None or cost + bound >= best_cost:
            return
        tried: list[int] = []
        for cam_id in search.branch_order(uncovered, avail):
            remaining = tuple(c for c in avail if c != cam_id and c not in tried)
            chosen.append(cam_id)
            dfs(uncovered - search.coverage[cam_id], remaining, cost + search.min_phi[cam_id], chosen)
            chosen.pop()
            tried.append(cam_id)

    dfs(targets, available, 0, [])
    return best_cost, best_set


def _solve_strict(
    search: _Search,
    scenario: Scenario,
    table: CandidateTable,
    targets: frozenset[int],
    available: tuple[int, ...],
) -> tuple[int, list[CandidateAllocation] | None]:
    """Exact minimum with RB exclusivity and slot capacities enforced."""
    # Any schedule fits within the per-slot capacities, so this ceiling is safe.
    best_cost = sum(scenario.grid.slot_capacity) + 1
    best_assign: list[CandidateAllocation] | None = None

    def placements(cam_id: int, occupancy: _Occupancy) -> Iterator[CandidateAllocation]:
        for cand in table.iter_by_cost(cam_id):
            if occupancy.admits(cand):
                yield cand

    def dfs(
        uncovered: frozenset[int],
        avail: tuple[int, ...],
        occupancy: _Occupancy,
        cost: int,
        chosen: list[CandidateAllocation],
    ) -> None:
        nonlocal best_cost, best_assign
        search.tick()
        if not uncovered:
            if cost < best_cost:
                best_cost = cost
                best_assign = list(chosen)
            return
        bound = search.bound(uncovered, avail)
        if bound is None or cost + bound >= best_cost:
            return
        tried: list[int] = []
        for cam_id in search.branch_order(uncovered, avail):
            remaining = tuple(c for c in avail if c != cam_id and c not in tried)
            left = uncovered - search.coverage[cam_id]
            for cand in placements(cam_id, occupancy):
                if cost + cand.length >= best_cost:
                    break  # candidates arrive in non-decreasing length
                forked = occupancy.fork()
                forked.add(cand)
                chosen.append(cand)
                dfs(left, remaining, forked, cost + cand.length, chosen)
                chosen.pop()
            tried.append(cam_id)

    dfs(targets, available, _Occupancy(scenario.grid), 0, [])
    return best_cost, best_assign


def _realize_relaxed(
    chosen: list[int],
    min_phi: dict[int, int],
    table: CandidateTable,
    scenario: Scenario,
) -> list[CandidateAllocation]:
    """Place each selected camera's minimum-length run, preferring an
    overlap-free layout when one exists among minimum-length candidates."""
    order = sorted(chosen)
    result: list[CandidateAllocation] = []

    def backtrack(i: int, occupancy: _Occupancy) -> bool:
        if i == len(order):
            return True
        cam_id = order[i]
        for cand in table.iter_by_cost(cam_id):
            if cand.length > min_phi[cam_id]:
                break
            if not occupancy.admits(cand):
                continue
            forked = occupancy.fork()
            forked.add(cand)
            result.append(cand)
            if backtrack(i + 1, forked):
                return True
            result.pop()
        return False

    if backtrack(0, _Occupancy(scenario.grid)):
        return result
    # No overlap-free layout of minimum runs; RB sharing is allowed here.
    fallback = []
    for cam_id in order:
        alloc = table.min_allocation(cam_id)
        assert alloc is not None
        fallback.append(alloc)
    return fallback
