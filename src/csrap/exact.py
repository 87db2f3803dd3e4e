"""Exact minimization of allocated RBs by branch and bound.

One covering search serves both modes.  It branches on which camera covers
the currently hardest uncovered target, each camera at its minimum run
length, and settles every complete cover that costs less than the incumbent.
Two covering bounds prune subtrees, and the larger one counts; both ignore
exclusivity, which can only lower cost, so both are admissible:

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

The root (the usable cameras, their shares, the ascent prices, the root
bound and the branch order) is computed once per scenario by
:func:`exact_root`, kept as ``Scenario.exact_root``, and both modes read it.

Both modes start from the scenario's one MRAMC result, ``Scenario.mramc``,
and search only for something cheaper, as Beasley's heuristic keeps the
best known cover's cost as its upper bound.  The strict search's ceiling is
MRAMC's cost when MRAMC's schedule is feasible, else the frame's capacity
+ 1; when nothing cheaper settles, MRAMC's schedule is returned, which the
search has then proved optimal, with ``incumbent_updates == 0``.  The
relaxed search's ceiling is the cost of MRAMC's greedy cover, its cameras at
their minimum runs before relocation; when nothing cheaper settles, that
cover is the relaxed optimum.  A budget overrun reports the cheapest
schedule held, the search's incumbent or the warm start, as
``SearchBudgetExceeded.incumbent``.

The strict mode settles a cover by the cheapest overlap-free layout of its
cameras' runs below the incumbent: covers in the search and layouts in a
subproblem, as in logic-based Benders decomposition (Hooker and Ottosson,
"Logic-based Benders decomposition", 2003).  Every strict schedule holds a
cover the search reaches, and that cover's layout costs no more, so the
cheapest layout over all covers is optimal.  Each layout step is a node.

The relaxed mode drops RB exclusivity and capacity coupling: a cover settles
to itself, and its optimum R never exceeds the strict one, which makes it a
useful reference point for the approximation bounds.  It lays R's minimum
runs out by the same layout search, in at most ``min(node_budget,
LAYOUT_STEPS)`` steps, which are not nodes, and returns that layout, or the
minimum runs overlapping, at the same cost R, when none is found.

Nodes count against ``node_budget`` and in ``nodes_expanded``.  A root bound
at or above the ceiling, such as one above the frame's capacity, ends the
search at its first node.  Both modes report the root bound as
``Diagnostics.root_bound`` and as ``SearchBudgetExceeded.lower_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from typing import Callable

from .model import CandidateAllocation, Scenario, Schedule, _integer
from .solvers import Diagnostics, SolverResult, SolveStatus, _overlap_free_layout

__all__ = ["exact_solve", "SearchBudgetExceeded", "DEFAULT_NODE_BUDGET"]

DEFAULT_NODE_BUDGET = 10_000_000

# The most steps the relaxed mode's layout search may take.
LAYOUT_STEPS = 20_000

MODES = ("with_exclusivity", "without_exclusivity")


class SearchBudgetExceeded(RuntimeError):
    """The instance exceeded the configured node-expansion budget.

    ``nodes`` counts the expansions made, ``incumbent`` is the cost of the
    best schedule held, found by the search or its warm start (None when
    there is none), and ``lower_bound`` the
    search's lower bound in RBs (see ``Diagnostics.root_bound``).
    """

    def __init__(self, reason: str, nodes: int = 0, incumbent: int | None = None, lower_bound: int = 0):
        self.nodes = nodes
        self.incumbent = incumbent
        self.lower_bound = lower_bound
        found = "none" if incumbent is None else f"{incumbent} RBs"
        super().__init__(f"{reason} (nodes: {nodes}, incumbent: {found}, lower bound: {lower_bound} RBs)")


@dataclass(frozen=True)
class Root:
    """The root of a scenario's covering search (see :func:`exact_root`),
    shared and never changed by every solve of both modes: the usable
    cameras' ``coverage`` and ``min_phi``, their ``shares`` (``shares[c][k]``
    is camera c's ``min_phi / k`` times ``scale``), the ascent ``prices``,
    the root ``bound`` and the ``available`` cameras in (min_phi, id) order,
    which every branch keeps.  When some target has no usable camera, ``missing``
    lists those targets and the other fields are empty.
    """

    coverage: dict[int, frozenset[int]] = field(default_factory=dict)
    min_phi: dict[int, int] = field(default_factory=dict)
    scale: int = 1
    shares: dict[int, tuple[int, ...]] = field(default_factory=dict)
    prices: dict[int, int] = field(default_factory=dict)
    bound: int = 0
    available: tuple[int, ...] = ()
    missing: tuple[int, ...] = ()

    def expand(self, uncovered: frozenset[int], available: tuple[int, ...]) -> tuple[int | None, list[int]]:
        """One scan of ``available``: an admissible lower bound in whole RBs,
        the larger of the share bound and the Lagrangian bound at the root
        prices, and the cameras covering the hardest uncovered target (fewest
        covering cameras, then id), in the order of ``available``.  The bound
        is None, with no cameras, if some target is uncoverable."""
        coverage, shares = self.coverage, self.shares
        best: dict[int, int] = {}
        covering: dict[int, list[int]] = {}
        for cam_id in available:
            hit = coverage[cam_id] & uncovered
            share = shares[cam_id][len(hit)]
            for target in hit:
                if share < best.get(target, share + 1):
                    best[target] = share
                covering.setdefault(target, []).append(cam_id)
        if len(best) < len(uncovered):
            return None, []
        bound = max(-(-sum(best.values()) // self.scale), sum(map(self.prices.__getitem__, uncovered)))
        target = min(uncovered, key=lambda t: (len(covering[t]), t), default=None)
        return bound, covering.get(target, [])


def exact_root(scenario: Scenario) -> Root:
    """The root of ``scenario``'s covering search.  Read it as
    ``scenario.exact_root``, which computes it once and keeps it."""
    table = scenario.table
    # Cameras that cover nothing or can never transmit are useless; the
    # table builds runs only for those that cover something.
    min_phi = {cam_id: phi for cam_id in scenario.coverage if (phi := table.min_phi(cam_id)) is not None}
    return _root({cam_id: scenario.coverage[cam_id] for cam_id in min_phi}, min_phi, scenario.target_ids)


def _root(coverage: dict[int, frozenset[int]], min_phi: dict[int, int], targets: frozenset[int]) -> Root:
    """The root over the usable cameras ``coverage`` and the ``targets`` to cover.

    A camera covering k uncovered targets charges each min_phi/k RBs; scaled
    by lcm(1..largest coverage) that share is an exact integer.

    The prices come from dual ascent: visit the targets hardest first (fewest
    covering cameras, then id) and raise each price to the smallest slack
    ``min_phi - sum of prices`` left among the cameras covering it.  Slacks
    start at whole RBs and lose whole prices, so every price is a whole
    number of RBs.  No slack goes negative, and a node only drops targets
    and cameras, so no camera's reduced cost is negative at any node: there
    the Lagrangian bound is the sum of the uncovered targets' prices.
    """
    missing = tuple(sorted(targets.difference(*coverage.values())))
    if missing:
        return Root(missing=missing)
    scale = math.lcm(*range(1, max(map(len, coverage.values()), default=1) + 1))
    shares = {
        cam_id: (0,) + tuple(min_phi[cam_id] * scale // k for k in range(1, len(cov) + 1))
        for cam_id, cov in coverage.items()
    }
    available = tuple(sorted(coverage, key=lambda c: (min_phi[c], c)))
    prices = dict.fromkeys(targets, 0)
    slack = dict(min_phi)
    covering: dict[int, list[int]] = {target: [] for target in targets}
    for cam_id in available:
        for target in coverage[cam_id] & targets:
            covering[target].append(cam_id)
    for _, target in sorted((len(cams), target) for target, cams in covering.items()):
        cams = covering[target]
        price = prices[target] = min(map(slack.__getitem__, cams))
        for cam_id in cams:
            slack[cam_id] -= price
    root = Root(coverage, min_phi, scale, shares, prices, 0, available)
    return replace(root, bound=root.expand(targets, available)[0])


@dataclass
class _Search:
    """The state of one solve: its budget and counters, over a shared root.

    The search settles only schedules that cost less than ``best_cost``;
    ``held`` tells whether a schedule of that cost is held, the warm start's
    or the search's own incumbent, or whether ``best_cost`` is only a ceiling.
    """

    root: Root
    budget: int
    best_cost: int
    held: bool
    nodes: int = 0
    bound_prunes: int = 0
    incumbent_updates: int = 0

    def overrun(self) -> SearchBudgetExceeded:
        return SearchBudgetExceeded(
            f"exceeded {self.budget} node expansions; raise the budget or shrink the instance",
            self.nodes,
            self.best_cost if self.held else None,
            self.root.bound,
        )

    def tick(self) -> bool:
        """Counts a node; raises once the budget is spent, so it never
        returns False as a layout step."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise self.overrun()
        return True

    def diagnostics(self, notes: tuple[str, ...] = ()) -> Diagnostics:
        return Diagnostics(
            notes=notes,
            nodes_expanded=self.nodes,
            bound_prunes=self.bound_prunes,
            incumbent_updates=self.incumbent_updates,
            root_bound=self.root.bound,
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
    exists.  The search reads the scenario's one candidate table,
    ``scenario.table``, and starts from its one MRAMC result,
    ``scenario.mramc``.

    Raises :class:`SearchBudgetExceeded` rather than returning a wrong or
    partial answer when the search outgrows ``node_budget``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    node_budget = _integer(node_budget, "node_budget")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    relaxed = mode == "without_exclusivity"
    root = scenario.exact_root
    if root.missing:
        return SolverResult(
            Schedule.empty(),
            SolveStatus.INFEASIBLE_COVERAGE,
            Diagnostics(notes=(f"targets with no usable camera: {list(root.missing)}",)),
            relaxed=relaxed,
        )

    table = scenario.table
    target_ids = scenario.target_ids
    capacity = sum(scenario.grid.slot_capacity)
    warm = scenario.mramc

    if relaxed:
        # MRAMC's greedy phase reads the same usable cameras as the root, so
        # it covers every target here, each camera at its minimum run: the
        # search looks for a cheaper cover, and every cover settles to itself.
        cover = [step.camera_id for step in warm.diagnostics.greedy]
        search = _Search(root, node_budget, sum(map(root.min_phi.__getitem__, cover)), True)
        cheaper = _branch_and_bound(search, target_ids, lambda cameras, cost: (list(cameras), cost))
        if cheaper is not None:
            cover = cheaper
        cover.sort()
        # True for the first min(node_budget, LAYOUT_STEPS) steps, then False.
        steps = partial(next, repeat(True, min(node_budget, LAYOUT_STEPS)), False)
        # Below R + 1 every camera keeps its minimum run; runs that add up to
        # more than the frame's capacity have no layout.
        layout = _overlap_free_layout(cover, table, min(search.best_cost, capacity) + 1, steps)
        if layout is None:
            # None found within the steps; RB sharing is allowed here, at the same cost.
            assignments = [table.min_allocation(cam_id) for cam_id in cover]
        else:
            assignments = [CandidateAllocation(*run) for run in layout[0]]
        schedule = Schedule.build(assignments, scenario.cameras, target_ids)
    else:
        # The search looks for a schedule cheaper than MRAMC's, or, when
        # MRAMC has none, for any: none costs more than the frame's capacity.
        # A cover settles to its cheapest layout below the incumbent; each
        # step is a node.
        held = warm.status is SolveStatus.FEASIBLE
        search = _Search(root, node_budget, warm.schedule.total_rbs if held else capacity + 1, held)
        runs = _branch_and_bound(
            search,
            target_ids,
            lambda cameras, cost: _overlap_free_layout(cameras, table, search.best_cost, search.tick),
        )
        if runs is not None:
            schedule = Schedule.build([CandidateAllocation(*run) for run in runs], scenario.cameras, target_ids)
        elif held:
            # Nothing is cheaper: MRAMC's schedule is optimal.
            schedule = warm.schedule
        else:
            return SolverResult(
                Schedule.empty(),
                SolveStatus.INFEASIBLE_CAPACITY,
                search.diagnostics(("no conflict-free assignment exists",)),
            )
    return SolverResult(schedule, SolveStatus.FEASIBLE, search.diagnostics(), relaxed=relaxed)


def _branch_and_bound(
    search: _Search,
    targets: frozenset[int],
    settle: Callable[[list[int], int], tuple[list, int] | None],
) -> list | None:
    """Depth-first search for the cheapest settled cover below
    ``search.best_cost``, or None when no cover settles below it.

    Each node branches on the cameras covering the hardest uncovered target,
    each at its minimum run length, in the root's (min_phi, id) order.  A
    child keeps only the cameras that cover one of its uncovered targets and
    were not tried at its node: a camera already tried is left out of its
    later siblings' subtrees.  A cover that costs less than
    ``search.best_cost`` is passed to ``settle(cameras, cost)``, with its
    cameras in path order, which returns its cheapest choice list below
    ``search.best_cost`` with that list's cost, or None.  The recursive
    ``dfs`` is unlinked when the search ends, so a solve leaves no reference
    cycle.
    """
    root = search.root
    coverage, min_phi = root.coverage, root.min_phi
    best: list | None = None

    def dfs(uncovered: frozenset[int], avail: tuple[int, ...], cost: int, chosen: list[int]) -> None:
        nonlocal best
        search.tick()
        if not uncovered:
            if cost < search.best_cost and (settled := settle(chosen, cost)) is not None:
                best, search.best_cost = settled
                search.held = True
                search.incumbent_updates += 1
            return
        bound, branches = root.expand(uncovered, avail)
        if bound is None or cost + bound >= search.best_cost:
            search.bound_prunes += 1
            return
        tried: set[int] = set()
        for cam_id in branches:
            rest = uncovered - coverage[cam_id]
            chosen.append(cam_id)
            remaining = tuple(c for c in avail if c not in tried and not coverage[c].isdisjoint(rest))
            dfs(rest, remaining, cost + min_phi[cam_id], chosen)
            chosen.pop()
            tried.add(cam_id)

    try:
        dfs(targets, root.available, 0, [])
    finally:
        del dfs  # dfs refers to itself: unlinked, the search is freed by reference counting
    return best
