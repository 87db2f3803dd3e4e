"""Branch-and-bound solver against the exhaustive enumeration and MILP oracles."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csrap import (
    CameraNode,
    ChannelParams,
    FrameGrid,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    SearchBudgetExceeded,
    SolveStatus,
    SweepSpec,
    TargetObject,
    TrafficItem,
    bound_params,
    exact_solve,
    generate_scenario,
    joint_schedule,
    mramc,
    run_sweep,
    verify_schedule,
)
from csrap.exact import DEFAULT_NODE_BUDGET, _root
from csrap.harness import ALGORITHMS, RELAXED_WAIVERS, SOLVERS
from csrap.scenario import GeometrySpec
from support import (
    RATE_TIERS,
    all_subsets_cover_optimum,
    collision_instance,
    cyclic_garbage,
    exhaustive_optimum,
    fraction_bound,
    lagrangian_bound,
    milp_optimum,
    partial_random,
    random_instance,
    residual_cover_optimum,
)


def cam(cam_id, rates, requirement, coverage, slot_rates=None):
    return CameraNode(
        id=cam_id,
        position=(float(cam_id), 0.0),
        geometry=Omnidirectional(1.0),
        rate_requirement=requirement,
        per_subchannel_rate=tuple(float(r) for r in rates),
        coverage_set=frozenset(coverage),
        slot_rate_overrides=slot_rates,
    )


# Weak, shadowed rates: minimum runs collide often enough that the relaxed
# optimum's cameras may have no overlap-free layout.
WEAK_CHANNEL = {"channel": ChannelParams(tx_power_dbm=-15.0), "rate_requirement_range": (10.0, 20.0)}


def test_single_camera_minimum_run_of_two():
    grid = FrameGrid(2, 1)
    scn = Scenario(grid, (cam(1, [4, 4], 8.0, {1}),), (TargetObject(1, (0, 0)),))
    result = exact_solve(scn)
    assert result.status is SolveStatus.FEASIBLE
    assert result.schedule.total_rbs == 2


def test_prefers_cheap_cover_over_wide_one():
    grid = FrameGrid(3, 1)
    cameras = (
        cam(1, [2, 2, 2], 6.0, {1, 2}),  # needs 3 RBs for both targets
        cam(2, [8, 8, 8], 8.0, {1}),
        cam(3, [8, 8, 8], 8.0, {2}),
    )
    scn = Scenario(grid, cameras, (TargetObject(1, (0, 0)), TargetObject(2, (1, 0))))
    result = exact_solve(scn)
    assert result.schedule.total_rbs == 2
    assert {a.camera_id for a in result.schedule.assignments} == {2, 3}


def test_uncoverable_target_reports_coverage_infeasibility():
    grid = FrameGrid(2, 1)
    scn = Scenario(grid, (cam(1, [8, 8], 8.0, {1}),), (TargetObject(1, (0, 0)), TargetObject(2, (1, 0))))
    result = exact_solve(scn)
    assert result.status is SolveStatus.INFEASIBLE_COVERAGE
    assert result.diagnostics.root_bound is None  # no search ran


def test_capacity_infeasibility_when_rbs_run_out():
    grid = FrameGrid(1, 1)
    cameras = (cam(1, [8], 8.0, {1}), cam(2, [8], 8.0, {2}))
    scn = Scenario(grid, cameras, (TargetObject(1, (0, 0)), TargetObject(2, (1, 0))))
    result = exact_solve(scn)
    assert result.status is SolveStatus.INFEASIBLE_CAPACITY


def test_root_bound_beyond_capacity_proves_infeasibility_at_once():
    scn = random_instance(np.random.default_rng(0))
    assert exhaustive_optimum(scn, with_exclusivity=True) is None
    result = exact_solve(scn, node_budget=1)
    assert result.status is SolveStatus.INFEASIBLE_CAPACITY
    assert result.diagnostics.nodes_expanded == 1
    assert result.diagnostics.root_bound > sum(scn.grid.slot_capacity)


def test_budget_exhaustion_raises_instead_of_guessing():
    rng = np.random.default_rng(2)
    scn = random_instance(rng)
    with pytest.raises(SearchBudgetExceeded):
        exact_solve(scn, node_budget=1)


def test_relaxed_mode_never_costs_more():
    rng = np.random.default_rng(3)
    for _ in range(150):
        scn = random_instance(rng)
        strict = exact_solve(scn)
        relaxed = exact_solve(scn, "without_exclusivity")
        assert relaxed.relaxed
        if strict.status is SolveStatus.FEASIBLE:
            assert relaxed.status is SolveStatus.FEASIBLE
            assert relaxed.schedule.total_rbs <= strict.schedule.total_rbs


def test_matches_exhaustive_enumeration():
    rng = np.random.default_rng(8)
    agreements = 0
    for _ in range(150):
        scn = random_instance(rng)
        expected = exhaustive_optimum(scn, with_exclusivity=True)
        result = exact_solve(scn)
        if expected is None:
            assert result.status is not SolveStatus.FEASIBLE
        else:
            assert result.status is SolveStatus.FEASIBLE
            assert result.schedule.total_rbs == expected
            assert verify_schedule(result.schedule, scn).feasible
            agreements += 1
    assert agreements > 60


def test_collisions_match_exhaustive_enumeration():
    # Every camera is in every cover here, so the strict optimum exceeds the
    # relaxed one only through runs longer than a camera's minimum: the
    # strict layout search has to reach past the minimum runs.
    rng = np.random.default_rng(0)
    gaps = 0
    for _ in range(1500):
        scn = collision_instance(rng)
        totals = []
        for mode, with_exclusivity in (("with_exclusivity", True), ("without_exclusivity", False)):
            result = exact_solve(scn, mode)
            total = result.schedule.total_rbs if result.status is SolveStatus.FEASIBLE else None
            assert total == exhaustive_optimum(scn, with_exclusivity), mode
            totals.append(total)
        strict, relaxed = totals
        if strict is not None:
            assert verify_schedule(exact_solve(scn).schedule, scn).feasible
            gaps += strict > relaxed
    assert gaps >= 10


def test_relaxed_matches_subset_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(150):
        scn = random_instance(rng)
        expected = all_subsets_cover_optimum(scn)
        result = exact_solve(scn, "without_exclusivity")
        if expected is None:
            assert result.status is not SolveStatus.FEASIBLE
        else:
            assert result.status is SolveStatus.FEASIBLE
            assert result.schedule.total_rbs == expected


def test_deterministic_results():
    rng = np.random.default_rng(10)
    for _ in range(20):
        scn = random_instance(rng)
        assert exact_solve(scn) == exact_solve(scn)


def test_rejects_unknown_mode():
    rng = np.random.default_rng(1)
    scn = random_instance(rng)
    with pytest.raises(ValueError):
        exact_solve(scn, "something_else")


def test_budget_overrun_reports_progress():
    # Weak rates: the first covers have no overlap-free layout, and the
    # first schedule settles after 3,070 nodes; at 3,200 the incumbent is a
    # schedule of 13 RBs, above the optimum of 11.
    scn = partial_random(20, 12, 12, 2, seed=46, **WEAK_CHANNEL)
    optimum = exact_solve(scn).schedule.total_rbs
    with pytest.raises(SearchBudgetExceeded) as info:
        exact_solve(scn, node_budget=3200)
    exc = info.value
    assert exc.nodes == 3201
    assert exc.incumbent is not None and exc.incumbent >= optimum
    assert exc.lower_bound is not None and exc.lower_bound <= optimum
    assert f"nodes: 3201, incumbent: {exc.incumbent} RBs, lower bound: {exc.lower_bound} RBs" in str(exc)


def test_budget_of_one_overruns_with_root_bound():
    rng = np.random.default_rng(2)
    with pytest.raises(SearchBudgetExceeded) as info:
        exact_solve(random_instance(rng), node_budget=1)
    assert (info.value.nodes, info.value.incumbent) == (2, None)
    assert isinstance(info.value.lower_bound, int)


def test_node_budget_must_be_an_integer():
    # A float budget would be compared, and reported on overrun, as given.
    scn = random_instance(np.random.default_rng(2))
    for mode in ("with_exclusivity", "without_exclusivity"):
        with pytest.raises(ValueError, match="^node_budget must be an integer, not 2.5$"):
            exact_solve(scn, mode, 2.5)
    assert exact_solve(scn, node_budget=np.int64(10**6)) == exact_solve(scn)


def test_node_budget_must_be_positive():
    scn = random_instance(np.random.default_rng(2))
    with pytest.raises(ValueError, match="^node_budget must be >= 1, got 0$"):
        exact_solve(scn, node_budget=0)


def layout_trap(free, subchannels):
    """``free`` cameras and two more that can only send on subchannels 1-3,
    each the only one seeing its target with a 3-RB minimum run, in one
    slot: the runs fit the frame's capacity, but the last two collide, so no
    overlap-free layout exists and the layout search tries every partial
    one."""
    limited = [1.0] * 3 + [0.0] * (subchannels - 3)
    cameras = tuple(cam(i, [1.0] * subchannels, 3.0, {i}) for i in range(1, free + 1)) + tuple(
        cam(i, limited, 3.0, {i}) for i in (free + 1, free + 2)
    )
    targets = tuple(TargetObject(i, (float(i), 0.0)) for i in range(1, free + 3))
    return Scenario(FrameGrid(subchannels, 1), cameras, targets)


def test_node_budget_bounds_the_relaxed_layout_search():
    # Six cameras in a 20-subchannel frame: a full layout search takes
    # 17,347 steps.  It stops at min(node_budget, LAYOUT_STEPS) steps,
    # which are not nodes, and falls back to overlapping minimum runs at the
    # same cost.
    scn = layout_trap(4, 20)
    result = exact_solve(scn, "without_exclusivity", node_budget=1000)
    assert result.status is SolveStatus.FEASIBLE and result.relaxed
    assert result.schedule.total_rbs == 18
    # The covering search alone: the root bound is the greedy cover's cost.
    assert result.diagnostics.nodes_expanded == 1
    report = verify_schedule(result.schedule, scn)
    assert {check.name for check in report.checks if not check.passed} <= RELAXED_WAIVERS


def test_relaxed_optimum_is_returned_although_its_layout_search_is_long():
    # Eight cameras in a 26-subchannel frame: a full layout search would take
    # more than 2,000,000 steps.
    result = exact_solve(layout_trap(6, 26), "without_exclusivity", node_budget=100_000)
    assert result.status is SolveStatus.FEASIBLE
    assert result.schedule.total_rbs == result.diagnostics.root_bound == 24


def test_relaxed_runs_beyond_frame_capacity_fall_back_at_once():
    # Seven 3-RB runs need 21 RBs in a 20-subchannel frame: the capacity
    # count rules out every layout before the layout search starts.
    cameras = tuple(cam(i, [1.0] * 20, 3.0, {i}) for i in range(1, 8))
    targets = tuple(TargetObject(i, (float(i), 0.0)) for i in range(1, 8))
    result = exact_solve(Scenario(FrameGrid(20, 1), cameras, targets), "without_exclusivity", node_budget=1000)
    assert result.status is SolveStatus.FEASIBLE and result.relaxed
    assert result.schedule.total_rbs == 21
    # The covering search alone: the root bound is the greedy cover's cost.
    assert result.diagnostics.nodes_expanded == 1


def test_optimum_ignores_camera_ids_and_never_rises_with_a_camera():
    rng = np.random.default_rng(21)
    for _ in range(400):
        scn = random_instance(rng)
        ids = rng.choice(1000, size=len(scn.cameras), replace=False) + 1
        renumbered = Scenario(
            scn.grid, tuple(replace(c, id=int(i)) for c, i in zip(scn.cameras, ids)), scn.targets
        )
        extra = cam(
            len(scn.cameras) + 1,
            [RATE_TIERS[int(rng.integers(0, len(RATE_TIERS)))] for _ in range(scn.grid.num_subchannels)],
            float(rng.integers(3, 17)),
            {int(t) + 1 for t in rng.choice(len(scn.targets), size=int(rng.integers(1, 4)))},
        )
        grown = Scenario(scn.grid, scn.cameras + (extra,), scn.targets)
        for mode in ("with_exclusivity", "without_exclusivity"):
            base = exact_solve(scn, mode)
            moved = exact_solve(renumbered, mode)
            assert (moved.status, moved.schedule.total_rbs) == (base.status, base.schedule.total_rbs)
            if base.status is SolveStatus.FEASIBLE:
                more = exact_solve(grown, mode)
                assert more.status is SolveStatus.FEASIBLE
                assert more.schedule.total_rbs <= base.schedule.total_rbs


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_ladder_schedules_are_frozen():
    # perfbench's exact_ladder rungs: the digest of the strict statuses and
    # costs, which no change to the search may move, and that of the
    # schedules, which pins the choice among equal-cost optima.  The
    # ladder's budget of 1,000 nodes is enough for every instance.
    costs, schedules, overruns = [], [], 0
    for rung in ((8, 6, 8, 2), (10, 7, 10, 2)):
        for seed in range(160):
            scn = partial_random(*rung, seed=seed)
            result = exact_solve(scn, node_budget=100_000)
            runs = " ".join(f"{a.camera_id}:{a.slot}:{a.start}:{a.length}" for a in result.schedule.assignments)
            costs.append(f"{result.status.value} {result.schedule.total_rbs}")
            schedules.append(f"{result.status.value} {runs}")
            try:
                exact_solve(scn, node_budget=1000)
            except SearchBudgetExceeded:
                overruns += 1
    assert digest(costs) == "8286f053bda9052f"
    assert digest(schedules) == "bf77ce82b1db27d8"
    assert overruns == 0


def test_floor_stops_at_the_relaxed_optimum():
    # The relaxed optimum is a floor under every strict cost.  Here a
    # schedule that costs it is proven optimal within 400 nodes.
    scn = partial_random(12, 8, 12, 3, seed=29)
    result = exact_solve(scn, node_budget=400)
    relaxed = exact_solve(scn, "without_exclusivity")
    assert result.schedule.total_rbs == relaxed.schedule.total_rbs
    assert result.diagnostics.notes == ()


PAPER_SCALE = ScenarioConfig()  # 81 cameras, 500 m area, 50x20 frame

# Instances whose strict optimum is the relaxed one, which certifies it.
CERTIFIED = [
    pytest.param(replace(PAPER_SCALE, num_targets=40, rng_seed=0), id="paper-default-40t"),
    pytest.param(
        replace(PAPER_SCALE, deployment="partial_random", num_targets=30, rng_seed=1), id="partial-random-30t"
    ),
    pytest.param(
        ScenarioConfig(
            area_side=200.0,
            num_targets=20,
            num_cameras=40,
            deployment="partial_random",
            geometry=GeometrySpec(view_distance=(40.0, 60.0)),
            frame=FrameGrid(30, 5),
        ),
        id="partial-random-40c",
    ),
]


@pytest.mark.parametrize("config", CERTIFIED)
def test_certified_layout_matches_the_relaxed_milp_optimum(config):
    pytest.importorskip("scipy.optimize")
    scn = generate_scenario(config)
    result = exact_solve(scn, node_budget=1000)
    assert result.status is SolveStatus.FEASIBLE
    assert result.diagnostics.notes == ()
    assert verify_schedule(result.schedule, scn).feasible
    # HiGHS over every candidate run, sharing no code with the search.
    assert result.schedule.total_rbs == milp_optimum(scn, with_exclusivity=False)


def test_paper_default_ratio_chain():
    # R <= OPT <= mramc <= (r_max / r_min) H(d*) OPT on the paper's default
    # deployment; the worst mramc / OPT here is 1.056.
    for targets in (10, 20, 30, 40):
        for seed in range(10):
            scn = generate_scenario(replace(PAPER_SCALE, num_targets=targets, rng_seed=seed))
            results = (exact_solve(scn, "without_exclusivity"), exact_solve(scn), mramc(scn))
            assert all(r.status is SolveStatus.FEASIBLE for r in results), (targets, seed)
            relaxed, optimum, heuristic = (r.schedule.total_rbs for r in results)
            ratio = bound_params(scn).ratio()
            assert relaxed <= optimum <= heuristic <= ratio * optimum, (targets, seed)


def test_search_trees_are_frozen():
    # Both modes' statuses and costs, which no change to the search may
    # move, and their counters, which pin each search tree.
    scenarios = [partial_random(*rung, seed=seed) for rung in ((8, 6, 8, 2), (10, 7, 10, 2)) for seed in range(80)]
    scenarios += [
        generate_scenario(replace(PAPER_SCALE, num_targets=targets, rng_seed=seed))
        for targets in (10, 20, 30, 40)
        for seed in range(4)
    ]
    costs, counters = [], []
    for scn in scenarios:
        for mode in ("with_exclusivity", "without_exclusivity"):
            result = exact_solve(scn, mode)
            d = result.diagnostics
            costs.append(f"{result.status.value} {result.schedule.total_rbs}")
            counters.append(f"{d.nodes_expanded} {d.bound_prunes} {d.incumbent_updates} {d.root_bound}")
    assert digest(costs) == "add5ba8b2c996e67"
    assert digest(counters) == "4a6ed3355b7b1e52"


def test_search_counters_are_deterministic():
    # MRAMC is not optimal here, so both modes settle a cheaper schedule.
    scn = partial_random(10, 7, 8, 4, seed=32)
    first = exact_solve(scn).diagnostics
    assert first == exact_solve(scn).diagnostics
    assert first.bound_prunes > 0
    assert first.incumbent_updates >= 1
    relaxed = exact_solve(scn, "without_exclusivity").diagnostics
    assert relaxed.incumbent_updates >= 1


def greedy_cost(result):
    """The cost of an MRAMC result's greedy cover, at minimum runs."""
    return sum(step.allocation.length for step in result.diagnostics.greedy)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_exact_never_costs_more_than_its_warm_start(seed):
    scn = random_instance(np.random.default_rng(seed))
    warm = scn.mramc
    strict = exact_solve(scn)
    relaxed = exact_solve(scn, "without_exclusivity")
    if warm.status is SolveStatus.FEASIBLE:
        assert strict.status is SolveStatus.FEASIBLE
        assert strict.schedule.total_rbs <= warm.schedule.total_rbs
    if relaxed.status is SolveStatus.FEASIBLE:
        assert relaxed.schedule.total_rbs <= greedy_cost(warm)
    if strict.status is SolveStatus.FEASIBLE and strict.diagnostics.incumbent_updates == 0:
        # Nothing cheaper settled: the search proved MRAMC's schedule optimal.
        assert strict.schedule is warm.schedule


@given(seed=st.integers(0, 2**32 - 1))
@example(seed=9)  # strict overruns at budget 1 where MRAMC holds 6 RBs
@example(seed=7)  # relaxed overruns at budget 1 where MRAMC's relocation fails
@settings(max_examples=200, deadline=None)
def test_an_overrun_reports_the_warm_start(seed):
    scn = random_instance(np.random.default_rng(seed))
    warm = scn.mramc
    for mode in ("with_exclusivity", "without_exclusivity"):
        for budget in (1, 30):
            try:
                exact_solve(scn, mode, budget)
            except SearchBudgetExceeded as exc:
                if warm.status is SolveStatus.FEASIBLE:
                    assert exc.incumbent is not None and exc.incumbent <= warm.schedule.total_rbs
                if mode == "without_exclusivity":
                    # The greedy cover is relaxed-feasible whenever a search runs.
                    assert exc.incumbent is not None and exc.incumbent <= greedy_cost(warm)


@given(
    covers=st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=8), min_size=1, max_size=6),
    phis=st.lists(st.integers(1, 30), min_size=6, max_size=6),
    uncovered=st.sets(st.integers(1, 8), min_size=1),
    picks=st.lists(st.booleans(), min_size=6, max_size=6),
    cost=st.integers(0, 40),
    best_cost=st.integers(1, 60),
)
@settings(max_examples=300, deadline=None)
def test_integer_bound_equals_fraction_reference(covers, phis, uncovered, picks, cost, best_cost):
    coverage = {i + 1: frozenset(cov) for i, cov in enumerate(covers)}
    min_phi = {cam_id: phis[cam_id - 1] for cam_id in coverage}
    available = tuple(c for c in coverage if picks[c - 1])
    uncovered = frozenset(uncovered)
    # At zero prices the Lagrangian bound is 0 and the share bound alone counts.
    root = _root(coverage, min_phi, frozenset().union(*coverage.values()))
    bound, _ = replace(root, prices=dict.fromkeys(root.prices, 0)).expand(uncovered, available)
    expected = fraction_bound(coverage, min_phi, uncovered, available)
    assert (bound is None) == (expected is None)
    if expected is not None:
        assert bound == math.ceil(expected)
        # Costs are whole RBs, so rounding up prunes exactly the subtrees whose
        # every leaf would cost at least best_cost, and never fewer than the
        # fraction prunes.
        assert (cost + bound >= best_cost) == (cost + expected > best_cost - 1)
        if cost + expected >= best_cost:
            assert cost + bound >= best_cost


@given(
    covers=st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=8), min_size=1, max_size=6),
    phis=st.lists(st.integers(1, 30), min_size=6, max_size=6),
    targets=st.sets(st.integers(1, 8), min_size=1),
    root_picks=st.lists(st.booleans(), min_size=6, max_size=6),
    node_targets=st.lists(st.booleans(), min_size=8, max_size=8),
    node_picks=st.lists(st.booleans(), min_size=6, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_lagrangian_bound_equals_fraction_reference(covers, phis, targets, root_picks, node_targets, node_picks):
    coverage = {i + 1: frozenset(cov) for i, cov in enumerate(covers)}
    min_phi = {cam_id: phis[cam_id - 1] for cam_id in coverage}
    # A root whose every target some root camera covers, as the search requires.
    root_cameras = tuple(c for c in coverage if root_picks[c - 1])
    root_targets = frozenset(t for t in targets if any(t in coverage[c] for c in root_cameras))
    root = _root({c: coverage[c] for c in root_cameras}, min_phi, root_targets)
    assert all(price >= 0 for price in root.prices.values())
    # A node below the root: some targets covered, some cameras chosen or tried.
    uncovered = frozenset(t for t in root_targets if node_targets[t - 1])
    available = tuple(c for c in root_cameras if node_picks[c - 1])
    bound, _ = root.expand(uncovered, available)
    share = fraction_bound(coverage, min_phi, uncovered, available)
    optimum = residual_cover_optimum(coverage, min_phi, uncovered, available)
    assert (bound is None) == (share is None) == (optimum is None)
    if optimum is None:
        return
    # Ascent prices leave no reduced cost negative at any node below the
    # root, so the Lagrangian bound is the sum of the uncovered prices.
    lagrangian = lagrangian_bound(coverage, min_phi, uncovered, available, root.prices)
    assert lagrangian == sum(root.prices[t] for t in uncovered)
    assert bound == max(math.ceil(share), lagrangian)
    assert bound <= optimum


def test_symmetry_keeps_slot_with_larger_capacity():
    # Slot 1 holds a single RB, so the two-RB run only fits in slot 2.
    grid = FrameGrid(4, 2, slot_capacity=(1, 4))
    scn = Scenario(grid, (cam(1, [4, 4, 0, 0], 8.0, {1}),), (TargetObject(1, (0, 0)),))
    result = exact_solve(scn)
    assert result.status is SolveStatus.FEASIBLE
    [alloc] = result.schedule.assignments
    assert (alloc.slot, alloc.start, alloc.length) == (2, 1, 2)


def test_symmetry_keeps_slot_with_own_rates():
    # Camera 1 needs two RBs in slot 1 but one in slot 2; camera 2 is the
    # same in both slots.
    grid = FrameGrid(3, 2)
    cameras = (
        cam(1, [4, 4, 0], 8.0, {1}, slot_rates={2: (8.0, 0.0, 0.0)}),
        cam(2, [8, 8, 8], 8.0, {2}),
    )
    scn = Scenario(grid, cameras, (TargetObject(1, (0, 0)), TargetObject(2, (1, 0))))
    result = exact_solve(scn)
    assert result.schedule.total_rbs == 2
    by_cam = {a.camera_id: a for a in result.schedule.assignments}
    assert (by_cam[1].slot, by_cam[1].start, by_cam[1].length) == (2, 1, 1)
    assert verify_schedule(result.schedule, scn).feasible


def test_interchangeable_slots_do_not_multiply_nodes():
    # Slots with the same runs add layouts of equal cost, not nodes: the
    # optimum is 4 RBs at every T = 1..4.
    base = partial_random(12, 8, 12, 1, seed=0)
    totals, nodes = [], []
    for slots in (1, 2, 3, 4):
        scn = Scenario(FrameGrid(12, slots), base.cameras, base.targets)
        result = exact_solve(scn)
        totals.append(result.schedule.total_rbs)
        nodes.append(result.diagnostics.nodes_expanded)
    assert len(set(totals)) == 1
    assert nodes[3] <= nodes[1]


# (rung, strict seeds, relaxed seeds); HiGHS takes 0.2-0.5 s per strict
# 20c/12t/20x4 instance, so that rung checks fewer seeds.
MILP_RUNGS = [
    pytest.param((12, 8, 12, 3), range(8), range(8), id="rung0"),
    pytest.param((10, 7, 8, 4), range(8), range(8), id="rung1"),
    pytest.param((20, 12, 20, 4), range(5), range(5), id="rung2"),
]


@pytest.mark.parametrize(("rung", "strict_seeds", "relaxed_seeds"), MILP_RUNGS)
def test_matches_milp_oracle_beyond_brute_force(rung, strict_seeds, relaxed_seeds):
    pytest.importorskip("scipy.optimize")
    for with_exclusivity, mode, seeds in (
        (True, "with_exclusivity", strict_seeds),
        (False, "without_exclusivity", relaxed_seeds),
    ):
        for seed in seeds:
            scn = partial_random(*rung, seed=seed)
            result = exact_solve(scn, mode)
            total = result.schedule.total_rbs if result.status is SolveStatus.FEASIBLE else None
            assert total == milp_optimum(scn, with_exclusivity), (seed, mode)
            if total is not None:
                assert result.diagnostics.root_bound <= total, (seed, mode)


# No solver leaves a reference cycle: a solve's scenario, table, root and
# search are freed by reference counting as soon as the caller drops them.
NO_CYCLE_SCENARIOS = [
    pytest.param(lambda: partial_random(8, 6, 8, 2, seed=3), id="ladder-rung"),
    pytest.param(lambda: generate_scenario(ScenarioConfig(num_targets=30, rng_seed=3)), id="paper-default-30t"),
]


@pytest.mark.parametrize("make", NO_CYCLE_SCENARIOS)
@pytest.mark.parametrize("algorithm", list(SOLVERS))
def test_a_solve_leaves_no_cyclic_garbage(algorithm, make):
    assert cyclic_garbage(lambda: SOLVERS[algorithm](make(), 2, DEFAULT_NODE_BUDGET)) == 0


@pytest.mark.parametrize(
    ("make", "mode", "budget"),
    [
        # The strict overrun is raised inside the layout search.
        pytest.param(lambda: layout_trap(6, 26), "with_exclusivity", 1000, id="strict"),
        pytest.param(
            lambda: partial_random(20, 12, 12, 2, seed=46, **WEAK_CHANNEL), "without_exclusivity", 3, id="relaxed"
        ),
    ],
)
def test_an_overrun_leaves_no_cyclic_garbage(make, mode, budget):
    def overrun():
        try:
            exact_solve(make(), mode, budget)
        except SearchBudgetExceeded:
            return
        pytest.fail("the search did not overrun")

    assert cyclic_garbage(overrun) == 0


def test_a_sweep_and_a_joint_schedule_leave_no_cyclic_garbage():
    spec = SweepSpec(values=(10,), trials=1, algorithms=ALGORITHMS, base_seed=3)
    assert cyclic_garbage(lambda: run_sweep(spec)) == 0

    def joint():
        scn = generate_scenario(ScenarioConfig(num_targets=20, rng_seed=5))
        items = [TrafficItem.surveillance(c) for c in scn.cameras]
        items.append(TrafficItem.traditional(200, 30.0, scn.cameras[0].per_subchannel_rate))
        assert joint_schedule(items, scn.grid).status is SolveStatus.FEASIBLE

    assert cyclic_garbage(joint) == 0
