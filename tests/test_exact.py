"""Branch-and-bound solver against the exhaustive enumeration and MILP oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csrap import (
    CameraNode,
    FrameGrid,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    SearchBudgetExceeded,
    SolveStatus,
    TargetObject,
    exact_solve,
    generate_scenario,
    verify_schedule,
)
from csrap.exact import _Search
from csrap.scenario import GeometrySpec
from support import (
    RATE_TIERS,
    all_subsets_cover_optimum,
    exhaustive_optimum,
    fraction_bound,
    milp_optimum,
    random_instance,
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


def partial_random(cameras, targets, subchannels, slots, seed):
    return generate_scenario(
        ScenarioConfig(
            area_side=200.0,
            num_targets=targets,
            num_cameras=cameras,
            deployment="partial_random",
            geometry=GeometrySpec(view_distance=(40.0, 60.0)),
            frame=FrameGrid(subchannels, slots),
            rng_seed=seed,
        )
    )


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


def test_budget_exhaustion_raises_instead_of_guessing():
    rng = np.random.default_rng(0)
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
    scn = partial_random(12, 8, 12, 3, seed=8)
    optimum = exact_solve(scn).schedule.total_rbs
    with pytest.raises(SearchBudgetExceeded) as info:
        exact_solve(scn, node_budget=400)
    exc = info.value
    assert exc.nodes == 401
    assert exc.incumbent is not None and exc.incumbent >= optimum
    assert exc.lower_bound is not None and exc.lower_bound <= optimum
    assert f"nodes: 401, incumbent: {exc.incumbent} RBs, lower bound: {exc.lower_bound} RBs" in str(exc)


def test_budget_of_one_overruns_with_root_bound():
    rng = np.random.default_rng(0)
    with pytest.raises(SearchBudgetExceeded) as info:
        exact_solve(random_instance(rng), node_budget=1)
    assert (info.value.nodes, info.value.incumbent) == (2, None)
    assert isinstance(info.value.lower_bound, int)


def test_node_budget_bounds_the_relaxed_layout_search():
    # Seven cameras, each the only one seeing its target, need 3-RB runs: 21
    # RBs in a 20-subchannel frame, so no overlap-free layout exists and the
    # layout search tries every partial one before it falls back.
    cameras = tuple(cam(i, [1.0] * 20, 3.0, {i}) for i in range(1, 8))
    targets = tuple(TargetObject(i, (float(i), 0.0)) for i in range(1, 8))
    scn = Scenario(FrameGrid(20, 1), cameras, targets)
    with pytest.raises(SearchBudgetExceeded) as info:
        exact_solve(scn, "without_exclusivity", node_budget=1000)
    assert (info.value.nodes, info.value.incumbent, info.value.lower_bound) == (1001, 21, 21)


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


def test_search_counters_are_deterministic():
    scn = partial_random(10, 7, 8, 4, seed=4)
    first = exact_solve(scn).diagnostics
    assert first == exact_solve(scn).diagnostics
    assert first.bound_prunes > 0
    assert first.symmetry_skips > 0
    assert first.incumbent_updates >= 1
    relaxed = exact_solve(scn, "without_exclusivity").diagnostics
    assert relaxed.symmetry_skips == 0 and relaxed.incumbent_updates >= 1


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
    bound = _Search(coverage, min_phi, budget=1).bound(uncovered, available)
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
    # Without slot-symmetry breaking this instance took 234, 994, 2282 and
    # 4098 nodes for T = 1..4, with an optimum of 4 RBs at every T.
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
    pytest.param((20, 12, 20, 4), range(3), range(5), id="rung2"),
]


@pytest.mark.parametrize(("rung", "strict_seeds", "relaxed_seeds"), MILP_RUNGS)
def test_matches_milp_oracle_beyond_brute_force(rung, strict_seeds, relaxed_seeds):
    pytest.importorskip("scipy.optimize")
    skipped = 0
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
            skipped += result.diagnostics.symmetry_skips
    assert skipped > 0
