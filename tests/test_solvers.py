"""Scheduling algorithms: baseline scan, greedy phase, relocation, extensions."""

import hashlib
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from csrap import (
    CameraNode,
    CandidateAllocation,
    FrameGrid,
    GeometrySpec,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    SolveStatus,
    TargetObject,
    TrafficItem,
    baseline_schedule,
    bound_params,
    exact_solve,
    generate_scenario,
    harmonic,
    joint_schedule,
    m_mramc,
    mramc,
    mramc_greedy,
    mramc_relocate,
    traffic_scenario,
    verify_schedule,
)
from csrap.solvers import CandidateTable, RelocationStep
from support import brute_force_runs, crowded_fading, exhaustive_optimum, greedy_weighted_set_cover, random_instance


def cam(cam_id, rates, requirement, coverage):
    return CameraNode(
        id=cam_id,
        position=(float(cam_id), 0.0),
        geometry=Omnidirectional(1.0),
        rate_requirement=requirement,
        per_subchannel_rate=tuple(float(r) for r in rates),
        coverage_set=frozenset(coverage),
    )


def scenario_of(grid, cameras, n_targets):
    targets = tuple(TargetObject(i + 1, (float(i), 2.0)) for i in range(n_targets))
    return Scenario(grid, tuple(cameras), targets)


class TestBaseline:
    def test_three_rb_run_at_robust_rate(self):
        scn = scenario_of(FrameGrid(3, 1), [cam(1, [8, 4, 7], 9.0, {1})], 1)
        result = baseline_schedule(scn)
        assert result.status is SolveStatus.FEASIBLE
        assert result.schedule.assignments == (CandidateAllocation(1, 1, 1, 3, 4.0),)
        assert result.schedule.total_rbs == 3

    def test_single_rb_suffices(self):
        scn = scenario_of(FrameGrid(3, 1), [cam(1, [8, 8, 8], 8.0, {1})], 1)
        result = baseline_schedule(scn)
        assert result.schedule.total_rbs == 1

    def test_picks_best_rate_on_current_subchannel(self):
        cameras = [cam(1, [4, 8], 4.0, {1}), cam(2, [8, 4], 8.0, {2})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        result = baseline_schedule(scn)
        # Camera 2 has the best rate on subchannel 1 and goes first.
        by_cam = {a.camera_id: a for a in result.schedule.assignments}
        assert by_cam[2].start == 1 and by_cam[2].length == 1
        assert by_cam[1].start == 2 and by_cam[1].length == 1

    def test_unfinished_run_restarts_in_next_slot(self):
        # One slot is too narrow (2 RBs at rate 4 gives 8 < 9), so the run
        # restarts at the next slot and succeeds with 3 RBs there.
        scn = scenario_of(FrameGrid(3, 2, slot_capacity=(2, 3)), [cam(1, [4, 4, 4], 9.0, {1})], 1)
        result = baseline_schedule(scn)
        assert result.status is SolveStatus.FEASIBLE
        alloc = result.schedule.assignments[0]
        assert (alloc.slot, alloc.start, alloc.length) == (2, 1, 3)

    def test_infeasible_when_no_eligible_camera(self):
        scn = scenario_of(FrameGrid(2, 1), [cam(1, [8, 8], 8.0, {1})], 2)
        result = baseline_schedule(scn)
        assert result.status is SolveStatus.INFEASIBLE_COVERAGE

    def test_runs_out_of_frame(self):
        cameras = [cam(1, [2, 2], 8.0, {1}), cam(2, [2, 2], 8.0, {2})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        result = baseline_schedule(scn)
        assert result.status in (SolveStatus.INFEASIBLE_CAPACITY, SolveStatus.INFEASIBLE_COVERAGE)

    def test_ignores_cameras_covering_nothing_new(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {1})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 1)
        result = baseline_schedule(scn)
        assert len(result.schedule.assignments) == 1

    def test_random_feasible_outputs_verify(self):
        rng = np.random.default_rng(5)
        seen = 0
        for _ in range(150):
            scn = random_instance(rng)
            result = baseline_schedule(scn)
            if result.status is SolveStatus.FEASIBLE:
                assert verify_schedule(result.schedule, scn).feasible
                seen += 1
        assert seen > 40


class TestGreedyPhase:
    def test_average_cost_two_thirds(self):
        cameras = [
            cam(1, [4, 4], 8.0, {1, 2, 3}),  # needs 2 RBs, covers 3 targets
            cam(2, [8, 8], 8.0, {1}),
        ]
        scn = scenario_of(FrameGrid(2, 1), cameras, 3)
        phase = mramc_greedy(scn)
        assert phase.status is SolveStatus.FEASIBLE
        assert phase.trace[0].camera_id == 1
        assert phase.trace[0].average_cost == Fraction(2, 3)

    def test_single_camera_covering_all(self):
        cameras = [cam(1, [8, 8], 8.0, {1, 2}), cam(2, [8, 8], 8.0, {1})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        phase = mramc_greedy(scn)
        assert [s.camera_id for s in phase.trace] == [1]
        assert phase.total_rbs == 1
        assert phase.uncovered == frozenset()

    def test_conflicts_allowed_in_tentative_set(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {2})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        phase = mramc_greedy(scn)
        allocs = phase.assignments
        assert len(allocs) == 2
        assert allocs[0].cells() == allocs[1].cells()  # both grab (slot 1, subchannel 1)

    def test_infeasible_when_remaining_cameras_cannot_help(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [1, 1], 8.0, {2})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        phase = mramc_greedy(scn)
        assert phase.status is SolveStatus.INFEASIBLE_COVERAGE
        assert phase.uncovered == {2}

    def test_matches_weighted_set_cover_greedy_on_unit_candidates(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            y = int(rng.integers(2, 8))
            coverage = []
            for i in range(k):
                size = int(rng.integers(1, y + 1))
                coverage.append(set(int(v) + 1 for v in rng.choice(y, size=size, replace=False)))
            for t in range(1, y + 1):
                if not any(t in c for c in coverage):
                    coverage[int(rng.integers(0, k))].add(t)
            cameras = [cam(i + 1, [8.0], 8.0, coverage[i]) for i in range(k)]
            scn = scenario_of(FrameGrid(1, 1), cameras, y)
            phase = mramc_greedy(scn)
            sequence = [s.camera_id for s in phase.trace]
            reference = greedy_weighted_set_cover(
                range(1, y + 1),
                {i + 1: coverage[i] for i in range(k)},
                {i + 1: 1 for i in range(k)},
            )
            assert sequence == reference


class TestRelocation:
    def test_conflict_free_input_is_a_fixed_point(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {2})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        tentative = [CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(2, 1, 2, 1, 8.0)]
        result = mramc_relocate(tentative, scn)
        assert result.status is SolveStatus.FEASIBLE
        assert set(result.schedule.assignments) == set(tentative)
        assert all(not step.moved for step in result.diagnostics.relocation)

    def test_second_camera_moves_to_equal_size_candidate(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {2})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 2)
        tentative = [CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(2, 1, 1, 1, 8.0)]
        result = mramc_relocate(tentative, scn)
        assert result.status is SolveStatus.FEASIBLE
        assert result.schedule.total_rbs == 2
        by_cam = {a.camera_id: a for a in result.schedule.assignments}
        assert by_cam[1].start == 1
        assert by_cam[2].start == 2

    def test_failure_reports_the_stuck_camera(self):
        cameras = [cam(1, [8], 8.0, {1}), cam(2, [8], 8.0, {2})]
        scn = scenario_of(FrameGrid(1, 1), cameras, 2)
        tentative = [CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(2, 1, 1, 1, 8.0)]
        result = mramc_relocate(tentative, scn)
        assert result.status is SolveStatus.INFEASIBLE_RELOCATION
        assert result.diagnostics.failed_camera == 2
        assert result.schedule.assignments == (CandidateAllocation(1, 1, 1, 1, 8.0),)

    def test_respects_slot_capacity(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {2})]
        grid = FrameGrid(2, 2, slot_capacity=(1, 1))
        scn = Scenario(grid, tuple(cameras), (TargetObject(1, (0, 2)), TargetObject(2, (1, 2))))
        tentative = [CandidateAllocation(1, 1, 1, 1, 8.0), CandidateAllocation(2, 1, 2, 1, 8.0)]
        result = mramc_relocate(tentative, scn)
        assert result.status is SolveStatus.FEASIBLE
        slots = sorted(a.slot for a in result.schedule.assignments)
        assert slots == [1, 2]

    @pytest.mark.parametrize(
        "capacity, steps",
        [
            # Camera 2's run is longer than slot 1's capacity, so it fits
            # nowhere as it is; camera 1's smaller run is still kept first.
            ((2, 4), [(1, (1, 1, 3, 1, 8.0), False), (2, (2, 2, 1, 3, 2.0), True)]),
            # Camera 1's run, the smallest, does not fit on its own, so it moves first.
            ((0, 4), [(1, (1, 2, 1, 1, 8.0), True), (2, (2, 2, 2, 3, 2.0), True)]),
        ],
    )
    def test_a_run_over_its_slot_capacity_moves_in_size_order(self, capacity, steps):
        cameras = [cam(1, [8, 8, 8, 8], 8.0, {1}), cam(2, [2, 2, 2, 2], 6.0, {2})]
        scn = scenario_of(FrameGrid(4, 2, slot_capacity=capacity), cameras, 2)
        tentative = [CandidateAllocation(2, 1, 1, 3, 2.0), CandidateAllocation(1, 1, 3, 1, 8.0)]
        result = mramc_relocate(tentative, scn)
        assert result.status is SolveStatus.FEASIBLE
        assert result.diagnostics.relocation == tuple(
            RelocationStep(cam_id, CandidateAllocation(*alloc), moved) for cam_id, alloc, moved in steps
        )


class TestMramc:
    def test_single_camera_equals_greedy_phase(self):
        scn = scenario_of(FrameGrid(3, 1), [cam(1, [8, 4, 7], 9.0, {1})], 1)
        phase = mramc_greedy(scn)
        result = mramc(scn)
        assert result.schedule.assignments == phase.assignments
        assert result.schedule.total_rbs == phase.total_rbs

    def test_feasible_outputs_verify(self):
        rng = np.random.default_rng(17)
        seen = 0
        for _ in range(150):
            scn = random_instance(rng)
            result = mramc(scn)
            if result.status is SolveStatus.FEASIBLE:
                assert verify_schedule(result.schedule, scn).feasible
                seen += 1
        assert seen > 50

    def test_unique_slot_per_camera_instance_matches_exact(self):
        # Disjoint coverage and one subchannel force one camera per slot;
        # the greedy pick order cannot beat or lose to the optimum here.
        cameras = [
            cam(1, [8], 8.0, {1}),
            cam(2, [8], 8.0, {2}),
            cam(3, [8], 8.0, {3}),
        ]
        scn = scenario_of(FrameGrid(1, 3), cameras, 3)
        assert mramc(scn).schedule.total_rbs == exact_solve(scn).schedule.total_rbs == 3

    def test_deterministic_including_diagnostics(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            scn = random_instance(rng)
            assert mramc(scn) == mramc(scn)


class TestMMramc:
    def test_all_ones_equals_mramc(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            scn = random_instance(rng)
            mult = {t.id: 1 for t in scn.targets}
            a = m_mramc(scn, mult)
            b = mramc(scn)
            assert a.schedule == b.schedule
            assert a.status == b.status

    def test_two_cameras_for_one_target(self):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {1})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 1)
        result = m_mramc(scn, {1: 2})
        assert result.status is SolveStatus.FEASIBLE
        assert {a.camera_id for a in result.schedule.assignments} == {1, 2}
        assert result.diagnostics.unmet_multiplicity == ()

    def test_excess_multiplicity_is_reported_not_an_error(self):
        cameras = [cam(1, [8, 8], 8.0, {1})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 1)
        result = m_mramc(scn, {1: 3})
        assert result.status is SolveStatus.FEASIBLE
        assert result.diagnostics.unmet_multiplicity == ((1, 1, 3),)
        assert any("only 1" in note for note in result.diagnostics.notes)

    def test_a_round_that_adds_no_camera_does_not_end_the_rounds(self):
        # Round 2 adds nobody: camera 1 alone sees target 2 and camera 2
        # alone target 3.  Round 3 still gives target 1 its third camera.
        cameras = [cam(1, [2] * 6, 2.0, {1, 2}), cam(2, [2] * 6, 2.0, {1, 3}), cam(3, [2] * 6, 2.0, {1})]
        scn = scenario_of(FrameGrid(6, 1), cameras, 3)
        result = m_mramc(scn, {1: 3, 2: 3, 3: 3})
        assert sorted(a.camera_id for a in result.schedule.assignments) == [1, 2, 3]
        assert result.diagnostics.unmet_multiplicity == ((2, 1, 3), (3, 1, 3))

    def test_rounds_extend_without_moving_earlier_assignments(self):
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(80):
            scn = random_instance(rng)
            base = mramc(scn)
            if base.status is not SolveStatus.FEASIBLE:
                continue
            mult = {t.id: 2 for t in scn.targets}
            extended = m_mramc(scn, mult)
            assert set(base.schedule.assignments) <= set(extended.schedule.assignments)
            report = verify_schedule(extended.schedule, scn)
            for name in ("slot_capacity", "rb_exclusivity", "single_allocation", "coverage"):
                assert report.check(name).passed
            checked += 1
        assert checked > 30

    def test_unknown_target_in_multiplicity_is_an_error(self):
        scn = scenario_of(FrameGrid(2, 1), [cam(1, [8, 8], 8.0, {1})], 1)
        with pytest.raises(ValueError):
            m_mramc(scn, {99: 2})

    @pytest.mark.parametrize("want", [2.7, math.nan, math.inf, "2", 0])
    def test_non_integer_or_small_multiplicity_names_the_target(self, want):
        cameras = [cam(1, [8, 8], 8.0, {1}), cam(2, [8, 8], 8.0, {1})]
        scn = scenario_of(FrameGrid(2, 1), cameras, 1)
        with pytest.raises(ValueError, match="multiplicity of target 1 must be"):
            m_mramc(scn, {1: want})

    def test_rounds_stop_at_the_largest_covering_count(self):
        # No round past the largest number of cameras covering a target can
        # add one, so a huge multiplicity runs no more rounds than that.
        scn = generate_scenario(ScenarioConfig(num_targets=20, rng_seed=3))
        most = max(sum(t in covered for covered in scn.coverage.values()) for t in scn.target_ids)
        capped = m_mramc(scn, {t: most for t in scn.target_ids})
        start = time.perf_counter()
        huge = m_mramc(scn, {t: 10**9 for t in scn.target_ids})
        assert time.perf_counter() - start < 1.0
        assert huge.schedule == capped.schedule
        assert huge.diagnostics.relocation == capped.diagnostics.relocation
        scheduled = [scn.coverage.get(a.camera_id, frozenset()) for a in huge.schedule.assignments]
        count = {t: sum(t in covered for covered in scheduled) for t in sorted(scn.target_ids)}
        assert huge.diagnostics.unmet_multiplicity == tuple((t, n, 10**9) for t, n in count.items())

    def test_extending_a_given_mramc_result_changes_nothing(self):
        # Given no table, m_mramc extends the scenario's kept mramc result;
        # given a table of its own, it runs MRAMC afresh.
        rng = np.random.default_rng(41)
        statuses = Counter()
        for _ in range(60):
            scn = random_instance(rng)
            table = CandidateTable(scn.cameras, scn.grid)
            statuses[mramc(scn).status] += 1
            for want in (1, 2, 3):
                mult = {t.id: want for t in scn.targets}
                assert m_mramc(scn, mult, table) == m_mramc(scn, mult)
        # Infeasible bases (coverage and relocation) are returned as they are.
        assert set(statuses) == set(SolveStatus) - {SolveStatus.INFEASIBLE_CAPACITY}


def digest_scenarios():
    """Paper default, partial_random in a tight frame (some relocations
    fail), cell_edge (some coverage fails) and crowded_fading, seeds 0-7."""
    cell_edge_view = GeometrySpec(view_distance=(150.0, 150.0))
    for seed in range(8):
        yield generate_scenario(ScenarioConfig(num_targets=(10, 20, 30, 40)[seed % 4], rng_seed=seed))
        yield generate_scenario(
            ScenarioConfig(deployment="partial_random", num_targets=40, frame=FrameGrid(15, 3), rng_seed=seed)
        )
        yield generate_scenario(
            ScenarioConfig(deployment="cell_edge", num_targets=10, geometry=cell_edge_view, rng_seed=seed)
        )
        yield crowded_fading(seed)


def test_mramc_results_are_frozen():
    # The repr of every mramc and m_mramc (multiplicity 2 and 3) result,
    # diagnostics included, as the solvers gave them before m_mramc could
    # reuse an mramc result and before first_fit skipped blocked runs.
    lines = []
    for scn in digest_scenarios():
        table = CandidateTable(scn.cameras, scn.grid)
        lines.append(repr(mramc(scn, table)))
        for want in (2, 3):
            lines.append(repr(m_mramc(scn, {t.id: want for t in scn.targets}, table)))
    assert len(lines) == 96
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "158ab41bfb185ae9"


class TestJointSchedule:
    def test_traffic_item_kind_must_be_known(self):
        with pytest.raises(ValueError, match="kind must be 'surveillance' or 'traditional'"):
            TrafficItem(cam(1, [8, 8], 8.0, {1}), "bulk", 1.0)

    def grid(self):
        return FrameGrid(4, 2)

    def surveillance_items(self):
        return [
            TrafficItem.surveillance(cam(1, [8, 8, 8, 8], 8.0, {1, 2})),
            TrafficItem.surveillance(cam(2, [8, 8, 8, 8], 8.0, {3})),
        ]

    def test_explicit_target_subset_is_frozen(self):
        # Paper-default cameras watch only the even targets; four of them
        # also see odd ones, which count for nothing.  The schedule was
        # computed before the solvers read Scenario.coverage.
        scn = generate_scenario(ScenarioConfig(num_targets=20, rng_seed=5))
        items = [TrafficItem.surveillance(c) for c in scn.cameras] + [
            TrafficItem.traditional(200, 30.0, scn.cameras[0].per_subchannel_rate, alpha=0.5),
            TrafficItem.traditional(201, 12.0, scn.cameras[1].per_subchannel_rate, alpha=2.0),
        ]
        subset = frozenset(t for t in scn.target_ids if t % 2 == 0)
        result = joint_schedule(items, scn.grid, subset)
        assert result.status is SolveStatus.FEASIBLE
        assert result.schedule.total_rbs == 22
        assert result.schedule.covered_targets == subset
        assert [(a.camera_id, a.slot, a.start, a.length) for a in result.schedule.assignments] == [
            (4, 1, 4, 2), (7, 1, 6, 2), (9, 1, 1, 1), (15, 1, 2, 1), (20, 1, 8, 2), (23, 1, 16, 3),
            (56, 1, 10, 2), (71, 1, 12, 2), (75, 1, 3, 1), (200, 1, 19, 4), (201, 1, 14, 2),
        ]
        assert [s.camera_id for s in result.diagnostics.greedy] == [7, 9, 15, 75, 201, 4, 20, 56, 71, 23, 200]
        assert [s.camera_id for s in result.diagnostics.relocation if not s.moved] == [9]
        tscn = traffic_scenario(items, scn.grid, subset)
        assert sum(1 for c in scn.cameras if c.coverage_set & subset and c.coverage_set - subset) == 4
        assert verify_schedule(result.schedule, tscn).feasible
        assert hashlib.sha256(repr(result).encode()).hexdigest()[:16] == "318835409c75c089"

    def test_no_traditional_traffic_equals_mramc(self):
        items = self.surveillance_items()
        result = joint_schedule(items, self.grid())
        scn = traffic_scenario(items, self.grid())
        plain = mramc(scn)
        assert result.schedule == plain.schedule

    def test_huge_alpha_schedules_traditional_first(self):
        items = self.surveillance_items() + [
            TrafficItem.traditional(10, 8.0, [8, 8, 8, 8], alpha=1e9)
        ]
        result = joint_schedule(items, self.grid())
        assert result.status is SolveStatus.FEASIBLE
        assert result.diagnostics.greedy[0].camera_id == 10

    def test_alpha_scaling_moves_traditional_earlier_monotonically(self):
        rounds = []
        for alpha in (0.05, 0.2, 1.0, 5.0, 25.0):
            items = self.surveillance_items() + [
                TrafficItem.traditional(10, 8.0, [8, 8, 8, 8], alpha=alpha)
            ]
            result = joint_schedule(items, self.grid())
            order = [s.camera_id for s in result.diagnostics.greedy]
            rounds.append(order.index(10))
        assert rounds == sorted(rounds, reverse=True)

    def test_unschedulable_traditional_is_capacity_infeasible(self):
        items = self.surveillance_items() + [
            TrafficItem.traditional(10, 100.0, [1, 1, 1, 1], alpha=1.0)
        ]
        result = joint_schedule(items, self.grid())
        assert result.status is SolveStatus.INFEASIBLE_CAPACITY

    def test_feasible_joint_outputs_verify_against_traffic_scenario(self):
        items = self.surveillance_items() + [
            TrafficItem.traditional(10, 6.0, [2, 2, 2, 2], alpha=2.0),
            TrafficItem.traditional(11, 4.0, [4, 4, 4, 4], alpha=0.5),
        ]
        result = joint_schedule(items, self.grid())
        assert result.status is SolveStatus.FEASIBLE
        scn = traffic_scenario(items, self.grid())
        assert verify_schedule(result.schedule, scn).feasible
        scheduled = {a.camera_id for a in result.schedule.assignments}
        assert {10, 11} <= scheduled

    def test_equal_costs_go_to_the_lowest_id(self):
        # 1/0.1 and 3/(0.1*3) are equal, but the second reads
        # 9.999999999999998 in floating point.
        items = [
            TrafficItem.traditional(1, 8.0, [8, 8, 8, 8], alpha=0.1),
            TrafficItem.surveillance(cam(2, [3, 3, 3, 3], 9.0, {1, 2, 3}), alpha=0.1),
        ]
        result = joint_schedule(items, self.grid())
        assert [s.camera_id for s in result.diagnostics.greedy] == [1, 2]
        assert [s.average_cost for s in result.diagnostics.greedy] == [Fraction(10)] * 2

    def test_costs_equal_in_decimal_go_to_the_lowest_id(self):
        # 1/(0.6*3) and 1/(0.9*2) are both 1/1.8 in decimal; over the binary
        # values of 0.6 and 0.9 the second is smaller.
        items = [
            TrafficItem.surveillance(cam(1, [8, 8, 8, 8], 8.0, {1, 2, 3}), alpha=0.6),
            TrafficItem.surveillance(cam(4, [8, 8, 8, 8], 8.0, {4, 5}), alpha=0.9),
        ]
        result = joint_schedule(items, self.grid())
        assert [s.camera_id for s in result.diagnostics.greedy] == [1, 4]
        assert [s.average_cost for s in result.diagnostics.greedy] == [Fraction(5, 9)] * 2

    def test_order_equals_weighted_set_cover_greedy(self):
        # Each item is a set weighted min_phi/alpha; a traditional item's set
        # is a token of its own.  Decimal alphas make near-ties in floating
        # point, which the exact comparison must break as the reference does.
        rng = np.random.default_rng(4404)
        alphas = (0.1, 0.2, 0.3, 0.6, 0.9, 1.0, 1.5)
        for _ in range(400):
            scn = random_instance(rng)
            m = scn.grid.num_subchannels
            items = [TrafficItem.surveillance(c, alpha=float(rng.choice(alphas))) for c in scn.cameras]
            for j in range(int(rng.integers(0, 3))):
                rates = [float(rng.choice([0.0, 2.0, 4.0, 8.0])) for _ in range(m)]
                requirement = float(rng.integers(2, 17))
                items.append(TrafficItem.traditional(100 + j, requirement, rates, float(rng.choice(alphas))))
            sets, weights = {}, {}
            for item in items:
                if item.kind == "surveillance":
                    c = item.camera
                    slots = range(1, scn.grid.num_slots + 1)
                    runs = [brute_force_runs(c.rates_in_slot(s), c.rate_requirement) for s in slots]
                    covers = c.coverage_set & scn.target_ids
                else:
                    runs = [brute_force_runs(item.camera.per_subchannel_rate, item.camera.rate_requirement)]
                    covers = {("item", item.id)}
                lengths = [length for slot_runs in runs for _, length, _ in slot_runs]
                if lengths:
                    sets[item.id] = covers
                    weights[item.id] = Fraction(min(lengths)) / Fraction(str(item.alpha))
            reference = greedy_weighted_set_cover(set().union(*sets.values()), sets, weights)
            result = joint_schedule(items, scn.grid, scn.target_ids)
            assert [s.camera_id for s in result.diagnostics.greedy] == reference

    def test_traditional_item_is_a_camera_that_covers_nothing(self):
        item = TrafficItem.traditional(10, 6, [2, 2, 2, 2], alpha=2.0)
        assert (item.id, item.kind, item.alpha) == (10, "traditional", 2.0)
        assert item.camera == CameraNode(10, (0.0, 0.0), Omnidirectional(1.0), 6.0, (2.0, 2.0, 2.0, 2.0))
        assert traffic_scenario([item], self.grid()).cameras == (item.camera,)
        # A bad item fails where it is built, not inside joint_schedule.
        with pytest.raises(ValueError, match="rate_requirement must be positive"):
            TrafficItem.traditional(10, 0.0, [2, 2, 2, 2])
        with pytest.raises(ValueError, match="must cover no target"):
            TrafficItem(cam(1, [8, 8, 8, 8], 8.0, {1}), "traditional", 1.0)

    def test_duplicate_item_ids_rejected(self):
        items = [
            TrafficItem.surveillance(cam(1, [8] * 4, 8.0, {1})),
            TrafficItem.traditional(1, 4.0, [8] * 4),
        ]
        with pytest.raises(ValueError):
            joint_schedule(items, self.grid())

    def test_alpha_must_be_positive(self):
        # An infinite alpha has no exact cost to compare.
        for alpha in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                TrafficItem.traditional(1, 4.0, [8], alpha=alpha)


class TestBoundsAndSetCover:
    def test_bound_params_need_a_camera(self):
        with pytest.raises(ValueError, match="scenario has no cameras"):
            bound_params(scenario_of(FrameGrid(2, 1), [], 1))

    def test_harmonic_values(self):
        assert harmonic(1) == Fraction(1)
        assert harmonic(3) == Fraction(11, 6)
        with pytest.raises(ValueError):
            harmonic(0)

    def test_bound_params_match_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            scn = random_instance(rng)
            try:
                params = bound_params(scn)
            except ValueError:
                continue
            d_star = max(len(c.coverage_set & scn.target_ids) for c in scn.cameras)
            assert params.d_star == d_star
            assert params.h_d_star == harmonic(d_star)
            from support import brute_force_runs

            robusts = [
                run[2]
                for c in scn.cameras
                for slot in range(1, scn.grid.num_slots + 1)
                for run in brute_force_runs(c.rates_in_slot(slot), c.rate_requirement)
            ]
            assert params.r_max == max(robusts)
            assert params.r_min == min(r for r in robusts if r > 0)

    def test_the_ratio_bound_as_coded_fails_on_two_cameras(self):
        # Relocation keeps camera 1 on subchannel 1 and moves camera 2 to a
        # 2-RB run; the optimum puts camera 1 on subchannel 2 and camera 2 on
        # subchannel 1.  So (r_max/r_min)*H(d*) is not a guarantee here.
        scn = scenario_of(FrameGrid(3, 1), [cam(1, [6, 6, 8], 4.0, {1}), cam(2, [8, 6, 6], 8.0, {2})], 2)
        result = mramc(scn)
        assert result.status is SolveStatus.FEASIBLE
        assert result.schedule.total_rbs == 3
        assert verify_schedule(result.schedule, scn).feasible
        optimum = exact_solve(scn)
        assert optimum.status is SolveStatus.FEASIBLE and optimum.schedule.total_rbs == 2
        assert exhaustive_optimum(scn) == 2
        params = bound_params(scn)
        assert (params.r_max, params.r_min, params.d_star) == (8.0, 6.0, 1)
        bound = Fraction(params.r_max) / Fraction(params.r_min) * params.h_d_star
        assert bound == Fraction(4, 3)
        assert result.schedule.total_rbs > bound * 2

    def test_set_cover_greedy_small_example(self):
        order = greedy_weighted_set_cover(
            {1, 2, 3, 4, 5},
            {1: {1, 2, 3}, 2: {3, 4}, 3: {4, 5}, 4: {1, 5}},
            {1: 3, 2: 1, 3: 1, 4: 1},
        )
        # Ratios at the start: 1 -> 1, 2 -> 1/2, 3 -> 1/2, 4 -> 1/2; id 2 wins.
        assert order[0] == 2
        covered = set()
        for sid in order:
            covered |= {1: {1, 2, 3}, 2: {3, 4}, 3: {4, 5}, 4: {1, 5}}[sid]
        assert covered == {1, 2, 3, 4, 5}

    def test_set_cover_uncoverable_raises(self):
        with pytest.raises(ValueError):
            greedy_weighted_set_cover({1, 2}, {1: {1}}, {1: 1})
