"""Sweep runner, the channel-quality reference scheduler and CSV output."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from csrap import (
    CameraNode,
    FrameGrid,
    GeometrySpec,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    Schedule,
    SolveStatus,
    SweepSpec,
    TargetObject,
    baseline_schedule,
    generate_scenario,
    greedy_based_reference,
    harness,
    run_sweep,
    schedule_from_document,
    schedule_to_document,
    sweep_spec_from_document,
    solvers,
    verify_schedule,
)
from csrap.exact import DEFAULT_NODE_BUDGET
from csrap.harness import CSV_HEADER, apply_axis
from csrap.scenario import ScenarioFormatError
from csrap.solvers import CandidateTable, SolverResult, _scan_schedule
from support import brute_force_runs, random_instance


def cam(cam_id, rates, requirement, coverage):
    return CameraNode(
        id=cam_id,
        position=(float(cam_id), 0.0),
        geometry=Omnidirectional(1.0),
        rate_requirement=requirement,
        per_subchannel_rate=tuple(float(r) for r in rates),
        coverage_set=frozenset(coverage),
    )


SMALL_CONFIG = ScenarioConfig(
    area_side=120.0,
    deployment="partial_random",
    num_cameras=12,
    num_targets=8,
    geometry=GeometrySpec(view_distance=(30.0, 60.0)),
    frame=FrameGrid(8, 2),
)


class TestGreedyBasedReference:
    def test_single_camera_matches_baseline(self):
        grid = FrameGrid(3, 1)
        scn = Scenario(grid, (cam(1, [8, 4, 7], 9.0, {1}),), (TargetObject(1, (0, 0)),))
        assert greedy_based_reference(scn).schedule == baseline_schedule(scn).schedule

    def test_prefers_highest_robust_rate_camera(self):
        # Camera 2 owns the best single-RB candidate even though camera 1 has
        # the higher rate on the first subchannel.
        grid = FrameGrid(2, 1)
        cameras = (cam(1, [6, 6], 6.0, {1}), cam(2, [4, 8], 8.0, {2}))
        scn = Scenario(grid, cameras, (TargetObject(1, (0, 0)), TargetObject(2, (1, 0))))
        result = greedy_based_reference(scn)
        assert result.diagnostics.greedy[0].camera_id == 2

    def test_feasible_outputs_verify(self):
        rng = np.random.default_rng(19)
        seen = 0
        for _ in range(120):
            scn = random_instance(rng)
            result = greedy_based_reference(scn)
            if result.status is SolveStatus.FEASIBLE:
                assert verify_schedule(result.schedule, scn).feasible
                seen += 1
        assert seen > 40

    def test_schedule_is_the_same_with_and_without_a_table(self):
        # With or without a shared table, the reference must equal the scan
        # driven by each camera's best robust rate, found here by brute force
        # over every window of every slot vector (0.0 for a camera with no
        # run), on cameras with per-slot rate overrides.
        rng = np.random.default_rng(23)
        overridden = 0
        for _ in range(150):
            scn = random_instance(rng, max_slots=4)
            m, t = scn.grid.num_subchannels, scn.grid.num_slots
            cameras = []
            for camera in scn.cameras:
                overrides = {
                    slot: tuple(float(r) for r in rng.choice([0.0, 2.0, 4.0, 6.0, 8.0], m))
                    if rng.random() < 0.5
                    else camera.per_subchannel_rate
                    for slot in range(1, t + 1)
                    if rng.random() < 0.6
                }
                overridden += bool(overrides)
                cameras.append(replace(camera, slot_rate_overrides=overrides or None))
            scn = replace(scn, cameras=tuple(cameras))
            best = {
                camera.id: max(
                    (
                        rate
                        for slot in range(1, t + 1)
                        for _, _, rate in brute_force_runs(camera.rates_in_slot(slot), camera.rate_requirement)
                    ),
                    default=0.0,
                )
                for camera in scn.cameras
            }
            expected = _scan_schedule(scn, lambda camera, slot, pos: best[camera.id])
            assert greedy_based_reference(scn) == expected
            assert greedy_based_reference(scn, CandidateTable(scn.cameras, scn.grid)) == expected
        assert overridden > 200


class TestRunSweep:
    def test_trivial_point_mean_is_min_candidate_size(self):
        config = ScenarioConfig(
            area_side=50.0,
            deployment="partial_random",
            num_cameras=1,
            num_targets=1,
            geometry=GeometrySpec(view_distance=(30.0, 40.0)),
            rate_requirement_range=(4.0, 4.0),
            frame=FrameGrid(4, 1),
            channel=replace(
                ScenarioConfig().channel, shadowing_sigma_db=0.0, mcs_table=((-1e9, 4.0),)
            ),
        )
        spec = SweepSpec(
            config=config,
            axis="num_targets",
            values=(1,),
            trials=1,
            algorithms=("baseline", "mramc", "greedy_based", "exact"),
        )
        result = run_sweep(spec)
        for algo in spec.algorithms:
            assert result.cell(1, algo).mean_rbs == 1.0

    def test_identical_spec_reruns_identically(self):
        spec = SweepSpec(config=SMALL_CONFIG, values=(4, 8), trials=5, base_seed=3)
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert [(c.axis, c.value, c.algorithm, c.totals) for c in a.cells] == [
            (c.axis, c.value, c.algorithm, c.totals) for c in b.cells
        ]
        assert a.to_csv() == b.to_csv()

    def test_csv_header_contract(self):
        spec = SweepSpec(config=SMALL_CONFIG, values=(4,), trials=2)
        csv = run_sweep(spec).to_csv()
        assert csv.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == "axis,value,algorithm,mean_rbs,std_rbs,infeasible,trials"

    def test_timestamp_comment_is_optional(self):
        spec = SweepSpec(config=SMALL_CONFIG, values=(4,), trials=1)
        result = run_sweep(spec)
        assert result.to_csv(timestamp=True).startswith("# generated ")
        assert result.to_csv(timestamp=False).startswith("axis,")

    def test_freeze_placement_varies_only_the_channel(self):
        spec = SweepSpec(
            config=SMALL_CONFIG, values=(8,), trials=4, freeze_placement=True, base_seed=2
        )
        result = run_sweep(spec)
        assert result.cell(8, "mramc").trials == 4

    def test_m_mramc_and_exact_entries(self):
        config = replace(SMALL_CONFIG, num_cameras=6, num_targets=3, frame=FrameGrid(5, 2))
        spec = SweepSpec(
            config=config,
            values=(3,),
            trials=3,
            algorithms=("mramc", "m_mramc", "exact"),
            multiplicity=2,
        )
        result = run_sweep(spec)
        m = result.cell(3, "mramc")
        mm = result.cell(3, "m_mramc")
        ex = result.cell(3, "exact")
        for trial in range(3):
            if m.totals[trial] is not None:
                assert ex.totals[trial] is not None
                assert ex.totals[trial] <= m.totals[trial]
                assert mm.totals[trial] >= m.totals[trial]

    def test_a_trial_runs_mramc_once(self, monkeypatch):
        calls = Counter()
        counted_phase = solvers.mramc_greedy

        def counted(scenario, table=None):
            calls[scenario.grid, scenario.targets] += 1
            return counted_phase(scenario, table)

        monkeypatch.setattr(solvers, "mramc_greedy", counted)
        # A 6x1 frame leaves some trials without a conflict-free schedule.
        config = replace(SMALL_CONFIG, frame=FrameGrid(6, 1))
        spec = SweepSpec(config=config, values=(4, 8), trials=6, algorithms=("mramc", "m_mramc"), multiplicity=2)
        result = run_sweep(spec)
        assert sorted(calls.values()) == [1] * 12
        assert 0 < result.cell(8, "mramc").infeasible < 6
        calls.clear()
        # Either order reads the trial scenario's one result.
        reversed_result = run_sweep(replace(spec, algorithms=("m_mramc", "mramc")))
        assert sorted(calls.values()) == [1] * 12
        assert sorted(reversed_result.to_csv().splitlines()) == sorted(result.to_csv().splitlines())

    def test_a_schedule_failing_verification_aborts_the_sweep(self, monkeypatch):
        # An empty schedule claimed feasible covers no target.
        monkeypatch.setitem(
            harness.SOLVERS, "mramc", lambda *args: SolverResult(Schedule.empty(), SolveStatus.FEASIBLE)
        )
        spec = SweepSpec(config=SMALL_CONFIG, values=(4,), trials=2, algorithms=("baseline", "mramc"), base_seed=3)
        with pytest.raises(RuntimeError, match=r"schedule from 'mramc' failed verification on seed 3 .*coverage"):
            run_sweep(spec)

    def test_exact_and_exact_relaxed_entries(self):
        # A 4-RB frame is too small for some trials, which only the relaxed
        # mode can cover by letting runs share RBs.
        config = replace(SMALL_CONFIG, num_cameras=6, num_targets=4, frame=FrameGrid(4, 1))
        spec = SweepSpec(
            config=config, values=(4,), trials=6, algorithms=("exact", "exact_relaxed")
        )
        result = run_sweep(spec)
        exact = result.cell(4, "exact")
        relaxed = result.cell(4, "exact_relaxed")
        assert relaxed.infeasible == 0
        assert exact.infeasible >= 1
        for strict_total, relaxed_total in zip(exact.totals, relaxed.totals):
            if strict_total is not None:
                assert relaxed_total <= strict_total

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"values": ()}, "values must not be empty"),
            ({"trials": 0}, "trials must be >= 1"),
            ({"multiplicity": 0}, "multiplicity must be >= 1"),
            # An empty list would generate every scenario and write a
            # header-only CSV.
            ({"algorithms": []}, "algorithms must not be empty"),
        ],
    )
    def test_rejects_empty_values_and_counts_below_one(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SweepSpec(**fields)

    def test_fov_axis_sets_the_field_of_view(self):
        config = ScenarioConfig(geometry=GeometrySpec(kind="directional", fov_deg=120.0))
        assert apply_axis(config, "fov", 90).geometry == GeometrySpec(kind="directional", fov_deg=90.0)
        with pytest.raises(ValueError, match=r"fov_deg must lie in \(0, 360\]"):
            apply_axis(config, "fov", 0)

    def test_cell_of_an_unswept_pair_is_a_key_error(self):
        result = run_sweep(SweepSpec(config=SMALL_CONFIG, values=(3,), trials=1, algorithms=("mramc",)))
        assert result.cell(3, "mramc").trials == 1
        with pytest.raises(KeyError):
            result.cell(3, "baseline")

    def test_rejects_unknown_algorithm_or_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(algorithms=("quantum",))
        with pytest.raises(ValueError):
            SweepSpec(axis="humidity")
        with pytest.raises(ValueError, match="multiplicity must be an integer"):
            SweepSpec(multiplicity=2.5)
        assert type(SweepSpec(multiplicity=np.int64(2)).multiplicity) is int
        # int() would run 10 targets under a CSV row reading 10.7; a float
        # trials or base_seed would fail only at the first trial.
        with pytest.raises(ValueError, match=r"^values\[0\]: num_targets must be an integer, not 10.7$"):
            SweepSpec(values=(10.7,))
        for field in ("trials", "base_seed"):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, not 1.5$"):
                SweepSpec(**{field: 1.5})

    @pytest.mark.parametrize(
        "axis, values, message",
        [
            # "40" != 40 passes the repeat check, and float() would run both
            # as two identical rows over the same seeds.
            ("view_distance", ("40", 40), r"^values\[0\]: view_distance must be a number, not '40'$"),
            # float(True) would run a 1-degree field of view.
            ("fov", (True,), r"^values\[0\]: fov must be a number, not True$"),
            ("view_distance", (30.0, False), r"^values\[1\]: view_distance must be a number, not False$"),
            ("num_targets", (10, True), r"^values\[1\]: num_targets must be a number, not True$"),
            ("deployment", ("partial_random", 3), r"^values\[1\]: deployment must be a string, not 3$"),
        ],
    )
    def test_rejects_sweep_values_of_the_wrong_type(self, axis, values, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(axis=axis, values=values, trials=2, algorithms=("mramc",))

    @pytest.mark.parametrize(
        "fields, message",
        [
            # A non-empty string is truthy, so "no" would freeze placement.
            ({"freeze_placement": "no"}, r"^freeze_placement must be a boolean, not 'no'$"),
            ({"freeze_placement": 1}, r"^freeze_placement must be a boolean, not 1$"),
            ({"algorithms": [[1]]}, r"^algorithms\[0\]: unknown algorithm \[1\]; expected one of "),
            ({"algorithms": ("mramc", 3)}, r"^algorithms\[1\]: unknown algorithm 3; expected one of "),
            ({"algorithms": "mramc"}, r"^algorithms must be a list or tuple, not 'mramc'$"),
            ({"values": 5}, r"^values must be a list or tuple, not 5$"),
            ({"values": "ab"}, r"^values must be a list or tuple, not 'ab'$"),
            ({"axis": "fov", "values": (10**400,)}, r"^values\[0\]: fov_deg must lie in \(0, 360\]$"),
            ({"axis": "view_distance", "values": (10**400,)}, r"^values\[0\]: view_distance range must be finite$"),
            # Not a dataclass, so it would fail only in apply_axis's replace().
            ({"config": "x"}, r"^config must be a ScenarioConfig, not 'x'$"),
            ({"config": None}, r"^config must be a ScenarioConfig, not None$"),
        ],
    )
    def test_each_field_is_checked_by_the_spec(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(**fields)

    def test_a_list_is_kept_as_a_tuple(self):
        spec = SweepSpec(values=[4, 8], algorithms=["mramc"])
        assert (spec.values, spec.algorithms) == ((4, 8), ("mramc",))

    def test_spec_from_document(self):
        doc = {
            "axis": "view_distance",
            "values": [30, 40],
            "trials": 2,
            "algorithms": ["mramc"],
            "base_seed": 9,
            "freeze_placement": True,
            "config": {"deployment": "partial_random", "num_cameras": 12, "num_targets": 8},
        }
        spec = sweep_spec_from_document(doc)
        assert spec.axis == "view_distance"
        assert spec.values == (30, 40)
        assert spec.config.deployment == "partial_random"
        with pytest.raises(ScenarioFormatError):
            sweep_spec_from_document({"axis": "nope"})


class TestSolverOrder:
    @pytest.mark.parametrize(
        "config",
        [ScenarioConfig(num_targets=20, rng_seed=11), replace(SMALL_CONFIG, rng_seed=12)],
        ids=["paper_default", "partial_random"],
    )
    def test_solvers_sharing_a_scenario_answer_as_on_a_fresh_one(self, config):
        # Every solver reads the scenario's one candidate table and its run
        # lists, so a solver that changed them would change the next one's
        # result.
        def solve(scn, name):
            return harness.SOLVERS[name](scn, 2, DEFAULT_NODE_BUDGET)

        expected = {name: solve(generate_scenario(config), name) for name in harness.ALGORITHMS}
        scn = generate_scenario(config)
        for name in harness.ALGORITHMS + harness.ALGORITHMS[::-1]:
            assert solve(scn, name) == expected[name], name


class TestPerformance:
    def test_default_scenario_solves_promptly(self):
        # Soft budget: candidate enumeration is O(K M^2 T) and the greedy
        # loop O(K^2); the default 81-camera frame should be far under this.
        import time

        from csrap import ScenarioConfig, generate_scenario, mramc
        from csrap.solvers import CandidateTable

        scn = generate_scenario(ScenarioConfig(rng_seed=2))
        start = time.perf_counter()
        table = CandidateTable(scn.cameras, scn.grid)
        for solver in (mramc, baseline_schedule, greedy_based_reference):
            assert solver(scn, table).status is SolveStatus.FEASIBLE
        assert time.perf_counter() - start < 5.0


class TestScheduleDocuments:
    def test_round_trip_against_scenario(self):
        rng = np.random.default_rng(2)
        scn = random_instance(rng)
        result = baseline_schedule(scn)
        doc = schedule_to_document(result)
        rebuilt = schedule_from_document(doc, scn)
        assert rebuilt.assignments == result.schedule.assignments
        assert rebuilt.total_rbs == result.schedule.total_rbs

    def test_missing_fields_are_named(self):
        rng = np.random.default_rng(2)
        scn = random_instance(rng)
        with pytest.raises(ScenarioFormatError, match="assignments"):
            schedule_from_document({"total_rbs": 0}, scn)
        with pytest.raises(ScenarioFormatError, match="slot"):
            schedule_from_document(
                {"assignments": [{"camera_id": 1, "start": 1, "length": 1, "robust_rate": 8.0}], "total_rbs": 1},
                scn,
            )
