"""Acceptance gate: oracle equivalence, bound verification and trend checks.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).  Sweep-based criteria use seeded configurations chosen so
the compared effects are much larger than sampling noise; channel parameters
in those configurations are test choices, not defaults.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from csrap import (
    CameraNode,
    CandidateAllocation,
    CandidateTable,
    ChannelParams,
    FrameGrid,
    GeometrySpec,
    Omnidirectional,
    Scenario,
    ScenarioConfig,
    SolveStatus,
    SweepSpec,
    TargetObject,
    TrafficItem,
    baseline_schedule,
    bound_params,
    exact_solve,
    greedy_based_reference,
    joint_schedule,
    m_mramc,
    mramc,
    mramc_greedy,
    run_sweep,
    traffic_scenario,
    verify_schedule,
)
from csrap.cli import main as cli_main
from support import all_subsets_cover_optimum, exhaustive_optimum, greedy_weighted_set_cover, random_instance, slot_runs

N_ORACLE_INSTANCES = 500


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number:2d} {name}: {status}{suffix}")


@dataclass
class OracleRecord:
    scenario: object
    z_oracle: int | None
    z_exact: int | None
    z_relaxed: int | None
    z_relaxed_oracle: int | None
    mramc_total: int | None
    greedy_total: int | None
    ratio_bound: float | None
    h_d_star: float | None


@pytest.fixture(scope="module")
def oracle_records():
    import time

    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    records = []
    for _ in range(N_ORACLE_INSTANCES):
        scn = random_instance(rng, max_cameras=6, max_targets=8, max_subchannels=6, max_slots=2)
        z_oracle = exhaustive_optimum(scn, with_exclusivity=True)
        res = exact_solve(scn)
        z_exact = res.schedule.total_rbs if res.status is SolveStatus.FEASIBLE else None
        res_ws = exact_solve(scn, "without_exclusivity")
        z_ws = res_ws.schedule.total_rbs if res_ws.status is SolveStatus.FEASIBLE else None
        z_ws_oracle = all_subsets_cover_optimum(scn)
        m = mramc(scn)
        g = mramc_greedy(scn)
        try:
            params = bound_params(scn)
            ratio, h = params.ratio(), float(params.h_d_star)
        except ValueError:
            ratio, h = None, None
        records.append(
            OracleRecord(
                scenario=scn,
                z_oracle=z_oracle,
                z_exact=z_exact,
                z_relaxed=z_ws,
                z_relaxed_oracle=z_ws_oracle,
                mramc_total=m.schedule.total_rbs if m.status is SolveStatus.FEASIBLE else None,
                greedy_total=g.total_rbs if g.status is SolveStatus.FEASIBLE else None,
                ratio_bound=ratio,
                h_d_star=h,
            )
        )
    return records, time.perf_counter() - start


def test_criterion_01_exact_solver_matches_exhaustive_oracle(oracle_records):
    records, elapsed = oracle_records
    mismatches = [
        i
        for i, r in enumerate(records)
        if r.z_exact != r.z_oracle or r.z_relaxed != r.z_relaxed_oracle
    ]
    passed = not mismatches and len(records) >= 500 and elapsed < 300.0
    report(
        1,
        "exact solver equals exhaustive enumeration",
        passed,
        f"{len(records)} instances, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )
    assert passed


def test_criterion_02_relocation_respects_ratio_bound(oracle_records):
    records, _ = oracle_records
    checked = 0
    violations = []
    for i, r in enumerate(records):
        if r.mramc_total is None or r.z_exact is None:
            continue
        checked += 1
        if r.mramc_total > r.ratio_bound * r.z_exact + 1e-9:
            violations.append(i)
    passed = checked >= 200 and not violations
    report(
        2,
        "mramc within (r_max/r_min)*H(d*) of the optimum",
        passed,
        f"{checked} feasible instances, {len(violations)} violations",
    )
    assert passed


def test_criterion_03_greedy_phase_respects_harmonic_bound(oracle_records):
    records, _ = oracle_records
    checked = 0
    violations = []
    for i, r in enumerate(records):
        if r.greedy_total is None or r.z_relaxed is None or r.h_d_star is None:
            continue
        checked += 1
        if r.greedy_total > r.h_d_star * r.z_relaxed + 1e-9:
            violations.append(i)
    passed = checked >= 200 and not violations
    report(
        3,
        "greedy phase within H(d*) of the relaxed optimum",
        passed,
        f"{checked} instances, {len(violations)} violations",
    )
    assert passed


def test_criterion_04_feasible_schedules_satisfy_all_constraints():
    rng = np.random.default_rng(515)
    feasible_outputs = 0
    failures = 0
    while feasible_outputs < 1000:
        scn = random_instance(rng)
        mult = {t.id: 2 for t in scn.targets}
        items = [TrafficItem.surveillance(c) for c in scn.cameras] + [
            TrafficItem.traditional(1000, 4.0, scn.cameras[0].per_subchannel_rate)
        ]
        candidates = [
            (baseline_schedule(scn), scn),
            (mramc(scn), scn),
            (greedy_based_reference(scn), scn),
            (exact_solve(scn), scn),
            (m_mramc(scn, mult), scn),
            (joint_schedule(items, scn.grid, scn.target_ids), traffic_scenario(items, scn.grid, scn.target_ids)),
        ]
        for result, reference in candidates:
            if result.status is not SolveStatus.FEASIBLE or result.relaxed:
                continue
            feasible_outputs += 1
            if not verify_schedule(result.schedule, reference).feasible:
                failures += 1
    passed = failures == 0
    report(
        4,
        "all feasible solver outputs pass the verifier",
        passed,
        f"{feasible_outputs} schedules, {failures} failures",
    )
    assert passed


def test_criterion_05_unit_candidate_instances_degenerate_to_set_cover():
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(100):
        k = int(rng.integers(2, 8))
        y = int(rng.integers(2, 9))
        coverage = []
        for _ in range(k):
            size = int(rng.integers(1, y + 1))
            coverage.append(set(int(v) + 1 for v in rng.choice(y, size=size, replace=False)))
        for t in range(1, y + 1):
            if not any(t in cov for cov in coverage):
                coverage[int(rng.integers(0, k))].add(t)
        t_slots = int(rng.integers(1, 3))
        cameras = [
            CameraNode(
                id=i + 1,
                position=(float(i), 0.0),
                geometry=Omnidirectional(1.0),
                rate_requirement=8.0,
                per_subchannel_rate=(8.0,),
                coverage_set=frozenset(coverage[i]),
            )
            for i in range(k)
        ]
        scn = Scenario(
            FrameGrid(1, t_slots),
            tuple(cameras),
            tuple(TargetObject(t, (float(t), 1.0)) for t in range(1, y + 1)),
        )
        sequence = [s.camera_id for s in mramc_greedy(scn).trace]
        reference = greedy_weighted_set_cover(
            range(1, y + 1),
            {i + 1: coverage[i] for i in range(k)},
            {i + 1: 1 for i in range(k)},
        )
        if sequence != reference:
            mismatches += 1
    passed = mismatches == 0
    report(5, "unit-candidate greedy equals set-cover greedy", passed, f"100 instances, {mismatches} mismatches")
    assert passed


def stderr_rbs(cell):
    """Standard error of a sweep cell's mean RB count over its feasible trials."""
    vals = cell.feasible_totals
    return cell.std_rbs / math.sqrt(len(vals)) if vals else math.nan


def monotone_violation(means, stderrs, non_increasing=True):
    """Worst tolerated-inversion accounting: at most one inversion and only
    within one standard error of the difference."""
    inversions = []
    for a, b, sa, sb in zip(means, means[1:], stderrs, stderrs[1:]):
        diff = b - a if non_increasing else a - b
        if diff > 1e-12:
            inversions.append((diff, math.sqrt(sa * sa + sb * sb)))
    if not inversions:
        return None
    if len(inversions) > 1:
        return f"{len(inversions)} inversions"
    diff, se = inversions[0]
    if diff > se:
        return f"inversion {diff:.3f} exceeds 1 SE {se:.3f}"
    return None


def test_criterion_06_target_sweep_ordering_and_monotonicity():
    spec = SweepSpec(
        config=ScenarioConfig(),
        axis="num_targets",
        values=(10, 20, 30, 40),
        trials=300,
        algorithms=("baseline", "mramc", "greedy_based"),
        base_seed=1,
    )
    result = run_sweep(spec)
    ordering_ok = True
    details = []
    for v in spec.values:
        m = result.cell(v, "mramc").mean_rbs
        b = result.cell(v, "baseline").mean_rbs
        g = result.cell(v, "greedy_based").mean_rbs
        details.append(f"{v}: {m:.1f}<={b:.1f}<={g:.1f}")
        if not (m <= b <= g):
            ordering_ok = False
    means = [result.cell(v, "mramc").mean_rbs for v in spec.values]
    ses = [stderr_rbs(result.cell(v, "mramc")) for v in spec.values]
    mono_problem = monotone_violation(means, ses, non_increasing=False)
    passed = ordering_ok and mono_problem is None
    report(
        6,
        "target-count sweep ordering mramc <= baseline <= greedy-based",
        passed,
        "; ".join(details) + (f"; {mono_problem}" if mono_problem else ""),
    )
    assert passed


def _view_sweep(config, values, trials=200, seed=11):
    out = {}
    for deployment in ("partial_random", "cell_edge"):
        spec = SweepSpec(
            config=replace(config, deployment=deployment),
            axis="view_distance",
            values=values,
            trials=trials,
            algorithms=("baseline", "mramc"),
            base_seed=seed,
        )
        out[deployment] = run_sweep(spec)
    return out


def _check_view_criterion(results, values):
    problems = []
    for algo in ("mramc", "baseline"):
        for deployment, res in results.items():
            means = [res.cell(v, algo).mean_rbs for v in values]
            ses = [stderr_rbs(res.cell(v, algo)) for v in values]
            mono = monotone_violation(means, ses, non_increasing=True)
            if mono:
                problems.append(f"{deployment}/{algo}: {mono}")
        for v in values:
            cell = results["cell_edge"].cell(v, algo).mean_rbs
            rand = results["partial_random"].cell(v, algo).mean_rbs
            if not cell >= rand:
                problems.append(f"{algo}@{v}: cell {cell:.2f} < random {rand:.2f}")
    return problems


def test_criterion_07_view_distance_trends_and_cell_edge_penalty():
    # Compact cells keep every target reachable from the edge annulus; the
    # path-loss window is centered so camera radius maps onto rate tiers.
    omni = ScenarioConfig(
        area_side=70.0,
        deployment="partial_random",
        num_cameras=100,
        num_targets=60,
        geometry=GeometrySpec(kind="omnidirectional", view_distance=(40.0, 40.0)),
        rate_requirement_range=(13.0, 16.0),
        frame=FrameGrid(15, 4),
        channel=ChannelParams(pathloss_intercept_db=201.0, pathloss_slope_db=45.0, shadowing_sigma_db=2.0),
    )
    directional = replace(
        omni,
        area_side=140.0,
        geometry=GeometrySpec(kind="directional", view_distance=(80.0, 80.0), fov_deg=120.0),
        frame=FrameGrid(20, 8),
        channel=ChannelParams(pathloss_intercept_db=187.5, pathloss_slope_db=45.0, shadowing_sigma_db=2.0),
    )
    omni_values = (30, 40, 50, 60)
    dir_values = (60, 80, 100)
    problems = _check_view_criterion(_view_sweep(omni, omni_values), omni_values)
    problems += [
        f"directional {p}" for p in _check_view_criterion(_view_sweep(directional, dir_values), dir_values)
    ]
    passed = not problems
    report(
        7,
        "view-distance decline and cell-edge >= random",
        passed,
        "; ".join(problems) if problems else "omni 30-60m and directional 60-100m, both deployments",
    )
    assert passed


def test_criterion_08_fov_sweep_mramc_declines_faster_than_greedy_based():
    config = ScenarioConfig(
        area_side=500.0,
        deployment="partial_random",
        num_cameras=50,
        num_targets=40,
        geometry=GeometrySpec(kind="directional", view_distance=(80.0, 80.0), fov_deg=120.0),
        rate_requirement_range=(4.0, 20.0),
    )
    spec = SweepSpec(
        config=config,
        axis="fov",
        values=(60, 120, 180, 240, 300),
        trials=200,
        algorithms=("mramc", "greedy_based"),
        base_seed=5,
    )
    result = run_sweep(spec)
    declines = {}
    for algo in spec.algorithms:
        first = result.cell(spec.values[0], algo).mean_rbs
        last = result.cell(spec.values[-1], algo).mean_rbs
        declines[algo] = first - last
    passed = declines["mramc"] > declines["greedy_based"]
    report(
        8,
        "fov sweep: mramc decline strictly exceeds greedy-based",
        passed,
        f"mramc {declines['mramc']:.2f} vs greedy-based {declines['greedy_based']:.2f}",
    )
    assert passed


def test_criterion_09_worked_micro_example():
    camera = CameraNode(
        id=1,
        position=(0.0, 0.0),
        geometry=Omnidirectional(1.0),
        rate_requirement=9.0,
        per_subchannel_rate=(8.0, 4.0, 7.0),
        coverage_set=frozenset({1}),
    )
    table = CandidateTable([camera], FrameGrid(3, 1))
    cands = [CandidateAllocation(1, 1, *run) for run in slot_runs(table, 1)[0]]
    expected = CandidateAllocation(1, 1, 1, 3, 4.0)
    ok = cands == [expected] and 4.0 * 3 >= 9.0 > 4.0 * 2
    scn = Scenario(FrameGrid(3, 1), (camera,), (TargetObject(1, (0.0, 0.0)),))
    base = baseline_schedule(scn)
    ok = ok and base.schedule.assignments == (expected,) and base.schedule.total_rbs == 3
    report(9, "rates [8,4,7] with requirement 9 give one 3-RB run at rate 4", ok)
    assert ok


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path, capsys):
    config = {
        "area": 120,
        "num_targets": 6,
        "num_cameras": 10,
        "deployment": "partial_random",
        "geometry": {"kind": "omnidirectional", "view_distance": [30, 60]},
        "rate_requirement": [4, 12],
        "frame": {"M": 8, "T": 2, "slot_capacity": None, "rho_ms": 10.0},
        "seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    sweep = {
        "config": config,
        "axis": "num_targets",
        "values": [2, 4],
        "trials": 4,
        "algorithms": ["baseline", "mramc", "greedy_based"],
        "base_seed": 3,
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(sweep))

    outputs = []
    for tag in ("one", "two"):
        scn = tmp_path / f"scn_{tag}.json"
        sched = tmp_path / f"sched_{tag}.json"
        csv = tmp_path / f"sweep_{tag}.csv"
        assert cli_main(["generate", "--config", str(cfg_path), "--seed", "9", "--out", str(scn), "--quiet"]) == 0
        assert cli_main(["solve", str(scn), "--algo", "mramc", "--out", str(sched), "--quiet"]) == 0
        assert cli_main(["sweep", str(sweep_path), "--out", str(csv), "--quiet"]) == 0
        outputs.append((scn.read_bytes(), sched.read_bytes(), csv.read_bytes()))
    capsys.readouterr()
    passed = outputs[0] == outputs[1]
    report(10, "repeated CLI invocations are byte-identical", passed)
    assert passed
