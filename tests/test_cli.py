"""End-to-end command line flows and exit codes."""

import json
from pathlib import Path

import pytest

from csrap.cli import main
from csrap.harness import ALGORITHMS

DATA = Path(__file__).parent / "data"


def write(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def small_config():
    return {
        "area": 120,
        "num_targets": 6,
        "num_cameras": 10,
        "deployment": "partial_random",
        "geometry": {"kind": "omnidirectional", "view_distance": [30, 60]},
        "rate_requirement": [4, 12],
        "frame": {"M": 8, "T": 2, "slot_capacity": None, "rho_ms": 10.0},
        "seed": 5,
    }


def one_camera_scenario():
    return {
        "area": 100.0,
        "frame": {"M": 3, "T": 1, "slot_capacity": None, "rho_ms": 10.0},
        "channel": None,
        "cameras": [
            {
                "id": 1,
                "x": 10.0,
                "y": 10.0,
                "geometry": {"kind": "omnidirectional", "view_distance": 30.0},
                "rate_requirement": 9.0,
                "rates": [8, 4, 7],
            }
        ],
        "targets": [{"id": 1, "x": 12.0, "y": 10.0}],
        "seed": 0,
    }


class TestPipeline:
    def test_generate_solve_verify_round_trip(self, tmp_path, capsys):
        cfg = write(tmp_path / "config.json", small_config())
        scenario_path = str(tmp_path / "scenario.json")
        assert main(["generate", "--config", cfg, "--out", scenario_path, "--quiet"]) == 0

        schedule_path = str(tmp_path / "schedule.json")
        code = main(["solve", scenario_path, "--algo", "exact", "--out", schedule_path, "--quiet"])
        assert code == 0
        assert main(["verify", scenario_path, schedule_path, "--quiet"]) == 0
        capsys.readouterr()

    def test_solve_mramc_on_hand_built_single_camera(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scn.json", one_camera_scenario())
        schedule_path = str(tmp_path / "sched.json")
        assert main(["solve", scenario_path, "--algo", "mramc", "--out", schedule_path, "--quiet"]) == 0
        doc = json.loads((tmp_path / "sched.json").read_text())
        assert doc["status"] == "feasible"
        assert doc["total_rbs"] == 3
        assert doc["assignments"] == [
            {"camera_id": 1, "slot": 1, "start": 1, "length": 3, "robust_rate": 4.0}
        ]
        capsys.readouterr()

    def test_verify_rejects_clobbered_schedule(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scn.json", one_camera_scenario())
        bad = {
            "assignments": [
                {"camera_id": 1, "slot": 1, "start": 1, "length": 2, "robust_rate": 4.0}
            ],
            "total_rbs": 2,
            "status": "feasible",
        }
        schedule_path = write(tmp_path / "sched.json", bad)
        assert main(["verify", scenario_path, schedule_path, "--quiet"]) == 1
        capsys.readouterr()

    def test_infeasible_scenario_exits_one(self, tmp_path, capsys):
        doc = one_camera_scenario()
        doc["targets"].append({"id": 2, "x": 90.0, "y": 90.0})
        scenario_path = write(tmp_path / "scn.json", doc)
        assert main(["solve", scenario_path, "--algo", "mramc", "--quiet"]) == 1
        capsys.readouterr()


def sweep_doc(**fields):
    return {
        "config": small_config(),
        "axis": "num_targets",
        "values": [2, 4],
        "trials": 3,
        "algorithms": ["baseline", "mramc"],
        "base_seed": 1,
        **fields,
    }


class TestSweepCommand:
    def test_sweep_csv_format_and_determinism(self, tmp_path, capsys):
        spec = write(tmp_path / "sweep.json", sweep_doc())
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert main(["sweep", spec, "--out", out1, "--quiet"]) == 0
        assert main(["sweep", spec, "--out", out2, "--quiet"]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        b = (tmp_path / "b.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "axis,value,algorithm,mean_rbs,std_rbs,infeasible,trials"
        capsys.readouterr()

    def test_timestamp_present_without_quiet(self, tmp_path, capsys):
        spec = write(tmp_path / "sweep.json", sweep_doc())
        out = str(tmp_path / "a.csv")
        assert main(["sweep", spec, "--out", out]) == 0
        assert (tmp_path / "a.csv").read_text().startswith("# generated ")
        capsys.readouterr()


class TestBoundsCommand:
    def test_bounds_output(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scn.json", one_camera_scenario())
        assert main(["bounds", scenario_path]) == 0
        out = capsys.readouterr().out
        assert "d_star: 1" in out
        assert "H(d_star): 1 (1.000000)" in out
        assert "r_max: 4" in out  # only the 3-RB run exists, robust rate 4
        assert "ratio_bound: 1.000000" in out


class TestErrorPaths:
    def test_malformed_scenario_names_field_and_exits_two(self, tmp_path, capsys):
        doc = one_camera_scenario()
        del doc["cameras"][0]["rate_requirement"]
        scenario_path = write(tmp_path / "scn.json", doc)
        assert main(["solve", scenario_path, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "rate_requirement" in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["solve", "/nonexistent/path.json", "--quiet"]) == 2
        capsys.readouterr()

    def test_invalid_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["solve", str(p), "--quiet"]) == 2
        capsys.readouterr()

    def test_usage_error_exits_two(self, capsys):
        assert main(["solve"]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_budget_exhaustion_exits_three(self, tmp_path, capsys):
        cfg = write(tmp_path / "config.json", small_config())
        scenario_path = str(tmp_path / "scenario.json")
        main(["generate", "--config", cfg, "--out", scenario_path, "--quiet"])
        assert main(["solve", scenario_path, "--algo", "exact", "--budget", "1", "--quiet"]) == 3
        capsys.readouterr()

    def test_budget_exhaustion_reports_search_progress(self, tmp_path, capsys):
        config = {
            "area": 200,
            "num_targets": 8,
            "num_cameras": 12,
            "deployment": "partial_random",
            "geometry": {"kind": "omnidirectional", "view_distance": [40, 60]},
            "frame": {"M": 12, "T": 3},
            "seed": 8,
        }
        cfg = write(tmp_path / "config.json", config)
        scenario_path = str(tmp_path / "scenario.json")
        main(["generate", "--config", cfg, "--out", scenario_path, "--quiet"])
        assert main(["solve", scenario_path, "--algo", "exact", "--budget", "400", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: exceeded 400 node expansions")
        assert "(nodes: 401, incumbent: 6 RBs, lower bound: 5 RBs)" in err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_a_usage_error(self, tmp_path, capsys, budget):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        assert main(["solve", scenario_path, "--algo", "exact", "--budget", budget, "--quiet"]) == 2
        assert "node_budget" in capsys.readouterr().err

    def test_seed_override_changes_generation(self, tmp_path, capsys):
        cfg = write(tmp_path / "config.json", small_config())
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["generate", "--config", cfg, "--out", a, "--seed", "1", "--quiet"])
        main(["generate", "--config", cfg, "--out", b, "--seed", "2", "--quiet"])
        assert (tmp_path / "a.json").read_text() != (tmp_path / "b.json").read_text()
        capsys.readouterr()


def with_camera(**fields):
    doc = one_camera_scenario()
    doc["cameras"][0].update(fields)
    return doc


class TestMalformedNumbers:
    """Documents that parse as JSON but hold values no scenario can have."""

    CASES = {
        "nan_rate": (with_camera(rates=[8, float("nan"), 7]), "cameras[0].rates[1]"),
        "inf_rate": (with_camera(rates=[float("inf"), 4, 7]), "cameras[0].rates[0]"),
        "nan_slot_rate": (
            with_camera(slot_rates={"1": [8, 4, float("nan")]}),
            "cameras[0].slot_rates[1][2]",
        ),
        "negative_inf_slot_rate": (
            with_camera(slot_rates={"1": [float("-inf"), 4, 7]}),
            "cameras[0].slot_rates[1][0]",
        ),
        "inf_requirement": (with_camera(rate_requirement=float("inf")), "cameras[0].rate_requirement"),
        "slot_out_of_range": (with_camera(slot_rates={"99": [8, 4, 7]}), "cameras[0].slot_rates[99]"),
        "negative_area": ({**one_camera_scenario(), "area": -100.0}, "area"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_field_path(self, tmp_path, capsys, case):
        doc, field = self.CASES[case]
        scenario_path = write(tmp_path / "scn.json", doc)
        assert main(["solve", scenario_path, "--algo", "mramc", "--quiet"]) == 2
        assert f"error: {field}:" in capsys.readouterr().err


def schedule_doc(total_rbs=1, **fields):
    run = {"camera_id": 1, "slot": 1, "start": 1, "length": 1, "robust_rate": 8.0, **fields}
    return {"assignments": [run], "total_rbs": total_rbs}


class TestMalformedDocuments:
    """Schedule and sweep documents whose fields have the wrong type."""

    CASES = {
        "string_slot": ("verify", schedule_doc(slot="1"), "assignments[0].slot"),
        "fractional_start": ("verify", schedule_doc(start=1.5), "assignments[0].start"),
        "list_camera_id": ("verify", schedule_doc(camera_id=[1]), "assignments[0].camera_id"),
        "string_robust_rate": ("verify", schedule_doc(robust_rate="x"), "assignments[0].robust_rate"),
        "list_total": ("verify", schedule_doc(total_rbs=[1]), "total_rbs"),
        "string_total": ("verify", schedule_doc(total_rbs="abc"), "total_rbs"),
        "float_total": ("verify", schedule_doc(total_rbs=6.0), "total_rbs"),
        "list_algorithm": ("sweep", sweep_doc(algorithms=[[1]]), "algorithms[0]"),
        "list_target_count": ("sweep", sweep_doc(values=[[1]]), "values[0]"),
        "null_view_distance": ("sweep", sweep_doc(axis="view_distance", values=[None]), "values[0]"),
        "boolean_fov": ("sweep", sweep_doc(axis="fov", values=[True]), "values[0]"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_field_path(self, tmp_path, capsys, case):
        command, doc, field = self.CASES[case]
        path = write(tmp_path / "doc.json", doc)
        if command == "verify":
            args = ["verify", str(DATA / "small.json"), path, "--quiet"]
        else:
            args = ["sweep", path, "--out", str(tmp_path / "out.csv"), "--quiet"]
        assert main(args) == 2
        assert f"error: {field}:" in capsys.readouterr().err


class TestGoldenOutputs:
    """``--quiet`` schedule documents of every algorithm, byte for byte.

    ``small.json`` is a partial_random instance; ``slot_rates.json`` gives
    every other camera its own rates in slots 2 and 3.  Both are small
    enough for the exact solver.
    """

    SCENARIOS = ("small", "slot_rates")

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_algorithm_has_a_golden_file(self, scenario):
        assert {p.stem for p in (DATA / "golden" / scenario).glob("*.json")} == set(ALGORITHMS)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_quiet_output_matches_golden(self, capsys, scenario, algo):
        args = ["solve", str(DATA / f"{scenario}.json"), "--algo", algo, "--multiplicity", "2", "--quiet"]
        assert main(args) == 0
        expected = (DATA / "golden" / scenario / f"{algo}.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected
