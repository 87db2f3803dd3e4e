"""End-to-end command line flows and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csrap
from csrap import harness
from csrap.cli import main
from csrap.harness import ALGORITHMS
from csrap.scenario import ScenarioConfig, derive_rates, generate_scenario, load_scenario

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


def layout_trap_scenario():
    """Eight cameras, each the only one seeing its target, with 3-RB minimum
    runs in a 26x1 frame.  Cameras 7 and 8 can only send on subchannels
    1-3, so the runs fit the frame's capacity but have no overlap-free
    layout."""
    return {
        "area": 200.0,
        "frame": {"M": 26, "T": 1, "slot_capacity": None, "rho_ms": 10.0},
        "channel": None,
        "cameras": [
            {
                "id": i,
                "x": 20.0 * i,
                "y": 10.0,
                "geometry": {"kind": "omnidirectional", "view_distance": 5.0},
                "rate_requirement": 3.0,
                "rates": [1] * 26 if i <= 6 else [1] * 3 + [0] * 23,
            }
            for i in range(1, 9)
        ],
        "targets": [{"id": i, "x": 20.0 * i + 1.0, "y": 10.0} for i in range(1, 9)],
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

    def test_solve_prints_a_summary_by_default(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scn.json", one_camera_scenario())
        assert main(["solve", scenario_path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "algorithm: mramc",
            "status: feasible",
            "total_rbs: 3",
            "  camera 1: slot 1, subchannels 1-3 (3 RBs at rate 4)",
        ]

    def test_summary_of_an_infeasible_solve_ends_with_its_note(self, tmp_path, capsys):
        doc = one_camera_scenario()
        doc["targets"].append({"id": 2, "x": 90.0, "y": 90.0})
        scenario_path = write(tmp_path / "scn.json", doc)
        assert main(["solve", scenario_path, "--algo", "baseline"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "algorithm: baseline",
            "status: infeasible_coverage",
            "total_rbs: 3",
            "  camera 1: slot 1, subchannels 1-3 (3 RBs at rate 4)",
            "  note: uncovered targets: [2]",
        ]

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]])
    def test_out_dash_is_stdout(self, tmp_path, capsys, quiet):
        # With "-" stdout holds what it holds without --out: the summary, or
        # with --quiet the schedule document alone.
        scenario_path = write(tmp_path / "scn.json", one_camera_scenario())
        assert main(["solve", scenario_path, *quiet]) == 0
        expected = capsys.readouterr().out
        assert main(["solve", scenario_path, "--out", "-", *quiet]) == 0
        assert capsys.readouterr().out == expected
        assert expected.startswith("{") == bool(quiet)


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

    def test_seed_option_is_the_base_seed(self, tmp_path, capsys):
        assert main(["sweep", write(tmp_path / "a.json", sweep_doc(base_seed=7)), "--quiet"]) == 0
        expected = capsys.readouterr().out
        assert main(["sweep", write(tmp_path / "b.json", sweep_doc()), "--seed", "7", "--quiet"]) == 0
        assert capsys.readouterr().out == expected
        assert main(["sweep", write(tmp_path / "c.json", sweep_doc()), "--quiet"]) == 0
        assert capsys.readouterr().out != expected

    def test_timestamp_present_without_quiet(self, tmp_path, capsys):
        spec = write(tmp_path / "sweep.json", sweep_doc())
        out = str(tmp_path / "a.csv")
        assert main(["sweep", spec, "--out", out]) == 0
        assert (tmp_path / "a.csv").read_text().startswith("# generated ")
        capsys.readouterr()

    @pytest.mark.parametrize(
        ("axis", "values", "field", "message"),
        [
            ("num_targets", [4, -3], "values[1]", "num_targets must be >= 1"),
            ("view_distance", [-5], "values[0]", "view_distance range"),
            ("deployment", ["partial_random", "bogus"], "values[1]", "deployment must be one of"),
            ("num_targets", [5, 5], "values[1]", "repeats values[0]"),
            ("view_distance", [40, 40.0], "values[1]", "repeats values[0]"),
        ],
    )
    def test_out_of_range_value_fails_before_any_trial(
        self, tmp_path, capsys, monkeypatch, axis, values, field, message
    ):
        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "generate_scenario", no_trials)
        spec = write(tmp_path / "sweep.json", sweep_doc(axis=axis, values=values))
        assert main(["sweep", spec, "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"error: {field}: {message}" in err
        assert not (tmp_path / "out.csv").exists()


class TestBoundsCommand:
    def test_bounds_output(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scn.json", one_camera_scenario())
        assert main(["bounds", scenario_path]) == 0
        out = capsys.readouterr().out
        assert "d_star: 1" in out
        assert "H(d_star): 1 (1.000000)" in out
        assert "r_max: 4" in out  # only the 3-RB run exists, robust rate 4
        assert "ratio_bound: 1.000000" in out

    def test_no_covered_target_exits_one(self, tmp_path, capsys):
        doc = one_camera_scenario()
        doc["targets"] = [{"id": 1, "x": 90.0, "y": 90.0}]
        assert main(["bounds", write(tmp_path / "scn.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "bounds unavailable: no camera covers any target\n"
        assert captured.out == ""


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

    def test_invalid_generator_config_exits_two(self, tmp_path, capsys):
        config = dict(small_config(), deployment="overall_grid")
        config["geometry"] = {"kind": "directional", "view_distance": [30, 60], "fov": 90}
        cfg = write(tmp_path / "config.json", config)
        assert main(["generate", "--config", cfg, "--quiet"]) == 2
        assert capsys.readouterr().err == "error: overall_grid requires omnidirectional cameras\n"

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        out = str(tmp_path / "missing" / "out.json")
        assert main(["solve", scenario_path, "--out", out, "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] ")

    def test_usage_error_exits_two(self, capsys):
        assert main(["solve"]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["bounds", "{scn}", "--out", "{out}"],
            ["verify", "{scn}", "{scn}", "--out", "{out}"],
            ["solve", "{scn}", "--seed", "3"],
        ],
        ids=["bounds_out", "verify_out", "solve_seed"],
    )
    def test_option_the_command_does_not_read_exits_two(self, tmp_path, capsys, args):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        out = tmp_path / "out.txt"
        assert main([a.format(scn=scenario_path, out=out) for a in args]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_flags_a_run_far_outside_the_frame(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        schedule_path = write(tmp_path / "schedule.json", schedule_doc(total_rbs=10**18, length=10**18))
        assert main(["verify", scenario_path, schedule_path]) == 1
        assert "allocation_validity: FAIL  ((1, 'run outside frame'),)" in capsys.readouterr().out

    def test_budget_exhaustion_exits_three(self, tmp_path, capsys):
        # MRAMC's schedule costs 4 RBs above a root bound of 3: the search
        # overruns at its second node and reports MRAMC's cost as the incumbent.
        cfg = write(tmp_path / "config.json", {**small_config(), "seed": 6})
        scenario_path = str(tmp_path / "scenario.json")
        main(["generate", "--config", cfg, "--out", scenario_path, "--quiet"])
        assert main(["solve", scenario_path, "--algo", "exact", "--budget", "1", "--quiet"]) == 3
        assert "(nodes: 2, incumbent: 4 RBs, lower bound: 3 RBs)" in capsys.readouterr().err

    def test_budget_exhaustion_reports_search_progress(self, tmp_path, capsys):
        # Weak rates: the first covers have no overlap-free layout, so the
        # search runs to the budget with an incumbent above the optimum.
        config = {
            "area": 200,
            "num_targets": 12,
            "num_cameras": 20,
            "deployment": "partial_random",
            "geometry": {"kind": "omnidirectional", "view_distance": [40, 60]},
            "rate_requirement": [10, 20],
            "channel": {"tx_power_dbm": -15},
            "frame": {"M": 12, "T": 2},
            "seed": 46,
        }
        cfg = write(tmp_path / "config.json", config)
        scenario_path = str(tmp_path / "scenario.json")
        main(["generate", "--config", cfg, "--out", scenario_path, "--quiet"])
        assert main(["solve", scenario_path, "--algo", "exact", "--budget", "3200", "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: exceeded 3200 node expansions")
        assert "(nodes: 3201, incumbent: 13 RBs, lower bound: 10 RBs)" in err

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_a_usage_error(self, tmp_path, capsys, budget, algo):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        assert main(["solve", scenario_path, "--algo", algo, "--budget", budget, "--quiet"]) == 2
        assert "node_budget" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_multiplicity_below_one_is_a_usage_error(self, tmp_path, capsys, algo):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        assert main(["solve", scenario_path, "--algo", algo, "--multiplicity", "-3", "--quiet"]) == 2
        assert "multiplicity must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("option", "text", "name"), [("--budget", "abc", "node_budget"), ("--multiplicity", "1.5", "multiplicity")]
    )
    def test_non_integer_option_is_a_usage_error(self, tmp_path, capsys, option, text, name):
        scenario_path = write(tmp_path / "scenario.json", one_camera_scenario())
        assert main(["solve", scenario_path, option, text, "--quiet"]) == 2
        assert f"argument {option}: {name} must be an integer, not '{text}'" in capsys.readouterr().err

    def test_relaxed_solve_outlasts_a_long_layout_search(self, tmp_path, capsys):
        scenario_path = write(tmp_path / "scenario.json", layout_trap_scenario())
        assert main(["solve", scenario_path, "--algo", "exact_relaxed", "--budget", "100000", "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["total_rbs"] == 24

    def test_seed_override_changes_generation(self, tmp_path, capsys):
        cfg = write(tmp_path / "config.json", small_config())
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["generate", "--config", cfg, "--out", a, "--seed", "1", "--quiet"])
        main(["generate", "--config", cfg, "--out", b, "--seed", "2", "--quiet"])
        assert (tmp_path / "a.json").read_text() != (tmp_path / "b.json").read_text()
        capsys.readouterr()

    def test_generate_without_config_uses_the_defaults(self, tmp_path, capsys):
        out = tmp_path / "scn.json"
        assert main(["generate", "--out", str(out)]) == 0
        assert load_scenario(json.loads(out.read_text())) == generate_scenario(ScenarioConfig())
        assert capsys.readouterr().err == "generated 81 cameras / 20 targets (overall_grid, seed 0)\n"

    def test_generate_summary_warns_of_uncoverable_targets(self, tmp_path, capsys):
        # Cell-edge cameras that see 5 m leave most targets of a 120 m area unseen.
        config = dict(small_config(), deployment="cell_edge", geometry={"kind": "omnidirectional", "view_distance": [5, 5]})
        out = tmp_path / "scn.json"
        assert main(["generate", "--config", write(tmp_path / "config.json", config), "--out", str(out)]) == 0
        uncovered = load_scenario(json.loads(out.read_text())).uncovered_targets()
        assert uncovered
        warning = f"; WARNING uncoverable targets: {list(uncovered)}"
        assert capsys.readouterr().err == f"generated 10 cameras / 6 targets (cell_edge, seed 5){warning}\n"


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
        "short_rates": (with_camera(rates=[8, 4]), "cameras[0].rates"),
        "long_slot_rates": (with_camera(slot_rates={"1": [8, 4, 7, 7]}), "cameras[0].slot_rates[1]"),
        "slot_out_of_range": (with_camera(slot_rates={"99": [8, 4, 7]}), "cameras[0].slot_rates[99]"),
        "non_integer_slot_key": (with_camera(slot_rates={"1.5": [8, 4, 7]}), "cameras[0].slot_rates"),
        # Keys int() would read as slot 1 or 10; only ASCII digits name a slot.
        "signed_slot_key": (with_camera(slot_rates={"+1": [8, 4, 7]}), "cameras[0].slot_rates"),
        "spaced_slot_key": (with_camera(slot_rates={" 1": [8, 4, 7]}), "cameras[0].slot_rates"),
        "arabic_indic_slot_key": (with_camera(slot_rates={"\u0661": [8, 4, 7]}), "cameras[0].slot_rates"),
        "underscored_slot_key": (
            {**with_camera(slot_rates={"1_0": [8, 4, 7]}), "frame": {"M": 3, "T": 10}},
            "cameras[0].slot_rates",
        ),
        "negative_area": ({**one_camera_scenario(), "area": -100.0}, "area"),
        "negative_id_seeding_rates": ({**with_camera(id=-1, rates=None), "channel": {}}, "cameras[0].id"),
        "null_area_seeding_rates": ({**with_camera(rates=None), "area": None, "channel": {}}, "cameras[0].rates"),
        # A misspelt key would drop the camera's slot rates without a word.
        "unknown_camera_key": (with_camera(slot_rate={"1": [8, 4, 7]}), "cameras[0].slot_rate"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_field_path(self, tmp_path, capsys, case):
        doc, field = self.CASES[case]
        scenario_path = write(tmp_path / "scn.json", doc)
        assert main(["solve", scenario_path, "--algo", "mramc", "--quiet"]) == 2
        assert f"error: {field}:" in capsys.readouterr().err


def test_repeated_slot_is_rejected(tmp_path, capsys):
    # "2" and "02" name one slot; the later key must not silently replace
    # the earlier one's rates.  Written unsorted, so "02" comes later.
    doc = json.loads((DATA / "slot_rates.json").read_text(encoding="utf-8"))
    camera = doc["cameras"][1]
    camera["slot_rates"]["02"] = [0.0] * len(camera["rates"])
    scenario_path = tmp_path / "scn.json"
    scenario_path.write_text(json.dumps(doc))
    assert main(["solve", str(scenario_path), "--algo", "mramc", "--quiet"]) == 2
    assert "error: cameras[1].slot_rates[02]: repeats slot 2" in capsys.readouterr().err


def test_repeated_json_key_is_rejected(tmp_path, capsys):
    # A JSON object that writes camera 1's slot key "2" twice: the later
    # value must not silently replace the zero rates of the first.
    doc = json.loads((DATA / "slot_rates.json").read_text(encoding="utf-8"))
    camera = doc["cameras"][1]
    zeros = json.dumps([0.0] * len(camera["rates"]))
    slot_rates = ", ".join(f'"{slot}": {json.dumps(rates)}' for slot, rates in camera["slot_rates"].items())
    camera["slot_rates"] = "SLOT_RATES"
    text = json.dumps(doc).replace('"SLOT_RATES"', f'{{"2": {zeros}, {slot_rates}}}')
    scenario_path = tmp_path / "scn.json"
    scenario_path.write_text(text)
    assert main(["solve", str(scenario_path), "--algo", "mramc", "--quiet"]) == 2
    assert 'error: scenario: repeated key "2"' in capsys.readouterr().err


def schedule_doc(total_rbs=1, **fields):
    run = {"camera_id": 1, "slot": 1, "start": 1, "length": 1, "robust_rate": 8.0, **fields}
    return {"assignments": [run], "total_rbs": total_rbs}


def oversized_frame_config():
    # A slot count no sequence can index, with slot capacities left to default.
    return dict(small_config(), frame={"M": 6, "T": 10**400})


class TestMalformedDocuments:
    """Schedule, sweep and config documents whose fields have the wrong type."""

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
        "string_targets_in_config": ("generate", dict(small_config(), num_targets="6"), "num_targets"),
        "oversized_frame_config": ("generate", oversized_frame_config(), "frame"),
        "oversized_frame_sweep": ("sweep", sweep_doc(config=oversized_frame_config()), "config.frame"),
        "zero_targets_in_sweep_config": ("sweep", sweep_doc(config=dict(small_config(), num_targets=0)), "config.num_targets"),
        "unknown_sweep_config_key": ("sweep", sweep_doc(config={**small_config(), "sed": 3}), "config.sed"),
        "unknown_config_key": ("generate", {**small_config(), "sed": 3}, "sed"),
        "unknown_sweep_key": ("sweep", sweep_doc(trial=5), "trial"),
        "unknown_schedule_key": ("verify", schedule_doc(rate=8.0), "assignments[0].rate"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_field_path(self, tmp_path, capsys, case):
        command, doc, field = self.CASES[case]
        path = write(tmp_path / "doc.json", doc)
        if command == "verify":
            args = ["verify", str(DATA / "small.json"), path, "--quiet"]
        elif command == "generate":
            args = ["generate", "--config", path, "--out", str(tmp_path / "out.json"), "--quiet"]
        else:
            args = ["sweep", path, "--out", str(tmp_path / "out.csv"), "--quiet"]
        assert main(args) == 2
        assert f"error: {field}:" in capsys.readouterr().err

    def test_empty_algorithms_exit_two_without_a_csv(self, tmp_path, capsys):
        path = write(tmp_path / "doc.json", sweep_doc(algorithms=[]))
        assert main(["sweep", path, "--out", str(tmp_path / "out.csv"), "--quiet"]) == 2
        assert "error: algorithms must not be empty\n" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


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


# A fresh interpreter that imports csrap from the same sources as this one.
FRESH_ENV = {**os.environ, "PYTHONPATH": str(Path(csrap.__file__).resolve().parents[1])}


def run_fresh(script, *args):
    """The last stdout line of ``script`` run in a fresh interpreter, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], env=FRESH_ENV, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


SOLVE_VERIFY_BOUNDS = """
import json, sys
from csrap.cli import main
from csrap.harness import SOLVERS
scenario, out = sys.argv[1:]
codes = {}
for algo in sorted(SOLVERS):
    codes[algo] = main(["solve", scenario, "--algo", algo, "--quiet", "--out", out])
    codes["verify " + algo] = main(["verify", scenario, out, "--quiet"])
codes["bounds"] = main(["bounds", scenario])
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""

LOAD = """
import json, sys
from csrap.scenario import load_scenario
with open(sys.argv[1], encoding="utf-8") as fh:
    scenario = load_scenario(json.load(fh))
rates = {c.id: c.per_subchannel_rate for c in scenario.cameras}
print(json.dumps({"rates": rates, "numpy": "numpy" in sys.modules}))
"""


class TestNumpyImport:
    """numpy is imported only to draw random numbers, so a document that
    carries every camera's rates is solved, verified and bounded without it."""

    @pytest.mark.parametrize("scenario", TestGoldenOutputs.SCENARIOS)
    def test_documents_with_rates_never_import_numpy(self, tmp_path, scenario):
        got = run_fresh(SOLVE_VERIFY_BOUNDS, DATA / f"{scenario}.json", tmp_path / "schedule.json")
        expected = {algo: 0 for algo in harness.SOLVERS}
        expected.update({f"verify {algo}": 0 for algo in harness.SOLVERS}, bounds=0)
        assert got == {"codes": expected, "numpy": False}

    def test_rates_are_derived_for_a_camera_without_them(self, tmp_path):
        doc = json.loads((DATA / "small.json").read_text(encoding="utf-8"))
        scn = load_scenario(doc)
        for cam in doc["cameras"]:
            del cam["rates"]
        got = run_fresh(LOAD, write(tmp_path / "scenario.json", doc))
        center = (scn.area_side / 2.0, scn.area_side / 2.0)
        expected = {
            str(cam.id): list(
                derive_rates(
                    cam.position, scn.channel, np.random.default_rng([scn.seed, 1, cam.id]), scn.grid.num_subchannels, center
                )
            )
            for cam in scn.cameras
        }
        assert got == {"rates": expected, "numpy": True}
