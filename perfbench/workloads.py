"""The benchmark's workloads.

Each workload turns the benchmark seed into inputs, runs op ``i`` through
csrap's public API (``run_op``), checks its results (``outcomes``), and can
replay the same op as the sequence of public calls the package makes, with a
span around each call (``replay_op``).  Op ``i`` draws its scenarios from
seed ``seed * SEED_STRIDE + i``, so ops never share inputs and runs with
different seeds never overlap.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

from csrap import (
    CandidateTable,
    FrameGrid,
    GeometrySpec,
    Scenario,
    ScenarioConfig,
    Schedule,
    SearchBudgetExceeded,
    SolverResult,
    SolveStatus,
    SweepSpec,
    baseline_schedule,
    derive_rates,
    exact_solve,
    generate_scenario,
    greedy_based_reference,
    load_scenario,
    m_mramc,
    mramc,
    mramc_greedy,
    mramc_relocate,
    run_sweep,
    save_scenario,
    schedule_from_document,
    schedule_to_document,
    verify_schedule,
)
from gate import GateViolation, Outcome, check_order, check_report
from tracing import Tracer

SEED_STRIDE = 1_000_000
PROCESS_TIMEOUT_S = 60
IMPORT_PROBE = "import time; t = time.perf_counter(); import csrap; print(time.perf_counter() - t)"


class OpFailed(RuntimeError):
    """An op that ended without a result (counted, not a gate violation)."""


class Workload:
    name = ""
    why = ""
    # The first ``quality_ops`` ops give the deterministic figures: the digest,
    # mramc_rbs_mean, infeasible_share and every per-layer count.
    quality_ops = 0

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        self.env = env  # for child interpreters: csrap from the same sources

    def op_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def params(self) -> dict[str, Any]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the inputs; called again for every set-up repeat."""

    def run_op(self, index: int) -> Any:
        """The timed part of op ``index``."""
        raise NotImplementedError

    def outcomes(self, index: int, pending: Any) -> list[Outcome]:
        """Untimed checks of a finished op; returns its results."""
        return pending

    def replay_op(self, index: int, tracer: Tracer) -> list[Outcome]:
        raise NotImplementedError

    def import_seconds(self) -> float:
        """`import csrap` in a fresh interpreter, timed inside it."""
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=self.env, capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT_S, check=True,
        )
        return float(proc.stdout)

    def extra_layer_metrics(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Traced solver calls shared by the replays
# ---------------------------------------------------------------------------


def traced_table(tracer: Tracer, scn: Scenario) -> CandidateTable:
    table = tracer.call("solvers.CandidateTable", CandidateTable, scn.cameras, scn.grid)
    slots = range(1, scn.grid.num_slots + 1)
    tracer.count("table.builds")
    tracer.count("table.candidates", sum(table.candidate_count(c.id) for c in scn.cameras))
    tracer.count("table.rate_vectors", sum(len({c.rates_in_slot(s) for s in slots}) for c in scn.cameras))
    tracer.count("table.slot_vectors", len(scn.cameras) * len(slots))
    return table


def traced_mramc(tracer: Tracer, scn: Scenario, table: CandidateTable) -> SolverResult:
    """``mramc`` as its two public phases, with the result ``mramc`` returns."""
    phase = tracer.call("solvers.mramc_greedy", mramc_greedy, scn, table)
    tracer.count("greedy.calls")
    tracer.count("greedy.steps", len(phase.trace))
    if phase.status is not SolveStatus.FEASIBLE:
        return SolverResult(Schedule.build(phase.assignments, scn.cameras, scn.target_ids), phase.status)
    result = tracer.call("solvers.mramc_relocate", mramc_relocate, phase.assignments, scn, table, phase.trace)
    steps = result.diagnostics.relocation
    tracer.count("relocate.steps", len(steps))
    tracer.count("relocate.moved", sum(1 for s in steps if s.moved))
    if result.status is SolveStatus.INFEASIBLE_RELOCATION:
        tracer.count("relocate.failed")
    return result


def traced_m_mramc(tracer: Tracer, scn: Scenario, table: CandidateTable, multiplicity: int) -> SolverResult:
    want = {t.id: multiplicity for t in scn.targets}
    result = tracer.call("solvers.m_mramc", m_mramc, scn, want, table)
    if result.status is SolveStatus.FEASIBLE:
        tracer.count("m_mramc.targets", len(scn.targets))
        tracer.count("m_mramc.unmet", len(result.diagnostics.unmet_multiplicity))
    return result


def traced_verify(tracer: Tracer, workload: str, seed: int, algorithm: str, result: SolverResult, scn: Scenario) -> None:
    report = tracer.call("model.verify_schedule", verify_schedule, result.schedule, scn)
    if not report.feasible:
        tracer.count("verify.failures")
    check_report(workload, seed, algorithm, report)


def feasible_total(result: SolverResult) -> int | None:
    return result.schedule.total_rbs if result.status is SolveStatus.FEASIBLE else None


# ---------------------------------------------------------------------------
# Sweep workloads: one single-trial run_sweep call per op
# ---------------------------------------------------------------------------


class SweepWorkload(Workload):
    algorithms: tuple[str, ...] = ()
    multiplicity = 2

    def config(self, index: int) -> ScenarioConfig:
        raise NotImplementedError

    def spec(self, index: int) -> SweepSpec:
        cfg = self.config(index)
        return SweepSpec(
            config=cfg,
            axis="num_targets",
            values=(cfg.num_targets,),
            trials=1,
            algorithms=self.algorithms,
            base_seed=self.op_seed(index),
            multiplicity=self.multiplicity,
        )

    def run_op(self, index: int) -> list[Outcome]:
        try:
            result = run_sweep(self.spec(index))
        except RuntimeError as exc:
            found = re.search(r"schedule from '(\w+)' failed verification", str(exc))
            if found is None:
                raise
            raise GateViolation(self.name, self.op_seed(index), found.group(1), str(exc)) from exc
        return [
            Outcome(c.algorithm, "infeasible" if c.totals[0] is None else "feasible", c.totals[0])
            for c in result.cells
        ]

    def replay_op(self, index: int, tracer: Tracer) -> list[Outcome]:
        """The calls run_sweep makes for one trial, in its order."""
        spec = self.spec(index)
        out = []
        with tracer.span("harness.run_sweep"):
            scn = tracer.call("scenario.generate_scenario", generate_scenario, replace(spec.config, rng_seed=spec.base_seed))
            table = traced_table(tracer, scn)
            for algo in spec.algorithms:
                if algo == "mramc":
                    result = traced_mramc(tracer, scn, table)
                elif algo == "m_mramc":
                    result = traced_m_mramc(tracer, scn, table, spec.multiplicity)
                elif algo == "baseline":
                    result = tracer.call("solvers.baseline_schedule", baseline_schedule, scn, table)
                else:
                    result = tracer.call("harness.greedy_based_reference", greedy_based_reference, scn, table)
                total = feasible_total(result)
                if total is not None:
                    traced_verify(tracer, self.name, spec.base_seed, algo, result, scn)
                out.append(Outcome(algo, "infeasible" if total is None else "feasible", total))
        return out


PAPER_CONFIG = ScenarioConfig()  # overall_grid, 81 omni cameras of 40 m, 500 m area, 50x20 frame
PAPER_TARGETS = (10, 20, 30, 40)


class PaperSweep(SweepWorkload):
    name = "paper_sweep"
    why = "paper default scenario: slot-constant rates and a 50x20 frame, so the candidate table is about 2/3 of a trial"
    algorithms = ("baseline", "mramc", "greedy_based", "m_mramc")
    quality_ops = 160

    def config(self, index: int) -> ScenarioConfig:
        return replace(PAPER_CONFIG, num_targets=PAPER_TARGETS[index % len(PAPER_TARGETS)])

    def params(self) -> dict[str, Any]:
        return {
            "config": "ScenarioConfig() defaults: overall_grid, 81 omni cameras (40 m), 500 m area, 50x20 frame",
            "num_targets": list(PAPER_TARGETS),
            "algorithms": list(self.algorithms),
            "multiplicity": self.multiplicity,
            "trials_per_op": 1,
        }


CROWDED_CONFIG = replace(
    ScenarioConfig(),
    num_targets=40,
    frame=FrameGrid(num_subchannels=25, num_slots=4),
    rate_requirement_range=(8.0, 20.0),
)
CROWDED_RATE_SETS = 8
# Slot rates are drawn at a lower transmit power than the scenario's 24 dBm.
# At 24 dBm most cameras reach the top MCS tier on every subchannel, so their
# slot vectors coincide; at 6 dBm about 9 in 10 slot vectors are distinct.
FADING_CHANNEL = replace(CROWDED_CONFIG.channel, tx_power_dbm=6.0)


class CrowdedFading(SweepWorkload):
    name = "crowded_fading"
    why = "a rate vector per camera and slot in a 25x4 frame: slots share almost no runs; 40 targets load relocation and m_mramc"
    algorithms = ("mramc", "m_mramc", "baseline")
    quality_ops = 160

    def setup(self) -> None:
        # The 81 cameras fill the 9x9 lattice exactly, so positions do not
        # depend on the op seed and one set of slot rates fits every op.
        cfg = CROWDED_CONFIG
        cams = generate_scenario(replace(cfg, rng_seed=self.op_seed(0))).cameras
        rng = np.random.default_rng([self.seed, 2])
        center = (cfg.area_side / 2.0, cfg.area_side / 2.0)
        m, t = cfg.frame.num_subchannels, cfg.frame.num_slots
        self.rate_sets = [
            {
                cam.id: {slot: derive_rates(cam.position, FADING_CHANNEL, rng, m, center) for slot in range(1, t + 1)}
                for cam in cams
            }
            for _ in range(CROWDED_RATE_SETS)
        ]

    def config(self, index: int) -> ScenarioConfig:
        return replace(CROWDED_CONFIG, rate_overrides=self.rate_sets[index % CROWDED_RATE_SETS])

    def params(self) -> dict[str, Any]:
        return {
            "config": "overall_grid, 81 omni cameras (40 m), 500 m area, 40 targets, 25x4 frame, requirements 8-20",
            "rate_overrides": (
                f"per camera and slot, drawn with derive_rates at {FADING_CHANNEL.tx_power_dbm} dBm in set-up; "
                f"{CROWDED_RATE_SETS} sets cycled"
            ),
            "algorithms": list(self.algorithms),
            "multiplicity": self.multiplicity,
            "trials_per_op": 1,
        }


# ---------------------------------------------------------------------------
# Exact ladder: branch and bound on small partial_random instances
# ---------------------------------------------------------------------------

# (cameras, targets, subchannels, slots).  With at most 10 cameras of at most
# 20 candidates each, exact_solve's up-front size check stays below the node
# budget, so every overrun is a search that expanded budget + 1 nodes.
EXACT_RUNGS = ((8, 6, 8, 2), (10, 7, 10, 2))
# 32 instances per op hold about six budget overruns.  With fewer, op times
# come in lumps, one per overrun count, and the median jumps between lumps
# from one seed to the next.
EXACT_SEEDS_PER_OP = 16
EXACT_BUDGET = 1000


def exact_config(rung: tuple[int, int, int, int], seed: int) -> ScenarioConfig:
    cameras, targets, subchannels, slots = rung
    return ScenarioConfig(
        area_side=200.0,
        num_targets=targets,
        num_cameras=cameras,
        deployment="partial_random",
        geometry=GeometrySpec(view_distance=(40.0, 60.0)),
        frame=FrameGrid(num_subchannels=subchannels, num_slots=slots),
        rng_seed=seed,
    )


def exact_outcome(scn: Scenario, mode: str, name: str) -> tuple[SolverResult | None, Outcome]:
    try:
        result = exact_solve(scn, mode, EXACT_BUDGET)
    except SearchBudgetExceeded:
        return None, Outcome(name, "budget_exceeded", None, EXACT_BUDGET + 1)
    return result, Outcome(name, result.status.value, feasible_total(result), result.diagnostics.nodes_expanded)


class ExactLadder(Workload):
    name = "exact_ladder"
    why = "small partial_random instances at a fixed node budget: the branch and bound is about 90% of an op"
    quality_ops = 20

    def params(self) -> dict[str, Any]:
        return {
            "deployment": "partial_random, 200 m area, omni view 40-60 m",
            "rungs_cameras_targets_subchannels_slots": [list(r) for r in EXACT_RUNGS],
            "seeds_per_op": EXACT_SEEDS_PER_OP,
            "instances_per_op": EXACT_SEEDS_PER_OP * len(EXACT_RUNGS),
            "node_budget": EXACT_BUDGET,
            "per_instance": "exact_solve strict, exact_solve relaxed, mramc, verify_schedule",
        }

    def instances(self, index: int):
        for j in range(EXACT_SEEDS_PER_OP):
            seed = self.op_seed(index * EXACT_SEEDS_PER_OP + j)
            for rung in EXACT_RUNGS:
                yield seed, exact_config(rung, seed)

    def run_op(self, index: int) -> list[Outcome]:
        out = []
        for seed, cfg in self.instances(index):
            scn = generate_scenario(cfg)
            strict, exact = exact_outcome(scn, "with_exclusivity", "exact")
            _, relaxed = exact_outcome(scn, "without_exclusivity", "exact_relaxed")
            heuristic = mramc(scn)
            if exact.total_rbs is not None:
                check_report(self.name, seed, "exact", verify_schedule(strict.schedule, scn))
            greedy = Outcome("mramc", heuristic.status.value, feasible_total(heuristic))
            if greedy.total_rbs is not None:
                check_report(self.name, seed, "mramc", verify_schedule(heuristic.schedule, scn))
            check_order(self.name, seed, relaxed, exact, greedy)
            out += [exact, relaxed, greedy]
        return out

    def replay_op(self, index: int, tracer: Tracer) -> list[Outcome]:
        out = []
        with tracer.span("exact_ladder.op"):
            for seed, cfg in self.instances(index):
                scn = tracer.call("scenario.generate_scenario", generate_scenario, cfg)
                with tracer.span("exact.exact_solve"):
                    strict, exact = exact_outcome(scn, "with_exclusivity", "exact")
                tracer.count("exact.calls")
                tracer.count("exact.nodes", exact.nodes)
                tracer.count("exact.overruns", exact.status == "budget_exceeded")
                with tracer.span("exact.exact_solve_relaxed"):
                    _, relaxed = exact_outcome(scn, "without_exclusivity", "exact_relaxed")
                tracer.count("relaxed.calls")
                tracer.count("relaxed.nodes", relaxed.nodes)
                heuristic = traced_mramc(tracer, scn, traced_table(tracer, scn))
                if exact.total_rbs is not None:
                    traced_verify(tracer, self.name, seed, "exact", strict, scn)
                greedy = Outcome("mramc", heuristic.status.value, feasible_total(heuristic))
                if greedy.total_rbs is not None:
                    traced_verify(tracer, self.name, seed, "mramc", heuristic, scn)
                out += [exact, relaxed, greedy]
        return out


# ---------------------------------------------------------------------------
# CLI solve: one `python -m csrap.cli solve` process per op
# ---------------------------------------------------------------------------

# The paper default with 40 targets: with 20, the mean mramc total of 32
# documents varied by 6% (IQR over median) from seed to seed; with 40, by 2%.
CLI_CONFIG = replace(ScenarioConfig(), num_targets=40)
CLI_ALGORITHMS = ("mramc", "baseline", "greedy_based")
CLI_DOCUMENTS = 32
IMPORT_PROBES = 5


def dump(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class CliSolve(Workload):
    name = "cli_solve"
    why = "a csrap solve process per op: import time, load_scenario and document output"
    quality_ops = 96

    def __init__(self, seed: int, workdir: Path, src: Path):
        super().__init__(seed, workdir, src)
        self.schedule_path = workdir / "schedule.json"

    def params(self) -> dict[str, Any]:
        return {
            "config": "ScenarioConfig() defaults: overall_grid, 81 omni cameras (40 m), 500 m area, 40 targets, 50x20 frame",
            "documents": CLI_DOCUMENTS,
            "algorithms": list(CLI_ALGORITHMS),
            "command": "python -m csrap.cli solve <doc> --algo <algo> --quiet --out <file>",
            "clients": 1,
        }

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.documents = []
        self.scenarios = []
        for d in range(CLI_DOCUMENTS):
            path = self.workdir / f"scenario-{d}.json"
            text = dump(save_scenario(generate_scenario(replace(CLI_CONFIG, rng_seed=self.op_seed(d)))))
            path.write_text(text, encoding="utf-8")
            self.documents.append(path)
            self.scenarios.append(load_scenario(json.loads(text)))

    def job(self, index: int) -> tuple[int, str]:
        return (index // len(CLI_ALGORITHMS)) % CLI_DOCUMENTS, CLI_ALGORITHMS[index % len(CLI_ALGORITHMS)]

    def run_op(self, index: int) -> int:
        doc, algo = self.job(index)
        self.schedule_path.unlink(missing_ok=True)
        command = [
            sys.executable, "-m", "csrap.cli", "solve", str(self.documents[doc]),
            "--algo", algo, "--quiet", "--out", str(self.schedule_path),
        ]
        try:
            proc = subprocess.run(command, env=self.env, capture_output=True, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed(f"csrap solve --algo {algo} ran over {PROCESS_TIMEOUT_S} s") from exc
        if proc.returncode not in (0, 1):
            raise OpFailed(f"csrap solve --algo {algo} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.returncode

    def outcomes(self, index: int, pending: int) -> list[Outcome]:
        doc, algo = self.job(index)
        seed = self.op_seed(doc)
        scn = self.scenarios[doc]
        out = json.loads(self.schedule_path.read_text(encoding="utf-8"))
        feasible = out["status"] == SolveStatus.FEASIBLE.value
        if feasible != (pending == 0):
            raise GateViolation(self.name, seed, algo, f"exit code {pending} with status {out['status']}")
        if feasible:
            check_report(self.name, seed, algo, verify_schedule(schedule_from_document(out, scn), scn))
        return [Outcome(algo, out["status"], out["total_rbs"] if feasible else None)]

    def replay_op(self, index: int, tracer: Tracer) -> list[Outcome]:
        """The calls cmd_solve makes, in process, then the benchmark's check."""
        doc, algo = self.job(index)
        with tracer.span("cli.cmd_solve"):
            with open(self.documents[doc], "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            scn = tracer.call("scenario.load_scenario", load_scenario, raw)
            if algo == "mramc":
                result = traced_mramc(tracer, scn, traced_table(tracer, scn))
            elif algo == "baseline":
                result = tracer.call("solvers.baseline_schedule", baseline_schedule, scn)
            else:
                result = tracer.call("harness.greedy_based_reference", greedy_based_reference, scn)
            out = tracer.call("harness.schedule_to_document", schedule_to_document, result)
            self.schedule_path.write_text(dump(out), encoding="utf-8")
        total = feasible_total(result)
        if total is not None:
            traced_verify(tracer, self.name, self.op_seed(doc), algo, result, scn)
        return [Outcome(algo, result.status.value, total)]

    def extra_layer_metrics(self) -> dict[str, float]:
        probes = [self.import_seconds() for _ in range(IMPORT_PROBES)]
        return {"cli.import_ms": statistics.median(probes) * 1e3}


WORKLOADS = {w.name: w for w in (PaperSweep, CrowdedFading, ExactLadder, CliSolve)}
