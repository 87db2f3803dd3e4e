"""Measurement loop, metrics and output of the csrap benchmark.

Imported by ``run.py`` once csrap is importable from the checkout's sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

from gate import GateViolation, check_replay, digest
from tracing import NullTracer, Tracer
from workloads import WORKLOADS, OpFailed, Workload

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_ms_tail: the highest percentile with this many samples beyond it
# Times are reported at a reference speed: each measured time is scaled by
# REFERENCE_NOMINAL_S over the time a fixed reference loop took around it
# (see timed_loop).  On a shared host the machine's speed drifts by up to 2x
# over seconds to minutes, so raw times of the same code spread by 20-40%
# from run to run; the scaling divides that drift out and leaves a change in
# csrap's own speed in full.  Raw times are kept in the report and results.
REFERENCE_ITERATIONS = 2500
REFERENCE_NOMINAL_S = 0.00025  # the loop's time on an idle core of a 2-core Xeon VM

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "mramc_rbs_mean": "RB",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics of the traced run.  self_ms is self time per op; counts
# and ratios cover the replayed ops; a layer a workload never calls reads 0.
PER_LAYER = {
    "solvers.CandidateTable.self_ms": "ms",
    "solvers.CandidateTable.candidates": "count",
    "solvers.CandidateTable.reuse_ratio": "ratio",
    "scenario.generate_scenario.self_ms": "ms",
    "solvers.mramc_greedy.self_ms": "ms",
    "solvers.mramc_greedy.steps": "count",
    "solvers.mramc_relocate.self_ms": "ms",
    "solvers.mramc_relocate.moved_ratio": "ratio",
    "solvers.mramc_relocate.failed": "count",
    "solvers.m_mramc.self_ms": "ms",
    "solvers.m_mramc.unmet_ratio": "ratio",
    "solvers.baseline_schedule.self_ms": "ms",
    "harness.greedy_based_reference.self_ms": "ms",
    "exact.exact_solve.self_ms": "ms",
    "exact.exact_solve.nodes": "count",
    "exact.exact_solve.nodes_per_s": "1/s",
    "exact.exact_solve.budget_overruns": "count",
    "exact.exact_solve_relaxed.self_ms": "ms",
    "exact.exact_solve_relaxed.nodes": "count",
    "model.verify_schedule.self_ms": "ms",
    "model.verify_schedule.failures": "count",
    "cli.import_ms": "ms",
    "scenario.load_scenario.self_ms": "ms",
    "harness.schedule_to_document.self_ms": "ms",
    "harness.run_sweep.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * k / len(ordered)


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop that calls no csrap code: the machine's speed right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, probes: list[float]) -> float:
    """``seconds`` scaled by REFERENCE_NOMINAL_S over the median of the reference probes taken around it."""
    return seconds * REFERENCE_NOMINAL_S / statistics.median(probes)


def timed_loop(w: Workload, seconds: float, min_ops: int) -> dict:
    """Closed loop, one client: each op starts when the previous one ends.

    Runs for ``seconds`` and at least ``min_ops`` ops.  An op that raises is
    counted as failed and the loop goes on; a gate violation ends the run.
    A reference probe runs before the first op and after every op's checks,
    timed apart from the ops.  Op ``k`` runs between probes ``k`` and
    ``k + 1`` and is scaled by the median of probes ``k - 1`` to ``k + 2``,
    so that one probe disturbed by a timer tick moves no op far.
    """
    times: list[float] = []  # each op
    spans: list[float] = []  # each op with its untimed checks: the closed loop's cycle
    refs = [reference_seconds()]
    ops: list = []
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        t0 = time.perf_counter()
        try:
            pending = w.run_op(i)
            t1 = time.perf_counter()
            ops.append(w.outcomes(i, pending))
        except GateViolation:
            raise
        except Exception as exc:  # noqa: BLE001 - a failed op is counted and reported, the run goes on
            t1 = time.perf_counter()
            ops.append(None)
            errors.append(f"op {i}: {exc}" if isinstance(exc, OpFailed) else f"op {i}: {traceback.format_exc(limit=3)}")
        times.append(t1 - t0)
        spans.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
        if t1 - start >= seconds and len(ops) >= min_ops:
            return {
                "times": times,
                "spans": spans,
                "refs": refs,
                "ops": ops,
                "errors": errors,
                "wall": time.perf_counter() - start,
                "norm_times": [at_reference_speed(t, refs[max(0, k - 1) : k + 3]) for k, t in enumerate(times)],
                "norm_spans": [at_reference_speed(t, refs[max(0, k - 1) : k + 3]) for k, t in enumerate(spans)],
            }


def quality(ops: list) -> dict:
    """Deterministic figures of a fixed prefix of ops."""
    results = [o for op in ops if op is not None for o in op]
    solved = [o for o in results if o.status != "budget_exceeded"]
    mramc_rbs = [o.total_rbs for o in solved if o.algorithm == "mramc" and o.total_rbs is not None]
    return {
        "digest": digest([op or [] for op in ops]),
        "mramc_rbs_mean": statistics.fmean(mramc_rbs) if mramc_rbs else 0.0,
        "infeasible_share": ratio(sum(1 for o in solved if o.status != "feasible"), len(solved)),
        "budget_overrun_share": ratio(len(results) - len(solved), len(results)),
    }


def replay(w: Workload, ops: list, untraced: list[float]) -> tuple[dict, Tracer]:
    """Replay the first quality_ops ops with spans; return per-layer metrics."""
    tracer = Tracer()
    plain, traced = [], []
    for i in range(w.quality_ops):
        # Each op is replayed without spans, then with them, so that drift in
        # the machine's speed falls on both sides of the overhead alike.
        t0 = time.perf_counter()
        w.replay_op(i, NullTracer())
        t1 = time.perf_counter()
        tracer.op = i
        replayed = w.replay_op(i, tracer)
        plain.append(t1 - t0)
        traced.append(time.perf_counter() - t1)
        if ops[i] is not None:
            check_replay(w.name, w.op_seed(i), ops[i], replayed)
    n = len(traced)
    own = tracer.self_by_name()
    c = tracer.counters

    def self_ms(name: str) -> float:
        return own.get(name, 0.0) / n * 1e3

    sweep_overhead = sum(
        untraced[i] - tracer.children_seconds(root[0])
        for i, root in tracer.root_spans().items()
        if root[2] == "harness.run_sweep"
    )
    slot_vectors = c.get("table.slot_vectors", 0)
    metrics = {
        "solvers.CandidateTable.self_ms": self_ms("solvers.CandidateTable"),
        "solvers.CandidateTable.candidates": ratio(c.get("table.candidates", 0), c.get("table.builds", 0)),
        "solvers.CandidateTable.reuse_ratio": 1.0 - ratio(c.get("table.rate_vectors", 0), slot_vectors) if slot_vectors else 0.0,
        "scenario.generate_scenario.self_ms": self_ms("scenario.generate_scenario"),
        "solvers.mramc_greedy.self_ms": self_ms("solvers.mramc_greedy"),
        "solvers.mramc_greedy.steps": ratio(c.get("greedy.steps", 0), c.get("greedy.calls", 0)),
        "solvers.mramc_relocate.self_ms": self_ms("solvers.mramc_relocate"),
        "solvers.mramc_relocate.moved_ratio": ratio(c.get("relocate.moved", 0), c.get("relocate.steps", 0)),
        "solvers.mramc_relocate.failed": c.get("relocate.failed", 0),
        "solvers.m_mramc.self_ms": self_ms("solvers.m_mramc"),
        "solvers.m_mramc.unmet_ratio": ratio(c.get("m_mramc.unmet", 0), c.get("m_mramc.targets", 0)),
        "solvers.baseline_schedule.self_ms": self_ms("solvers.baseline_schedule"),
        "harness.greedy_based_reference.self_ms": self_ms("harness.greedy_based_reference"),
        "exact.exact_solve.self_ms": self_ms("exact.exact_solve"),
        "exact.exact_solve.nodes": ratio(c.get("exact.nodes", 0), c.get("exact.calls", 0)),
        "exact.exact_solve.nodes_per_s": ratio(c.get("exact.nodes", 0), own.get("exact.exact_solve", 0.0)),
        "exact.exact_solve.budget_overruns": c.get("exact.overruns", 0),
        "exact.exact_solve_relaxed.self_ms": self_ms("exact.exact_solve_relaxed"),
        "exact.exact_solve_relaxed.nodes": ratio(c.get("relaxed.nodes", 0), c.get("relaxed.calls", 0)),
        "model.verify_schedule.self_ms": self_ms("model.verify_schedule"),
        "model.verify_schedule.failures": c.get("verify.failures", 0),
        "cli.import_ms": 0.0,
        "scenario.load_scenario.self_ms": self_ms("scenario.load_scenario"),
        "harness.schedule_to_document.self_ms": self_ms("harness.schedule_to_document"),
        "harness.run_sweep.overhead_ms": sweep_overhead / n * 1e3,
        "trace.overhead_pct": (ratio(sum(traced), sum(plain)) - 1.0) * 100.0,
    }
    metrics.update(w.extra_layer_metrics())
    return {k: float(v) for k, v in metrics.items()}, tracer


def measure(w: Workload, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    # The first set-up is this process's own, from its start; the repeats
    # import csrap in a fresh interpreter and build the inputs again.
    setups, raw_setups = [], []
    for k in range(SETUP_REPEATS):
        before = reference_seconds()
        imported = import_s if k == 0 else w.import_seconds()
        t0 = time.perf_counter()
        w.setup()
        warm = w.outcomes(0, w.run_op(0))
        raw_setups.append(imported + time.perf_counter() - t0)
        setups.append(at_reference_speed(raw_setups[-1], [before, reference_seconds()]))

    loop = timed_loop(w, seconds / 2 if trace else seconds, w.quality_ops)
    ops, times = loop["ops"], loop["times"]
    if ops[0] is not None and ops[0] != warm:
        raise GateViolation(w.name, w.op_seed(0), "-", "the warm-up run of op 0 and op 0 gave different results")
    per_layer = None
    if trace:
        per_layer, tracer = replay(w, ops, times)
        tracer.write(str(OUT / f"spans-{w.name}-seed{seed}.jsonl"))

    q = quality(ops[: w.quality_ops])
    failed = sum(1 for op in ops if op is None)
    tail_s, tail_pct = tail(loop["norm_times"])
    e2e = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(loop["norm_spans"]),
        "op_ms_p50": statistics.median(loop["norm_times"]) * 1e3,
        "op_ms_tail": tail_s * 1e3,
        "mramc_rbs_mean": q["mramc_rbs_mean"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    refs = sorted(loop["refs"])
    raw = {
        "setup_s": statistics.median(raw_setups),
        "ops_per_s": len(ops) / sum(loop["spans"]),
        "op_ms_p50": statistics.median(times) * 1e3,
        "op_ms_tail": tail(times)[0] * 1e3,
        "reference_ms_p10": refs[len(refs) // 10] * 1e3,
        "reference_ms_p50": statistics.median(refs) * 1e3,
        "reference_ms_p90": refs[len(refs) * 9 // 10] * 1e3,
    }
    return {
        "attempted": len(ops),
        "failed": failed,
        "wall_s": loop["wall"],
        "errors": loop["errors"][:5],
        "end_to_end": e2e,
        "raw": raw,
        "op_ms_tail": {"percentile": tail_pct, "samples": len(times)},
        "shares": {
            "failed_share": ratio(failed, len(ops)),
            "infeasible_share": q["infeasible_share"],
            "budget_overrun_share": q["budget_overrun_share"],
        },
        "digest": q["digest"],
        "per_layer": per_layer,
    }


def report(w: Workload, seed: int, m: dict) -> None:
    print(f"workload {w.name}  seed {seed}: {w.why}")
    for name, value in m["end_to_end"].items():
        print(f"  {name:<40} {value:14.4f} {END_TO_END[name]}")
    print(f"  op_ms_tail is p{m['op_ms_tail']['percentile']:.2f} of {m['op_ms_tail']['samples']} ops")
    print(f"  times above are at reference speed ({REFERENCE_NOMINAL_S * 1e3:g} ms per reference loop); as measured:")
    for name, value in m["raw"].items():
        print(f"    {name:<38} {value:14.4f}")
    for name, value in m["shares"].items():
        print(f"  {name:<40} {value:14.4f} ratio")
    print(f"  digest of the first {w.quality_ops} ops: {m['digest']}")
    for err in m["errors"]:
        print(f"  failed {err}")
    for name, value in (m["per_layer"] or {}).items():
        print(f"  {name:<40} {value:14.4f} {PER_LAYER[name]}")


def main(argv: list[str], import_s: float, src: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="csrap benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}", src)
    try:
        m = measure(w, args.seed, args.seconds, bool(args.trace), import_s)
    except GateViolation as exc:
        print(exc, file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        w.close()

    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        predictions = [p for p in json.load(fh) if w.name in p["workloads"]]
    results = {
        "workload": w.name,
        "why": w.why,
        "params": w.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
        "quality_ops": w.quality_ops,
        "environment": env,
        **m,
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in m["end_to_end"].items()},
        "predictions": predictions,
    }
    with open(OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)

    report(w, args.seed, m)
    metrics, units = (m["per_layer"], PER_LAYER) if args.trace else (m["end_to_end"], END_TO_END)
    line = {
        "correct": True,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0
