"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size twice, traced, and requires both runs to
finish without a failed op and with the same digest; requires the
correctness gate to reject a hand-corrupted schedule (two cameras on one RB)
and an out-of-order RB chain; and requires run.py to exit non-zero, printing
no result, in a directory that holds the benchmark without csrap's sources.
Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import bench  # noqa: E402
from csrap import Schedule, ScenarioConfig, generate_scenario, mramc, verify_schedule  # noqa: E402
from gate import GateViolation, Outcome, check_order, check_report  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_OPS = 2


def tiny_run(name: str, seed: int) -> dict:
    w = WORKLOADS[name](seed, bench.OUT / f"selftest-{name}", SRC)
    w.quality_ops = TINY_OPS
    try:
        return bench.measure(w, seed, 0.0, True, 0.0)
    finally:
        w.close()


def expect_violation(what: str, check) -> None:
    try:
        check()
    except GateViolation as exc:
        print(f"ok   gate rejects {what}: {exc}")
        return
    raise SystemExit(f"FAIL gate accepted {what}")


def corrupted_schedule_trips_gate() -> None:
    scn = generate_scenario(ScenarioConfig(rng_seed=3))
    schedule = mramc(scn).schedule
    first, second, *rest = schedule.assignments
    clash = replace(second, slot=first.slot, start=first.start)  # two cameras on one RB
    corrupted = Schedule(
        assignments=(first, clash, *rest),
        total_rbs=schedule.total_rbs,
        covered_targets=schedule.covered_targets,
    )
    expect_violation(
        "two cameras on one RB", lambda: check_report("selftest", 3, "mramc", verify_schedule(corrupted, scn))
    )
    expect_violation(
        "an exact optimum above the mramc total",
        lambda: check_order(
            "selftest", 3, Outcome("exact_relaxed", "feasible", 4), Outcome("exact", "feasible", 9),
            Outcome("mramc", "feasible", 8),
        ),
    )


def refuses_without_sources() -> None:
    bare = bench.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise SystemExit(f"FAIL run.py without csrap sources exited {proc.returncode}: {proc.stdout[-200:]}")
    print(f"ok   run.py without csrap sources exits {proc.returncode}: {proc.stderr.strip()[:120]}")


def main() -> int:
    bench.OUT.mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        first, second = tiny_run(name, 7), tiny_run(name, 7)
        if first["failed"] or second["failed"]:
            raise SystemExit(f"FAIL {name}: failed ops {first['errors'] + second['errors']}")
        if first["digest"] != second["digest"]:
            raise SystemExit(f"FAIL {name}: digests differ, {first['digest']} vs {second['digest']}")
        layers = json.dumps({k: round(v, 3) for k, v in first["per_layer"].items() if v})
        print(f"ok   {name}: {first['attempted']} ops, digest {first['digest']} twice; layers {layers[:160]}...")
    corrupted_schedule_trips_gate()
    refuses_without_sources()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
