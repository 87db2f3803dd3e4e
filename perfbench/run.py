"""csrap benchmark: one workload per run, closed loop, one client, no extra threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: csrap is imported from ``src/``
and nowhere else.  ``--trace 0`` measures the end-to-end metrics over
``--seconds`` of ops; its times are reported at a reference speed, measured
by a fixed loop run between ops (see ``bench.py``), with the times as
measured beside them.  ``--trace 1`` measures ops untraced for half of
``--seconds``, then replays the workload's first ``quality_ops`` ops as the
calls csrap makes, each op once plain and once with a span around every
call, and reports the per-layer metrics and the tracing overhead.  Either
run prints a report, writes a results file under ``perfbench/out/`` and ends
with one JSON line; a wrong output exits 1.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before csrap is imported

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per process: numpy's BLAS would otherwise start a worker thread
# per core in this process and in every csrap process it runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    package = SRC / "csrap"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no csrap sources at {package}; run from the root of a source checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import csrap

    if Path(csrap.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported csrap from {csrap.__file__}, expected {package}")
    import bench

    return bench.main(sys.argv[1:], time.perf_counter() - T_START, SRC)


if __name__ == "__main__":
    sys.exit(main())
