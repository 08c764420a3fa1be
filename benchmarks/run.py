"""Benchmark of the sfwg transient pipeline.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of `workloads.py` repeatedly for about S seconds in one
process, checks every run's output, and prints one line per metric, a run
record and, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`; `harness.py` says which runs it makes. Exits with 1
if a check failed.

The program is imported from `src/` of the checkout this file sits in, so the
benchmark measures the tree it was committed with. BLAS uses at most one
thread per available CPU and `SFWG_THREADS` is removed, so no worker pool
runs. See README.md beside this file for the workloads and what each metric
should move.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_environment():
    """Cap BLAS threads at the CPU count and disable the sweep worker pool.

    Must run before numpy is imported. Returns the CPU count.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("SFWG_THREADS", None)
    return nproc


def import_program():
    """Import sfwg from this checkout's src/, or exit with an error."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import sfwg
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import sfwg from {src}: {exc}")
    if Path(sfwg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"run.py: sfwg came from {sfwg.__file__}, not {src}")
    return sfwg


def main(argv=None):
    nproc = pin_environment()
    import_program()
    import harness

    return harness.main(argv, nproc)


if __name__ == "__main__":
    sys.exit(main())
