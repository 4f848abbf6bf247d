"""levelgraph benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Run from the root of a levelgraph checkout; the package is imported from
its ``src/`` directory.  Workloads are ``verdicts`` (classify),
``dhym-sweep`` (analyze) and ``witness`` (graphical_connection + run_flow);
bench/README.md says why each exists and which layer metric should move
which end-to-end metric.

With ``--trace 0`` the run times a fixed number of operations, about
``--seconds`` seconds' worth at a nominal rate per workload (at least 100),
and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of operations under per-layer spans
and reports the per-layer metrics.  Every operation is checked by an
oracle.  The second-to-last line of standard output is a summary with the
environment record and every metric; the last line is the result
``{"correct", "attempted", "failed", "metrics"}``.

Exits with status 2, printing no result, when levelgraph's sources are
not found.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# One process with one BLAS thread: run_flow's 259x259 mat-vec would
# otherwise let OpenBLAS pick its own thread count.  Set before numpy loads,
# and inherited by the child interpreters the benchmark starts.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_interpreter() -> bool:
    """Pin BLAS threads and put levelgraph's sources first on sys.path.

    Returns False when the sources are missing.
    """
    if not (SRC / "levelgraph" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verdicts", "dhym-sweep", "witness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare_interpreter():
        print(f"levelgraph sources not found in {SRC}", file=sys.stderr)
        return 2

    import measure  # numpy loads only now, after the thread pin

    if args.trace:
        summary, result = measure.trace_run(args.workload, args.seed)
    else:
        summary, result = measure.timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
