"""Time one workload's operation in process on two levelgraph checkouts.

    python3 tools/op_timer.py PARENT_DIR CHANGE_DIR --workload W [--seed S] [--pairs N]
                              [--count C]

Each pair starts one fresh interpreter per checkout, one after the other
(the parent first in odd pairs, the change first in even ones).  Both
children take the same first C inputs of seed S of workload W from
``bench/gen.py`` and prepare them with ``bench/ops.py`` outside the timed
region, against their own checkout's ``src`` package.  A child then times 15
passes over all C inputs, each operation the workload's ``run`` of
``bench/ops.py``, with a raised error counted as an operation as the
benchmark counts it.  It reports the fastest pass divided by C: the least
disturbed by other load on the host.  Every child gets one BLAS thread, as
the benchmark pins it.  The inputs and operations come from the ``bench/``
directory next to this script; nothing under ``bench/`` is changed.  How a
pair of checkouts is run is shared with ``tools/cold_start.py``.

In-process times resolve a few per cent where end-to-end ``bench/run.py``
pairs, with their set-up and their sampling of wall time, do not.

Prints one line per pair: each side's microseconds per operation, its
count of raised errors, and the ratio change/parent.  Then one summary line
with the median and the quartiles of each side, the ratio of the medians
and the number of pairs the change won: a gain is resolved when the change
wins nine pairs in ten and the medians differ by more than the parent's
interquartile range.  Exits with status 1 when a child fails, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from time import perf_counter

from cold_start import BENCH, WORKLOADS, pair_order, run_child, spread

REPEATS = 15  # timed passes per child


def time_ops(src: str, workload: str, seed: int, count: int) -> tuple:
    """(microseconds per operation of the fastest pass, raised errors in a pass)
    (child side)."""
    sys.path[:0] = [src, str(BENCH)]
    import gen
    import ops

    prepare, run, _ = ops.WORKLOADS[workload]
    batch = [prepare(data) for data in gen.InputStream(workload, seed).take(count)]
    best, failed = float("inf"), 0
    for _ in range(REPEATS):
        failed = 0
        t0 = perf_counter()
        for args in batch:
            try:
                run(args)
            except Exception:  # noqa: BLE001 -- a raised error is an operation too
                failed += 1
        best = min(best, perf_counter() - t0)
    return 1e6 * best / count, failed


def _child(checkout: Path, args) -> tuple:
    cmd = [sys.executable, __file__, "--child", str(checkout / "src"),
           "--workload", args.workload, "--seed", str(args.seed), "--count", str(args.count)]
    us, failed = run_child(cmd, os.environ).stdout.split()
    return float(us), int(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--count", type=int, default=1000, help="inputs per pass")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        us, failed = time_ops(args.child, args.workload, args.seed, args.count)
        print(us, failed)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        if not (checkout / "src" / "levelgraph" / "__init__.py").is_file():
            parser.error(f"no levelgraph sources under {checkout}")
    times = {label: [] for label in sides}
    try:
        for pair in range(1, args.pairs + 1):
            failed = {}
            for label in pair_order(sides, pair - 1):
                us, failed[label] = _child(sides[label], args)
                times[label].append(us)
            print(f"pair {pair}  parent {times['parent'][-1]:.2f} us/op "
                  f"({failed['parent']} raised)  change {times['change'][-1]:.2f} us/op "
                  f"({failed['change']} raised)  ratio "
                  f"{times['change'][-1] / times['parent'][-1]:.3f}", flush=True)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    (parent, p1, p3), (change, c1, c3) = (spread(times[label]) for label in sides)
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"{args.workload} seed {args.seed}, {args.count} inputs, {REPEATS} passes: "
          f"parent median {parent:.2f} us/op (IQR {p1:.2f}-{p3:.2f}), "
          f"change median {change:.2f} us/op (IQR {c1:.2f}-{c3:.2f}), "
          f"ratio {change / parent:.3f}, change faster in {won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
