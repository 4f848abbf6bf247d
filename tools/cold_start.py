"""Time fresh interpreters of two levelgraph checkouts, from start to answer.

    python3 tools/cold_start.py PARENT_DIR CHANGE_DIR [--runs N]

Each case starts a new interpreter per run, alternating between the two
checkouts (the parent first on even runs, the change first on odd ones):

- the README's command lines ``classify``, ``trace``, ``flow`` and
  ``dhym --witness``, and ``dhym`` without ``--witness``, as
  ``python -m levelgraph.cli`` with the checkout's ``src`` on
  ``PYTHONPATH``, in a temporary directory that takes their ``--out``
  files; a run is timed from before the child starts to its exit;
- ``bench/probe.py setup <workload>`` of the checkout for each workload of
  the benchmark, fed the first input of seed 1 on standard input, and timed
  as the benchmark times its ``setup_s`` probe: from before the child
  starts to the ``time.monotonic()`` it prints after its first operation.

Before the timed runs, each case runs once per checkout under
``python -X importtime``, which warms the file cache and shows whether the
interpreter imported numpy.  Every child gets one BLAS thread, as the
benchmark pins it, and runs with ``PYTHONDONTWRITEBYTECODE=1``, so nothing
is written under either checkout: a module without a cached bytecode file
is compiled on every run.  The inputs come from the ``bench/`` directory
next to this script.

Prints one line per case and checkout: the median and the interquartile
range of the run times in seconds, and whether numpy loaded; the change's
line ends in the ratio of the medians.  Exits with status 1 when a child
fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("verdicts", "dhym-sweep", "witness")
_DHYM = ["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0", "--b", "1", "--q", "0"]
# (name, argv) of the README's command lines
CLI_CASES = (
    ("classify", ["classify", "--poly", "0,0,0,0.3333", "--z1", "1,0", "--z2", "2,0"]),
    ("trace", ["trace", "--kind", "c0", "--poly", "0,1", "--seed", "1,0",
               "--direction", "-1", "--out", "curve.csv"]),
    ("flow", ["flow", "--poly", "0,1", "--z1", "0,0", "--z2", "2,0", "--f0", "line",
              "--out", "flow.csv"]),
    ("dhym", _DHYM),
    ("dhym --witness", _DHYM + ["--witness"]),
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def first_inputs() -> dict:
    """The first input of seed 1 of each workload, as JSON text."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import gen

    return {w: json.dumps(gen.InputStream(w, 1).take(1)[0]) for w in WORKLOADS}


def cases(inputs: dict) -> list:
    """(name, argv after the interpreter, standard input) of every case;
    "{side}" in an argument stands for the checkout's directory."""
    out = [(name, ["-m", "levelgraph.cli", *argv], None) for name, argv in CLI_CASES]
    out += [(f"probe setup {w}", ["{side}/bench/probe.py", "setup", w], inputs[w])
            for w in WORKLOADS]
    return out


def pair_order(sides: dict, run: int) -> list:
    """The labels of sides in the order run number run starts them: the
    parent first on even runs, the change first on odd ones."""
    return list(sides) if run % 2 == 0 else list(sides)[::-1]


def run_child(args: list, env: dict, **kwargs) -> subprocess.CompletedProcess:
    """Run one child to its exit, with its output captured as text and one
    BLAS thread; raises RuntimeError with the end of its stderr when it fails."""
    env = {**env, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300, **kwargs)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def run_once(side: Path, argv: list, stdin, env: dict, cwd: str, importtime=False):
    """(seconds, stderr) of one child; raises RuntimeError when it fails."""
    args = [sys.executable, *(["-X", "importtime"] if importtime else []),
            *(a.replace("{side}", str(side)) for a in argv)]
    env = {**env, "PYTHONPATH": str(side / "src")}
    t0 = time.monotonic()
    proc = run_child(args, env, input=stdin, cwd=cwd)
    end = time.monotonic()
    if stdin is not None:  # a setup probe prints the monotonic time of its answer
        end = float(proc.stdout.split()[-1])
    return end - t0, proc.stderr


def loads_numpy(importtime_log: str) -> bool:
    """Whether an ``-X importtime`` log shows numpy imported."""
    return any(line.startswith("import time:") and line.rsplit("|", 1)[-1].strip() == "numpy"
               for line in importtime_log.splitlines())


def spread(times: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q2, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--runs", type=int, default=15, help="timed runs per case and side")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            for name, argv_, stdin in cases(first_inputs()):
                numpy_loaded = {label: loads_numpy(run_once(side, argv_, stdin, env, tmp,
                                                            importtime=True)[1])
                                for label, side in sides.items()}
                times = {label: [] for label in sides}
                for r in range(args.runs):
                    for label in pair_order(sides, r):
                        times[label].append(run_once(sides[label], argv_, stdin, env, tmp)[0])
                medians = {}
                for label in sides:
                    med, q1, q3 = spread(times[label])
                    medians[label] = med
                    ratio = (f"  ratio {med / medians['parent']:.3f}"
                             if label == "change" else "")
                    print(f"{name:24s} {label}  median {med:.4f} s  IQR {q1:.4f}-{q3:.4f} s  "
                          f"numpy {'loaded' if numpy_loaded[label] else 'not loaded'}{ratio}",
                          flush=True)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
