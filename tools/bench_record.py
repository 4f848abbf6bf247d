"""Append one benchmark entry per workload to BENCH_<workload>.json.

    python3 tools/bench_record.py [--seeds SEED ...] [--workload W ...]
                                  [--seconds S] [--out-dir DIR]

For each workload (``--workload``, all three by default) and each seed
(``--seeds``, 1 to 10 by default), ``bench/run.py`` of the checkout this
script is in runs twice, each in a child interpreter from the checkout's
root: once timed (``--trace 0`` for ``--seconds``, 25 by default, the
benchmark's run length) and once traced (``--trace 1``).  Then one entry
is appended to ``BENCH_<workload>.json`` in ``--out-dir`` (the checkout's
root by default), which is made when it is missing.  The entry holds:

- the commit: HEAD's hash, whether ``src/`` or ``bench/`` differ from it
  (``dirty``), and the git tree hash of ``src/`` as measured
  (``src_tree``), so an entry recorded before its commit is matched to it
  by ``git rev-parse COMMIT:src``; all three are null outside a git
  checkout;
- the date, the seeds, ``--seconds`` and the environment record of the
  first timed run (Python, numpy, ``nproc``, CPU);
- per seed, the operations attempted and failed, timed and traced;
- each end-to-end metric (``end_to_end``) and each traced per-layer metric
  (``per_layer``: the work counts per operation, the self times and the
  tracing overhead) as the median and quartiles over the seeds, with its
  unit.

The file is one JSON object: ``workload``, ``notes`` (what a reader of the
entries should know about a metric's name) and ``entries`` in the order
they were recorded.  Nothing under ``bench/`` is changed.  Exits with
status 1 when a run fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verdicts", "dhym-sweep", "witness")
# traced names that bench/measure.py still reports but the library no
# longer calls
DEAD = {
    name: "dead name: the library no longer calls this function, so it reads 0 calls "
          "per operation on every workload; bench/ traces it until the benchmark is mended"
    for name in ("landscape.on_axis_critical_points.calls_per_op",
                 "landscape.validate_no_rhp_critical_points.calls_per_op")
}


def _git(*args, env=None):
    proc = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def commit_record() -> dict:
    """HEAD, whether src/ or bench/ differ from it, and src/'s tree hash."""
    head = _git("rev-parse", "HEAD")
    if head is None:
        return {"commit": None, "dirty": None, "src_tree": None}
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git("add", "-A", "src", env=env)
        tree = _git("write-tree", "--prefix=src/", env=env)
    dirty = bool(_git("status", "--porcelain", "--", "src", "bench"))
    return {"commit": head, "dirty": dirty, "src_tree": tree}


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(summary, result) of one bench/run.py run."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    summary, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(summary), json.loads(result)


def spread(results: list) -> dict:
    """{metric: median, quartiles and unit over the runs' results}."""
    out = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
        out[name] = {"median": q2, "q1": q1, "q3": q3, "unit": metric["unit"]}
    return out


def record(workload: str, seeds: list, seconds: float, out_dir: Path) -> Path:
    """Run every seed of workload and append its entry; returns the file."""
    timed, traced, environment = [], [], None
    for seed in seeds:
        summary, result = bench_run(workload, seed, seconds, 0)
        environment = environment or summary["environment"]
        timed.append(result)
        traced.append(bench_run(workload, seed, seconds, 1)[1])
    entry = {
        **commit_record(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seeds": seeds,
        "seconds": seconds,
        "environment": environment,
        "runs": [{"seed": seed, "attempted": t["attempted"], "failed": t["failed"],
                  "traced_attempted": r["attempted"], "traced_failed": r["failed"]}
                 for seed, t, r in zip(seeds, timed, traced)],
        "end_to_end": spread(timed),
        "per_layer": spread(traced),
    }
    path = out_dir / f"BENCH_{workload}.json"
    data = (json.loads(path.read_text()) if path.exists()
            else {"workload": workload, "notes": {}, "entries": []})
    data["notes"].update({name: note for name, note in DEAD.items()
                          if name in entry["per_layer"]})
    data["entries"].append(entry)
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        try:
            path = record(workload, args.seeds, args.seconds, args.out_dir)
        except subprocess.CalledProcessError as exc:
            print(f"{workload}: bench/run.py failed\n{exc.stderr}", file=sys.stderr)
            return 1
        print(f"{workload}: appended an entry to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
