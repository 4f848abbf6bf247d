"""Compare every answer of two levelgraph checkouts on the benchmark inputs.

    python3 tools/compare_answers.py PARENT_DIR CHANGE_DIR [--seeds 1 2 ...]

For each workload of ``bench/ops.py`` and each seed (``--seeds``, 1 and 2
by default), the inputs of ``bench/gen.py`` are run once against each
checkout's ``src`` package, each side in a child interpreter of its own.
On ``verdicts``, ``dhym-sweep`` and ``witness`` these are all the inputs a
25 s ``bench/run.py`` run times (3750, 6000 and 360), so an answer that
flips anywhere in a timed run shows here.  A fourth set, ``witness-vertical-tangent``, which no
workload runs, traces the vertical-tangent curve through z2 of the first
40 ``witness`` inputs in both directions, at the level Re w'(z2).  A
fifth, ``roots``, records ``poly.roots`` of the w' that ``classify`` solves
(the derivative of the shifted w) for every timed ``verdicts`` input, then
of w' for every timed ``witness`` input: verdicts show no radius, so this
set is what shows a change to the root solve byte-equal.  Each solve is
recorded as its terms (location, multiplicity, radius) and its one
``certified`` flag.  A sixth, ``verdicts-trace``, records the verdict of
``classify`` (or the error it raised) of every timed ``verdicts`` input,
then runs ``graphical_connection`` on the shifted w (as ``classify`` shifts
it), z1 and z2: every ``witness`` trace ends at its target, so this set is what
reaches the tracer's critical-point, radius and y-axis stops.  Every
output field is recorded, floats and complex
numbers by ``repr`` (so a change in the last bit or in the sign of a zero
shows), nested results field by field, and a raised exception by its type
and message.  The inputs and oracles come from the ``bench/`` directory
next to this script, so both sides see the same data; nothing under
``bench/`` is changed.

Prints one summary line per workload and seed, each after the first
differing field of its differing answers (``SHOW`` in all at most).  The
line counts the answers that are not byte-equal, and of those the answers
whose non-float fields differ: a length, an int, a bool, a string, an
exception's text, or a field present on one side only.  It also gives the
largest relative change |new - old| / |old| over the float (and complex)
fields of the differing answers.  Under it, one line per field that
differs anywhere names the field with its list indices collapsed (the
tuple index right after ``out`` stays, so ``out[1].final.values[*]``,
``out[1].J_values[*]``, ``out[1].J_values.len``), the number of answers
in which it differs and, for a float field, its largest relative change.
List entries are compared index by index, so when a history changes
length, its entries past the shorter one count as non-float changes.  Each
flow history (``HISTORIES``) also records its last entry as a field of its
own, ``out[1].J_values[-1]``, ``out[1].membership_min[-1]``,
``out[1].residual_sup[-1]`` and ``out[1].times[-1]`` on ``witness``, so the
final J and the sign of the last membership reading compare directly when
the step sequence changes.  On ``witness``, ``verdicts-trace`` and
``witness-vertical-tangent`` it also counts the answers whose decision
fields differ (``DECISIONS``): a raised error, ``connected``, ``graphical``
and how each trace ended, and on ``witness`` every field of the flow.  A
change that moves only the traced points reads "0 decisions differ".  On
these three trace sets the summary line also gives each side's mean number
of trace points per answer (summed over an answer's traces), the tracer's
work count.  On ``verdicts-trace`` it also gives each side's number of
classify/witness disagreements: answers whose verdict is ``stable`` while
the trace is not connected and graphical, or the other way round.

The set ``cli`` does not depend on the seeds and runs once per side:
each of the fixed invocations in ``CLI_SET`` (the four subcommands
``classify``, ``trace``, ``flow`` and ``dhym``, the README examples,
``--out``, each error exit, among them the rejected ``--config`` option,
and negative values) runs ``python -m levelgraph.cli`` in a fresh
temporary directory, which holds only the input files it names.  Its exit
code, stdout, stderr and every file in the directory afterwards are
compared byte for byte, with the checkout's path and the temporary
directory replaced by placeholders.  Prints one line per differing
invocation and one summary line.

A last set, ``demos``, runs each ``demos/*.py`` of either checkout against
that checkout's ``src`` package, from a fresh temporary copy of the script
in a directory of its own, as ``tests/test_demos.py`` does.  Its exit
code, stdout, stderr and the files it leaves beside the copy are compared
byte for byte, with the checkout's path and the temporary directory
replaced by placeholders; a demo that only one checkout has differs.  It is
the one set that shows ``membership`` and ``second_variation_at`` as the
demos print them.  Prints one line per differing demo and one summary line.

Exits with status 0 when every answer matches byte for byte and 1 when one
does not.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

SEEDS = (1, 2)
# inputs per seed: on verdicts, dhym-sweep and witness, every input that a
# 25 s run of bench/run.py times (25 s at 150, 240 and 14 ops/s, rounded up
# to whole batches); the vertical-tangent set keeps 40
COUNTS = {"verdicts": 3750, "dhym-sweep": 6000, "witness": 360,
          "witness-vertical-tangent": 40}
# the roots set solves w' of the verdicts inputs, then of the witness ones
COUNTS["roots"] = COUNTS["verdicts"] + COUNTS["witness"]
COUNTS["verdicts-trace"] = COUNTS["verdicts"]
# differing answers printed at most, over all workloads and seeds
SHOW = 10
# the fields that decide an answer, as flattened paths: the answer itself
# when it is a raised error, connected, graphical and how each trace ended,
# and on witness (a GraphCheck, then a FlowTrace) every field of the flow
DECISIONS = {
    "witness": re.compile(r"out(\[0\]\.(connected|graphical|trace\.terminated_by)|\[1\]\..*)?"),
    "verdicts-trace": re.compile(
        r"out(\[0\]|\[1\]\.(connected|graphical|trace\.terminated_by))?"),
    "witness-vertical-tangent": re.compile(r"out(\[\d\]\.terminated_by)?"),
}
# the flow's histories, each of whose last entry is also a field of its own
HISTORIES = ("times", "J_values", "residual_sup", "membership_min")

_CUBE = "0,0,0,0.3333333333333333"
_F0_ROWS = "x,f\n" + "".join(
    "%.17g,%.17g\n" % (1.0 + i / 8.0, 0.3 * math.sin(math.pi * i / 8.0)) for i in range(9))
# (name, argv, input files) of the cli set; each runs in its own directory
CLI_SET = (
    ("readme-classify", ["classify", "--poly", "0,0,0,0.3333", "--z1", "1,0", "--z2", "2,0"], {}),
    ("readme-trace", ["trace", "--kind", "c0", "--poly", "0,1", "--seed", "1,0",
                      "--direction", "-1", "--out", "curve.csv"], {}),
    ("readme-flow", ["flow", "--poly", "0,1", "--z1", "0,0", "--z2", "2,0", "--f0", "line",
                     "--out", "flow.csv"], {}),
    ("readme-dhym-witness", ["dhym", "--m", "1", "--r", "0", "--xi1", "1", "--xi2", "0",
                             "--b", "1", "--q", "0", "--witness"], {}),
    ("classify-roots-out", ["classify", "--roots", "0", "--z1", "0,0", "--z2", "1,0",
                            "--out", "verdict.json"], {}),
    ("trace-wall", ["trace", "--kind", "d0", "--poly", _CUBE, "--seed", "1,1",
                    "--out", "wall.csv"], {}),
    ("flow-from-file", ["flow", "--poly", _CUBE, "--z1", "1,0", "--z2", "2,0",
                        "--f0", "f0.csv", "--out", "flow.csv"], {"f0.csv": _F0_ROWS}),
    ("dhym-non-generic-out", ["dhym", "--m", "1", "--r", "1", "--xi1", "1", "--xi2", "0",
                              "--b", "1", "--q", "0", "--out", "report.json"], {}),
    ("error-no-subcommand", [], {}),
    ("error-parse", ["classify", "--poly", "0,abc", "--z1", "0,0", "--z2", "1,0"], {}),
    ("error-level-mismatch", ["classify", "--poly", "0,1", "--z1", "0,0", "--z2", "1,1"], {}),
    ("error-rhp-critical-point", ["classify", "--roots", "1,1", "--z1", "0,0",
                                  "--z2", "2,0"], {}),
    ("error-trace-without-out", ["trace", "--kind", "c0", "--poly", "0,1", "--seed", "1,0"],
     {}),
    ("config-rejected", ["--config", "cfg.json", "classify", "--poly", "0,1", "--z1", "0,0",
                         "--z2", "1,0"], {"cfg.json": "{}\n"}),
    ("error-trace-derived-radius-c0", ["trace", "--kind", "c0", "--poly", "0,1,1e-200",
                                       "--seed", "1,0", "--out", "curve.csv"], {}),
    ("error-trace-derived-radius-d0", ["trace", "--kind", "d0", "--poly", _CUBE + ",1e-200",
                                       "--seed", "1,1", "--out", "wall.csv"], {}),
    ("error-dhym-overflow", ["dhym", "--m", "3", "--r", "2", "--xi1", "1", "--xi2", "0",
                             "--b", "1e200", "--q", "0"], {}),
    ("negative-poly", ["classify", "--poly", "-1,1,0.5", "--z1", "0,0", "--z2", "1,0"], {}),
    ("negative-roots", ["classify", "--roots", "-1,-2", "--z1", "0,0", "--z2", "1,0"], {}),
    ("negative-dhym-exponent", ["dhym", "--m", "1", "--r", "0", "--xi1", "1",
                                "--xi2", "-4e-1", "--b", "1", "--q", "-1e-3"], {}),
    ("negative-z1-exponent", ["classify", "--poly", "0,1", "--z1", "-1e-3,0",
                              "--z2", "1,0"], {}),
    ("negative-imaginary-unit", ["classify", "--poly", "-i,1", "--z1", "0,0",
                                 "--z2", "1,0"], {}),
    ("negative-infinity", ["classify", "--poly", "0,1", "--z1", "0,0", "--z2", "-inf,0"],
     {}),
)


def _flatten(obj, path: str, out: dict) -> None:
    """Record obj under path, descending into containers and dataclasses."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, np.generic):
        obj = obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            _flatten(value, f"{path}.{f.name}", out)
            if f.name in HISTORIES and value:
                _flatten(value[-1], f"{path}.{f.name}[-1]", out)
    elif isinstance(obj, (list, tuple)):
        out[f"{path}.len"] = str(len(obj))
        for i, item in enumerate(obj):
            _flatten(item, f"{path}[{i}]", out)
    elif isinstance(obj, BaseException):
        out[path] = f"{type(obj).__name__}: {obj}"
    else:
        out[path] = repr(obj)


def _number(text: str):
    """The float or complex number a recorded field holds, else None."""
    try:
        value = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        # nan and inf, alone or inside a complex, are not literals
        try:
            return complex(text) if "j" in text else float(text)
        except ValueError:
            return None
    return value if isinstance(value, (float, complex)) else None


def _field(path: str) -> str:
    """The field a flattened path belongs to: every list index collapsed to
    [*], except the index of the answer's own tuple right after ``out``."""
    return re.sub(r"(?<!^out)\[\d+\]", "[*]", path)


def _relative_change(old, new) -> float:
    """|new - old| / |old|: 0 when both are equal or both nan, and inf when
    old is 0 or the quotient is undefined (a nan or an infinity on one side)."""
    if old == new or (old != old and new != new):
        return 0.0
    change = abs(new - old) / abs(old) if old != 0 else math.inf
    return change if change == change else math.inf


def _mean_points(answers) -> float:
    """Mean over answers of the trace points each records, over all its traces."""
    total = sum(int(v) for a in answers for k, v in a.items() if k.endswith("points.len"))
    return total / max(len(answers), 1)


def _disagreements(answers) -> int:
    """Answers of verdicts-trace whose classify verdict is stable exactly
    when the trace is not a connected graph; errors on either side left out."""
    return sum(
        (a["out[0]"] == repr("stable"))
        != (a["out[1].connected"] == a["out[1].graphical"] == "True")
        for a in answers if a.get("out[0]", "").startswith("'") and "out[1].connected" in a)


def _vertical_tangent_set(ops):
    """(prepare, run) tracing {Re w' = Re w'(z2)} through z2 both ways."""
    from levelgraph import tracer

    def prepare(data):
        return ops._poly(data["w"]), ops._c(data["z2"])

    def run(args):
        w, z2 = args
        level = w.derivative()(z2).real
        return tuple(tracer.trace_level(w, z2, kind="vertical_tangent",
                                        direction=d, level=level) for d in (1, -1))

    return prepare, run


def _verdicts_trace_set(ops):
    """(prepare, run) of classify's verdict, then the trace from z2 toward
    z1 on the level of the shifted w."""
    from levelgraph import stability, tracer

    def prepare(data):
        return stability.BoundaryData(*ops.prepare_verdicts(data))

    def run(data):
        try:
            verdict = stability.classify(data).verdict
        except Exception as exc:  # noqa: BLE001 -- recorded beside the trace
            verdict = exc
        shifted = stability.shift_to_zero_level(data)
        return verdict, tracer.graphical_connection(shifted.w, shifted.z1, shifted.z2)

    return prepare, run


def _roots_inputs(ops, gen, seed: int, count: int):
    """(prepare, run, inputs) solving w' of the first count verdicts, then
    witness, inputs; run is poly.roots, which returns (terms, certified)."""
    from levelgraph import poly, stability

    def prepare(item):
        kind, data = item
        if kind == "witness":
            return ops._poly(data["w"]).derivative()
        shifted = stability.shift_to_zero_level(
            stability.BoundaryData(*ops.prepare_verdicts(data)))
        return shifted.w.derivative()

    n = min(count, COUNTS["verdicts"])
    inputs = [("verdicts", data) for data in gen.InputStream("verdicts", seed).take(n)]
    inputs += [("witness", data) for data in gen.InputStream("witness", seed).take(count - n)]
    return prepare, poly.roots, inputs


def dump(src: str, workload: str, seed: int, count: int) -> None:
    """Print one JSON line of flattened answers per input (child side)."""
    sys.path[:0] = [src, str(BENCH)]
    import gen
    import ops

    if workload == "roots":
        prepare, run, inputs = _roots_inputs(ops, gen, seed, count)
    else:
        if workload == "witness-vertical-tangent":
            prepare, run = _vertical_tangent_set(ops)
            workload = "witness"
        elif workload == "verdicts-trace":
            prepare, run = _verdicts_trace_set(ops)
            workload = "verdicts"
        else:
            prepare, run, _ = ops.WORKLOADS[workload]
        inputs = gen.InputStream(workload, seed).take(count)
    for data in inputs:
        try:
            answer = run(prepare(data))
        except Exception as exc:  # noqa: BLE001 -- a raised error is an answer too
            answer = exc
        fields: dict = {}
        _flatten(answer, "out", fields)
        print(json.dumps(fields))


def _answers(checkout: Path, workload: str, seed: int, count: int) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--dump", str(checkout / "src"),
           "--workload", workload, "--seed", str(seed), "--count", str(count)]
    # stderr is not captured, so a failing child's traceback reaches the terminal
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _outcome(checkout: Path, tmp: str, cmd: list, script: str | None = None) -> dict:
    """Exit code, stdout, stderr and every file but script left in the
    directory tmp by one run of cmd there against the checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), COLUMNS="80",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    files = {f.name: f.read_bytes() for f in sorted(Path(tmp).iterdir()) if f.name != script}

    def mask(text: bytes) -> bytes:
        # a traceback names the checkout's files, and a demo its directory
        text = text.replace(str(checkout).encode(), b"<checkout>")
        return text.replace(tmp.encode(), b"<tmp>")

    return {"exit": proc.returncode, "stdout": mask(proc.stdout),
            "stderr": mask(proc.stderr), "files": files}


def _cli_outcome(checkout: Path, argv: list, inputs: dict) -> dict:
    """One CLI run in a fresh directory that holds only the input files."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            Path(tmp, name).write_text(text)
        return _outcome(checkout, tmp, [sys.executable, "-m", "levelgraph.cli", *argv])


def _demo_outcome(checkout: Path, name: str):
    """One run of the checkout's demo from a fresh temporary copy, as
    tests/test_demos.py runs it; None when the checkout has no such demo."""
    demo = checkout / "demos" / name
    if not demo.is_file():
        return None
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(demo, Path(tmp, name))
        return _outcome(checkout, tmp, [sys.executable, str(Path(tmp, name))], script=name)


def _count_differing(label: str, runs, shown: int) -> int:
    """Print each differing run of (name, old, new, command) and one summary
    line; the number of differing runs."""
    bad = []
    for name, old, new, command in runs:
        if old is not None and new is not None:
            diff = [k for k in old if old[k] != new[k]]
        else:
            diff = [] if old is new else ["presence"]
        if not diff:
            continue
        bad.append(name)
        if shown + len(bad) <= SHOW:
            what = ", ".join(f"exit {old[k]} -> {new[k]}" if k == "exit" else k for k in diff)
            print(f"  {label} {name}: {what} differ; {command}")
    print(f"{label}: {len(runs)} runs, {len(bad)} differ"
          + (f": {', '.join(bad)}" if bad else ""))
    return len(bad)


def compare_cli(parent: Path, change: Path, shown: int) -> int:
    """Run the cli set on both checkouts; the number of differing invocations."""
    runs = [(name, _cli_outcome(parent, argv, inputs), _cli_outcome(change, argv, inputs),
             "levelgraph " + " ".join(argv)) for name, argv, inputs in CLI_SET]
    return _count_differing("cli", runs, shown)


def compare_demos(parent: Path, change: Path, shown: int) -> int:
    """Run every demo of either checkout on both; the number that differ."""
    names = sorted({p.name for side in (parent, change) for p in (side / "demos").glob("*.py")})
    runs = [(name, _demo_outcome(parent, name), _demo_outcome(change, name), f"demos/{name}")
            for name in names]
    return _count_differing("demos", runs, shown)


def compare(parent: Path, change: Path, seeds) -> int:
    differing = 0
    for workload, count in COUNTS.items():
        for seed in seeds:
            old = _answers(parent, workload, seed, count)
            new = _answers(change, workload, seed, count)
            decisive = DECISIONS.get(workload)
            fields = bad = structural = decided = 0
            # per field: [the answers that differ in it, the largest relative
            # change of its floats, or None when only non-float values differ]
            per_field: dict = {}
            for i, (a, b) in enumerate(zip(old, new)):
                fields += len(a)
                diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
                if not diff:
                    continue
                bad += 1
                if decisive and any(decisive.fullmatch(k) for k in diff):
                    decided += 1
                if differing + bad <= SHOW:
                    k = diff[0]
                    print(f"  {workload} seed {seed} input {i}: {len(diff)} fields "
                          f"differ, first {k}: {a.get(k)} -> {b.get(k)}")
                numbers = [(_number(a[k]), _number(b[k])) if k in a and k in b else (None, None)
                           for k in diff]
                if any(x is None or y is None for x, y in numbers):
                    structural += 1
                for k, (x, y) in zip(diff, numbers):
                    entry = per_field.setdefault(_field(k), [set(), None])
                    entry[0].add(i)
                    if x is not None and y is not None:
                        entry[1] = max(entry[1] or 0.0, _relative_change(x, y))
            floats = [entry[1] for entry in per_field.values() if entry[1] is not None]
            largest = max(floats, default=0.0)
            unmatched = abs(len(old) - len(new))
            bad += unmatched
            structural += unmatched
            decided += unmatched
            print(f"{workload} seed {seed}: {len(old)} answers, {fields} fields, "
                  f"{bad} answers differ, {structural} in a non-float field"
                  + (f", {decided} decisions differ; trace points per answer "
                     f"{_mean_points(old):.2f} -> {_mean_points(new):.2f}" if decisive else "")
                  + (f"; classify/witness disagreements {_disagreements(old)} -> "
                     f"{_disagreements(new)}" if workload == "verdicts-trace" else "")
                  + f"; largest relative float change {largest:.3g}")
            for name, (answers, worst) in sorted(per_field.items()):
                print(f"    {name}: {len(answers)} answers differ"
                      + ("" if worst is None else f", largest relative change {worst:.3g}"))
            differing += bad
    differing += compare_cli(parent, change, differing)
    differing += compare_demos(parent, change, differing)
    return 0 if differing == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                        help="seeds of the inputs to compare (default: 1 2)")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    parser.add_argument("--workload", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--count", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump, args.workload, args.seed, args.count)
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT_DIR and CHANGE_DIR are required")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "levelgraph" / "__init__.py").is_file():
            parser.error(f"no levelgraph sources under {checkout}")
    return compare(args.parent.resolve(), args.change.resolve(), args.seeds)


if __name__ == "__main__":
    sys.exit(main())
