"""List the statements of the levelgraph package that no check or workload runs.

    python3 tools/line_reach.py [--seeds SEED ...]

One ``sys.settrace`` hook, limited to the files under ``src/levelgraph``,
records every line they execute while this script runs, in this process:

- tier-1, ``pytest tests bench``, through ``pytest.main`` (its report goes
  to stderr; what the tests run in subprocesses is not seen);
- each ``demos/*.py``, from a fresh temporary copy of the script in a
  directory of its own, as ``tests/test_demos.py`` runs it;
- each invocation of the ``cli`` set of ``tools/compare_answers.py``,
  through ``cli.main`` in a fresh temporary directory that holds only its
  input files;
- for each seed of ``--seeds`` (1 and 2 by default), every input that a
  25 s ``bench/run.py`` run times on each workload of ``bench/ops.py``
  (the counts of ``compare_answers``).

The inputs come from the ``bench/`` directory next to this script; nothing
under ``bench/`` is changed.  Then it prints each executable statement that
none of these ran, as ``path:line`` and the statement's first source line,
and one summary line of the counts per module.  A docstring is not a
statement, and neither is ``try`` (its blocks are).  A simple statement
counts as run when any of its lines ran, a compound one (``if``, ``for``,
``def``, ...) when a line of its header did.  There is no ``coverage``
dependency.  Exits with status 1 when tier-1 fails, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "levelgraph"
WORKLOADS = ("verdicts", "dhym-sweep", "witness")


def statements(path: Path) -> dict:
    """{first line: lines whose execution runs it} of each statement in path."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(id(body[0]))
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        out[node.lineno] = range(first, last + 1)
    return out


def _run_tests() -> int:
    with contextlib.redirect_stdout(sys.stderr):
        import pytest

        return int(pytest.main(["-q", "--continue-on-collection-errors", "-p",
                                "no:cacheprovider", "--rootdir", str(ROOT),
                                str(ROOT / "tests"), str(ROOT / "bench")]))


def _run_demos() -> None:
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            copy = Path(tmp, demo.name)
            shutil.copy(demo, copy)
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(copy), run_name="__main__")


def _run_cli(cli_set) -> None:
    from levelgraph import cli

    for _, argv, inputs in cli_set:
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            for name, text in inputs.items():
                Path(tmp, name).write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)


def _run_workloads(seeds, counts) -> None:
    import gen
    import ops

    for workload in WORKLOADS:
        prepare, run, _ = ops.WORKLOADS[workload]
        for seed in seeds:
            print(f"workload {workload} seed {seed}", file=sys.stderr)
            for data in gen.InputStream(workload, seed).take(counts[workload]):
                try:
                    run(prepare(data))
                except Exception:  # noqa: BLE001 -- a failed operation runs lines too
                    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="workload seeds whose timed inputs run (default: 1 2)")
    args = parser.parse_args(argv)
    spec = importlib.util.spec_from_file_location("compare_answers",
                                                  ROOT / "tools" / "compare_answers.py")
    compare_answers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_answers)
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    # the tests' own subprocesses import the package from here too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)

    prefix = str(PACKAGE) + os.sep
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(enter)
    try:
        status = _run_tests()
        _run_demos()
        _run_cli(compare_answers.CLI_SET)
        _run_workloads(args.seeds, compare_answers.COUNTS)
    finally:
        sys.settrace(None)

    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        missed = [first for first, run_by in sorted(statements(path).items())
                  if not any((str(path), k) in hits for k in run_by)]
        counts[path.stem] = len(missed)
        for first in missed:
            print(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    print(f"{sum(counts.values())} statements not run: "
          + ", ".join(f"{name} {n}" for name, n in counts.items() if n))
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
