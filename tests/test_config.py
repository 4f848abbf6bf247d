"""The tolerances are one object, read at call time, and every knob is read.

``config.TOL`` is the only home of a tolerance.  Rebinding it to a
``dataclasses.replace`` copy must reach every module, which holds only
while no module imports a field (or ``TOL`` itself) by name, or reads one
while it is being imported.
"""

import ast
import dataclasses
import pathlib
import tokenize

from reference_product import antiderivative_coeffs

from levelgraph import config
from levelgraph.cauchy import HalfInteger
from levelgraph.poly import ComplexPolynomial, root_product
from levelgraph.stability import BoundaryData, StabilityVerdict, classify, shift_to_zero_level

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "levelgraph"
FIELDS = {f.name for f in dataclasses.fields(config.Tolerances)}


def _import_time_nodes(tree):
    """The nodes a module runs when it is imported: all but function bodies."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(getattr(node, "decorator_list", ()))
            todo.extend(node.args.defaults)
            todo.extend(d for d in node.args.kw_defaults if d is not None)
        else:
            todo.extend(ast.iter_child_nodes(node))


def _tolerance_leaks(path: pathlib.Path) -> list:
    """Where a module imports a field or TOL from config, binds a field's name
    at import time, or reads TOL at import time."""
    tree = ast.parse(path.read_text(), str(path))
    leaks = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "config":
            leaks += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                      if a.name in FIELDS | {"TOL"}]
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in FIELDS:
            leaks.append(f"{path.name}:{node.lineno} binds {node.id}")
        if isinstance(node, ast.Attribute) and node.attr == "TOL":
            leaks.append(f"{path.name}:{node.lineno} reads TOL on import")
    return leaks


def test_rebinding_tol_reaches_every_module(monkeypatch):
    # w' = (z - i)(z + 1) has a generic critical point at i.  z1 sits 1e-10
    # right of it: within snap (1 + |z1|) = 2.4e-8, but not within a
    # thousandth of that.  z2 is pinned to a double on the level of z1.
    w = ComplexPolynomial(antiderivative_coeffs(root_product([1j, -1])))
    data = BoundaryData(w, 1e-10 + 1j, 1 + 2.957194684957974j)
    shift_to_zero_level(data)  # no LevelMismatch
    three = HalfInteger.from_int(3)
    assert classify(data) == StabilityVerdict("stable", three, three, "generic_critical", 1)

    monkeypatch.setattr(config, "TOL", dataclasses.replace(config.TOL, sign=1e-12, snap=1e-11))
    verdict = classify(data)
    assert (verdict.verdict, verdict.case) == ("unstable", "noncritical")

    leaks = [leak for path in sorted(PACKAGE.glob("*.py")) if path.stem != "config"
             for leak in _tolerance_leaks(path)]
    assert leaks == []


def _class_lines(cls) -> range:
    tree = ast.parse((PACKAGE / "config.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls.__name__)
    return range(node.lineno, node.end_lineno + 1)


def test_every_knob_is_read():
    """No knob that does nothing: each field of Tolerances is read as
    ``TOL.<field>`` somewhere in src/levelgraph outside its class.  The read
    asks for ``TOL`` before the dot, since another object's attribute
    (``np.sign``) would vouch for a field of the same name."""
    tol_reads = set()
    tolerance_lines = _class_lines(config.Tolerances)
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as fh:
            tokens = [t for t in tokenize.generate_tokens(fh.readline)
                      if t.type in (tokenize.NAME, tokenize.OP)]
        for owner, dot, name in zip(tokens, tokens[1:], tokens[2:]):
            if dot.string != "." or name.type != tokenize.NAME:
                continue
            if path.stem == "config" and name.start[0] in tolerance_lines:
                continue
            if owner.string == "TOL":
                tol_reads.add(name.string)
    assert sorted(FIELDS - tol_reads) == []
