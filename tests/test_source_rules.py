"""Rules on the package source that no behaviour test can see."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "levelgraph"


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so a check written as one
    # would vanish there; every check in the package is a plain if
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_dhym_names_no_exact_chain():
    # both dHYM indices are closed-form lift counts; the exact chain of
    # levelgraph.cauchy is a test oracle only
    tree = ast.parse((PACKAGE / "dhym.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    chain = {"index_on_interval", "RationalFunction", "restrict_to_vertical_line",
             "one_sided_sign"}
    assert names & chain == set()


# the package modules each module may import; the layers are strictly
# bottom-up, and the CLI, which presents every verdict, sits on top
LOWER_LAYERS = {
    "errors": set(),
    "config": set(),
    "__init__": {"errors"},
    "poly": {"errors"},
    "cauchy": {"poly", "errors"},
    "landscape": {"cauchy", "poly", "config", "errors"},
    "stability": {"cauchy", "landscape", "poly", "config", "errors"},
    "tracer": {"poly", "config", "errors"},
    "kempf_ness": {"poly", "config", "errors"},
    "dhym": {"cauchy", "poly", "config", "errors"},
    "cli": {"cauchy", "dhym", "errors", "kempf_ness", "poly", "stability", "tracer"},
}


def _package_imports(tree) -> set:
    """Package modules imported anywhere in tree, inside functions too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("levelgraph."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("levelgraph."))
    return found


def test_modules_import_only_lower_layers():
    upward = {}
    for path in sorted(PACKAGE.glob("*.py")):
        assert path.stem in LOWER_LAYERS, f"{path.name} has no layer"
        extra = _package_imports(ast.parse(path.read_text(), str(path))) - LOWER_LAYERS[path.stem]
        if extra:
            upward[path.stem] = sorted(extra)
    assert upward == {}


def _module_level_imports(tree):
    """The import statements that run when the module is imported: those
    outside every function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_numpy_at_module_level():
    # numpy is imported inside the functions that build arrays or solve
    # eigenvalues, so importing the package and deciding class data loads
    # none; tests/test_cold_start.py checks that in a fresh interpreter
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _module_level_imports(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [] if node.level else [node.module]
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], ("numpy imported at module level; import it in the function "
                         "that needs it (see tests/test_cold_start.py)")


def _same(a, b) -> bool:
    return ast.dump(a, annotate_fields=False).replace("Store()", "Load()") == ast.dump(
        b, annotate_fields=False).replace("Store()", "Load()")


def _is_horner_step(loop: ast.For) -> bool:
    """Does the loop's body multiply an accumulator by a point and add a
    loop variable: acc = acc * z + c, or acc *= z then acc += c?  A tuple
    target (for c, ac in ...) names several loop variables."""
    targets = loop.target.elts if isinstance(loop.target, ast.Tuple) else [loop.target]
    names = {node.id for node in targets if isinstance(node, ast.Name)}

    def is_var(node):
        return isinstance(node, ast.Name) and node.id in names

    scaled, added = [], []
    for stmt in loop.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.value, ast.BinOp) and isinstance(stmt.value.op, ast.Add)):
            for term, other in ((stmt.value.left, stmt.value.right),
                                (stmt.value.right, stmt.value.left)):
                if (is_var(other) and isinstance(term, ast.BinOp)
                        and isinstance(term.op, ast.Mult)
                        and any(_same(stmt.targets[0], side) for side in (term.left, term.right))):
                    return True
        elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Mult):
            scaled.append(stmt.target)
        elif (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add)
              and is_var(stmt.value)):
            added.append(stmt.target)
    return any(_same(a, b) for a in scaled for b in added)


def _horner_loops(tree) -> list:
    """(innermost enclosing function, line) of each Horner loop in tree."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.For) and function and _is_horner_step(child):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


# the one exception to the one Horner loop, poly._horner: poly itself, whose
# _horner_bound takes a value and its rounding scale in one pass.  dhym's
# level check walks P inline, each coefficient rotated as it is read
# (acc = acc * z + c * rotation, which the rule does not flag): as _horner
# over a rotated list, the check took 1.98 us per analyze, not 1.41
HORNER_LOOPS_ALLOWED = {("poly", None)}


def test_one_horner_loop():
    found = [
        f"{path.name}:{line} ({function})"
        for path in sorted(PACKAGE.glob("*.py"))
        for function, line in _horner_loops(ast.parse(path.read_text(), str(path)))
        if (path.stem, None) not in HORNER_LOOPS_ALLOWED
        and (path.stem, function) not in HORNER_LOOPS_ALLOWED
    ]
    assert found == [], "evaluate polynomials with poly._horner"


@pytest.mark.parametrize("body, horner", [
    ("acc = acc * z + c", True),
    ("acc = c + z * acc", True),
    ("acc *= z\n        acc += c", True),
    ("out[0] *= z\n        out[0] += c", True),
    ("v = v * z + c\n        b = b * az + abs(c)", True),
    ("acc = acc * z + 2 * c", False),
    ("acc *= z\n        other += c", False),
    ("acc *= c", False),
])
def test_one_horner_loop_rule_reads_both_forms(body, horner):
    source = f"def f(coeffs, z, acc, out, other):\n    for c in coeffs:\n        {body}\n"
    assert bool(_horner_loops(ast.parse(source))) is horner


def test_one_horner_loop_rule_reads_a_tuple_target():
    # each coefficient paired with its modulus: every name of the target counts
    source = ("def f(pairs, z, az):\n    v, b = 0j, 0.0\n    for c, ac in pairs:\n"
              "        v = v * z + c\n        b = b * az + ac\n")
    assert _horner_loops(ast.parse(source)) == [("f", 3)]
