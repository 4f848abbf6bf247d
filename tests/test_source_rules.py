"""Rules on the package source that no behaviour test can see."""

import ast
import pathlib

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
