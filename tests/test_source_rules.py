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
