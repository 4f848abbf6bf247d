"""Every public name of the package is used by something other than its tests.

A name in a ``levelgraph`` module's ``__all__`` counts as used when one of
these refers to it:

- a NAME token in ``src/`` other than those on the lines that define the
  name: its ``def`` or ``class`` line, or a module-level ``name = ...``
  line (the ``__all__`` entry is a string, not a NAME);
- a NAME token in ``bench/``, ``demos/`` or ``tools/``; one right after a
  ``.`` counts only when the name before the dot is ``levelgraph`` or the
  defining module's stem, so ``np.__version__`` vouches for no
  ``levelgraph.__version__``;
- a string literal ``"module.name"`` anywhere in those four trees, which is
  how the benchmark's trace targets name functions.

Comments and docstrings are no references.  A name that only the tests use
belongs beside the tests, as ``tests/reference_*.py`` do.
"""

import ast
import importlib
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levelgraph"
USERS = ("bench", "demos", "tools")


def _scan(path: pathlib.Path):
    """(NAME token -> set of its lines, NAME token -> set of the names before
    its dot, None for an occurrence without one, string-literal values,
    NAME -> its def, class and module-level assignment lines)."""
    names, owners, strings, defined = {}, {}, set(), {}
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    for owner, prev, tok, nxt in zip([None, None] + tokens, [None] + tokens, tokens,
                                     tokens[1:] + [None]):
        if tok.type == tokenize.NAME:
            names.setdefault(tok.string, set()).add(tok.start[0])
            after_dot = prev is not None and prev.string == "."
            owners.setdefault(tok.string, set()).add(owner.string if after_dot else None)
            defines = prev is not None and prev.string in ("def", "class")
            assigns = tok.start[1] == 0 and nxt is not None and nxt.string == "="
            if defines or assigns:
                defined.setdefault(tok.string, set()).add(tok.start[0])
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):  # an f-string part
                continue
            if isinstance(value, str):
                strings.add(value)
    return names, owners, strings, defined


def test_every_public_name_is_used_outside_the_tests():
    src = {p: _scan(p) for p in sorted(PACKAGE.glob("*.py"))}
    users = [_scan(p) for d in USERS for p in sorted((ROOT / d).rglob("*.py"))]
    unused = []
    for home, (_, _, _, defined) in src.items():
        stem = "levelgraph" if home.stem == "__init__" else f"levelgraph.{home.stem}"
        for name in getattr(importlib.import_module(stem), "__all__", ()):
            dotted = f"{home.stem}.{name}"
            own_lines = defined.get(name, set())
            in_src = any(
                path != home or line not in own_lines
                for path, (names, _, _, _) in src.items()
                for line in names.get(name, ())
            )
            in_users = any(
                owners.get(name, set()) & {None, "levelgraph", home.stem}
                for _, owners, _, _ in users
            )
            as_string = any(dotted in strings for _, _, strings, _ in users + list(src.values()))
            if not (in_src or in_users or as_string):
                unused.append(dotted)
    assert unused == []
