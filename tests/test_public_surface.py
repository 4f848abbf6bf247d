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

The same holds one level down, for each public method and property: a
``def`` without a leading underscore in the body of an exported class (one
in the module's ``__all__``, or, in a module without one, any name without
a leading underscore) or of a base class that the same module defines.  It
counts as used when an attribute token ``.name`` refers to it in ``src/``
on a line other than its own ``def`` line, or anywhere in ``bench/``,
``demos/`` or ``tools/``.
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
    NAME -> its def, class and module-level assignment lines, NAME token
    right after a dot -> set of its lines)."""
    names, owners, strings, defined, attributes = {}, {}, set(), {}, {}
    with tokenize.open(path) as fh:
        tokens = list(tokenize.generate_tokens(fh.readline))
    for owner, prev, tok, nxt in zip([None, None] + tokens, [None] + tokens, tokens,
                                     tokens[1:] + [None]):
        if tok.type == tokenize.NAME:
            names.setdefault(tok.string, set()).add(tok.start[0])
            after_dot = prev is not None and prev.string == "."
            owners.setdefault(tok.string, set()).add(owner.string if after_dot else None)
            if after_dot:
                attributes.setdefault(tok.string, set()).add(tok.start[0])
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
    return names, owners, strings, defined, attributes


def test_every_public_name_is_used_outside_the_tests():
    src = {p: _scan(p) for p in sorted(PACKAGE.glob("*.py"))}
    users = [_scan(p) for d in USERS for p in sorted((ROOT / d).rglob("*.py"))]
    unused = []
    for home, (*_, defined, _) in src.items():
        stem = "levelgraph" if home.stem == "__init__" else f"levelgraph.{home.stem}"
        for name in getattr(importlib.import_module(stem), "__all__", ()):
            dotted = f"{home.stem}.{name}"
            own_lines = defined.get(name, set())
            in_src = any(
                path != home or line not in own_lines
                for path, (names, *_) in src.items()
                for line in names.get(name, ())
            )
            in_users = any(
                owners.get(name, set()) & {None, "levelgraph", home.stem}
                for _, owners, *_ in users
            )
            as_string = any(dotted in strings for _, _, strings, *_ in users + list(src.values()))
            if not (in_src or in_users or as_string):
                unused.append(dotted)
    assert unused == []


def _public_methods(home: pathlib.Path):
    """(class, method, def line) of each public def in the body of a class
    that home exports, or of a base class defined in home."""
    stem = "levelgraph" if home.stem == "__init__" else f"levelgraph.{home.stem}"
    module = importlib.import_module(stem)
    exported = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
    classes = {n.name: n for n in ast.parse(home.read_text()).body if isinstance(n, ast.ClassDef)}
    bodies, todo = {}, [n for n in exported if n in classes]
    while todo:
        name = todo.pop()
        if name not in bodies:
            bodies[name] = classes[name]
            bases = classes[name].bases
            todo += [b.id for b in bases if isinstance(b, ast.Name) and b.id in classes]
    for cls in bodies.values():
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield cls.name, item.name, item.lineno


def test_every_public_method_is_used_outside_the_tests():
    src = {p: _scan(p)[4] for p in sorted(PACKAGE.glob("*.py"))}
    users = [_scan(p)[4] for d in USERS for p in sorted((ROOT / d).rglob("*.py"))]
    unused = []
    for home in src:
        for cls, name, line in _public_methods(home):
            in_src = any(
                attributes.get(name, set()) - ({line} if path == home else set())
                for path, attributes in src.items()
            )
            in_users = any(name in attributes for attributes in users)
            if not (in_src or in_users):
                unused.append(f"{home.stem}.{cls}.{name}")
    assert unused == []
