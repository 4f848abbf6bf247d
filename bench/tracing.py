"""In-memory spans around calls into levelgraph's layer functions.

Each span records its name, start, end and parent span; spans stay in
memory until the run ends.  A layer's self time is its span's duration minus
the durations of its direct children (calls are nested, never concurrent,
so the children never overlap).

Consumers bind layer functions with ``from .poly import roots``, so wrapping
``poly.roots`` alone would leave most calls unseen: ``traced`` rebinds every
name, in every loaded ``levelgraph`` module, that refers to a traced function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter


class Spans:
    """Spans in call order; parent -1 marks a root (one operation)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called name."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced_fn(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced_fn

    def totals(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (self.ends[i] - self.starts[i]) - child[i])
        return out


@contextlib.contextmanager
def traced(spans, targets):
    """Route every call of the ``module.function`` targets through spans.

    Yields the targets that do not exist in this version of levelgraph;
    their metrics read as zero calls.  All bindings are restored on exit.
    """
    patched, missing = [], []
    for target in targets:
        modname, fname = target.rsplit(".", 1)
        fn = getattr(importlib.import_module("levelgraph." + modname), fname, None)
        if fn is None:
            missing.append(target)
            continue
        wrapper = spans.wrap(target, fn)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "levelgraph":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, fn))
    try:
        yield missing
    finally:
        for mod, attr, fn in reversed(patched):
            setattr(mod, attr, fn)
