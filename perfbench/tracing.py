"""Spans around cellmat's public functions, installed from outside the package.

``Tracer.installed()`` replaces every module attribute that binds a public
function of a cellmat module (``cellmat.eig_symmetric``, ``cellmat.perm.eig_symmetric``,
``cellmat.reduction.eig_small_general`` and so on) with a wrapper that records a
span: name, start, end, parent span and the operation it belongs to.  Calls
between cellmat modules go through those attributes, so nested calls get their
own spans and a span's self time is its duration minus its children's.  On exit
the original functions are put back; no file of the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("cell", "eigen", "reduction", "iep", "perm", "cli")
# Spans named after the layer a function stands for.  Every other public
# function of MODULES gets the span "<module>.<function>".
SPAN_NAMES = {
    ("eigen", "eig_symmetric"): "eigen.jacobi",
    ("eigen", "eig_small_general"): "eigen.core_root",
    ("reduction", "reduce_grouped"): "reduction.reduce",
    ("reduction", "spectrum_via_reduction"): "reduction.route",
    ("iep", "solve_grouped"): "iep.solve",
    ("iep", "solve_two_group"): "iep.solve",
    ("iep", "solve_cubic_iep"): "iep.solve",
    ("iep", "solve_uniform"): "iep.solve",
    ("iep", "verify_membership"): "iep.membership",
    ("perm", "transposition_similarity_check"): "perm.transposition",
    ("perm", "spectrum_invariance_check"): "perm.invariance",
    ("cell", "construct_cell_matrix"): "cell.construct",
    ("cell", "group_vector"): "cell.group",
    ("cell", "recognize_cell"): "cell.recognize",
    ("cell", "principal_subdeterminant"): "cell.det",
    ("cell", "numeric_determinant"): "cell.det",
}


def public_functions():
    """(function, span name) for every public function defined in MODULES."""
    for short in MODULES:
        module = importlib.import_module(f"cellmat.{short}")
        names = getattr(module, "__all__", None) or [n for n in vars(module) if n[0] != "_"]
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield fn, SPAN_NAMES.get((short, name), f"{short}.{name}")


N_BUCKETS = ((30, "n10"), (75, "n50"), (150, "n100"))


def n_bucket(n: int) -> str:
    """The size bucket of an order: n10, n50, n100 or n200 (nearest grid size)."""
    for limit, name in N_BUCKETS:
        if n < limit:
            return name
    return "n200"


# Span name -> tag taken from the arguments, and count taken from the result.
_TAGS = {"eigen.jacobi": lambda args: n_bucket(len(args[0]))}
_COUNTS = {"reduction.reduce": lambda result: len(result.ops_applied)}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "tag", "count", "failed")

    def __init__(self, name, parent, op, tag):
        self.name = name
        self.parent = parent
        self.op = op
        self.tag = tag
        self.start = self.end = 0.0
        self.count = 0
        self.failed = False


class Tracer:
    """Records spans while installed; ``op`` labels the operation in flight."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def _call(self, name, fn, args, kwargs):
        tag_of = _TAGS.get(name)
        span = Span(name, self._stack[-1] if self._stack else -1, self.op,
                    tag_of(args) if tag_of else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        count_of = _COUNTS.get(name)
        if count_of:
            span.count = count_of(result)
        return result

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every cellmat module attribute bound to a traced function."""
        names = dict(public_functions())
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != "cellmat" and not modname.startswith("cellmat."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in names:
                    patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, names[value]))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def summary(self) -> dict:
        """Per span name: calls, fail, self_s, count, and self_s per tag."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = defaultdict(lambda: {"calls": 0, "fail": 0, "self_s": 0.0, "count": 0,
                                   "tags": defaultdict(float)})
        for idx, span in enumerate(self.spans):
            row = out[span.name]
            self_s = span.end - span.start - child[idx]
            row["calls"] += 1
            row["fail"] += span.failed
            row["self_s"] += self_s
            row["count"] += span.count
            if span.tag is not None:
                row["tags"][span.tag] += self_s
        return out
