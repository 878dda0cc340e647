"""Span tracing of dickson's public functions, installed from outside.

``Tracer.install`` replaces every public function of the traced modules
with a wrapper that records one span per call: the function, its start
and end, and the span that was open when it was called.  Spans go into
flat arrays and are reduced to per-function self and total times only
after the traced run, so the wrapper does little more than read the clock.
A few wrappers also count work (terms multiplied, quotient terms, ...).
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

from dickson.fp_poly import Poly

LAYERS = ("fp_poly", "invariants", "steenrod", "verify", "cli")

# Work counters: span name -> ((stat, amount of one call from its args and
# result), ...).  Totals are kept under "<span name>.<stat>".
COUNTERS: Dict[str, Tuple[Tuple[str, Callable], ...]] = {
    "fp_poly.poly_mul": (
        ("term_pairs", lambda a, r: len(a[0].terms) * len(a[1].terms)),
        ("out_terms", lambda a, r: len(r.terms)),
    ),
    "fp_poly.exact_div": (("quotient_terms", lambda a, r: len(r.terms)),),
    "steenrod.st_delta": (("in_terms", lambda a, r: len(a[0].terms)),),
    "invariants.gl_generators": (("matrices", lambda a, r: len(r)),),
}


def self_times(fids: Sequence[int], parents: Sequence[int],
               starts: Sequence[float], ends: Sequence[float],
               n_names: int) -> Tuple[List[int], List[float], List[float]]:
    """Reduce spans to per-name (calls, self time, total time).

    Spans are indexed in the order they opened, so a parent always comes
    before its children (``parents[k]`` is -1 for a root).  A span's self
    time is its duration minus the durations of its direct children; as
    spans of one thread nest, those children do not overlap.  Total time
    counts a span only if no enclosing span has the same name, so a
    function that calls itself is not counted twice.
    """
    count = len(fids)
    dur = [ends[k] - starts[k] for k in range(count)]
    child = [0.0] * count
    for k in range(count):
        if parents[k] >= 0:
            child[parents[k]] += dur[k]
    calls = [0] * n_names
    own = [0.0] * n_names
    total = [0.0] * n_names
    path: List[int] = []
    open_names = [0] * n_names
    for k in range(count):
        while path and path[-1] != parents[k]:
            open_names[fids[path.pop()]] -= 1
        f = fids[k]
        calls[f] += 1
        own[f] += dur[k] - child[k]
        if open_names[f] == 0:
            total[f] += dur[k]
        open_names[f] += 1
        path.append(k)
    return calls, own, total


class Tracer:
    """Collects spans of the wrapped functions of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.fids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Dict[str, int] = {}
        self.max_terms = 0
        self._stack = [-1]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        fid = len(self.names)
        self.names.append(name)
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        counters = [(f"{name}.{stat}", amount) for stat, amount in COUNTERS.get(name, ())]
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if type(result) is Poly and len(result.terms) > self.max_terms:
                self.max_terms = len(result.terms)
            for key, amount in counters:
                counts[key] = counts.get(key, 0) + amount(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> Callable[[], None]:
        """Wrap the public functions of every traced module.

        ``from .fp_poly import poly_mul`` binds a copy of the name in the
        importing module, so each name is rebound in every loaded
        ``dickson`` module that holds the original.  Returns a function
        that puts the originals back.
        """
        modules = [importlib.import_module(f"dickson.{layer}") for layer in LAYERS]
        namespaces = [m for k, m in sys.modules.items()
                      if m is not None and (k == "dickson" or k.startswith("dickson."))]
        replaced: Dict[int, Tuple[Callable, Callable]] = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        undo = []
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    undo.append((ns, attr, obj))

        def restore() -> None:
            for ns, attr, obj in undo:
                setattr(ns, attr, obj)
        return restore

    def table(self) -> Dict[str, Tuple[int, float, float]]:
        """Per wrapped function: (calls, self seconds, total seconds)."""
        calls, own, total = self_times(self.fids, self.parents, self.starts,
                                       self.ends, len(self.names))
        return {name: (calls[f], own[f], total[f]) for f, name in enumerate(self.names)}
