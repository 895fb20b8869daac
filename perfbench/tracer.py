"""Span tracer for the fgrnn modules, installed from outside the package.

``Tracer.installed()`` wraps every public function defined in the layer
modules (``LAYER_MODULES``). Each call records one span -- name, start,
end, parent -- and, for a few functions, counters computed from the
call's arguments or result. A function is often bound in several module
namespaces (``spmm`` in sparse, gconv and training; ``preactivation`` in
cells, training, stability and cli), and a call through a binding that
was not replaced would be silently missed, so the wrapper is installed
under every name that binds the original in any loaded fgrnn module.
Leaving the context restores the original bindings.

A span's self time is its duration minus the durations of its direct
children. The package is single-threaded, so children never overlap and
the self times of all spans under a root sum to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("sparse", "graph", "data", "gconv", "cells", "training",
                 "stability", "cli")


def _spmm_counts(args, result):
    # CSR product model: read values, column index and row id per stored
    # entry, gather one F-wide row of x per entry, write the (n_rows, F) result
    a, x = args[0], args[1]
    f = 1 if x.ndim == 1 else x.shape[1]
    return {"flops": 2 * a.nnz * f,
            "bytes": 8 * (3 * a.nnz + a.nnz * f + a.n_rows * f)}


COUNTERS = {
    "sparse.spmm": _spmm_counts,
    "data.save_frames": lambda args, result: {"bytes": os.path.getsize(args[1])},
    "data.load_frames": lambda args, result: {"bytes": os.path.getsize(args[0])},
    "graph.build_laplacians":
        lambda args, result: {"converged": int(result.lambda_max_converged)},
    "training.bptt": lambda args, result: {"transitions": len(args[2]) - 1},
}

# spmm calls are also counted per enclosing layer, to measure wasted work
SPMM_PARENTS = ("training.bptt", "sparse.power_iteration")


def layer_functions():
    """{"module.function": function} for every traced public function."""
    out = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"fgrnn.{short}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[f"{short}.{attr}"] = obj
    return out


class Tracer:
    """Records spans as (name, start, end, parent index, counters or None)."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._installed = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if counter is not None:
                spans[idx] = (name, start, end, parent, counter(args, result))
            return result
        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A span around benchmark code, e.g. one whole operation."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, None)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function under every fgrnn binding of it."""
        wrappers = {fn: self._wrap(name, fn, COUNTERS.get(name))
                    for name, fn in layer_functions().items()}
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "fgrnn" and not mod_name.startswith("fgrnn."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        self._installed.append((mod, attr, obj))
            yield self
        finally:
            while self._installed:
                mod, attr, obj = self._installed.pop()
                setattr(mod, attr, obj)


def self_times(spans):
    """Per-span self time: duration minus the direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans):
    """Raw per-layer stats of one traced root (spans[0]), plus problems.

    Keys are "<layer>.calls", "<layer>.self_s", "<layer>.<counter>" and
    "<parent>.spmm_calls" for each parent in SPMM_PARENTS.
    """
    if any(s is None for s in spans):
        raise RuntimeError("aggregate: a span is still open")
    own = self_times(spans)
    stats = defaultdict(float)
    inside = {p: [False] * len(spans) for p in SPMM_PARENTS}
    for i, (name, _, _, parent, counts) in enumerate(spans):
        for p in SPMM_PARENTS:
            inside[p][i] = name == p or (parent >= 0 and inside[p][parent])
        if i == 0:
            continue
        stats[f"{name}.calls"] += 1
        stats[f"{name}.self_s"] += own[i]
        for key, value in (counts or {}).items():
            stats[f"{name}.{key}"] += value
        if name == "sparse.spmm":
            for p in SPMM_PARENTS:
                stats[f"{p}.spmm_calls"] += inside[p][i]
    wall = spans[0][2] - spans[0][1]
    stats["bench.self_s"] = own[0]
    problems = []
    if any(parent < 0 for _, _, _, parent, _ in spans[1:]):
        problems.append("span recorded outside the root")
    if min(own) < -1e-12:
        problems.append(f"negative self time {min(own):.3g} s")
    if abs(sum(own) - wall) > 1e-9 * max(1.0, wall):
        problems.append(f"self times sum to {sum(own):.9f} s, wall {wall:.9f} s")
    return dict(stats), wall, problems
