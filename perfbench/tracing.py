"""Spans around every call into sphiso's public functions, from outside.

A Tracer wraps each public module-level function of the layer modules, plus
the few methods listed in METHODS, and installs the wrapper at every module
binding that refers to the original: `from .symbols import eval_grid` in
spectra binds its own name, so patching only the defining module would miss
those calls. Each call records one span (name, start, end, parent span) in
flat in-memory arrays; `dump` writes them once, at the end of the traced
pass, and `summarize` turns them into per-name call counts and self times.
Size counts (grid points, hull inputs, matrix entries, lambdas) are added up
from the arguments and results of the same calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "cli",
    "checks",
    "circle_calculus",
    "symbols",
    "spectra",
    "linalg",
    "szego",
    "polydisc",
    "hardy_measures",
)

METHODS = {"symbols": ("Hull.membership_batch",)}


def _size(x):
    return int(np.size(x))


def _count_statuses(counts, statuses):
    statuses = np.asarray(statuses, dtype=object)
    counts["spectra.membership_answers"] += statuses.size
    counts["spectra.on_curve_answers"] += int(np.count_nonzero(statuses == "ON_CURVE"))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_eval_grid(counts, args, kwargs, result):
    counts["symbols.eval_grid.points"] += int(_arg(args, kwargs, 1, "grid_size"))


def _on_conv_hull(counts, args, kwargs, result):
    counts["symbols.conv_hull.points_in"] += _size(_arg(args, kwargs, 0, "points"))
    counts["symbols.conv_hull.vertices_out"] += _size(result.vertices)


def _on_op_norm(counts, args, kwargs, result):
    counts["linalg.op_norm.entries"] += _size(_arg(args, kwargs, 0, "mat"))


def _on_spectrum_membership(counts, args, kwargs, result):
    counts["spectra.lambdas"] += 1
    _count_statuses(counts, [result])


def _on_membership_batch(counts, args, kwargs, result):
    counts["spectra.lambdas"] += _size(_arg(args, kwargs, 1, "lams"))
    _count_statuses(counts, result)


def _on_convex_bound_check(counts, args, kwargs, result):
    counts["spectra.lambdas"] += _size(_arg(args, kwargs, 1, "lams"))
    _count_statuses(counts, result.statuses)


def _on_hartman_wintner_check(counts, args, kwargs, result):
    counts["spectra.probes_requested"] += result.probes_requested
    counts["spectra.probes_certified"] += result.probes_certified


# size counters, keyed by span name; each adds to Tracer.counts after a call
COUNTERS = {
    "symbols.eval_grid": _on_eval_grid,
    "symbols.conv_hull": _on_conv_hull,
    "linalg.op_norm": _on_op_norm,
    "spectra.spectrum_membership": _on_spectrum_membership,
    "spectra.membership_batch": _on_membership_batch,
    "spectra.convex_bound_check": _on_convex_bound_check,
    "spectra.hartman_wintner_check": _on_hartman_wintner_check,
}

COUNT_NAMES = (
    "symbols.eval_grid.points",
    "symbols.conv_hull.points_in",
    "symbols.conv_hull.vertices_out",
    "linalg.op_norm.entries",
    "spectra.lambdas",
    "spectra.membership_answers",
    "spectra.on_curve_answers",
    "spectra.probes_requested",
    "spectra.probes_certified",
)


def public_functions(module):
    """Public functions defined in module itself, by name."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Wraps sphiso's public functions and keeps one span per call."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.wrapped = {}  # span name -> original function
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original) to undo

    def _wrap(self, span, fn):
        nid = len(self.names)
        self.names.append(span)
        self.wrapped[span] = fn
        stack, counts = self._stack, self.counts
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        counter = COUNTERS.get(span)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function of every layer at every binding."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "sphiso" or name.startswith("sphiso."))
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"sphiso.{layer}"]
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
            for path in METHODS.get(layer, ()):
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, fn, self._wrap(f"{layer}.{path}", fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, value, hit[1])
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path):
        """Write the spans and counts to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            count_names=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )


def summarize(path):
    """Per span name: calls and self seconds; plus the size counts.

    Self time is a span's duration minus the durations of its direct
    children. Calls on one thread nest, so children never overlap.
    """
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        span_name, parent = data["span_name"], data["parent"]
        dur = (data["end"] - data["start"]).astype(np.float64)
        counts = dict(zip((str(n) for n in data["count_names"]), data["count_values"].tolist()))
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child
    calls = np.bincount(span_name, minlength=len(names))
    self_s = np.bincount(span_name, weights=self_ns, minlength=len(names)) / 1e9
    spans = {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }
    return spans, counts
