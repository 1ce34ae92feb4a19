"""Span tracer installed from outside the anbeam package.

Each traced layer is a public function of an anbeam module.  The tracer
replaces every binding of that function object in the loaded anbeam modules
(the defining module and each ``from .x import f`` in a caller) with a timing
wrapper, and restores the originals on exit.  Spans are kept in memory as
(name, start, end, parent, tag) and written out by the caller at the end of
the run.  Only the standard library is used, so importing this module does not
import numpy.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


def _relay_count(args, kwargs):
    return getattr(args[0], "m", None) if args else None


def _validate_suite(args, kwargs):
    argv = list(args[0]) if args else []
    return argv[argv.index("--suite") + 1] if "--suite" in argv else None


def _clamps(result):
    return len(getattr(getattr(result, "diagnostics", None), "clamped", ()))


def _root_candidates(result):
    return len(result[1])


def _evals(result):
    return result.samples_or_evals


def _symbols(result):
    return result.n_symbols


# (module, function, tag(args, kwargs), count(result)).  The tag labels a span
# (relay count, validate suite); the count adds to the layer's work counter.
LAYERS = (
    ("experiments", "instance_stream", None, None),
    ("experiments", "sample_instance", None, None),
    ("experiments", "solve_grid_point", None, None),
    ("experiments", "run_sweep", None, None),
    ("experiments", "emit_csv", None, None),
    ("model", "derive_model", None, None),
    ("model", "resolve_alpha", None, None),
    ("model", "capacity_dest", None, None),
    ("model", "second_phase_power", None, None),
    ("total_solver", "solve_total", _relay_count, None),
    ("total_solver", "build_d_tilde", None, None),
    ("individual_solver", "solve_individual", _relay_count, _clamps),
    ("individual_solver", "select_root", None, _root_candidates),
    ("oracles", "oracle_total", None, _evals),
    ("oracles", "power_iteration_rank1", None, None),
    ("oracles", "oracle_individual_grid", None, _evals),
    ("oracles", "empirical_snr", None, _symbols),
    ("cli", "main", _validate_suite, None),
)


class LayerStats:
    """Totals of one layer over the recorded spans."""

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.count = 0
        self.by_tag = {}  # tag -> list of span durations in seconds


class Tracer:
    """Context manager that wraps the given layers while active."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []   # (name, start, end, parent index or -1, tag)
        self.counts = {}  # layer name -> summed count(result)
        self._stack = []
        self._restore = []

    def __enter__(self):
        anbeam_modules = [mod for name, mod in list(sys.modules.items())
                          if name == "anbeam" or name.startswith("anbeam.")]
        for module, func, tag, count in self.layers:
            target = getattr(importlib.import_module("anbeam." + module), func, None)
            if target is None:
                continue
            wrapper = self._wrap(f"{module}.{func}", target, tag, count)
            for mod in anbeam_modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, name, fn, tag, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = tag(args, kwargs) if tag else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, label)
            if count:
                counts[name] = counts.get(name, 0) + count(result)
            return result

        return wrapper

    def stats(self):
        """Per-layer totals; self time is a span minus its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, label) in enumerate(self.spans):
            s = out.get(name)
            if s is None:
                s = out[name] = LayerStats()
            s.calls += 1
            s.busy += end - start
            s.self_time += end - start - child_time[i]
            s.by_tag.setdefault(label, []).append(end - start)
        for name, total in self.counts.items():
            out.setdefault(name, LayerStats()).count = total
        return out

    def write(self, path, origin):
        """Write the spans as CSV, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,tag\n")
            for i, (name, start, end, parent, label) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent},{'' if label is None else label}\n")
