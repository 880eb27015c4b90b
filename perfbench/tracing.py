"""Spans around noonspec's public functions, installed from outside at run time.

``Tracer.install`` replaces every public function of the layer modules,
in every noonspec module namespace that holds it (``from x import f``
copies included), with a wrapper that records a span: name, start, end,
parent and a few counts taken from the arguments. Spans stay in memory;
``layer_metrics`` folds one verb call's spans into per-layer numbers.

Each span's self time is its duration minus that of its direct children,
so the self times of one call's spans add up to the call's wall time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc

LAYERS = ("spectral", "absorption", "interferometer", "recovery", "noise", "io", "cli")
# grids only build axes; these helpers get no span of their own
UNTRACED = {"make_frequency_grid", "default_time_grid", "main"}
ROOT = "cli.main"
SYNTH = "interferometer.simulate_interferogram"


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "children_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = {}
        self.children_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children_s


def _length(obj) -> int:
    """Rows or bins held by an artifact object (a grid-backed value or a sequence)."""
    if hasattr(obj, "grid"):
        return int(obj.grid.count)
    if hasattr(obj, "rows"):
        return len(obj.rows)
    return len(obj)


def _counts(name: str, args, result) -> dict:
    if name == SYNTH:
        return {"cells": int(args[0].grid.count) * _length(result)}
    if name == "noise.sample_counts":
        return {"bins": _length(args[0])}
    if name.startswith("io.write_"):
        path = str(args[0])
        rows = _length(args[1]) if path.endswith(".csv") else 0
        return {"bytes_written": os.path.getsize(path), "rows_written": rows}
    if name.startswith("io.read_"):
        return {"bytes_read": os.path.getsize(str(args[0]))}
    if name.startswith("spectral.") and hasattr(result, "weights"):
        return {"bins": int(result.weights.size)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.synth_args = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.children_s += span.end - span.start
                self.spans.append(span)
            span.counts = _counts(name, args, result)
            if name == SYNTH and self.synth_args is None:
                self.synth_args = (fn, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "noonspec"]
        for layer in LAYERS:
            mod = importlib.import_module(f"noonspec.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or attr in UNTRACED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patched.append((holder, key, fn))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched = []

    def call(self, fn, *args):
        """Run ``fn`` as the root span of one verb call.

        Returns the result, the root span and every span of the call.
        """
        self.spans = []
        result = self._wrap(ROOT, fn)(*args)
        return result, self.spans[-1], self.spans

    def synth_peak_mb(self) -> float:
        """tracemalloc peak of the first traced forward synthesis, re-run alone."""
        if self.synth_args is None:
            return 0.0
        fn, args, kwargs = self.synth_args
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


# Every span falls into exactly one time bucket, so the buckets add up to
# the traced call's wall time.
def _bucket(name: str) -> str:
    layer, func = name.split(".", 1)
    if layer == "interferometer":
        return "interferometer.synth_s" if name == SYNTH else "interferometer.trace_s"
    if layer == "noise":
        return {
            "sample_counts": "noise.sample_s",
            "estimate_trace": "noise.estimate_s",
        }.get(func, "noise.study_self_s")
    if layer == "recovery":
        return {
            "fourier_recover": "recovery.transform_s",
            "fold_one_sided": "recovery.fold_s",
        }.get(func, "recovery.detect_s")
    if layer == "io":
        return "io.read_s" if func.startswith("read_") else "io.write_s"
    if layer == "spectral":
        return "spectral.build_s"
    if layer == "absorption":
        return "absorption.filter_s"
    if func == "main" or func.startswith("cmd_"):
        return "cli.self_s"
    return "cli.parse_s"


TIME_BUCKETS = (
    "interferometer.synth_s", "interferometer.trace_s",
    "noise.sample_s", "noise.estimate_s", "noise.study_self_s",
    "io.write_s", "io.read_s",
    "recovery.transform_s", "recovery.fold_s", "recovery.detect_s",
    "spectral.build_s", "absorption.filter_s", "cli.parse_s", "cli.self_s",
)


def layer_metrics(spans: list, root: Span) -> dict:
    """Per-layer times and counts of one traced verb call."""
    m = dict.fromkeys(TIME_BUCKETS, 0.0)
    totals = {}
    for s in spans:
        m[_bucket(s.name)] += s.self_s
        layer = s.name.split(".")[0]
        if layer == "spectral" and s.parent is not None and s.parent.name.startswith("spectral."):
            continue  # a spectrum built inside another is counted once
        for key, value in s.counts.items():
            totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
    wall = root.end - root.start
    covered = sum(m.values())
    if abs(covered - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(f"span self times cover {covered:.6f} s of a {wall:.6f} s call")

    cells = totals.get("interferometer.cells", 0)
    bins = totals.get("noise.bins", 0)
    written = totals.get("io.bytes_written", 0)
    m.update({
        "interferometer.synth_cells": cells,
        "interferometer.ns_per_cell": m["interferometer.synth_s"] * 1e9 / cells if cells else 0.0,
        "noise.sample_calls": sum(s.name == "noise.sample_counts" for s in spans),
        "noise.bins_sampled": bins,
        "noise.us_per_bin": m["noise.sample_s"] * 1e6 / bins if bins else 0.0,
        "io.bytes_written": written,
        "io.bytes_read": totals.get("io.bytes_read", 0),
        "io.rows_written": totals.get("io.rows_written", 0),
        "io.write_mb_per_s": written / 1e6 / m["io.write_s"] if m["io.write_s"] else 0.0,
        "recovery.calls": sum(s.name == "recovery.fourier_recover" for s in spans),
        "spectral.bins": totals.get("spectral.bins", 0),
        "traced_wall_s": wall,
    })
    return m
