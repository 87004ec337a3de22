"""In-memory spans around hwlab's public functions and the FFT entry points.

Tracing is installed from the benchmark's own files; nothing under
``src/`` knows about it.  Every wrapper is pass-through: it calls the
original with the same arguments and returns its result unchanged.

Install order matters.  ``install_fft`` runs before hwlab (and
``scipy.signal``) are imported, so names bound with ``from scipy.fft
import rfft2`` also see the wrappers; ``install_layers`` runs after.

Span names are ``<layer>.<function>`` with the layer named after the
hwlab module, and ``spectral.fft`` for the FFT entry points.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("spectral", "functionals", "solitary", "evolution", "snapshots", "cli")
FFT_LAYER = "spectral.fft"
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# Counts read off a function's arguments and result, keyed by span name.
_EXTRACT = {
    "solitary.solve_nehari": lambda args, res: {"iters": res.iterations},
    "solitary.extend_ground_state": lambda args, res: {"iters": res.iterations},
    "evolution.evolve": lambda args, res: {"steps": res.n_steps,
                                           "samples": len(res.times)},
    "snapshots.save_snapshot": lambda args, res: {"bytes": os.path.getsize(args[0])},
    "snapshots.load_snapshot": lambda args, res: {"bytes": os.path.getsize(args[0])},
}


class Tracer:
    """Spans kept in memory: name, start, end, parent index, counts."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.counts: list[dict | None] = []
        self.stack: list[int] = []
        self.enabled = True

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.counts.append(None)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        if counts:
            self.counts[idx] = counts

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def dump(self, path: str) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in zip(self.names, self.start, self.end,
                                         self.parent, self.counts)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def _wrap_function(tracer: Tracer, name: str, fn):
    extract = _EXTRACT.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        done = False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            tracer.close(idx, extract(args, result) if done and extract else None)

    return wrapper


def _wrap_fft(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        # Nested entry points (one public transform calling another) and
        # paused tracing pass straight through.
        if not tracer.enabled or (tracer.stack and tracer.names[tracer.stack[-1]]
                                  .startswith(FFT_LAYER)):
            return fn(a, *args, **kwargs)
        idx = tracer.open(name)
        out = None
        try:
            out = fn(a, *args, **kwargs)
            return out
        finally:
            tracer.close(idx, {"bytes": getattr(a, "nbytes", 0)
                               + getattr(out, "nbytes", 0)})

    return wrapper


def install_fft(tracer: Tracer) -> None:
    """Wrap the numpy.fft and scipy.fft transforms.  Call before importing hwlab."""
    import numpy.fft
    import scipy.fft

    for mod, label in ((numpy.fft, "numpy"), (scipy.fft, "scipy")):
        for fname in FFT_NAMES:
            fn = getattr(mod, fname, None)
            if fn is not None:
                setattr(mod, fname, _wrap_fft(tracer, f"{FFT_LAYER}.{label}.{fname}", fn))


def install_layers(tracer: Tracer) -> None:
    """Wrap every public function of the hwlab layer modules.

    References to the same function object held by other hwlab modules
    (``from .spectral import to_physical``) are replaced too, so calls
    across modules are traced whichever name they use.
    """
    layer_modules = [importlib.import_module(f"hwlab.{layer}") for layer in LAYERS]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "hwlab" or name.startswith("hwlab."))]
    replaced: dict[int, object] = {}
    for layer, mod in zip(LAYERS, layer_modules):
        for fname, obj in list(vars(mod).items()):
            if (fname.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            replaced[id(obj)] = _wrap_function(tracer, f"{layer}.{fname}", obj)
    for mod in modules:
        for fname, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, fname, replaced[id(obj)])


def summarize(tracer: Tracer) -> dict:
    """Per-name totals and per-layer self times from the recorded spans.

    Returns {"by_name": {name: {"calls", "s", "self_s", "fft_calls", counts...}},
    "layer_self_s": {layer: s}, "fft": {"calls", "s", "bytes", "entry_points"}}.
    A span's self time is its duration minus the time its child spans
    cover; fft_calls counts FFT spans anywhere below it.
    """
    n = len(tracer.names)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    fft_below = [0] * n
    is_fft = [name.startswith(FFT_LAYER) for name in tracer.names]
    for i in range(n - 1, -1, -1):
        par = tracer.parent[i]
        if par >= 0:
            child[par] += dur[i]
            fft_below[par] += fft_below[i] + (1 if is_fft[i] else 0)
    by_name: dict[str, dict] = {}
    layer_self: dict[str, float] = {}
    fft = {"calls": 0, "s": 0.0, "bytes": 0, "entry_points": {}}
    for i, name in enumerate(tracer.names):
        self_s = dur[i] - child[i]
        if is_fft[i]:
            fft["calls"] += 1
            fft["s"] += dur[i]
            fft["bytes"] += tracer.counts[i]["bytes"]
            entry = name[len(FFT_LAYER) + 1:]
            fft["entry_points"][entry] = fft["entry_points"].get(entry, 0) + 1
            layer = FFT_LAYER
        else:
            layer = name.split(".", 1)[0]
            entry = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                              "fft_calls": 0})
            entry["calls"] += 1
            entry["s"] += dur[i]
            entry["self_s"] += self_s
            entry["fft_calls"] += fft_below[i]
            for key, val in (tracer.counts[i] or {}).items():
                entry[key] = entry.get(key, 0) + val
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    return {"by_name": by_name, "layer_self_s": layer_self, "fft": fft}


def time_within(tracer: Tracer, outer: str, inner: str) -> float:
    """Total duration of `inner` spans that have an `outer` span above them."""
    total = 0.0
    for i, name in enumerate(tracer.names):
        if name != inner:
            continue
        par = tracer.parent[i]
        while par >= 0 and tracer.names[par] != outer:
            par = tracer.parent[par]
        if par >= 0:
            total += tracer.end[i] - tracer.start[i]
    return total
