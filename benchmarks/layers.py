"""Per-layer numbers for the traced run: span totals and microbenchmarks.

Every traced run reports the same metric names on every workload; a
layer a workload never calls reads 0.  Sizes and byte counts of FFTs
are computed from array shapes, not measured, and are named so.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from hwlab import evolution as ev, solitary as sol, spectral as sp
from hwlab.functionals import ModelParams

import tracing

FFT_SHAPES = ((128, 128), (256, 1024), (128, 8192), (128, 32768))
SMALL = "128x128"


def _median_ms(fn, min_reps: int = 5, min_s: float = 0.25) -> float:
    fn()  # first call pays plan caches and allocation
    times = []
    stop = time.perf_counter() + min_s
    while len(times) < min_reps or time.perf_counter() < stop:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _fft_pair_computed(nx: int, ny: int, kind: str) -> tuple[float, float]:
    """Computed bytes and flops of one forward+inverse pair.

    Bytes are each transform's input plus output array; flops use the
    customary 5 n log2 n per complex transform and half that for a real
    one.  Neither counts cache traffic.
    """
    n = nx * ny
    if kind == "c2c":
        return 4 * 16.0 * n, 2 * 5.0 * n * math.log2(n)
    half = nx * (ny // 2 + 1) * 16.0
    return 2 * (8.0 * n + half), 2 * 2.5 * n * math.log2(n)


def microbenchmarks(seed: int) -> dict:
    """Layer microbenchmarks; returns {metric: (value, unit)}."""
    rng = np.random.default_rng(seed)
    out = {}
    for nx, ny in FFT_SHAPES:
        shape = f"{nx}x{ny}"
        grid = sp.make_grid(nx, ny, 20.0, 20.0 * ny / nx)
        field = sp.physical_field(grid, rng.standard_normal((nx, ny))
                                  + 1j * rng.standard_normal((nx, ny)))
        real = rng.standard_normal((nx, ny))
        # c2c goes through hwlab's transform layer; at this commit spectral
        # has no public real transform, so r2c times numpy's directly.
        out[f"spectral.fft_pair_ms.{shape}.c2c"] = (_median_ms(
            lambda: sp.to_physical(sp.to_spectral(field))), "ms")
        out[f"spectral.fft_pair_ms.{shape}.r2c"] = (_median_ms(
            lambda: np.fft.irfft2(np.fft.rfft2(real, norm="ortho"), s=(nx, ny),
                                  norm="ortho")), "ms")
        del field, real
        for kind in ("c2c", "r2c"):
            nbytes, flops = _fft_pair_computed(nx, ny, kind)
            out[f"spectral.fft_pair_computed_mb.{shape}.{kind}"] = (nbytes / 1e6, "MB")
            out[f"spectral.fft_pair_computed_flop_per_byte.{shape}.{kind}"] = (
                flops / nbytes, "flop/B")

    grid = sp.make_grid(128, 128, 40.0, 40.0)
    params = ModelParams(p=2.0)
    q = sol.default_initial_guess(grid, params)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    u = sp.physical_field(grid, q.values + 1e-2 * noise)
    dt, n_bare = 4e-3, 200
    out[f"evolution.strang_step_ms.{SMALL}"] = (_median_ms(
        lambda: ev.strang_step(u, dt, 2.0)), "ms")
    out[f"evolution.bare_step_ms.{SMALL}"] = (_median_ms(
        lambda: ev.evolve(u, 2.0, n_bare * dt, dt, sample_stride=n_bare),
        min_reps=3, min_s=0.0) / n_bare, "ms")
    out[f"solitary.orbital_fit_ms.{SMALL}.refine"] = (_median_ms(
        lambda: sol.orbital_fit(u, q, refine=True)), "ms")
    out[f"solitary.orbital_fit_ms.{SMALL}.norefine"] = (_median_ms(
        lambda: sol.orbital_fit(u, q, refine=False)), "ms")
    return out


def span_metrics(tracer: tracing.Tracer, bare_step_ms: float) -> dict:
    """Per-layer totals over the traced set-up and body; {metric: (value, unit)}."""
    summary = tracing.summarize(tracer)
    by = summary["by_name"]

    def get(name, key):
        return by.get(name, {}).get(key, 0)

    def per_iter(name):
        iters = get(name, "iters")
        return get(name, "fft_calls") / iters if iters else 0.0

    evolve_s = get("evolution.evolve", "s")
    steps = get("evolution.evolve", "steps")
    fits_in_evolve = tracing.time_within(tracer, "evolution.evolve", "solitary.orbital_fit")
    snap_bytes = get("snapshots.save_snapshot", "bytes") + get("snapshots.load_snapshot", "bytes")
    out = {
        "spectral.fft.calls": (summary["fft"]["calls"], "count"),
        "spectral.fft.s": (summary["fft"]["s"], "s"),
        "spectral.fft.gb": (summary["fft"]["bytes"] / 1e9, "GB"),
        "solitary.solve.s": (get("solitary.solve_nehari", "s"), "s"),
        "solitary.solve.iters": (get("solitary.solve_nehari", "iters"), "count"),
        "solitary.solve.fft_per_iter": (per_iter("solitary.solve_nehari"), "count"),
        "solitary.extend.s": (get("solitary.extend_ground_state", "s"), "s"),
        "solitary.extend.iters": (get("solitary.extend_ground_state", "iters"), "count"),
        "solitary.extend.fft_per_iter": (per_iter("solitary.extend_ground_state"), "count"),
        "solitary.t_lambda.calls": (get("solitary.t_lambda", "calls"), "count"),
        "solitary.t_lambda.s": (get("solitary.t_lambda", "s"), "s"),
        "solitary.psi_omega.s": (get("solitary.psi_omega", "s"), "s"),
        "solitary.r1.s": (get("solitary.r1_diagnostics", "s"), "s"),
        "functionals.report.s": (get("functionals.functional_report", "s"), "s"),
        "solitary.orbital_fit.calls": (get("solitary.orbital_fit", "calls"), "count"),
        "solitary.orbital_fit.s": (get("solitary.orbital_fit", "s"), "s"),
        "evolution.evolve.s": (evolve_s, "s"),
        "evolution.steps": (steps, "count"),
        "evolution.samples": (get("evolution.evolve", "samples"), "count"),
        "evolution.step_ms": (1e3 * (evolve_s - fits_in_evolve) / steps if steps else 0.0,
                              "ms"),
        # share of evolve not explained by bare steps at the 128x128 rate
        "evolution.monitor_share": (
            max(0.0, 1.0 - steps * bare_step_ms / (1e3 * evolve_s)) if steps else 0.0,
            "fraction"),
        "snapshots.save.s": (get("snapshots.save_snapshot", "s"), "s"),
        "snapshots.load.s": (get("snapshots.load_snapshot", "s"), "s"),
        "snapshots.mb": (snap_bytes / 1e6, "MB"),
        "cli.main.s": (get("cli.main", "s"), "s"),
        "trace.spans": (len(tracer.names), "count"),
    }
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = (summary["layer_self_s"].get(layer, 0.0), "s")
    return out
