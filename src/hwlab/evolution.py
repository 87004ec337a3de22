"""Time evolution: split-step propagation, Picard iteration, decay probes.

The linear group S(t) = exp(it(dxx - |D_y|)) is exact in Fourier space,
so Strang splitting alternates exact sub-flows: a half-step phase
rotation u -> u exp(i tau |u|^(p-1)), the full linear multiplier, and
the second half rotation.  The rotation takes its cos and sin from one
half-angle tangent (`_rotate`): numpy's float64 cos and sin are scalar
loops, and one call is cheaper than two even where tan is scalar too.
The rotation keeps |u|, so the closing half rotation of one step and
the opening one of the next merge exactly into one full rotation: k
steps in a row take k + 1 rotations and k FFT pairs, dealiased or not
(the mask is folded into the propagator).  The scheme conserves mass
to round-off and is time reversible.  The integral (Duhamel)
formulation is iterated to a fixed point as an independent oracle for
short times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functionals as fl
from . import solitary as sol
from . import spectral as sp
from .spectral import Field


class PicardContractionError(RuntimeError):
    """Successive Duhamel iterates stopped contracting (T too large)."""

    def __init__(self, message, distances=None):
        super().__init__(message)
        self.distances = distances or []


def _complex(u: Field) -> np.ndarray:
    """Physical values of u as complex128, the dtype every flow runs in:
    a real field and its complex-typed copy give the same bits."""
    return np.asarray(sp.to_physical(u).values, dtype=np.complex128)


def linear_propagate(u: Field, t: float) -> Field:
    """Apply the free group S(t); an exact isometry for every finite t."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return sp.apply_symbol(u, sp.halfwave_group(t))


def _rotate(vals: np.ndarray, tau: float, p: float) -> np.ndarray:
    """vals * exp(i tau |vals|^(p-1)), a pointwise rotation that keeps |vals|.

    With theta = tau |vals|^(p-1), t = tan(theta/2) and r = 2 / (1 + t^2),
    cos theta = r - 1 and sin theta = t r: one transcendental call where
    cos and sin take two (numpy 2.4's float64 cos and sin are scalar libm
    loops, its tan a SIMD one), on two float arrays built in place.  No
    double lies near enough to an odd multiple of pi for t^2 to overflow,
    so every finite angle gives a finite rotation without a warning; rot
    differs from the cos/sin rotation by about 5e-16 |vals|.
    """
    t = sp._density(vals)
    t **= 0.5 * (p - 1.0)
    t *= 0.5 * tau
    np.tan(t, out=t)
    r = t * t
    r += 1.0
    np.divide(2.0, r, out=r)
    rot = np.empty_like(vals)
    np.subtract(r, 1.0, out=rot.real)
    np.multiply(t, r, out=rot.imag)
    rot *= vals
    return rot


def _propagator(grid: sp.Grid, dt: float, dealias: bool) -> np.ndarray:
    """Multiplier of one linear sub-step, with the dealiasing mask folded in."""
    prop = sp.halfwave_group(dt).values(grid)
    if dealias:
        prop *= sp.dealias_mask(grid)
    return prop


def _linear(vals: np.ndarray, prop: np.ndarray) -> np.ndarray:
    """The linear sub-step: one FFT pair around the multiplier prop."""
    hat = sp._fft2(vals)
    hat *= prop
    return sp._ifft2(hat)


def _strang(vals: np.ndarray, k: int, dt: float, p: float, sign: float,
            prop: np.ndarray) -> np.ndarray:
    """k Strang steps, adjacent half rotations merged into full ones."""
    tau = sign * dt
    vals = _rotate(vals, 0.5 * tau, p)
    for _ in range(k - 1):
        vals = _rotate(_linear(vals, prop), tau, p)
    return _rotate(_linear(vals, prop), 0.5 * tau, p)


def strang_step(u: Field, dt: float, p: float, focusing: bool = True,
                dealias: bool = False) -> Field:
    """One Strang step: half nonlinear phase, full linear, half nonlinear.

    One FFT pair, with or without dealiasing (the mask is folded into the
    propagator).  `evolve` merges the half rotations of adjacent steps,
    which is exact because the rotation keeps |u|.
    """
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    vals = _strang(_complex(u), 1, dt, p, 1.0 if focusing else -1.0,
                   _propagator(u.grid, dt, dealias))
    return Field(u.grid, vals, sp.PHYSICAL)


@dataclass
class EvolutionTrace:
    times: np.ndarray
    mass: np.ndarray
    hamiltonian: np.ndarray
    l2x_hsy: np.ndarray
    linf: np.ndarray
    orbital_distance: np.ndarray | None
    phase: np.ndarray | None
    extra: np.ndarray | None
    final: Field
    dt: float
    n_steps: int
    s_monitor: float
    scheme: str = "strang"
    mass_ok: bool = True
    blown_up: bool = False
    abort_reason: str | None = None


def evolve(u0: Field, p: float, T: float, dt: float, sample_stride: int = 10,
           s_monitor: float = 0.6, reference: Field | None = None,
           focusing: bool = True, dealias: bool = False,
           enforce_dt_limit: bool = True, ham_drift_abort: float = 1e-4,
           blowup_factor: float = 1e6, distance_stop: float | None = None,
           extra_monitor=None) -> EvolutionTrace:
    """Strang-split evolution with conservation and concentration monitors.

    Samples mass, Hamiltonian, the mixed norm L2_x H^s_y (their quadratic
    forms summed over one spectrum and one density pass by
    `spectral._forms`), and sup|u| every
    `sample_stride` steps; when a reference profile is supplied it also
    records the orbital distance (`orbital_fit` with refine) and the
    relative phase.  `mass_ok` turns false once the mass drifts beyond
    1e-6 relative.  The run aborts with flags when the mixed norm exceeds
    `blowup_factor` times its initial value or the Hamiltonian drifts
    beyond `ham_drift_abort` relative.  `distance_stop` ends the run once
    the orbital distance reaches that value (experiment early exit);
    `extra_monitor` is an optional callable Field -> float sampled
    alongside the built-ins.
    Between two samples the steps run merged: the closing half rotation
    of a step and the opening one of the next become one rotation, which
    is exact because the rotation keeps |u|, and each step costs one FFT
    pair, dealiased or not.
    """
    if not (0.0 < T < math.inf and 0.0 < dt < math.inf):
        raise ValueError(f"T and dt must be positive and finite, got T={T}, dt={dt}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    g = u0.grid
    max_phase = float(np.max(g.xi ** 2) + np.max(np.abs(g.eta)))  # max of xi^2 + |eta|
    if enforce_dt_limit and dt * max_phase > 0.5 + 1e-12:
        raise ValueError(
            f"dt * max|symbol| = {dt * max_phase:.3g} exceeds 0.5; "
            "reduce dt or pass enforce_dt_limit=False")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError("T shorter than one step")

    sign = 1.0 if focusing else -1.0
    prop = _propagator(g, dt, dealias)
    w = g.cell_area
    hs_weight = (1.0 + g.eta[None, :] ** 2) ** s_monitor

    if reference is not None and reference.grid != g:
        raise ValueError("reference lives on a different grid")
    ref = None if reference is None else sp.to_spectral(reference)

    def monitors(vals):
        hat = sp._fft2(vals)
        dx_sq, dy_sq, l2_sq, hs_sq = fl._dx_dy_forms(hat, sp._FULL, g, 1.0, hs_weight)
        m = 0.5 * l2_sq
        ham = 0.5 * (dx_sq + dy_sq) - sign * fl._lp1_sum(vals, p) * w / (p + 1.0)
        mixed = math.sqrt(hs_sq)
        peak = float(np.max(np.abs(vals)))
        ph = dist = ext = None
        if ref is not None:
            # spectral fields spare the fit two of its three transforms
            spec = Field(g, hat, sp.SPECTRAL)
            dist = sol.orbital_fit(spec, ref).distance
            ph = float(np.angle(sp.l2_inner(spec, ref)))
        if extra_monitor is not None:
            ext = float(extra_monitor(Field(g, vals, sp.PHYSICAL)))
        return m, ham, mixed, peak, dist, ph, ext

    vals = _complex(u0)  # never written in place: each sub-step makes a new array
    rows = [(0.0,) + monitors(vals)]  # (t, mass, ham, mixed, peak, dist, phase, extra)
    m0, h0, mixed0 = rows[0][1:4]
    m_scale, h_scale = max(m0, 1e-30), max(abs(h0), 1e-30)
    mass_ok, blown_up, abort = True, False, None

    step = 0
    while step < n_steps:
        # up to the next multiple of the stride, or to the last step
        k = min(sample_stride - step % sample_stride, n_steps - step)
        vals = _strang(vals, k, dt, p, sign, prop)
        step += k
        rows.append((step * dt,) + monitors(vals))
        m, ham, mixed, _, dist = rows[-1][1:6]
        if not np.isfinite(mixed) or not np.isfinite(ham):
            abort = "non-finite values"
            blown_up = True
            break
        if abs(m - m0) / m_scale > 1e-6:
            mass_ok = False
        if mixed > blowup_factor * max(mixed0, 1e-300):
            abort = "mixed-norm blow-up monitor"
            blown_up = True
            break
        if abs(ham - h0) / h_scale > ham_drift_abort:
            abort = "hamiltonian drift"
            break
        if distance_stop is not None and dist is not None and dist >= distance_stop:
            abort = "distance threshold"
            break

    cols = [np.asarray(c) for c in zip(*rows)]
    return EvolutionTrace(
        times=cols[0], mass=cols[1], hamiltonian=cols[2], l2x_hsy=cols[3], linf=cols[4],
        orbital_distance=None if reference is None else cols[5],
        phase=None if reference is None else cols[6],
        extra=None if extra_monitor is None else cols[7],
        final=Field(g, vals, sp.PHYSICAL),
        dt=dt,
        n_steps=step,
        s_monitor=s_monitor,
        mass_ok=mass_ok,
        blown_up=blown_up,
        abort_reason=abort,
    )


@dataclass
class PicardResult:
    final: Field
    distances: list
    sweeps: int
    converged: bool


def picard_solve(u0: Field, p: float, T: float, n_steps: int = 64,
                 max_sweeps: int = 30, tol: float = 1e-12,
                 nl_coeff: float = 1.0) -> PicardResult:
    """Fixed-point iteration of the Duhamel formula on [0, T].

    u(t_j) = S(t_j) u0 + i int_0^{t_j} S(t_j - tau) nl_coeff |u|^{p-1} u dtau,
    with the integral discretized by the trapezoidal rule on the time
    nodes.  The successive-iterate distances must contract; a ratio >= 1
    above the round-off floor raises PicardContractionError, signalling
    that T is outside the contraction regime.
    """
    if not 0.0 < T < math.inf or n_steps < 1:
        raise ValueError(f"need a positive, finite T and n_steps >= 1, got {T}, {n_steps}")
    g = u0.grid
    dt = T / n_steps
    w = g.cell_area
    prop = _propagator(g, dt, False)

    def nonlinearity(vals):
        return nl_coeff * fl._density(vals) ** ((p - 1.0) / 2.0) * vals

    u0_vals = _complex(u0)
    linear = [u0_vals]
    for _ in range(n_steps):
        linear.append(_linear(linear[-1], prop))
    iterate = [v.copy() for v in linear]

    scale = math.sqrt(sp._redot(u0_vals, u0_vals) * w)
    floor = 1e-13 * max(scale, 1e-300)
    distances = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        nl_prev = nonlinearity(iterate[0])
        integral = np.zeros_like(u0_vals)
        new = [u0_vals.copy()]
        dist = 0.0
        for j in range(1, n_steps + 1):
            nl_j = nonlinearity(iterate[j])
            integral = _linear(integral + 0.5 * dt * nl_prev, prop) + 0.5 * dt * nl_j
            uj = linear[j] + 1j * integral
            diff = uj - iterate[j]
            dist = max(dist, math.sqrt(sp._redot(diff, diff) * w))
            new.append(uj)
            nl_prev = nl_j
        iterate = new
        distances.append(dist)
        if dist <= tol * max(scale, 1e-300):
            converged = True
            break
        if len(distances) >= 2 and distances[-2] > floor \
                and distances[-1] >= distances[-2]:
            raise PicardContractionError(
                f"iterate distances stopped contracting at sweep {sweeps} "
                f"({distances[-2]:.3e} -> {distances[-1]:.3e}); reduce T",
                distances=distances)

    return PicardResult(final=Field(g, iterate[-1], sp.PHYSICAL),
                        distances=distances, sweeps=sweeps, converged=converged)


@dataclass(frozen=True)
class DecayProbe:
    times: np.ndarray
    sup_norms: np.ndarray
    slope: float
    fit_valid: bool


def dispersive_decay_probe(profile: np.ndarray, lx: float, times) -> DecayProbe:
    """Sup-norm decay of the 1-D free Schroedinger factor exp(it dxx).

    Fits the log-log slope of t -> ||e^{it dxx} g||_inf, which is -1/2
    for localized data.  The periodic box stands in for the line only
    until the wave packet reaches the edge, so the fit is flagged
    invalid if the amplitude in the outer 5% at either end exceeds 1e-6
    times the initial peak.
    """
    g = np.ascontiguousarray(profile, dtype=np.complex128)
    if g.ndim != 1:
        raise ValueError("expected a 1-D profile")
    if not 0.0 < lx < math.inf:
        raise ValueError(f"lx must be positive and finite, got {lx}")
    t_arr = np.asarray(times, dtype=float)
    if t_arr.size < 2 or not np.all(np.isfinite(t_arr) & (t_arr > 0.0)) \
            or np.any(np.diff(t_arr) <= 0.0):
        raise ValueError("need at least two increasing, positive, finite times")
    n = g.size
    xi = sp.wavenumbers(n, lx)
    ghat = sp._fft(g)
    peak0 = float(np.max(np.abs(g)))
    if peak0 == 0.0:
        raise ValueError("profile is identically zero")
    edge = int(max(1, n * 0.05))

    sups = np.empty_like(t_arr)
    valid = True
    for i, t in enumerate(t_arr):
        ut = sp._ifft(np.exp(-1j * t * xi ** 2) * ghat)
        amp = np.abs(ut)
        sups[i] = float(np.max(amp))
        boundary = max(float(np.max(amp[:edge])), float(np.max(amp[-edge:])))
        if boundary > 1e-6 * peak0:
            valid = False

    slope = float(np.polyfit(np.log(t_arr), np.log(sups), 1)[0])
    return DecayProbe(times=t_arr, sup_norms=sups, slope=slope, fit_valid=valid)
