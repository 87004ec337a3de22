"""Solitary profiles: constrained minimization and the scaling apparatus.

Ground states solve

    -dxx Q + |D_y| Q + i v dy Q + omega Q = |Q|^{p-1} Q

and are computed by one projected, preconditioned CG descent under two
constraints: as Nehari-manifold minimizers of the action and, for
mass-subcritical exponents, as Hamiltonian minimizers on the mass
sphere.  The rest of the module implements the anisotropic scaling
T_lambda u = lambda^{3/4} u(lambda^{1/2} x, lambda y), the generator
psi = (3/4) u + (x/2) dx u + y dy u, the omega-rescaling of profiles,
diagnostics for the linearized resolvent identities, and orbital
fitting modulo phase and translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import functionals as fl
from . import spectral as sp
from .functionals import ModelParams
from .spectral import _FUSE_ELEMS, _slices, Field, Grid

ARMIJO_C = 1e-4
_PEAK_MARGIN = 0.1  # a lower peak must gain 11% in refinement to win; 7.8% at most in a 32x32 run
_BLOCK_ELEMS = 1 << 18  # complex entries per block of the chirp-z resampling (4 MB)
_STRETCH_MAX = 4.0  # longest model step of `_descent` from a converged start


class ConvergenceError(RuntimeError):
    """Iteration ran out of budget; carries the partial solution."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class CollapseError(RuntimeError):
    """The iterate degenerated to zero (vanishing nonlinear mass)."""


class TailMassError(ValueError):
    """Field is not decayed inside the box well enough for the operation."""


def _check_tail(u: Field, tail_tol: float, what: str) -> float:
    frac = sp.tail_mass_fraction(u)
    if frac > tail_tol:
        raise TailMassError(
            f"{what}: outer-annulus mass fraction {frac:.3e} exceeds {tail_tol:.3e}; "
            "enlarge the box or relax tail_tol")
    return frac


@dataclass
class SolitarySolution:
    params: ModelParams
    q: Field
    action_value: float
    nehari_residual: float
    gradient_residual: float
    iterations: int
    tail_mass_fraction: float
    action_history: list = dc_field(default_factory=list)
    history: list = dc_field(default_factory=list)


@dataclass(frozen=True)
class IterationRecord:
    """One descent iteration: action after it, ||grad S(u)|| / ||u|| before it,
    accepted step (0 if none; above 1 only for a model step from a
    converged start, see `_descent`), rejected trials, conjugate direction
    dropped for P g."""

    action: float
    gradient_residual: float
    step: float
    backtracks: int
    restart: bool


@dataclass
class MassMinimizer:
    mu: float
    minimizer: Field
    energy: float
    omega_multiplier: float
    iterations: int
    energy_history: list = dc_field(default_factory=list)


def default_initial_guess(grid: Grid, params: ModelParams, kind: str = "gaussian",
                          seed: int = 0) -> Field:
    """Smooth localized starting fields for the solvers.

    gaussian: separable Gaussian, width 2 in x and 4 in y, real.  For
    v != 0 it is modulated by exp(i eta0 y) with eta0 the first grid
    frequency on the non-degenerate side of the transport symbol (sign
    of v).
    gaussian-wide: an independent shape for restart-agreement checks.
    noise: seeded band-limited noise under a Gaussian envelope.
    """
    X = grid.x[:, None]
    Y = grid.y[None, :]
    if kind == "gaussian":
        vals = np.exp(-X ** 2 / 8.0 - Y ** 2 / 32.0)
    elif kind == "gaussian-wide":
        vals = 0.6 * np.exp(-X ** 2 / 18.0 - Y ** 2 / 12.5)
    elif kind == "noise":
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        keep = sp.dealias_mask(grid)
        envelope = np.exp(-(grid.xi[:, None] ** 2) / 8.0 - (grid.eta[None, :] ** 2) / 8.0)
        phys = sp._ifft2(coef * keep * envelope)
        vals = phys * np.exp(-X ** 2 / 8.0 - Y ** 2 / 32.0)
    else:
        raise ValueError(f"unknown initializer kind {kind!r}")
    if params.v != 0.0:
        eta0 = math.copysign(2.0 * np.pi / grid.ly, params.v)
        vals = vals * np.exp(1j * eta0 * Y)
    return Field(grid, vals, sp.PHYSICAL)


def _lp1_change(u: np.ndarray, d: np.ndarray, alpha: float, p: float,
                layout: sp._Layout = sp._FULL) -> float:
    """sum (|u - alpha d|^{p+1} - |u|^{p+1}) over the fields u, d store as
    `layout` says, by row blocks, accurate far below either sum's rounding."""
    e = (p + 1.0) / 2.0
    return sum(layout.dot(fl._power(fl._density(u[r] - alpha * d[r]), e)
                          - fl._power(fl._density(u[r]), e), None, r, len(u))
               for r in _slices(*u.shape, _FUSE_ELEMS))


def _nehari_scale(a_form: float, b_pot: float, p: float) -> tuple[float, float, float]:
    """Factor t with N(t u) = 0 for a field with quadratic form `a_form`
    and int |u|^{p+1} = `b_pot`; returns t and the two values for t u."""
    if b_pot < 1e-280 or not np.isfinite(b_pot):
        raise CollapseError("nonlinear mass vanished; field collapsed to zero")
    t = (a_form / b_pot) ** (1.0 / (p - 1.0))
    return t, t * t * a_form, t ** (p + 1.0) * b_pot


def nehari_project(u: Field, params: ModelParams) -> Field:
    """Exact radial projection onto the Nehari manifold N(u) = 0.

    t* = (quadratic form / int |u|^{p+1})^{1/(p-1)}; t* u satisfies
    N(t* u) = 0 identically.
    """
    t, _, _ = _nehari_scale(fl.quadratic_action_form(u, params),
                            fl.lp1_power(u, params.p), params.p)
    phys = sp.to_physical(u)
    return Field._of(u.grid, t * phys.stored, phys.layout)


def _advance(u: np.ndarray, d: np.ndarray, alpha: float, t: float) -> None:
    """u <- t (u - alpha d) in place, by cache-sized row blocks."""
    for rows in _slices(*u.shape, _FUSE_ELEMS):
        blk = u[rows]
        blk -= alpha * d[rows]
        blk *= t


class _Spectra:
    """L2 inner products and the fused passes of the descent on the spectra
    of a `sp._Layout`: rfft2 half spectra for real fields, the quarters of
    even ones and rows 0..nx/2 of the real spectra of R-symmetric ones even
    in x, where Parseval weighs the lines (1, 2, ..., 2, 1), full spectra
    otherwise.  aq is the symbol `sym` (action_quadratic) on the same
    spectra, `w` the cell area, and P = 1/aq the metric of the descent.

    A fused pass walks the spectra in row blocks of about _FUSE_ELEMS
    entries, which stay in cache: each block is updated and then feeds
    every inner product of the pass before the next block is read.  aq
    and 1/aq are formed per block in two block buffers by `self.sym`
    (`sp._ActionRows`): full-size copies would cost 251 MB each on the
    320x98305 half spectra of criterion 08.  Each block sum carries its
    line weights (`sp._Layout.dot`), and a pass multiplies by the cell
    area once.  Block bounds depend on the shape only, so no sum depends
    on a thread count.
    `sphere`: the direction pass also sums <u, d>, which only the mass
    constraint reads.
    """

    def __init__(self, grid: Grid, sym: sp.Symbol, layout: sp._Layout, sphere: bool = False):
        self.w, self.shape, self.layout, self.sphere = grid.cell_area, grid.shape, layout, sphere
        self.sym = sp._ActionRows(grid, sym.omega, sym.v, layout)
        self.rows = _slices(*self.sym.shape, _FUSE_ELEMS)
        block = (self.rows[0].stop, self.sym.shape[1])
        dtype = np.float64 if layout.values else np.complex128  # the spectra's
        self._tmp = np.empty(block, dtype), np.empty(block, dtype)
        self._aq, self._inv = np.empty(block), np.empty(block)

    def _metric(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """aq and the metric P = 1/aq on a row block, in the block buffers."""
        n = rows.stop - rows.start
        aq = self.sym(rows, self._aq[:n])
        return aq, np.divide(1.0, aq, out=self._inv[:n])

    def _dot(self, a: np.ndarray, b: np.ndarray, rows: slice) -> float:
        """The weighed sum of re conj(a) b over a row block a, b of the spectra."""
        return self.layout.dot(a, b, rows, self.sym.shape[0], spectra=True)

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """re int conj(f) g for the fields f, g whose spectra are a, b."""
        return sum(self._dot(a[r], b[r], r) for r in self.rows) * self.w

    def gradient(self, u: np.ndarray, hat: np.ndarray, p: float, d: np.ndarray | None = None,
                 dhat: np.ndarray | None = None, t: float = 1.0) -> tuple:
        """Spectrum ghat = aq hat(v) - hat(|v|^{p-1} v) of grad S(v), one transform,
        for v = u with spectrum hat, or for the trial v = t (u - d), whose
        spectrum t (hat - dhat) is formed block by block.  Returns ghat and
        int |v|^{p+1}, <grad S(v), v>, ||grad S(v)||^2, ||v||^2 and
        <grad S(v), P grad S(v)>."""
        e = (p - 1.0) / 2.0
        nl = np.empty_like(u)
        b_pot = 0.0
        for rows in _slices(*u.shape, _FUSE_ELEMS):
            v = u[rows] if d is None else (u[rows] - d[rows]) * t
            dens = fl._density(v)
            pw = fl._power(dens, e)
            np.multiply(v, pw, out=nl[rows])
            b_pot += self.layout.dot(dens, pw, rows, len(u))
        ghat = self.layout.fwd(nl, self.shape)
        del nl
        gh = hh = gg = gpg = 0.0
        trial, prod = self._tmp
        for rows in self.rows:
            n = rows.stop - rows.start
            h = hat[rows]
            if dhat is not None:
                h = np.subtract(h, dhat[rows], out=trial[:n])
                h *= t
            g = ghat[rows]
            aq, inv = self._metric(rows)
            np.subtract(np.multiply(h, aq, out=prod[:n]), g, out=g)
            gh += self._dot(g, h, rows)
            gg += self._dot(g, g, rows)
            hh += self._dot(h, h, rows)
            gpg += self._dot(g, np.multiply(g, inv, out=prod[:n]), rows)
        return ghat, b_pot * self.w, gh * self.w, gg * self.w, hh * self.w, gpg * self.w

    def step(self, hat: np.ndarray, dhat: np.ndarray, alpha: float, t: float) -> None:
        """Spectrum t (hat - alpha dhat) of an accepted step, written over hat."""
        scaled = self._tmp[0]
        for rows in self.rows:
            n = rows.stop - rows.start
            blk = hat[rows].view(np.float64)
            np.subtract(blk, np.multiply(dhat[rows].view(np.float64), alpha,
                                         out=scaled[:n].view(np.float64)), out=blk)
            blk *= t

    def direction(self, ghat: np.ndarray, hat: np.ndarray, out: np.ndarray | None = None,
                  beta: float = 0.0) -> tuple:
        """Conjugate direction dhat = P ghat + beta out, written over the
        previous direction in `out` (beta = 0: P ghat, and `out` is not
        read), in one pass that also sums the line-search products.
        Returns dhat, <d, grad>, ||d||^2, <Au, d>, <Ad, d>, <u, d> (0 unless
        `sphere`)."""
        if out is None:
            out = np.empty_like(ghat)
        dg = dd = ad = dad = ud = 0.0
        scaled, prod = self._tmp
        for rows in self.rows:
            n = rows.stop - rows.start
            o = out[rows]
            aq, inv = self._metric(rows)
            if beta:
                # a real scalar times complex entries on a float view
                of = o.view(np.float64)
                of *= beta
                o += np.multiply(ghat[rows], inv, out=scaled[:n])
            else:
                np.multiply(ghat[rows], inv, out=o)
            dg += self._dot(ghat[rows], o, rows)
            dd += self._dot(o, o, rows)
            ao = np.multiply(o, aq, out=prod[:n])
            ad += self._dot(hat[rows], ao, rows)
            dad += self._dot(o, ao, rows)
            if self.sphere:
                ud += self._dot(hat[rows], o, rows)
        return out, dg * self.w, dd * self.w, ad * self.w, dad * self.w, ud * self.w

    def tangent(self, ghat: np.ndarray, hat: np.ndarray, lam: float) -> tuple[float, float]:
        """Spectrum of g - lam u written over ghat, the gradient tangent to
        the sphere for lam = <g, u> / ||u||^2; returns ||g||^2 and <g, P g>."""
        gg = gpg = 0.0
        prod = self._tmp[1]
        for rows in self.rows:
            n = rows.stop - rows.start
            g = ghat[rows]
            g -= np.multiply(hat[rows], lam, out=prod[:n])
            gg += self._dot(g, g, rows)
            gpg += self._dot(g, np.multiply(g, self._metric(rows)[1], out=prod[:n]), rows)
        return gg * self.w, gpg * self.w


def _descent(u: np.ndarray, sym: sp.Symbol, p: float, grid: Grid, tol: float, max_iter: int,
             converged_start: bool, mass: float | None = None, *,
             layout: sp._Layout) -> tuple[np.ndarray, dict, float, float]:
    """Projected, preconditioned Fletcher-Reeves CG descent of the action
    S = a(u)/2 - int |u|^{p+1}/(p+1), a the quadratic form of the symbol
    `sym` (aq), on the Nehari manifold, or with `mass` on the sphere
    ||u||^2 = 2 mass.

    `u`, stored as `layout` says, is overwritten and returned as the final
    iterate, with the SolitarySolution fields the descent fixes, ||u|| and
    N(u) = <grad S(u), u>.  The spectrum of the iterate is carried along:
    an accepted step u <- t (u - alpha d) sets it to t (hat - alpha dhat)
    over hat, and dhat stays as the previous direction.  So an iteration
    costs two transforms, |u|^{p-1} u forward and the direction d back,
    and the start one more; the physical u feeds the nonlinear sums.

    The direction is the preconditioned Riemannian CG of Antoine, Levitt
    and Tang (J. Comput. Phys. 343, 2017) with the metric P = 1/aq:
    d = P g + beta d_prev, beta = <g, P g> / <g_prev, P g_prev>, built
    over d_prev in one fused pass (`_Spectra`) that also yields the
    line-search products; <g, P g> comes from the gradient's pass.  It
    holds the previous direction and one scalar, no previous iterate or
    gradient (Polak-Ribiere+ gave beta = 0 at every step: consecutive
    gradients are nearly parallel).  A conjugate direction that is not
    clearly downhill is replaced by P g, and a failed line search along
    one retries once from P g at the same iterate.  The descent stops
    only after a step along P g: an iterate that meets the tolerance
    after a conjugate step takes one more.  Where |u|^{p-1} is
    negligible, far out in the tail, P is the inverse Hessian and that
    step clears the residual which the beta d_prev terms leave there;
    the y-weighted R1 diagnostics amplify it (criterion 08: linearized
    residual 1.29e-4 without the step, 6.12e-5 with it).

    Armijo trials along u - alpha d, each rescaled onto the constraint,
    need no transform; accepted actions are monotone to the rounding of
    the recomputed sums.  On the sphere g is its tangential part
    g - (N(u) / ||u||^2) u, formed in one more pass.

    `converged_start` marks a start that is a converged profile (the
    zero-padded one of `extend_ground_state`), and enables two rules:
    - a full step that fails the Armijo test near the action floor is
      accepted if it cuts the gradient norm by 0.1%;
    - a full step that passes it is followed by one model trial.  S
      along d is fitted by the parabola S(u) - slope alpha + c alpha^2
      through the change d_s(1), so c = d_s(1) + slope; for c > 0 its
      minimum slope / (2c), rounded down to a multiple of 1/16 and capped
      at _STRETCH_MAX, is tried if above 1 (no transform), and kept if it
      passes Armijo and lowers S below the full step.  From such a start
      the minimum lies at alpha = 1.4 to 2.9, and the extension from
      128x8192 to 128x32768 takes 8 iterations instead of 14.
    The closing step along P g stays at alpha = 1: stretched (to 2.125),
    it leaves criterion 08 a linearized residual of 4.5e-4, not 6.1e-5.
    Cold starts keep backtracking from 1 alone: with the model trial, a
    noise start on the Nehari manifold took 1955 iterations instead of
    578, and Gaussian starts from 5 fewer to 8 more.
    """
    spec = _Spectra(grid, sym, layout, sphere=mass is not None)

    def action_of(a_form, b_pot):
        return 0.5 * a_form - b_pot / (p + 1.0)

    def scale(a_form, b_pot, m):
        """`_nehari_scale`, or the factor onto the sphere for ||u||^2 = m."""
        if mass is None:
            return _nehari_scale(a_form, b_pot, p)
        if not 0.0 < m < math.inf:
            raise CollapseError("mass vanished; field collapsed to zero")
        t = math.sqrt(2.0 * mass / m)
        return t, t * t * a_form, t ** (p + 1.0) * b_pot

    def trial(alpha):
        """Factor t onto the constraint and change d_s of S for the trial
        t (u - alpha d) of the current iteration, with no transform."""
        d_a = -alpha * (2.0 * au_d - alpha * a_d)
        d_b = _lp1_change(u, d, alpha, p, layout) * spec.w
        t, a_t, b_t = scale(a_u + d_a, b_u + d_b, u_sq - alpha * (2.0 * u_d - alpha * d_sq))
        if mass is not None:
            return t, action_of(a_t, b_t) - s_val
        # S = (p-1)/(2(p+1)) a^{(p+1)/(p-1)} b^{-2/(p-1)} on the Nehari
        # manifold: its change from the relative changes of a and b
        # resolves decreases below the ulp of S.
        return t, s_val * math.expm1(((p + 1.0) * math.log1p(d_a / a_u)
                                      - 2.0 * math.log1p(d_b / b_u)) / (p - 1.0))

    def measure(carried):
        ghat, b_u, n_u, g_sq, u_sq, gpg = carried or spec.gradient(u, hat, p)
        if mass is not None:
            g_sq, gpg = spec.tangent(ghat, hat, n_u / u_sq)
        return ghat, b_u, n_u, g_sq, u_sq, gpg

    hat = layout.fwd(u, grid.shape)
    # aq hat goes into the buffer the first direction is written over
    dhat = spec.sym.apply(hat, np.empty_like(hat))
    b_pot = fl._lp1_sum(u, p, layout)
    t, a_form, b_pot = scale(spec.dot(hat, dhat), b_pot * spec.w, spec.dot(hat, hat))
    u *= t
    hat *= t
    action_history = [action_of(a_form, b_pot)]
    history: list[IterationRecord] = []
    carried = None
    gpg_prev = 0.0  # <g, P g> at the last iterate; 0 restarts from P g
    conj = False  # the last direction was a conjugate one
    iterations = 0

    for iterations in range(1, max_iter + 1):
        # the Nehari functional N(u) = <grad S(u), u> = a(u) - int |u|^{p+1}
        ghat, b_u, n_u, g_sq, u_sq, gpg = measure(carried)
        carried = None
        grad_norm, u_norm = math.sqrt(g_sq), math.sqrt(u_sq)
        a_u = n_u + b_u
        s_val = action_of(*scale(a_u, b_u, u_sq)[1:])
        closing = grad_norm <= tol * u_norm
        if closing:
            if not conj:
                history.append(IterationRecord(s_val, grad_norm / u_norm, 0.0, 0, False))
                break
            gpg_prev = 0.0  # end with a step along P g

        beta = gpg / gpg_prev if gpg_prev else 0.0
        dhat, slope, d_sq, au_d, a_d, u_d = spec.direction(ghat, hat, dhat, beta)
        restart = beta > 0.0 and slope <= 1e-14 * grad_norm * math.sqrt(d_sq)
        if restart:
            beta = 0.0  # the conjugate direction turned uphill
            dhat, slope, d_sq, au_d, a_d, u_d = spec.direction(ghat, hat, dhat)
        gpg_prev = gpg
        conj = beta > 0.0
        del ghat
        d = layout.inv(dhat, grid.shape)
        floor = converged_start and ARMIJO_C * slope <= 1e3 * np.finfo(float).eps * abs(s_val)
        stretch = converged_start and not closing
        alpha = 1.0
        backtracks = 0
        accepted = False
        while alpha > 1e-14:
            t, d_s = trial(alpha)
            if d_s <= -ARMIJO_C * alpha * slope:
                accepted = True
                c = d_s + slope  # S along d as S(u) - slope alpha + c alpha^2
                if stretch and alpha == 1.0 and c > 0.0:
                    top = math.floor(min(8.0 * slope / c, 16.0 * _STRETCH_MAX)) / 16.0
                    if top > 1.0:
                        t_top, d_top = trial(top)
                        if d_top < d_s and d_top <= -ARMIJO_C * top * slope:
                            alpha, t, d_s = top, t_top, d_top
            elif floor and alpha == 1.0:
                carried = spec.gradient(u, hat, p, d, dhat, t)
                accepted = math.sqrt(carried[3]) <= grad_norm * (1.0 - 1e-3)
                if not accepted:
                    carried = None
            if accepted:
                # a floor trial's carried gradient saw exactly these values
                _advance(u, d, alpha, t)
                spec.step(hat, dhat, alpha, t)
                action_history.append(s_val + d_s)
                break
            backtracks += 1
            alpha *= 0.5
        del d
        retry = not accepted and conj
        if retry:
            gpg_prev = 0.0  # retry from the same iterate along P g
        history.append(IterationRecord(s_val + d_s if accepted else s_val, grad_norm / u_norm,
                                       alpha if accepted else 0.0, backtracks, restart or retry))
        if not (accepted or retry):
            break  # line search along P g exhausted
    else:
        # budget spent: measure the last accepted iterate
        _, b_u, n_u, g_sq, u_sq, _ = measure(carried)
        grad_norm, u_norm = math.sqrt(g_sq), math.sqrt(u_sq)
    return u, dict(action_value=action_of(*scale(n_u + b_u, b_u, u_sq)[1:]),
                   nehari_residual=abs(n_u), gradient_residual=grad_norm, iterations=iterations,
                   action_history=action_history, history=history), u_norm, n_u


def _converged(out, stats: dict, u_norm: float, tol: float):
    """`out`, or a ConvergenceError carrying it if the descent stopped short of tol."""
    if stats["gradient_residual"] > tol * u_norm:
        raise ConvergenceError(
            f"no convergence in {stats['iterations']} iterations; gradient residual "
            f"{stats['gradient_residual']:.3e} vs target {tol * u_norm:.3e}", solution=out)
    return out


def _owned(u: np.ndarray, init: Field) -> np.ndarray:
    """`u`, copied if `init` stores it: the descent writes in place."""
    return u.copy() if u is init.stored else u


def _solution(params: ModelParams, q: Field, stats: dict, u_norm: float,
              tol: float) -> SolitarySolution:
    out = SolitarySolution(params=params, q=q, tail_mass_fraction=sp.tail_mass_fraction(q),
                           **stats)
    return _converged(out, stats, u_norm, tol)


def solve_nehari(grid: Grid, params: ModelParams, init: Field | None = None,
                 tol: float = 1e-6, max_iter: int = 5000,
                 init_kind: str = "gaussian", seed: int = 0) -> SolitarySolution:
    """Action minimization over the Nehari manifold.

    Preconditioned Fletcher-Reeves conjugate gradients, with the inverse
    quadratic symbol as the metric, Armijo backtracking on S, and exact
    Nehari reprojection after every trial step, so accepted action
    values are monotone to the rounding of the recomputed sums, and the
    final value bounds the minimum from above to that rounding.  A
    conjugate direction that stops pointing downhill is replaced by the
    preconditioned gradient (see `_descent`).  Terminates when
    ||grad S(u)||_{L2} <= tol * ||u||_{L2}.  An iteration costs two
    transforms, its line-search trials none (see `_descent`).  The layout
    (`sp._Layout`) follows the start, stored as `sp._settle` says: at
    v = 0 a real start even in x and in y (the default guesses) runs on
    quarters (`sp._EVEN`), another real one on half spectra; at v != 0 a
    start even in x and R-symmetric, R u = conj u(-x, -y) (the default
    guesses, the v = 0 profile, an earlier traveling wave), on
    `sp._RSYM`; a stored quarter is started from with no full array
    formed, and the profile is mirrored from its quarter, symmetric bit
    for bit.  Other starts run on full complex spectra, with the v = 0
    result rotated onto the real axis.  A v = 0 profile is float64, a
    traveling one complex128, stored as it was found.  `history`: one
    IterationRecord per iteration.
    """
    if init is None:
        init = default_initial_guess(grid, params, kind=init_kind, seed=seed)
    if init.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    if sp.l2_norm_sq(init) == 0.0:
        raise CollapseError("initial guess is identically zero")

    start = sp._settle(init, params.v)
    u, layout = _owned(start.stored, init), start.layout
    # freed before the descent, a default start leaves its memory to the profile
    del init, start
    u, stats, u_norm, _ = _descent(u, sp.action_quadratic(params.omega, params.v), params.p,
                                   grid, tol, max_iter, converged_start=False, layout=layout)
    if params.v == 0.0:
        if layout is sp._FULL:
            # Phase freedom: rotate to the real axis and reproject.
            mod = np.abs(u)
            phase = complex(sp._redot(mod, u.real), sp._redot(mod, u.imag))
            if abs(phase) > 0.0:
                u = (u * (np.conj(phase) / abs(phase))).real
            q = nehari_project(Field(grid, u, sp.PHYSICAL), params)
            stats.update(action_value=fl.action(q, params),
                         nehari_residual=abs(fl.nehari(q, params)),
                         gradient_residual=sp.l2_norm(fl.action_gradient(q, params)))
            u, layout, u_norm = q.stored, q.layout, sp.l2_norm(q)
        if layout.dot(u, None, slice(None), len(u)) < 0.0:
            u = -u  # keep the nonnegative sign
    return _solution(params, Field._of(grid, u, layout), stats, u_norm, tol)


def extend_ground_state(sol: SolitarySolution, grid: Grid,
                        tol: float = 5e-7, max_iter: int = 200) -> SolitarySolution:
    """Continue a real ground state onto a taller box (same dx, dy).

    Tail-sensitive diagnostics (the scaling identities, the linearized
    profile R1) converge slowly in the box height because the profile
    only decays algebraically in y; the boxes they need do not fit in
    memory with the complex solver.  This routine zero-pads a converged
    v = 0 solution in y and polishes it with the descent core of
    solve_nehari, preconditioned Fletcher-Reeves CG: it holds one previous
    direction spectrum and one scalar, at two transforms per iteration.
    From this converged start a full step is followed by one trial at the
    minimum of a parabola model of the action (`_descent`), which cuts the
    iterations from 128x8192 to 128x32768 at p = 3 from 14 to 8, the last
    along P g at alpha = 1 (preconditioned steepest descent takes 27).
    Near the action floor, where the Armijo test drowns in rounding
    noise, a full step is accepted if it still cuts the gradient.  An
    even source (`sp._settle`) has its quarter padded symmetrically, half
    of its edge column y = -ly/2 at each end, so the start is exactly
    even, and runs on quarters (`sp._EVEN`); another runs on half spectra.

    The target grid must match nx and lx, keep the same dy, and differ
    from the source by an even number of y rows.
    """
    params = sol.params
    if params.v != 0.0:
        raise ValueError("box extension only applies to v = 0 (real) profiles")
    g0 = sol.q.grid
    if (grid.nx, grid.lx) != (g0.nx, g0.lx):
        raise ValueError("target grid must keep the x discretization")
    if abs(grid.dy - g0.dy) > 1e-13 * g0.dy:
        raise ValueError("target grid must keep dy (pure box extension)")
    if grid.ny < g0.ny or (grid.ny - g0.ny) % 2:
        raise ValueError("target ny must exceed the source by an even count")

    offset = (grid.ny - g0.ny) // 2
    q = sp._settle(sol.q)
    layout = q.layout if q.layout is sp._EVEN else sp._REAL
    if layout is sp._EVEN:
        u = np.zeros((grid.nx // 2 + 1, grid.ny // 2 + 1))
        u[:, offset:] = q.stored
        if offset:
            u[:, offset] *= 0.5  # the other half goes to the mirror column
    else:
        u = np.zeros(grid.shape)
        u[:, offset:offset + g0.ny] = q.stored.real
    u, stats, u_norm, _ = _descent(u, sp.action_quadratic(params.omega), params.p, grid, tol,
                                   max_iter, converged_start=True, layout=layout)
    return _solution(params, Field._of(grid, u, layout), stats, u_norm, tol)


def solve_mass_constrained(grid: Grid, mu: float, p: float, init: Field | None = None,
                           tol: float = 1e-6, max_iter: int = 50000) -> MassMinimizer:
    """Hamiltonian minimization at fixed mass ||u||^2 / 2 = mu.

    On the sphere ||u||^2 = 2 mu the Hamiltonian is H = S_1 - mu, with
    S_1 the omega = 1 action, so this is the descent of `solve_nehari`
    (`_descent`) with the rescaling onto the sphere in place of the
    Nehari one and the gradient tangent to it, grad S_1 - lambda u with
    lambda = <grad S_1(u), u> / ||u||^2: preconditioned CG on the mass
    sphere (Antoine, Levitt and Tang, J. Comput. Phys. 343, 2017).
    Accepted energies are monotone to the rounding of the recomputed
    sums.  omega_multiplier = 1 - lambda, the Lagrange multiplier, is
    omega at a ground state.  Terminates when the tangential gradient
    has ||.||_{L2} <= tol * ||u||_{L2}.  The layout follows the start, as
    in `solve_nehari` at v = 0 (`sp._settle`).  Only defined on the
    subcritical range 1 < p < 7/3, where the constrained infimum is finite.
    """
    if not (1.0 < p < 7.0 / 3.0):
        raise ValueError("mass-constrained minimization needs 1 < p < 7/3")
    if not 0.0 < mu < math.inf:
        raise ValueError("mass must be positive and finite")
    if init is None:
        init = default_initial_guess(grid, ModelParams(p=p))
    if init.grid != grid:
        raise ValueError("initial guess lives on a different grid")

    start = sp._settle(init)
    layout = start.layout
    u, stats, u_norm, n_u = _descent(_owned(start.stored, init), sp.action_quadratic(1.0), p,
                                     grid, tol, max_iter, converged_start=False, mass=mu,
                                     layout=layout)
    out = MassMinimizer(mu=mu, minimizer=Field._of(grid, u, layout),
                        energy=stats["action_value"] - mu,
                        omega_multiplier=1.0 - n_u / (2.0 * mu), iterations=stats["iterations"],
                        energy_history=[s - mu for s in stats["action_history"]])
    return _converged(out, stats, u_norm, tol)


def rescale_omega(q1: Field, omega: float, p: float) -> Field:
    """Map an omega = 1 profile to frequency omega via Eq.-exact box rescaling.

    Q_omega(x, y) = omega^{1/(p-1)} Q_1(sqrt(omega) x, omega y) is realized
    by keeping the sample array and shrinking the box to (lx/sqrt(omega),
    ly/omega), which makes every scaling identity exact in the discrete
    functionals.
    """
    if not 0.0 < omega < math.inf:
        raise ValueError(f"target omega must be positive and finite, got {omega}")
    g, phys = q1.grid, sp.to_physical(q1)
    new_grid = Grid(g.nx, g.ny, g.lx / math.sqrt(omega), g.ly / omega)
    return Field._of(new_grid, omega ** (1.0 / (p - 1.0)) * phys.stored, phys.layout)


def mass_centroid(u: Field) -> tuple[float, float]:
    rows, cols = sp._marginals(sp.to_physical(u).values)
    total = float(np.sum(rows))
    if total == 0.0:
        return (0.0, 0.0)
    return (float(np.sum(rows * u.grid.x)) / total, float(np.sum(cols * u.grid.y)) / total)


def _wrap_corrupt(coords: np.ndarray, c: float, rate: float,
                  length: float) -> np.ndarray:
    """Targets whose scaled source wraps into the inner 90% of the box."""
    src = c + rate * (coords - c)
    img = src - np.round(src / length) * length
    return (np.abs(src) > length / 2.0) & (np.abs(img) < 0.9 * (length / 2.0))


def _resample_lines(src: np.ndarray, dst: np.ndarray, length: float, origin: float,
                    start: float, step: float, scale: float = 1.0) -> None:
    """dst = scale * src resampled along the last axis; dst may be src.

    Each line of n points is replaced by its trigonometric interpolant at
    the origin-relative points start + j*step, j = 0..n-1: the chirp
    z-transform of its unitary FFT coefficients, with the Nyquist
    coefficient symmetrized to its cosine part so real lines stay real.
    Bluestein's algorithm makes it a convolution with a chirp: per block
    of _BLOCK_ELEMS entries, one `sp._fft` and one `sp._ifft` of a
    power-of-two length >= 2n - 1, against the chirp's spectrum computed
    once per call.  Lines are independent, so blocking changes no bit.
    The map is complex linear and real, so real lines j and j + lines/2
    (Grid counts are even) go as one a + i b.
    """
    count, n = src.shape[0] // 2, src.shape[1]
    phi0 = (2.0 * np.pi / length) * (start - origin)
    delta = (2.0 * np.pi / length) * step
    k = np.arange(n)
    half = 0.5 * n * (phi0 + delta * k)
    pre = np.exp(1j * (phi0 + 0.5 * delta * k) * k)
    nfft = 1 << (2 * n - 2).bit_length()
    post = np.exp(1j * (0.5 * delta * k ** 2 - half)) * math.sqrt(nfft / n)
    # Nyquist row was summed as exp(-i n/2 theta); restore its cosine part.
    nyq_phase = 1j * np.sin(half) / math.sqrt(n)
    # delta j k = delta (j^2 + k^2 - (j - k)^2) / 2, and |j - k| < n
    kernel = sp._fft(np.exp(-0.5j * delta * sp.mode_numbers(nfft) ** 2))
    for blk in _slices(count, n, _BLOCK_ELEMS):
        pair = slice(blk.start + count, blk.stop + count)
        z = np.empty((blk.stop - blk.start, n), np.complex128)
        z.real, z.imag = src[blk], src[pair]
        shifted = np.roll(sp._fft(z), n // 2, axis=1)  # k = -n/2 first
        del z
        res = sp._ifft(sp._fft(shifted * pre, nfft) * kernel)[:, :n] * post
        res += nyq_phase * shifted[:, :1]
        del shifted
        np.multiply(res.real, scale, out=dst[blk])
        np.multiply(res.imag, scale, out=dst[pair])


def _scaled(phys: Field, lam: float, center: tuple[float, float], tail_tol: float) -> Field:
    """T_lambda (see `t_lambda`) of `phys` as `sp._settle` stores it, in its
    layout: the quarter of a quarter (`sp._EVEN`), else a full array."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if not all(map(math.isfinite, center)):
        raise ValueError(f"center must be finite, got {center}")
    g = phys.grid
    if lam == 1.0:
        return phys.copy()
    if lam > 1.0:
        _check_tail(phys, tail_tol, "t_lambda")
    u_vals = phys.stored
    cx, cy = center
    rx = math.sqrt(lam)
    y_pass = (g.ly, g.y[0], cy + lam * (g.y[0] - cy), lam * g.dy)
    x_pass = (g.lx, g.x[0], cx + rx * (g.x[0] - cx), rx * g.dx, lam ** 0.75)
    if phys.layout is sp._EVEN:
        # rows 0..nx/2 (and nx/2 + 1: the packed pairs need an even count)
        # mirrored from the quarter in y, then columns 0..ny/2 mirrored
        # into full x lines, rows 0..nx/2 kept
        m, n = u_vals.shape
        i, j = np.arange(m + m % 2), np.arange(g.ny)
        buf = u_vals[np.minimum(i, g.nx - i)[:, None], np.minimum(j, g.ny - j)]
        _resample_lines(buf, buf, *y_pass)
        lines = np.empty((n + n % 2, g.nx))
        lines[:, :m] = buf[:m, :len(lines)].T
        lines[:, m:] = buf[m - 2:0:-1, :len(lines)].T
        del buf
        _resample_lines(lines, lines, *x_pass)
        vals = np.ascontiguousarray(lines[:n, :m].T)
    else:
        vals = np.zeros(g.shape, u_vals.dtype)
        parts = [(u_vals.real, vals.real)]
        if phys.layout is sp._FULL:
            parts.append((u_vals.imag, vals.imag))
        for src, buf in parts:
            _resample_lines(src, buf, *y_pass)
            _resample_lines(buf.T, buf.T, *x_pass)
    if lam > 1.0:
        # targets whose source left the box read the periodized image;
        # that is still a certified-tail value unless the image lands in
        # the inner 90% of the box (as lambda -> 2 it hits the core), in
        # which case the honest value is the (negligible) tail: zero it
        rows, cols = vals.shape
        vals[_wrap_corrupt(g.x[:rows], cx, rx, g.lx), :] = 0.0
        vals[:, _wrap_corrupt(g.y[:cols], cy, lam, g.ly)] = 0.0
    return Field._of(g, vals, phys.layout)


def t_lambda(u: Field, lam: float, center: tuple[float, float] = (0.0, 0.0),
             tail_tol: float = 1e-8) -> Field:
    """L2-isometric anisotropic scaling T_lambda on a fixed grid.

    (T_lambda u)(x, y) = lambda^{3/4} u(lambda^{1/2} x, lambda y),
    evaluated by trigonometric resampling about `center`.  Exact on
    band-limited data up to periodization.  For lambda > 1 some targets
    pull source points beyond the box edge; the interpolant then reads
    the periodic image, which is fine while the image stays in the tail
    annulus the tail guard certifies, but corrupt once it penetrates
    the bulk (as lambda approaches 2 the image at the target edge hits
    the core).  Corrupted targets are zeroed, the honest stand-in for
    the certified-negligible tail value.

    T_lambda is real, so it acts on the real and imaginary parts: a y
    pass, then an x pass over the transpose of its output, each a
    Bluestein chirp-z along the last axis on packed line pairs in blocks
    of _BLOCK_ELEMS entries (`_resample_lines`); no full spectrum, no BLAS.
    Real values give float64 values, others complex128.  About (0, 0),
    T_lambda of a real field even in x and in y (`sp._settle`, as every
    v = 0 ground state is) runs on rows and then columns 0..n/2, half the
    work, and is stored as its quarter (`sp._EVEN`), exactly even.
    """
    return _scaled(sp._settle(u, center=center), lam, center, tail_tol)


def _generator(f: Field, c0: float, center: tuple[float, float]) -> Field:
    """c0 q + (x/2) dx q + y dy q about `center` (Nyquist mode of the
    derivatives zeroed) for the physical field q = `f`, one transform
    forward and two back on the spectra of its layout, which the result
    keeps: on `sp._REAL`, float64 values give float64; on `sp._EVEN` the
    quarters of an even q and of the result about (0, 0), with mixed
    DST-I/DCT-I derivatives (`sp._dst_dct`)."""
    vals, layout, g = f.stored, f.layout, f.grid
    hat = layout.fwd(vals, g.shape)
    rows, cols = vals.shape
    if layout is sp._EVEN:
        qx, qy = np.zeros_like(vals), np.zeros_like(vals)
        qx[1:-1] = sp._dst_dct(g.xi[1:rows - 1, None] * hat[1:-1], 0)
        qy[:, 1:-1] = sp._dst_dct(hat[:, 1:-1] * g.eta[1:cols - 1], 1)
    else:
        qx = layout.inv(hat * (1j * g.xi_odd)[:, None], g.shape)
        hat *= 1j * g.eta_odd[:layout.spectra_shape(g)[1]]
        qy = layout.inv(hat, g.shape)
    del hat
    qx *= 0.5 * (g.x[:rows] - center[0])[:, None]
    qy *= (g.y[:cols] - center[1])[None, :]
    qx += qy
    del qy
    qx += c0 * vals
    return Field._of(g, qx, layout)


def _apparatus(phys: Field, center: tuple[float, float] | None
               ) -> tuple[Field, tuple[float, float]]:
    """The field the generator runs on, and its centre.  Centre None is
    (0, 0) for a field even in x and in y, else the mass centroid: row 0
    and column 0 (x = -lx/2, y = -ly/2) are their own mirrors, so an even
    field's centroid is off (0, 0) by a tail term (2.7e-6 in y on the
    tests' 128x2048 p = 3 profile; the generator moves by 1.5e-5 of its
    maximum).  The field is stored as `sp._settle` says about that centre
    (real values as float64, an even field about (0, 0) as its quarter); a
    complex one is tested (`sp._even`) only for its centre."""
    phys = sp._settle(phys, center=(0.0, 0.0) if center is None else center)
    if center is None:
        even = phys.layout is sp._EVEN or (phys.layout is sp._FULL and sp._even(phys.stored))
        center = (0.0, 0.0) if even else mass_centroid(phys)
    if not all(map(math.isfinite, center)):
        raise ValueError(f"center must be finite, got {center}")
    return phys, center


def psi_omega(q: Field, center: tuple[float, float] | None = None,
              tail_tol: float = 1e-8) -> Field:
    """Scaling generator (3/4) q + (x/2) dx q + y dy q.

    Equals d/dlambda T_lambda q at lambda = 1; coordinates are measured
    from `center`, by default (0, 0) for a q even in x and in y and the mass
    centroid for another (`_apparatus`).  L2-orthogonal to q because
    T_lambda is an L2 isometry.  Real q: no BLAS, float64 values; an even
    q about (0, 0) runs on quarters and the result is stored as its
    quarter (`sp._EVEN`), values formed on each read; another real q
    runs on half spectra.
    """
    phys = sp.to_physical(q)
    _check_tail(phys, tail_tol, "psi_omega")
    phys, center = _apparatus(phys, center)
    return _generator(phys, 0.75, center)


@dataclass(frozen=True)
class SecondVariationScaling:
    analytic: float
    numeric: float
    relative_error: float


def second_variation_scaling(q: Field, params: ModelParams,
                             tail_tol: float = 1e-8) -> SecondVariationScaling:
    """d^2/dlambda^2 S(T_lambda q) at lambda = 1, two independent ways.

    analytic: -3 (p-1)(3p-7) / (16 (p+1)) * int |q|^{p+1}, the closed form
    valid at critical points of the action.  numeric: central second
    difference of lambda -> S(T_lambda q) about (0, 0) with step 1e-2,
    summed over T_lambda's quarter for an even q (`_scaled`, evenness
    decided once by `sp._settle`).  The sign changes at p = 7/3.  The step
    divides T_lambda's resampling error by 1e-4, so dy must resolve the
    profile: on p = 3 ground states extended to height 640 the relative
    error is 1.01 at dy = 0.156 (T_1.01 moves the mass by 6.7e-4), 2.9e-2
    at dy = 0.039 and 1.5e-5 at dy = 0.0195, with no warning.
    """
    if params.v != 0.0:
        raise ValueError("scaling second variation is defined for v = 0")
    p = params.p
    analytic = -3.0 * (p - 1.0) * (3.0 * p - 7.0) / (16.0 * (p + 1.0)) \
        * fl.lp1_power(q, p)
    step = 1e-2
    phys = sp._settle(q)
    s_plus, s_mid, s_minus = (fl.action(_scaled(phys, lam, (0.0, 0.0), tail_tol), params)
                              for lam in (1.0 + step, 1.0, 1.0 - step))
    numeric = (s_plus - 2.0 * s_mid + s_minus) / step ** 2
    scale = max(abs(analytic), abs(numeric), 1e-300)
    return SecondVariationScaling(analytic=analytic, numeric=numeric,
                                  relative_error=abs(analytic - numeric) / scale)


def scaling_pairing(u: Field, params: ModelParams,
                    center: tuple[float, float] | None = None,
                    tail_tol: float = 1e-8) -> float:
    """First scaling variation re <S'(u), (3/4) u + (x/2) dx u + y dy u>.

    Equals d/dlambda S(T_lambda u) at lambda = 1.  Positive for profiles
    compressed below the ground state (T_lambda Q, lambda < 1) and
    negative above it when p > 7/3; gauge invariant.
    """
    if params.v != 0.0:
        raise ValueError("scaling pairing is defined for v = 0")
    grad = fl.action_gradient(u, params)
    direction = psi_omega(u, center=center, tail_tol=tail_tol)
    return float(sp.l2_inner(grad, direction).real)


@dataclass(frozen=True)
class R1Diagnostics:
    r1: Field
    linearized_residual: float
    multiplier_roundtrip_error: float
    phi_max: tuple[float, float, float]


def r1_diagnostics(q1: Field, p: float, tail_tol: float = 1e-8) -> R1Diagnostics:
    """Frequency-derivative profile R1 and its resolvent identities.

    R1 = (1/(p-1)) Q1 + (x dx Q1)/2 + y dy Q1 solves the linearized
    equation (-dxx + |D_y| + 1) R1 - p Q1^{p-1} R1 = -Q1 for an omega = 1
    ground state; linearized_residual is that equation's relative L2
    defect.  multiplier_roundtrip_error feeds (-dxx + |D_y| + 1) R1
    through the reciprocal multiplier Phi1 and compares with R1, an
    algebraic identity of the discrete calculus.  phi_max reports the
    sup of the three resolvent multipliers Phi1 = 1/(xi^2 + |eta| + 1),
    Phi2 = -xi^2 * Phi1, Phi3 = |eta| * Phi1, on the spectra R1 is
    transformed to (the symbols are even, so a half spectrum or a quarter
    has the same sup).  A real Q1 runs in real arithmetic and gives a
    float64 R1: an even one about (0, 0) on quarters (`sp._EVEN`), with R1
    stored as its quarter and its values formed on each read, another
    about its mass centroid on half spectra (`_apparatus`).  The symbol
    and the defect are formed by row blocks (`sp._ActionRows`), and each
    temporary is freed after use; no BLAS.
    """
    phys = sp.to_physical(q1)
    g = q1.grid
    _check_tail(phys, tail_tol, "r1_diagnostics")
    phys, center = _apparatus(phys, None)
    r1_field = _generator(phys, 1.0 / (p - 1.0), center)
    q, r1, layout = phys.stored, r1_field.stored, phys.layout
    aq = sp._ActionRows(g, 1.0, 0.0, layout)
    hat = layout.fwd(r1, g.shape)
    lin_applied = layout.inv(aq.apply(hat, out=hat), g.shape)
    del hat
    defect_sq = 0.0
    for r in _slices(*q.shape, _FUSE_ELEMS):
        defect = lin_applied[r] - p * fl._density(q[r]) ** ((p - 1.0) / 2.0) * r1[r] + q[r]
        defect_sq += layout.dot(defect, defect, r, len(q))
    lin_res = math.sqrt(defect_sq * g.cell_area) / sp.l2_norm(phys)

    back = layout.fwd(lin_applied, g.shape)
    del lin_applied
    roundtrip = layout.inv(aq.apply(back, out=back, inverse=True), g.shape)
    del back
    roundtrip -= r1
    rt_err = math.sqrt(sp.l2_norm_sq(Field._of(g, roundtrip, layout)) / sp.l2_norm_sq(r1_field))
    del roundtrip

    phi_max = np.zeros(3)
    for r in _slices(*aq.shape, _FUSE_ELEMS):
        phi1 = 1.0 / aq(r, np.empty((r.stop - r.start, aq.shape[1])))
        phi_max = np.maximum(phi_max, [np.max(m * phi1) for m in (1.0, aq.xi2[r], aq.abs_eta)])
    return R1Diagnostics(r1_field, lin_res, rt_err, tuple(float(m) for m in phi_max))


@dataclass(frozen=True)
class OrbitalFit:
    theta: float
    tau1: float
    tau2: float
    distance: float


def _corr_derivatives(coef: np.ndarray, xi: np.ndarray, eta: np.ndarray,
                      tau: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """c(tau) = sum coef e^{-i(xi tau1 + eta tau2)}, its gradient and Hessian."""
    ex = np.exp(-1j * xi * tau[0])
    ey = np.exp(-1j * eta * tau[1])
    # columns: sum over eta of coef * ey weighted by 1, -i eta, -eta^2
    rows = coef @ np.stack([ey, -1j * eta * ey, -(eta ** 2) * ey], axis=1)
    c = ex @ rows[:, 0]
    dx_ex = -1j * xi * ex
    grad = np.array([dx_ex @ rows[:, 0], ex @ rows[:, 1]])
    hess = np.array([[-(xi ** 2 * ex) @ rows[:, 0], dx_ex @ rows[:, 1]],
                     [dx_ex @ rows[:, 1], ex @ rows[:, 2]]])
    return c, grad, hess


def _refine_peak(coef: np.ndarray, g: Grid, tau: np.ndarray) -> np.ndarray:
    """Newton ascent of |c(tau)|^2 from a lattice peak.

    Returns the lattice point unchanged if the Hessian there or at a
    later iterate is not negative definite, or if the iterates end
    below the lattice value.
    """
    start, c_start = tau, None
    for _ in range(8):
        c, dc, ddc = _corr_derivatives(coef, g.xi, g.eta, tau)
        if c_start is None:
            c_start = abs(c)
        grad = 2.0 * (np.conj(c) * dc).real
        hess = 2.0 * (np.conj(dc)[:, None] * dc[None, :] + np.conj(c) * ddc).real
        if not (hess[0, 0] < 0.0 and np.linalg.det(hess) > 0.0):
            return start
        step = np.linalg.solve(hess, grad)
        tau = tau - step
        if np.all(np.abs(step) <= 1e-13 * np.array([g.dx, g.dy])):
            break
    return tau if abs(_corr_derivatives(coef, g.xi, g.eta, tau)[0]) >= c_start else start


def _lattice_peaks(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the lattice local maxima of `mag` (each at least its eight
    periodic neighbours) within _PEAK_MARGIN of the maximum, largest first,
    ties in row-major order: the first is np.argmax's, the only one if the
    maximum is zero or not finite."""
    first = np.unravel_index(np.argmax(mag), mag.shape)
    if not 0.0 < mag[first] < math.inf:
        return tuple(np.atleast_1d(k) for k in first)
    i, j = np.nonzero(mag >= (1.0 - _PEAK_MARGIN) * mag[first])
    top = mag[i, j]
    peak = np.all([top >= mag[(i + a) % mag.shape[0], (j + b) % mag.shape[1]]
                   for a in (-1, 0, 1) for b in (-1, 0, 1)], axis=0)
    order = np.argsort(-top[peak], kind="stable")
    return i[peak][order], j[peak][order]


def orbital_fit(u: Field, q: Field, refine: bool = True) -> OrbitalFit:
    """Best X-norm match of u against the orbit e^{i theta} q(. + tau).

    The X cross-correlation c over all grid shifts comes from one FFT of
    the weighted coefficient product.  distance^2 = ||u||_X^2 + ||q||_X^2
    - 2 |c(tau)|, so every lattice local maximum of |c| within _PEAK_MARGIN
    of the largest is polished off the lattice by Newton steps on
    |c(tau)|^2, whose gradient and Hessian are the correlation sum
    weighted by -i xi and -i eta, and the largest refined |c| is kept
    (without `refine`, the lattice argmax); the phase is the closed-form
    argument of the correlation.  The distance is the X norm of the
    residual u - e^{i theta} q(. + tau), summed over its spectrum, so an
    exact match reads zero to round-off.  Fields passed in the spectral
    representation cost no transform.

    Beyond the two spectra the fit holds one complex field: the weighted
    product, transformed in place; |c| in its memory, as float64; the
    product again for the Newton steps; the weighted residual density.
    Each is written by row blocks with the operations of the full-array
    expression, so every bit is the full-array fit's.
    """
    if u.grid != q.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    uh = sp.to_spectral(u).values
    qh = sp.to_spectral(q).values
    weight = sp._ActionRows(g, 1.0, 0.0, sp._FULL)  # fl.x_weight by row blocks
    blocks = _slices(*g.shape, _FUSE_ELEMS)

    def fill_coef(buf: np.ndarray) -> np.ndarray:
        for r in blocks:  # ((w uh) conj(qh)) dx dy
            blk = np.multiply(weight(r), uh[r], out=buf[r])
            blk *= np.conj(qh[r])
            blk *= g.cell_area
        return buf

    def floats(buf: np.ndarray) -> np.ndarray:
        """The first half of a complex array's memory as float64 of its shape."""
        return buf.reshape(-1).view(np.float64)[:buf.size].reshape(buf.shape)

    corr = sp._fft2(fill_coef(np.empty(g.shape, np.complex128)), overwrite=True)
    mag = floats(corr)
    # |c| on rows r lands on complex rows < r.stop: read already, or in r,
    # whose overlap numpy buffers
    for r in blocks:
        np.abs(corr[r], out=mag[r])
    j1, j2 = _lattice_peaks(mag)
    coef = fill_coef(corr)
    taus = np.stack([((j1 + g.nx // 2) % g.nx - g.nx // 2) * g.dx,
                     ((j2 + g.ny // 2) % g.ny - g.ny // 2) * g.dy], axis=1)
    taus = [_refine_peak(coef, g, tau) for tau in taus] if refine else taus[:1]
    cs = [_corr_derivatives(coef, g.xi, g.eta, tau)[0] for tau in taus]
    best = int(np.argmax(np.abs(cs)))
    tau, theta = taus[best], float(np.angle(cs[best]))
    # spectrum of e^{i theta} q(. + tau): qh times e^{i(theta + xi tau1 + eta tau2)}
    ex, ey = np.exp(1j * (theta + g.xi * tau[0])), np.exp(1j * g.eta * tau[1])
    dens = floats(coef)
    for r in blocks:
        res = uh[r] - (ex[r, None] * ey[None, :]) * qh[r]
        np.multiply(weight(r), sp._density(res), out=dens[r])
    dist_sq = float(np.sum(dens)) * g.cell_area
    return OrbitalFit(theta=theta, tau1=float(tau[0]), tau2=float(tau[1]),
                      distance=math.sqrt(dist_sq))


@dataclass(frozen=True)
class ProbePoint:
    lam: float
    v: float
    i_value: float


def travel_upper_bound_probe(grid: Grid, p: float, omega: float,
                             alpha: float = 3.0) -> list[ProbePoint]:
    """Degeneration of the traveling minimization level as v -> 1.

    Test fields phi_lambda(x, y) = lambda * phi(x, lambda^alpha y) with
    spectral support in eta >= 0, evaluated at v = 1 - lambda^{-alpha}
    for lambda = 4, 8, 16, 32 on box-rescaled grids (exact discrete
    scaling).  For alpha > 2 the values of I decay like lambda^{2-alpha},
    witnessing inf I -> 0.
    """
    if alpha <= 2.0:
        raise ValueError("the degeneration argument needs alpha > 2")
    xi = grid.xi[:, None]
    eta = grid.eta[None, :]
    m_eta = np.where(grid.eta_odd[None, :] > 0.0,
                     np.exp(-(eta - 1.0) ** 2 / 0.5), 0.0)
    phi_hat = np.exp(-xi ** 2) * m_eta
    phi_vals = sp._ifft2(phi_hat)

    points = []
    for lam in (4.0, 8.0, 16.0, 32.0):
        v = 1.0 - lam ** (-alpha)
        small = Grid(grid.nx, grid.ny, grid.lx, grid.ly / lam ** alpha)
        fld = Field(small, lam * phi_vals, sp.PHYSICAL)
        val = fl.i_value(fld, ModelParams(p=p, omega=omega, v=v))
        points.append(ProbePoint(lam=float(lam), v=v, i_value=val))
    return points
