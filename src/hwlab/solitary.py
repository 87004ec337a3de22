"""Solitary profiles: constrained minimization and the scaling apparatus.

Ground states solve

    -dxx Q + |D_y| Q + i v dy Q + omega Q = |Q|^{p-1} Q

and are computed two ways: as Nehari-manifold minimizers of the action
(projected, preconditioned descent with a monotone line search) and,
for mass-subcritical exponents, as mass-constrained Hamiltonian
minimizers (semi-implicit normalized gradient flow).  The rest of the
module implements the anisotropic scaling T_lambda u = lambda^{3/4}
u(lambda^{1/2} x, lambda y), the generator psi = (3/4) u + (x/2) dx u
+ y dy u, the omega-rescaling of profiles, diagnostics for the
linearized resolvent identities, and orbital fitting modulo phase and
translation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import signal

from . import functionals as fl
from . import spectral as sp
from .functionals import ModelParams
from .spectral import Field, Grid

ARMIJO_C = 1e-4
_BLOCK_ELEMS = 1 << 20  # entries per block of the chirp-z resampling
_FUSE_ELEMS = 1 << 14  # entries per row block of the descent's fused, cache-sized passes


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
    accepted step (0 if none), rejected trials, quasi-Newton memory cleared."""

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

    gaussian: separable Gaussian, width 2 in x and 4 in y.  For v != 0
    it is modulated by exp(i eta0 y) with eta0 the first grid frequency
    on the non-degenerate side of the transport symbol (sign of v).
    gaussian-wide: an independent shape for restart-agreement checks.
    noise: seeded band-limited noise under a Gaussian envelope.
    """
    X = grid.x[:, None]
    Y = grid.y[None, :]
    if kind == "gaussian":
        vals = np.exp(-X ** 2 / 8.0 - Y ** 2 / 32.0).astype(np.complex128)
    elif kind == "gaussian-wide":
        vals = 0.6 * np.exp(-X ** 2 / 18.0 - Y ** 2 / 12.5).astype(np.complex128)
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


def _slices(count: int, per: int, elems: int) -> list[slice]:
    """Slices of range(count) spanning about `elems` entries at `per` per item."""
    step = max(1, elems // max(1, per))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _power(dens: np.ndarray, e: float) -> np.ndarray:
    """dens ** e for dens >= 0; dens * sqrt(dens) for e = 1.5, which numpy's
    ** computes without a fast path."""
    return dens * np.sqrt(dens) if e == 1.5 else dens ** e


def _lp1_sum(u: np.ndarray, p: float) -> float:
    """sum |u|^{p+1} by cache-sized row blocks."""
    e = (p + 1.0) / 2.0
    return sum(float(np.sum(_power(fl._density(u[rows]), e)))
               for rows in _slices(*u.shape, _FUSE_ELEMS))


def _lp1_change(u: np.ndarray, d: np.ndarray, alpha: float, p: float) -> float:
    """sum (|u - alpha d|^{p+1} - |u|^{p+1}), accurate far below the rounding
    level of either sum; by cache-sized row blocks, with no full-size temporary."""
    e = (p + 1.0) / 2.0
    total = 0.0
    for rows in _slices(*u.shape, _FUSE_ELEMS):
        blk = u[rows]
        total += float(np.sum(_power(fl._density(blk - alpha * d[rows]), e)
                              - _power(fl._density(blk), e)))
    return total


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
    return Field(u.grid, t * sp.to_physical(u).values, sp.PHYSICAL)


def _advance(u: np.ndarray, d: np.ndarray, alpha: float, t: float) -> None:
    """u <- t (u - alpha d) in place, by cache-sized row blocks."""
    for rows in _slices(*u.shape, _FUSE_ELEMS):
        blk = u[rows]
        blk -= alpha * d[rows]
        blk *= t


def _edge(a: np.ndarray) -> np.ndarray:
    """First and last column: on a half spectrum, the ones Parseval counts once."""
    return a[:, ::a.shape[1] - 1]


class _Spectra:
    """Transforms, L2 inner products and the fused passes of the descent on
    its spectra: rfft2 half spectra for real fields, where Parseval weighs
    the columns (1, 2, ..., 2, 1), full spectra otherwise.  `aq` is the
    action-quadratic symbol on the same spectra, `w` the cell area.

    A fused pass walks the spectra in row blocks of about _FUSE_ELEMS
    entries, which stay in cache: each block is updated and then feeds
    every inner product of the pass before the next block is read.  The
    block sums are plain; the half-spectrum column weights are applied
    per pass from the edge columns.  Block bounds depend on the shape
    only, so no sum depends on a thread count.
    """

    def __init__(self, shape: tuple[int, int], w: float, aq: np.ndarray, real: bool):
        self.shape, self.w, self.aq, self.real = shape, w, aq, real
        self.rows = _slices(*aq.shape, _FUSE_ELEMS)
        block = (self.rows[0].stop, aq.shape[1])
        self._tmp = np.empty(block, np.complex128), np.empty(block, np.complex128)
        # 1/aq block by block: a full-size copy would cost 251 MB on the
        # 320x98305 half spectra of criterion 08, the block division 0.2 ms
        # an iteration on 256x1024
        self._inv = np.empty(block)

    def fwd(self, vals: np.ndarray) -> np.ndarray:
        return sp._rfft2(vals) if self.real else sp._fft2(vals)

    def inv(self, hat: np.ndarray) -> np.ndarray:
        return sp._irfft2(hat, self.shape) if self.real else sp._ifft2(hat)

    def _total(self, total: float, ea: np.ndarray, eb: np.ndarray) -> float:
        """re int conj(f) g from `total`, the plain sum of re conj(a) b over
        the spectra a, b of f, g, and their edge columns ea, eb."""
        if self.real:
            total = 2.0 * total - float(np.sum(ea.real * eb.real + ea.imag * eb.imag))
        return total * self.w

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """re int conj(f) g for the fields f, g whose spectra are a, b."""
        return self._total(sp._redot(a, b), _edge(a), _edge(b))

    def gradient(self, u: np.ndarray, hat: np.ndarray, p: float, d: np.ndarray | None = None,
                 dhat: np.ndarray | None = None, t: float = 1.0) -> tuple:
        """Spectrum ghat = aq hat(v) - hat(|v|^{p-1} v) of grad S(v), one transform,
        for v = u with spectrum hat, or for the trial v = t (u - d), whose
        spectrum t (hat - dhat) is formed block by block.  Returns ghat and
        int |v|^{p+1}, <grad S(v), v>, ||grad S(v)||^2, ||v||^2."""
        e = (p - 1.0) / 2.0
        nl = np.empty_like(u)
        b_pot = 0.0
        for rows in _slices(*u.shape, _FUSE_ELEMS):
            v = u[rows] if d is None else (u[rows] - d[rows]) * t
            dens = fl._density(v)
            pw = _power(dens, e)
            b_pot += sp._redot(dens, pw)
            np.multiply(v, pw, out=nl[rows])
        ghat = self.fwd(nl)
        del nl
        gh = hh = gg = 0.0
        trial, prod = self._tmp
        for rows in self.rows:
            n = rows.stop - rows.start
            h = hat[rows]
            if dhat is not None:
                h = np.subtract(h, dhat[rows], out=trial[:n])
                h *= t
            g = ghat[rows]
            np.subtract(np.multiply(h, self.aq[rows], out=prod[:n]), g, out=g)
            gh += sp._redot(g, h)
            gg += sp._redot(g, g)
            hh += sp._redot(h, h)
        eh = _edge(hat) if dhat is None else (_edge(hat) - _edge(dhat)) * t
        eg = _edge(ghat)
        return (ghat, b_pot * self.w, self._total(gh, eg, eh), self._total(gg, eg, eg),
                self._total(hh, eh, eh))

    def pair(self, hat: np.ndarray, hat_prev: np.ndarray, ghat: np.ndarray,
             ghat_prev: np.ndarray) -> tuple:
        """Quasi-Newton pair s = hat - hat_prev, y = ghat - ghat_prev, written
        over the previous spectra, with <s, y>, ||s||^2, ||y||^2 from the same pass."""
        sy = ss = yy = 0.0
        for rows in self.rows:
            s = np.subtract(hat[rows], hat_prev[rows], out=hat_prev[rows])
            y = np.subtract(ghat[rows], ghat_prev[rows], out=ghat_prev[rows])
            sy += sp._redot(s, y)
            ss += sp._redot(s, s)
            yy += sp._redot(y, y)
        es, ey = _edge(hat_prev), _edge(ghat_prev)
        return (hat_prev, ghat_prev, self._total(sy, es, ey), self._total(ss, es, es),
                self._total(yy, ey, ey))

    def _pass(self, out: np.ndarray, src: np.ndarray | None = None, add: tuple | None = None,
              seed: bool = False, dots: tuple = (), aq_dots: tuple = ()) -> list[float]:
        """One fused pass: out <- src (or out) + c x for add = (c, x), times
        1/aq if `seed`; then <y, out> for y in `dots` and <y, aq out> for y
        in `aq_dots`, each block while it is in cache."""
        sums = [0.0] * (len(dots) + len(aq_dots))
        scaled, prod = self._tmp
        for rows in self.rows:
            n = rows.stop - rows.start
            o = out[rows]
            if add is not None:
                # c x on float views: a real scalar times complex entries
                c, x = add
                of = o.view(np.float64)
                of += np.multiply(x[rows].view(np.float64), c, out=scaled[:n].view(np.float64))
            base = o if src is None else src[rows]
            if seed:
                np.multiply(base, np.divide(1.0, self.aq[rows], out=self._inv[:n]), out=o)
            elif src is not None:
                np.copyto(o, base)
            for j, y in enumerate(dots):
                sums[j] += sp._redot(y[rows], o)
            if aq_dots:
                ao = np.multiply(o, self.aq[rows], out=prod[:n])
                for j, y in enumerate(aq_dots, len(dots)):
                    sums[j] += sp._redot(y[rows], ao)
        eo, eao = _edge(out), _edge(self.aq) * _edge(out)
        return ([self._total(sums[j], _edge(y), eo) for j, y in enumerate(dots)]
                + [self._total(sums[j], _edge(y), eao) for j, y in enumerate(aq_dots, len(dots))])

    def step(self, hat: np.ndarray, dhat: np.ndarray, alpha: float, t: float) -> np.ndarray:
        """Spectrum t (hat - alpha dhat) of an accepted step, written over dhat."""
        for rows in self.rows:
            blk = dhat[rows].view(np.float64)
            blk *= -alpha
            blk += hat[rows].view(np.float64)
            blk *= t
        return dhat

    def direction(self, ghat: np.ndarray, hat: np.ndarray, pairs: list,
                  out: np.ndarray | None = None) -> tuple:
        """Quasi-Newton direction dhat = H ghat by the two-loop recursion
        (Nocedal, Math. Comp. 35, 1980) over the pairs (s, y, 1/<s, y>),
        oldest first, seeded with the metric 1/aq, written into `out`.
        Each update shares its pass with the product the next one needs,
        and the seed with the first product of the second loop, so m pairs
        take 2m + 1 passes.  Returns dhat, <d, grad>, ||d||^2, <Au, d>, <Ad, d>."""
        if out is None:
            out = np.empty_like(ghat)
        last = dict(dots=(ghat, out), aq_dots=(hat, out))
        if not pairs:
            return (out, *self._pass(out, src=ghat, seed=True, **last))
        k = len(pairs)
        coef = [0.0] * k
        (prod,) = self._pass(out, src=ghat, dots=(pairs[-1][0],))
        for i in reversed(range(k)):
            coef[i] = pairs[i][2] * prod
            nxt = pairs[i - 1][0] if i else pairs[0][1]
            (prod,) = self._pass(out, add=(-coef[i], pairs[i][1]), seed=i == 0, dots=(nxt,))
        for i in range(k - 1):
            (prod,) = self._pass(out, add=(coef[i] - pairs[i][2] * prod, pairs[i][0]),
                                 dots=(pairs[i + 1][1],))
        return (out, *self._pass(out, add=(coef[-1] - pairs[-1][2] * prod, pairs[-1][0]),
                                 **last))


def _descent(u: np.ndarray, aq: np.ndarray, p: float, grid: Grid, tol: float,
             max_iter: int, memory: int, floor_rule: bool) -> tuple[np.ndarray, dict, float]:
    """Projected, preconditioned L-BFGS descent of the action on the Nehari manifold.

    `u` (float64: half spectra, complex128: full spectra) is overwritten
    and returned as the final iterate, with the SolitarySolution fields
    the descent fixes and ||u||.  The spectrum of the iterate is carried
    along: an accepted step u <- t (u - alpha d) sets it to
    t (hat - alpha dhat) in the direction's buffer.  So an iteration costs
    two transforms, |u|^{p-1} u forward and the direction d back, and the
    start one more; the physical u feeds the nonlinear sums.  The
    two-loop recursion on up to `memory` spectral pairs, seeded with 1/aq,
    runs in fused cache-sized passes (`_Spectra`).  Armijo trials along
    u - alpha d, each rescaled onto the Nehari manifold, need no
    transform.  `floor_rule` accepts a full step that fails the Armijo
    test near the action floor if it cuts the gradient norm by 0.1%.
    """
    spec = _Spectra(grid.shape, grid.cell_area, aq, real=not np.iscomplexobj(u))

    def action_of(a_form, b_pot):
        return 0.5 * a_form - b_pot / (p + 1.0)

    hat = spec.fwd(u)
    t, a_form, b_pot = _nehari_scale(spec.dot(hat, aq * hat), _lp1_sum(u, p) * spec.w, p)
    u *= t
    hat *= t
    action_history = [action_of(a_form, b_pot)]
    history: list[IterationRecord] = []
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    hat_prev = ghat_prev = carried = None
    iterations = 0

    for iterations in range(1, max_iter + 1):
        # the Nehari functional N(u) = <grad S(u), u> = a(u) - int |u|^{p+1}
        ghat, b_u, n_u, g_sq, u_sq = carried or spec.gradient(u, hat, p)
        carried = None
        grad_norm, u_norm = math.sqrt(g_sq), math.sqrt(u_sq)
        a_u = n_u + b_u
        s_val = action_of(*_nehari_scale(a_u, b_u, p)[1:])
        if grad_norm <= tol * u_norm:
            history.append(IterationRecord(s_val, grad_norm / u_norm, 0.0, 0, False))
            break
        if hat_prev is not None:
            s_vec, y_vec, sy, ss, yy = spec.pair(hat, hat_prev, ghat, ghat_prev)
            if sy > 1e-12 * math.sqrt(ss * yy):
                pairs.append((s_vec, y_vec, 1.0 / sy))
                if len(pairs) > memory:
                    pairs.pop(0)
            del s_vec, y_vec
        if memory:
            hat_prev, ghat_prev = hat, ghat

        # Two-loop recursion; the inverse quadratic symbol seeds the metric.
        dhat, slope, d_sq, au_d, a_d = spec.direction(ghat, hat, pairs)
        restart = bool(pairs) and slope <= 1e-14 * grad_norm * math.sqrt(d_sq)
        if restart:
            pairs.clear()  # curvature memory turned uphill
            dhat, slope, d_sq, au_d, a_d = spec.direction(ghat, hat, pairs, out=dhat)
        del ghat
        d = spec.inv(dhat)
        floor = floor_rule and ARMIJO_C * slope <= 1e3 * np.finfo(float).eps * abs(s_val)
        alpha = 1.0
        backtracks = 0
        accepted = False
        while alpha > 1e-14:
            d_a = -alpha * (2.0 * au_d - alpha * a_d)
            d_b = _lp1_change(u, d, alpha, p) * spec.w
            t = _nehari_scale(a_u + d_a, b_u + d_b, p)[0]
            # S = (p-1)/(2(p+1)) a^{(p+1)/(p-1)} b^{-2/(p-1)} on the Nehari manifold:
            # its change from the relative changes of a and b resolves
            # decreases below the ulp of S.
            d_s = s_val * math.expm1(((p + 1.0) * math.log1p(d_a / a_u)
                                      - 2.0 * math.log1p(d_b / b_u)) / (p - 1.0))
            if d_s <= -ARMIJO_C * alpha * slope:
                accepted = True
            elif floor and alpha == 1.0:
                carried = spec.gradient(u, hat, p, d, dhat, t)
                accepted = math.sqrt(carried[3]) <= grad_norm * (1.0 - 1e-3)
                if not accepted:
                    carried = None
            if accepted:
                # a floor trial's carried gradient saw exactly these values
                _advance(u, d, alpha, t)
                hat = spec.step(hat, dhat, alpha, t)
                action_history.append(s_val + d_s)
                break
            backtracks += 1
            alpha *= 0.5
        del d, dhat
        retry = not accepted and bool(pairs)
        if retry:
            pairs.clear()  # retry from the same iterate without memory
            hat_prev = ghat_prev = None
        history.append(IterationRecord(s_val + d_s if accepted else s_val, grad_norm / u_norm,
                                       alpha if accepted else 0.0, backtracks, restart or retry))
        if not (accepted or retry):
            break  # plain descent line search exhausted
    else:
        # budget spent: measure the last accepted iterate
        _, b_u, n_u, g_sq, u_sq = carried or spec.gradient(u, hat, p)
        grad_norm, u_norm = math.sqrt(g_sq), math.sqrt(u_sq)
    return u, dict(action_value=action_of(*_nehari_scale(n_u + b_u, b_u, p)[1:]),
                   nehari_residual=abs(n_u), gradient_residual=grad_norm,
                   iterations=iterations, action_history=action_history,
                   history=history), u_norm


def _solution(params: ModelParams, q: Field, stats: dict, u_norm: float,
              tol: float) -> SolitarySolution:
    out = SolitarySolution(params=params, q=q, tail_mass_fraction=sp.tail_mass_fraction(q),
                           **stats)
    if out.gradient_residual > tol * u_norm:
        raise ConvergenceError(
            f"no convergence in {out.iterations} iterations; gradient residual "
            f"{out.gradient_residual:.3e} vs target {tol * u_norm:.3e}", solution=out)
    return out


def solve_nehari(grid: Grid, params: ModelParams, init: Field | None = None,
                 tol: float = 1e-6, max_iter: int = 5000,
                 init_kind: str = "gaussian", seed: int = 0,
                 memory: int = 8) -> SolitarySolution:
    """Action minimization over the Nehari manifold.

    Limited-memory quasi-Newton descent, with the inverse quadratic
    symbol as the seed metric of the two-loop recursion, Armijo
    backtracking on S, and exact Nehari reprojection after every trial
    step, so accepted action values decrease monotonically and the
    final value is a certified upper bound for the minimum.  The memory
    restarts whenever the quasi-Newton direction stops pointing
    downhill.  Terminates when ||grad S(u)||_{L2} <= tol * ||u||_{L2}.
    An iteration costs two transforms, its line-search trials none: the
    spectrum of the iterate is carried along, not recomputed, and the
    two-loop recursion runs in fused cache-sized passes.
    For v = 0 and a real initial guess it runs in real arithmetic on
    half spectra; otherwise on full spectra, with the v = 0 result
    rotated onto the real axis.  `history`: one IterationRecord per iteration.
    """
    if init is None:
        init = default_initial_guess(grid, params, kind=init_kind, seed=seed)
    if init.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    if sp.l2_norm_sq(init) == 0.0:
        raise CollapseError("initial guess is identically zero")

    u0 = sp.to_physical(init).values
    real = params.v == 0.0 and not np.any(u0.imag)
    aq = sp.action_quadratic(params.omega, params.v).values(grid, half=real)
    u, stats, u_norm = _descent(u0.real.copy() if real else u0.copy(), aq, params.p,
                                grid, tol, max_iter, memory, floor_rule=False)
    if params.v == 0.0:
        if not real:
            # Phase freedom: rotate to the real axis and reproject.
            mod = np.abs(u)
            phase = complex(sp._redot(mod, u.real), sp._redot(mod, u.imag))
            if abs(phase) > 0.0:
                u = (u * (np.conj(phase) / abs(phase))).real
            q = nehari_project(Field(grid, u, sp.PHYSICAL), params)
            stats.update(action_value=fl.action(q, params),
                         nehari_residual=abs(fl.nehari(q, params)),
                         gradient_residual=sp.l2_norm(fl.action_gradient(q, params)))
            u, u_norm = q.values, sp.l2_norm(q)
        if float(np.sum(u.real)) < 0.0:
            u = -u  # keep the nonnegative sign
    return _solution(params, Field(grid, u, sp.PHYSICAL), stats, u_norm, tol)


def extend_ground_state(sol: SolitarySolution, grid: Grid,
                        tol: float = 5e-7, max_iter: int = 200) -> SolitarySolution:
    """Continue a real ground state onto a taller box (same dx, dy).

    Tail-sensitive diagnostics (the scaling identities, the linearized
    profile R1) converge slowly in the box height because the profile
    only decays algebraically in y; the boxes they need do not fit in
    memory with the complex solver.  This routine zero-pads a converged
    v = 0 solution in y and polishes it with the descent core of
    solve_nehari on half spectra, without quasi-Newton memory (no
    previous iterate or gradient is held), at two transforms per
    iteration.  Near the action floor, where the Armijo test drowns in
    rounding noise, a full step is accepted if it still cuts the gradient.

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
    u = np.zeros(grid.shape, dtype=np.float64)
    u[:, offset:offset + g0.ny] = sp.to_physical(sol.q).values.real
    aq = sp.action_quadratic(params.omega).values(grid, half=True)
    u, stats, u_norm = _descent(u, aq, params.p, grid, tol, max_iter, memory=0,
                                floor_rule=True)
    q = Field(grid, u.astype(np.complex128), sp.PHYSICAL)
    del u
    return _solution(params, q, stats, u_norm, tol)


def solve_mass_constrained(grid: Grid, mu: float, p: float,
                           init: Field | None = None, tol: float = 1e-6,
                           max_iter: int = 50000, dt0: float = 0.1,
                           seed: int = 0) -> MassMinimizer:
    """Hamiltonian minimization at fixed mass (normalized gradient flow).

    Semi-implicit steps on the tangentially projected gradient: backward
    Euler on the quadratic part, forward on the nonlinearity minus the
    Lagrange term lambda(u) u, followed by exact renormalization to mass
    mu.  Without the Lagrange term the renormalized map has fixed points
    a dt-proportional residual away from criticality; with it the fixed
    points are exactly the constrained critical points, and the
    renormalization is an O(dt^2) correction.  The step size is halved
    whenever H fails to decrease, which keeps the energy history
    monotone.  Only defined on the subcritical range 1 < p < 7/3 where
    the constrained infimum is finite.
    """
    if not (1.0 < p < 7.0 / 3.0):
        raise ValueError("mass-constrained minimization needs 1 < p < 7/3")
    if not mu > 0.0:
        raise ValueError("mass must be positive")
    params = ModelParams(p=p, omega=1.0, v=0.0)
    if init is None:
        init = default_initial_guess(grid, params, seed=seed)
    if init.grid != grid:
        raise ValueError("initial guess lives on a different grid")

    w = grid.cell_area
    lin = (grid.xi[:, None] ** 2) + np.abs(grid.eta)[None, :]

    def renorm(vals):
        m = 0.5 * sp._redot(vals, vals) * w
        if m <= 0.0 or not np.isfinite(m):
            raise CollapseError("mass vanished during the flow")
        return vals * math.sqrt(mu / m)

    def energy_of(vals):
        hat = sp._fft2(vals)
        quad = float(np.sum(lin * (hat.real ** 2 + hat.imag ** 2))) * w
        return 0.5 * quad - float(np.sum(fl._density(vals) ** ((p + 1.0) / 2.0))) * w / (p + 1.0)

    def gradient(vals):
        return sp._ifft2(lin * sp._fft2(vals)) - fl._density(vals) ** ((p - 1.0) / 2.0) * vals

    u = renorm(sp.to_physical(init).values)
    h_val = energy_of(u)
    history = [h_val]
    dt = dt0
    streak = 0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        nl = fl._density(u) ** ((p - 1.0) / 2.0) * u
        hat_u = sp._fft2(u)
        # lambda(u) = -<u, H'(u)> / ||u||^2, the multiplier that makes the
        # step tangent to the mass sphere (equals omega at convergence)
        norm_sq = sp._redot(u, u)
        quad = float(np.sum(lin * (hat_u.real ** 2 + hat_u.imag ** 2)))
        lam = (sp._redot(u, nl) - quad) / norm_sq
        hat = hat_u + dt * (sp._fft2(nl) - lam * hat_u)
        trial = renorm(sp._ifft2(hat / (1.0 + dt * lin)))
        h_trial = energy_of(trial)
        if not np.isfinite(h_trial):
            raise CollapseError("energy lost finiteness during the flow")
        if h_trial > h_val + 1e-12 * max(1.0, abs(h_val)):
            dt *= 0.5
            streak = 0
            if dt < 1e-9:
                break
            continue
        step = trial - u
        step_norm = math.sqrt(sp._redot(step, step) * w)
        u, h_val = trial, h_trial
        history.append(h_val)
        streak += 1
        if streak >= 10:
            # backward Euler on the quadratic part tolerates large dt; the
            # monotonicity guard above rejects any overshoot
            dt = min(dt * 1.2, dt0 * 100.0)
            streak = 0
        if iterations % 5 == 0 or step_norm <= 1e-14:
            g = gradient(u)
            radial = sp._redot(u, g) / sp._redot(u, u)
            resid = g - radial * u
            rnorm = math.sqrt(sp._redot(resid, resid) * w)
            if rnorm <= tol * math.sqrt(2.0 * mu):
                converged = True
                break

    minimizer = Field(grid, u, sp.PHYSICAL)
    g = gradient(u)
    omega_mult = sp._redot(u, g) * w / (-2.0 * mu)
    result = MassMinimizer(mu=mu, minimizer=minimizer, energy=h_val,
                           omega_multiplier=omega_mult, iterations=iterations,
                           energy_history=history)
    if not converged:
        raise ConvergenceError(
            f"normalized gradient flow did not converge in {iterations} steps",
            solution=result)
    return result


def rescale_omega(q1: Field, omega: float, p: float) -> Field:
    """Map an omega = 1 profile to frequency omega via Eq.-exact box rescaling.

    Q_omega(x, y) = omega^{1/(p-1)} Q_1(sqrt(omega) x, omega y) is realized
    by keeping the sample array and shrinking the box to (lx/sqrt(omega),
    ly/omega), which makes every scaling identity exact in the discrete
    functionals.
    """
    if not omega > 0.0:
        raise ValueError("omega must be positive")
    g = q1.grid
    new_grid = Grid(g.nx, g.ny, g.lx / math.sqrt(omega), g.ly / omega)
    vals = omega ** (1.0 / (p - 1.0)) * sp.to_physical(q1).values
    return Field(new_grid, vals, sp.PHYSICAL)


def mass_centroid(u: Field) -> tuple[float, float]:
    vals = sp.to_physical(u).values
    dens = vals.real ** 2 + vals.imag ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return (0.0, 0.0)
    cx = float(np.sum(dens.sum(axis=1) * u.grid.x)) / total
    cy = float(np.sum(dens.sum(axis=0) * u.grid.y)) / total
    return (cx, cy)


def _czt_eval_axis(coef: np.ndarray, axis: int, n: int, length: float,
                   origin: float, start: float, step: float) -> np.ndarray:
    """Trig interpolant on an arithmetic progression of points, one axis.

    `coef` holds unitary FFT coefficients along `axis`; returns samples
    at origin-relative points start + j*step, j = 0..n-1, via the chirp
    z-transform, with the Nyquist coefficient symmetrized to its cosine
    part so real fields stay real.  Runs over blocks of lines (small
    chirp-z buffers); lines are independent, so blocking changes no bit.
    """
    phi0 = (2.0 * np.pi / length) * (start - origin)
    delta = (2.0 * np.pi / length) * step
    half = 0.5 * n * (phi0 + delta * np.arange(n))
    shape = [1, 1]
    shape[axis] = n
    pre = np.exp(1j * phi0 * np.arange(n)).reshape(shape)
    phase = np.exp(-1j * half).reshape(shape)
    # Nyquist row was summed as exp(-i n/2 theta); restore its cosine part.
    nyq_phase = (1j * np.sin(half)).reshape(shape)
    shifted = np.fft.fftshift(coef, axes=axis)
    del coef  # freed here when the caller holds no reference
    nyq = np.take(shifted, [0], axis=axis)
    out = np.empty_like(shifted)
    for blk in _slices(shifted.shape[1 - axis], n, _BLOCK_ELEMS):
        idx = (slice(None), blk) if axis == 0 else (blk, slice(None))
        part = phase * signal.czt(shifted[idx] * pre, m=n, w=np.exp(1j * delta),
                                  a=1.0 + 0.0j, axis=axis)
        part += nyq_phase * nyq[idx]
        out[idx] = part / math.sqrt(n)
    return out


def _wrap_corrupt(coords: np.ndarray, c: float, rate: float,
                  length: float) -> np.ndarray:
    """Targets whose scaled source wraps into the inner 90% of the box."""
    src = c + rate * (coords - c)
    img = src - np.round(src / length) * length
    return (np.abs(src) > length / 2.0) & (np.abs(img) < 0.9 * (length / 2.0))


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
    """
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    g = u.grid
    phys = sp.to_physical(u)
    if lam == 1.0:
        return phys.copy()
    if lam > 1.0:
        _check_tail(phys, tail_tol, "t_lambda")
    cx, cy = center
    rx = math.sqrt(lam)
    part = _czt_eval_axis(sp._fft2(phys.values), 0, g.nx, g.lx, g.x[0],
                          cx + rx * (g.x[0] - cx), rx * g.dx)
    vals = _czt_eval_axis(part, 1, g.ny, g.ly, g.y[0],
                          cy + lam * (g.y[0] - cy), lam * g.dy)
    del part
    if lam > 1.0:
        # targets whose source left the box read the periodized image;
        # that is still a certified-tail value unless the image lands in
        # the inner 90% of the box (as lambda -> 2 it hits the core), in
        # which case the honest value is the (negligible) tail: zero it
        vals[_wrap_corrupt(g.x, cx, rx, g.lx), :] = 0.0
        vals[:, _wrap_corrupt(g.y, cy, lam, g.ly)] = 0.0
    return Field(g, lam ** 0.75 * vals, sp.PHYSICAL)


def psi_omega(q: Field, center: tuple[float, float] | None = None,
              tail_tol: float = 1e-8) -> Field:
    """Scaling generator (3/4) q + (x/2) dx q + y dy q.

    Equals d/dlambda T_lambda q at lambda = 1; coordinates are measured
    from the mass centroid unless a center is supplied.  L2-orthogonal
    to q because T_lambda is an L2 isometry.
    """
    phys = sp.to_physical(q)
    _check_tail(phys, tail_tol, "psi_omega")
    if center is None:
        center = mass_centroid(phys)
    cx, cy = center
    X = (q.grid.x - cx)[:, None]
    Y = (q.grid.y - cy)[None, :]
    qx = sp.dx_field(phys).values
    qy = sp.dy_field(phys).values
    vals = 0.75 * phys.values + 0.5 * X * qx + Y * qy
    return Field(q.grid, vals, sp.PHYSICAL)


@dataclass(frozen=True)
class SecondVariationScaling:
    analytic: float
    numeric: float
    relative_error: float


def second_variation_scaling(q: Field, params: ModelParams,
                             step: float = 1e-2,
                             tail_tol: float = 1e-8) -> SecondVariationScaling:
    """d^2/dlambda^2 S(T_lambda q) at lambda = 1, two independent ways.

    analytic: -3 (p-1)(3p-7) / (16 (p+1)) * int |q|^{p+1}, the closed
    form valid at critical points of the action.  numeric: central
    second difference of lambda -> S(T_lambda q).  The sign changes at
    p = 7/3.
    """
    if params.v != 0.0:
        raise ValueError("scaling second variation is defined for v = 0")
    p = params.p
    analytic = -3.0 * (p - 1.0) * (3.0 * p - 7.0) / (16.0 * (p + 1.0)) \
        * fl.lp1_power(q, p)
    s_plus = fl.action(t_lambda(q, 1.0 + step, tail_tol=tail_tol), params)
    s_mid = fl.action(q, params)
    s_minus = fl.action(t_lambda(q, 1.0 - step, tail_tol=tail_tol), params)
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
    Phi2 = -xi^2 * Phi1, Phi3 = |eta| * Phi1.
    """
    phys = sp.to_physical(q1)
    g = q1.grid
    _check_tail(phys, tail_tol, "r1_diagnostics")
    cx, cy = mass_centroid(phys)
    X = (g.x - cx)[:, None]
    Y = (g.y - cy)[None, :]
    if not np.any(phys.values.imag):
        return _r1_diagnostics_real(phys, p, X, Y)
    qx = sp.dx_field(phys).values
    qy = sp.dy_field(phys).values
    r1 = phys.values / (p - 1.0) + 0.5 * X * qx + Y * qy

    lin_symbol = sp.action_quadratic(1.0, 0.0).values(g)
    lin_applied = sp._ifft2(lin_symbol * sp._fft2(r1))
    defect = lin_applied - p * fl._density(phys.values) ** ((p - 1.0) / 2.0) * r1 + phys.values
    q_norm = sp.l2_norm(phys)
    lin_res = math.sqrt(sp._redot(defect, defect) * g.cell_area) / q_norm

    phi1 = 1.0 / lin_symbol
    roundtrip = sp._ifft2(phi1 * sp._fft2(lin_applied))
    r1_norm = math.sqrt(sp._redot(r1, r1) * g.cell_area)
    roundtrip -= r1
    rt_err = math.sqrt(sp._redot(roundtrip, roundtrip) * g.cell_area) / r1_norm

    xi2 = g.xi[:, None] ** 2
    abs_eta = np.abs(g.eta)[None, :]
    phi_max = (float(np.max(np.abs(phi1))),
               float(np.max(xi2 * phi1)),
               float(np.max(abs_eta * phi1)))
    return R1Diagnostics(r1=Field(g, r1, sp.PHYSICAL),
                         linearized_residual=lin_res,
                         multiplier_roundtrip_error=rt_err,
                         phi_max=phi_max)


def _r1_diagnostics_real(phys: Field, p: float, X: np.ndarray, Y: np.ndarray) -> R1Diagnostics:
    # Real-arithmetic twin of the pipeline above on half spectra; the
    # box-extension grids only fit in memory this way.
    g = phys.grid
    nx, ny = g.nx, g.ny
    re = phys.values.real
    w = g.cell_area

    hat = sp._rfft2(re)
    qx = sp._irfft2(1j * g.xi_odd[:, None] * hat, (nx, ny))
    qy = sp._irfft2(1j * g.eta_odd[None, :ny // 2 + 1] * hat, (nx, ny))
    del hat
    r1 = re / (p - 1.0)
    qx *= 0.5 * X
    r1 += qx
    del qx
    qy *= Y
    r1 += qy
    del qy

    aq_h = sp.action_quadratic(1.0).values(g, half=True)
    lin_applied = sp._irfft2(aq_h * sp._rfft2(r1), (nx, ny))
    defect = lin_applied - p * np.abs(re) ** (p - 1.0) * r1 + re
    q_norm = math.sqrt(w * float(np.sum(re * re)))
    lin_res = math.sqrt(w * float(np.sum(defect * defect))) / q_norm
    del defect

    back = sp._rfft2(lin_applied)
    del lin_applied
    back /= aq_h
    roundtrip = sp._irfft2(back, (nx, ny))
    del back
    r1_norm_sq = float(np.sum(r1 * r1))
    roundtrip -= r1
    rt_err = math.sqrt(float(np.sum(roundtrip * roundtrip)) / r1_norm_sq)
    del roundtrip

    phi1_h = 1.0 / aq_h
    phi_max = (float(np.max(phi1_h)),
               float(np.max((g.xi ** 2)[:, None] * phi1_h)),
               float(np.max(np.abs(g.eta[:ny // 2 + 1])[None, :] * phi1_h)))
    return R1Diagnostics(r1=Field(g, r1, sp.PHYSICAL),
                         linearized_residual=lin_res,
                         multiplier_roundtrip_error=rt_err,
                         phi_max=phi_max)


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


def orbital_fit(u: Field, q: Field, refine: bool = True) -> OrbitalFit:
    """Best X-norm match of u against the orbit e^{i theta} q(. + tau).

    The X cross-correlation over all grid shifts comes from one FFT of
    the weighted coefficient product; the peak is then polished off the
    lattice by Newton steps on |c(tau)|^2, whose gradient and Hessian
    are the correlation sum weighted by -i xi and -i eta, and the phase
    is the closed-form argument of the correlation.  The distance is
    the X norm of the residual u - e^{i theta} q(. + tau), summed over
    its spectrum, so an exact match reads zero to round-off.  Fields
    passed in the spectral representation cost no transform.
    """
    if u.grid != q.grid:
        raise ValueError("fields live on different grids")
    g = u.grid
    w = fl.x_weight(g)
    uh = sp.to_spectral(u).values
    qh = sp.to_spectral(q).values
    coef = w * uh * np.conj(qh) * g.cell_area
    corr = sp._fft2(coef, norm="backward")
    flat = int(np.argmax(np.abs(corr)))
    j1, j2 = np.unravel_index(flat, corr.shape)
    tau = np.array([((j1 + g.nx // 2) % g.nx - g.nx // 2) * g.dx,
                    ((j2 + g.ny // 2) % g.ny - g.ny // 2) * g.dy])
    if refine:
        tau = _refine_peak(coef, g, tau)
    c_best = _corr_derivatives(coef, g.xi, g.eta, tau)[0]
    theta = float(np.angle(c_best))
    # spectrum of e^{i theta} q(. + tau): qh times e^{i(theta + xi tau1 + eta tau2)}
    shift = np.exp(1j * (theta + g.xi * tau[0]))[:, None] * np.exp(1j * g.eta * tau[1])[None, :]
    res = uh - shift * qh
    dist_sq = float(np.sum(w * (res.real ** 2 + res.imag ** 2))) * g.cell_area
    return OrbitalFit(theta=theta, tau1=float(tau[0]), tau2=float(tau[1]),
                      distance=math.sqrt(dist_sq))


@dataclass(frozen=True)
class ProbePoint:
    lam: float
    v: float
    i_value: float


def travel_upper_bound_probe(grid: Grid, p: float, omega: float,
                             alpha: float = 3.0,
                             lams: tuple = (4.0, 8.0, 16.0, 32.0)) -> list[ProbePoint]:
    """Degeneration of the traveling minimization level as v -> 1.

    Test fields phi_lambda(x, y) = lambda * phi(x, lambda^alpha y) with
    spectral support in eta >= 0, evaluated at v = 1 - lambda^{-alpha}
    on box-rescaled grids (exact discrete scaling).  For alpha > 2 the
    values of I decay like lambda^{2-alpha}, witnessing inf I -> 0.
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
    for lam in lams:
        v = 1.0 - lam ** (-alpha)
        small = Grid(grid.nx, grid.ny, grid.lx, grid.ly / lam ** alpha)
        fld = Field(small, lam * phi_vals, sp.PHYSICAL)
        val = fl.i_value(fld, ModelParams(p=p, omega=omega, v=v))
        points.append(ProbePoint(lam=float(lam), v=v, i_value=val))
    return points
