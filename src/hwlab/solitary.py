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


def _lp1_power_vals(vals: np.ndarray, p: float, w: float) -> float:
    return float(np.sum(fl._density(vals) ** ((p + 1.0) / 2.0))) * w


def nehari_project(u: Field, params: ModelParams) -> Field:
    """Exact radial projection onto the Nehari manifold N(u) = 0.

    t* = (quadratic form / int |u|^{p+1})^{1/(p-1)}; t* u satisfies
    N(t* u) = 0 identically.
    """
    a = fl.quadratic_action_form(u, params)
    b = fl.lp1_power(u, params.p)
    if b < 1e-280 or not np.isfinite(b):
        raise CollapseError("nonlinear mass vanished; field collapsed to zero")
    t = (a / b) ** (1.0 / (params.p - 1.0))
    return Field(u.grid, t * sp.to_physical(u).values, sp.PHYSICAL)


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
    For v = 0 and a real initial guess the iteration runs in real
    arithmetic on half spectra; otherwise in complex arithmetic, with
    the v = 0 result rotated onto the real axis afterwards.
    """
    if init is None:
        init = default_initial_guess(grid, params, kind=init_kind, seed=seed)
    if init.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    if sp.l2_norm_sq(init) == 0.0:
        raise CollapseError("initial guess is identically zero")

    w = grid.cell_area
    p = params.p
    u0 = sp.to_physical(init).values
    if params.v == 0.0 and not np.any(u0.imag):
        # Real ground state: iterate in real arithmetic on half spectra.
        u0 = u0.real.copy()
        aq = sp.action_quadratic(params.omega).values(grid, half=True)
        aq_sum = aq * sp._half_weights(grid.ny)
        fwd = sp._rfft2

        def inv(hat):
            return sp._irfft2(hat, grid.shape)
    else:
        aq = aq_sum = sp.action_quadratic(params.omega, params.v).values(grid)
        fwd, inv = sp._fft2, sp._ifft2
    inv_aq = 1.0 / aq

    def project(vals):
        hat = fwd(vals)
        a = float(np.sum(aq_sum * (hat.real ** 2 + hat.imag ** 2))) * w
        b = _lp1_power_vals(vals, p, w)
        if b < 1e-280 or not np.isfinite(b):
            raise CollapseError("nonlinear mass vanished; field collapsed to zero")
        t = (a / b) ** (1.0 / (p - 1.0))
        return t * vals, t * t * a, t ** (p + 1.0) * b

    def action_of(a_form, b_pot):
        return 0.5 * a_form - b_pot / (p + 1.0)

    def inner(a, b) -> float:
        return float(np.vdot(a, b).real) * w

    def precondition(vals):
        return inv(inv_aq * fwd(vals))

    u, a_form, b_pot = project(u0)
    s_val = action_of(a_form, b_pot)
    history = [s_val]
    grad_norm = math.inf
    iterations = 0
    converged = False

    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    u_prev = None
    grad_prev = None

    for iterations in range(1, max_iter + 1):
        grad = inv(aq * fwd(u)) - fl._density(u) ** ((p - 1.0) / 2.0) * u
        grad_norm = math.sqrt(inner(grad, grad))
        u_norm = math.sqrt(inner(u, u))
        if grad_norm <= tol * u_norm:
            converged = True
            break
        if u_prev is not None:
            s_vec = u - u_prev
            y_vec = grad - grad_prev
            sy = inner(s_vec, y_vec)
            if sy > 1e-12 * math.sqrt(inner(s_vec, s_vec) * inner(y_vec, y_vec)):
                pairs.append((s_vec, y_vec, 1.0 / sy))
                if len(pairs) > memory:
                    pairs.pop(0)
        u_prev, grad_prev = u, grad

        # Two-loop recursion; the inverse quadratic symbol seeds the metric.
        q_vec = grad.copy()
        corr = []
        for s_vec, y_vec, rho in reversed(pairs):
            a_i = rho * inner(s_vec, q_vec)
            corr.append(a_i)
            q_vec -= a_i * y_vec
        direction = precondition(q_vec)
        for (s_vec, y_vec, rho), a_i in zip(pairs, reversed(corr)):
            b_i = rho * inner(y_vec, direction)
            direction += (a_i - b_i) * s_vec

        slope = inner(direction, grad)
        if slope <= 1e-14 * grad_norm * math.sqrt(inner(direction, direction)):
            pairs.clear()  # curvature memory turned uphill; restart
            direction = precondition(grad)
            slope = inner(direction, grad)
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            trial, a_t, b_t = project(u - alpha * direction)
            s_trial = action_of(a_t, b_t)
            if s_trial <= s_val - ARMIJO_C * alpha * slope:
                u, a_form, b_pot, s_val = trial, a_t, b_t, s_trial
                history.append(s_val)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            if pairs:
                pairs.clear()  # retry from the same iterate without memory
                u_prev = grad_prev = None
                continue
            break  # plain descent line search exhausted; residual reported below

    if params.v == 0.0:
        # Phase freedom: rotate to the real axis, keep the nonnegative sign.
        if np.iscomplexobj(u):
            phase = np.vdot(np.abs(u), u)
            if abs(phase) > 0.0:
                u = (u * (np.conj(phase) / abs(phase))).real.astype(np.complex128)
            u, a_form, b_pot = project(u)
            s_val = action_of(a_form, b_pot)
        if float(np.sum(u.real)) < 0.0:
            u = -u

    q = Field(grid, u, sp.PHYSICAL)
    g_final = fl.action_gradient(q, params)
    grad_norm = sp.l2_norm(g_final)
    sol = SolitarySolution(
        params=params,
        q=q,
        action_value=s_val,
        nehari_residual=abs(fl.nehari(q, params)),
        gradient_residual=grad_norm,
        iterations=iterations,
        tail_mass_fraction=sp.tail_mass_fraction(q),
        action_history=history,
    )
    if grad_norm > tol * sp.l2_norm(q):
        raise ConvergenceError(
            f"no convergence in {iterations} iterations; "
            f"gradient residual {grad_norm:.3e} vs target {tol * sp.l2_norm(q):.3e}",
            solution=sol)
    return sol


def extend_ground_state(sol: SolitarySolution, grid: Grid,
                        tol: float = 5e-7, max_iter: int = 200) -> SolitarySolution:
    """Continue a real ground state onto a taller box (same dx, dy).

    Tail-sensitive diagnostics (the scaling identities, the linearized
    profile R1) converge slowly in the box height because the profile
    only decays algebraically in y; the boxes they need do not fit in
    memory with the complex solver.  This routine zero-pads a converged
    v = 0 solution in y and polishes it with the same projected descent
    as solve_nehari, but in real arithmetic on half spectra, which
    halves the footprint.  Near the action floor, where the Armijo test
    drowns in rounding noise, a full step is accepted whenever it still
    reduces the gradient norm.

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

    p = params.p
    nx, ny = grid.nx, grid.ny
    w = grid.cell_area
    offset = (grid.ny - g0.ny) // 2
    u = np.zeros((nx, ny), dtype=np.float64)
    u[:, offset:offset + g0.ny] = sp.to_physical(sol.q).values.real

    aq_h = sp.action_quadratic(params.omega).values(grid, half=True)
    mult = sp._half_weights(ny)

    def project(vals):
        hat = sp._rfft2(vals)
        a = w * float(np.einsum("ij,ij,j->", aq_h, hat.real ** 2 + hat.imag ** 2, mult))
        b = w * float(np.sum(np.abs(vals) ** (p + 1.0)))
        if b < 1e-280 or not np.isfinite(b):
            raise CollapseError("nonlinear mass vanished; field collapsed to zero")
        t = (a / b) ** (1.0 / (p - 1.0))
        vals = t * vals
        return vals, t * t * a, t ** (p + 1.0) * b

    def gradient(vals):
        hat = sp._rfft2(vals)
        hat *= aq_h
        out = sp._irfft2(hat, (nx, ny))
        out -= np.abs(vals) ** (p - 1.0) * vals
        return out

    u, a_form, b_pot = project(u)
    s_val = 0.5 * a_form - b_pot / (p + 1.0)
    history = [s_val]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        grad = gradient(u)
        grad_norm = math.sqrt(w * float(np.sum(grad * grad)))
        u_norm = math.sqrt(w * float(np.sum(u * u)))
        if grad_norm <= tol * u_norm:
            break
        ghat = sp._rfft2(grad)
        ghat /= aq_h
        direction = sp._irfft2(ghat, (nx, ny))
        del ghat
        slope = w * float(np.sum(direction * grad))
        del grad
        floor = ARMIJO_C * slope <= 1e3 * np.finfo(float).eps * abs(s_val)
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            trial, a_t, b_t = project(u - alpha * direction)
            s_t = 0.5 * a_t - b_t / (p + 1.0)
            if s_t <= s_val - ARMIJO_C * alpha * slope:
                accepted = True
            elif floor and alpha == 1.0:
                g_t = gradient(trial)
                gn_t = math.sqrt(w * float(np.sum(g_t * g_t)))
                del g_t
                accepted = gn_t <= grad_norm * (1.0 - 1e-3)
            if accepted:
                u, a_form, b_pot, s_val = trial, a_t, b_t, s_t
                history.append(s_val)
                break
            del trial
            alpha *= 0.5
        del direction
        if not accepted:
            break

    # Final diagnostics stay in real arithmetic; the complex helpers
    # would double the footprint on grids this large.
    grad = gradient(u)
    grad_norm = math.sqrt(w * float(np.sum(grad * grad)))
    del grad
    u_norm = math.sqrt(w * float(np.sum(u * u)))
    dens = u * u
    total = float(np.sum(dens))
    edge_x = np.abs(grid.x) > 0.9 * (grid.lx / 2.0)
    edge_y = np.abs(grid.y) > 0.9 * (grid.ly / 2.0)
    tail = (float(np.sum(dens[edge_x, :])) + float(np.sum(dens[:, edge_y]))
            - float(np.sum(dens[np.ix_(edge_x, edge_y)])))
    del dens
    q = Field(grid, u.astype(np.complex128), sp.PHYSICAL)
    del u
    out = SolitarySolution(
        params=params,
        q=q,
        action_value=s_val,
        nehari_residual=abs(a_form - b_pot),
        gradient_residual=grad_norm,
        iterations=iterations,
        tail_mass_fraction=tail / total,
        action_history=history,
    )
    if grad_norm > tol * u_norm:
        raise ConvergenceError(
            f"no convergence in {iterations} iterations; "
            f"gradient residual {grad_norm:.3e} vs target {tol * u_norm:.3e}",
            solution=out)
    return out


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
        m = 0.5 * float(np.vdot(vals, vals).real) * w
        if m <= 0.0 or not np.isfinite(m):
            raise CollapseError("mass vanished during the flow")
        return vals * math.sqrt(mu / m)

    def energy_of(vals):
        hat = sp._fft2(vals)
        quad = float(np.sum(lin * (hat.real ** 2 + hat.imag ** 2))) * w
        return 0.5 * quad - _lp1_power_vals(vals, p, w) / (p + 1.0)

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
        norm_sq = float(np.vdot(u, u).real)
        quad = float(np.sum(lin * (hat_u.real ** 2 + hat_u.imag ** 2)))
        lam = (float(np.vdot(u, nl).real) - quad) / norm_sq
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
        step_norm = math.sqrt(float(np.vdot(trial - u, trial - u).real) * w)
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
            radial = float(np.vdot(u, g).real) / float(np.vdot(u, u).real)
            resid = g - radial * u
            rnorm = math.sqrt(float(np.vdot(resid, resid).real) * w)
            if rnorm <= tol * math.sqrt(2.0 * mu):
                converged = True
                break

    minimizer = Field(grid, u, sp.PHYSICAL)
    g = gradient(u)
    omega_mult = float(np.vdot(u, g).real) * w / (-2.0 * mu)
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


def _eval_matrix(n: int, length: float, origin: float, targets: np.ndarray) -> np.ndarray:
    """Unitary trigonometric evaluation matrix at arbitrary points.

    Row i reconstructs the interpolant at targets[i] from unitary FFT
    coefficients; the Nyquist column is symmetrized to its cosine part
    so real fields stay real.  O(n^2); the chirp transform below does
    the same job in O(n log n) for equally spaced targets.
    """
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    phase = np.exp(1j * np.outer(targets - origin, freqs))
    phase[:, n // 2] = np.cos(freqs[n // 2] * (targets - origin))
    return phase / math.sqrt(n)


def _czt_eval_axis(coef: np.ndarray, axis: int, n: int, length: float,
                   origin: float, start: float, step: float) -> np.ndarray:
    """Trig interpolant on an arithmetic progression of points, one axis.

    `coef` holds unitary FFT coefficients along `axis`; returns samples
    at origin-relative points start + j*step, j = 0..n-1, via the chirp
    z-transform, matching _eval_matrix (cosine Nyquist) to rounding.
    """
    phi0 = (2.0 * np.pi / length) * (start - origin)
    delta = (2.0 * np.pi / length) * step
    theta = phi0 + delta * np.arange(n)
    r = np.arange(n)
    shape = [1] * coef.ndim
    shape[axis] = n
    pre = np.exp(1j * phi0 * r).reshape(shape)
    shifted = np.fft.fftshift(coef, axes=axis)
    inner = signal.czt(shifted * pre, m=n, w=np.exp(1j * delta), a=1.0 + 0.0j,
                       axis=axis)
    half = 0.5 * n * theta
    out = np.exp(-1j * half).reshape(shape) * inner
    # Nyquist row was summed as exp(-i n/2 theta); restore its cosine part.
    nyq_index = tuple(slice(None) if ax != axis else 0
                      for ax in range(coef.ndim))
    nyq = shifted[nyq_index]
    out += (1j * np.sin(half)).reshape(shape) * np.expand_dims(nyq, axis)
    return out / math.sqrt(n)


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
    hat = sp._fft2(phys.values)
    part = _czt_eval_axis(hat, 0, g.nx, g.lx, g.x[0],
                          cx + rx * (g.x[0] - cx), rx * g.dx)
    vals = _czt_eval_axis(part, 1, g.ny, g.ly, g.y[0],
                          cy + lam * (g.y[0] - cy), lam * g.dy)
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
    if not np.any(phys.values.imag):
        return _r1_diagnostics_real(phys, p, tail_tol)
    _check_tail(phys, tail_tol, "r1_diagnostics")
    cx, cy = mass_centroid(phys)
    X = (g.x - cx)[:, None]
    Y = (g.y - cy)[None, :]
    qx = sp.dx_field(phys).values
    qy = sp.dy_field(phys).values
    r1 = phys.values / (p - 1.0) + 0.5 * X * qx + Y * qy

    lin_symbol = sp.action_quadratic(1.0, 0.0).values(g)
    lin_applied = sp._ifft2(lin_symbol * sp._fft2(r1))
    defect = lin_applied - p * fl._density(phys.values) ** ((p - 1.0) / 2.0) * r1 + phys.values
    q_norm = sp.l2_norm(phys)
    lin_res = math.sqrt(float(np.vdot(defect, defect).real) * g.cell_area) / q_norm

    phi1 = 1.0 / lin_symbol
    roundtrip = sp._ifft2(phi1 * sp._fft2(lin_applied))
    r1_norm = math.sqrt(float(np.vdot(r1, r1).real) * g.cell_area)
    rt_err = math.sqrt(float(np.vdot(roundtrip - r1, roundtrip - r1).real)
                       * g.cell_area) / r1_norm

    xi2 = g.xi[:, None] ** 2
    abs_eta = np.abs(g.eta)[None, :]
    phi_max = (float(np.max(np.abs(phi1))),
               float(np.max(xi2 * phi1)),
               float(np.max(abs_eta * phi1)))
    return R1Diagnostics(r1=Field(g, r1, sp.PHYSICAL),
                         linearized_residual=lin_res,
                         multiplier_roundtrip_error=rt_err,
                         phi_max=phi_max)


def _r1_diagnostics_real(phys: Field, p: float, tail_tol: float) -> R1Diagnostics:
    # Real-arithmetic twin of the pipeline above on half spectra; the
    # box-extension grids only fit in memory this way.
    g = phys.grid
    nx, ny = g.nx, g.ny
    re = phys.values.real
    w = g.cell_area

    dens = re * re
    total = float(np.sum(dens))
    edge_x = np.abs(g.x) > 0.9 * (g.lx / 2.0)
    edge_y = np.abs(g.y) > 0.9 * (g.ly / 2.0)
    frac = (float(np.sum(dens[edge_x, :])) + float(np.sum(dens[:, edge_y]))
            - float(np.sum(dens[np.ix_(edge_x, edge_y)]))) / total
    if frac > tail_tol:
        raise TailMassError(
            f"r1_diagnostics: outer-annulus mass fraction {frac:.3e} exceeds "
            f"{tail_tol:.3e}; enlarge the box or relax tail_tol")
    cx = float(np.einsum("ij,i->", dens, g.x)) / total
    cy = float(np.einsum("ij,j->", dens, g.y)) / total
    del dens
    X = (g.x - cx)[:, None]
    Y = (g.y - cy)[None, :]

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
    is the closed-form argument of the correlation.
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
    x_sq = [float(np.sum(w * (h.real ** 2 + h.imag ** 2))) * g.cell_area for h in (uh, qh)]
    dist_sq = x_sq[0] + x_sq[1] - 2.0 * abs(c_best)
    return OrbitalFit(theta=theta, tau1=float(tau[0]), tau2=float(tau[1]),
                      distance=math.sqrt(max(dist_sq, 0.0)))


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
