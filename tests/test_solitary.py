"""Ground-state solvers, scaling operators, and profile diagnostics."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hwlab import functionals as fl
from hwlab import spectral as sp
from hwlab import solitary as sol
from hwlab.functionals import ModelParams


@pytest.fixture(scope="module")
def p2_state():
    grid = sp.make_grid(64, 64, 40.0, 40.0)
    return sol.solve_nehari(grid, ModelParams(p=2.0), tol=1e-7)


@pytest.fixture(scope="module")
def p3_state():
    # dy fine enough that resampled scaling curves are alias-free
    grid = sp.make_grid(128, 2048, 20.0, 40.0)
    return sol.solve_nehari(grid, ModelParams(p=3.0), tol=1e-7)


def test_initial_guess_kinds():
    g = sp.make_grid(32, 32, 20.0, 20.0)
    par = ModelParams(p=2.0)
    for kind in ("gaussian", "gaussian-wide", "noise"):
        u = sol.default_initial_guess(g, par, kind=kind)
        assert sp.l2_norm(u) > 0
    with pytest.raises(ValueError):
        sol.default_initial_guess(g, par, kind="plane-wave")
    # traveling init carries the transport-sign modulation
    trav = sol.default_initial_guess(g, ModelParams(p=2.0, v=0.5))
    assert np.max(np.abs(trav.values.imag)) > 0


def test_nehari_projection_exactness():
    g = sp.make_grid(32, 32, 20.0, 20.0)
    par = ModelParams(p=2.5, omega=1.2, v=0.3)
    u = sol.default_initial_guess(g, par, kind="noise", seed=3)
    proj = sol.nehari_project(u, par)
    assert abs(fl.nehari(proj, par)) <= 1e-12 * fl.quadratic_action_form(proj, par)
    with pytest.raises(sol.CollapseError):
        sol.nehari_project(sp.physical_field(g, np.zeros(g.shape)), par)


def test_solver_contracts(p2_state):
    s = p2_state
    par = s.params
    assert s.nehari_residual <= 1e-8 * fl.quadratic_action_form(s.q, par)
    assert s.gradient_residual <= 1e-7 * sp.l2_norm(s.q)
    hist = np.array(s.action_history)
    assert np.all(np.diff(hist) <= 1e-12 * np.abs(hist[:-1]))
    # v = 0 minimizer is phase-fixed to a real profile, nonnegative up
    # to excursions at the convergence-residual level
    assert np.max(np.abs(s.q.values.imag)) <= 1e-10
    assert s.q.values.real.min() >= -1e-5 * s.q.values.real.max()


def test_solver_symmetry(p2_state):
    q = p2_state.q.values.real
    assert np.max(np.abs(q - np.conj(q[(-np.arange(64)) % 64, :]))) <= 1e-6
    assert np.max(np.abs(q - q[:, (-np.arange(64)) % 64])) <= 1e-6


def test_solver_restart_agreement(p2_state):
    g = p2_state.q.grid
    alt = sol.solve_nehari(g, p2_state.params, init_kind="gaussian-wide", tol=1e-7)
    rel = abs(alt.action_value - p2_state.action_value) / p2_state.action_value
    assert rel <= 1e-6


def test_solver_real_complex_parity(p2_state):
    # a real guess runs the real half-spectrum path, a complex one the full path
    g = p2_state.q.grid
    assert not np.any(p2_state.q.values.imag)
    init = sol.default_initial_guess(g, p2_state.params)
    bumped = sp.physical_field(g, init.values + 1e-300j)
    alt = sol.solve_nehari(g, p2_state.params, init=bumped, tol=1e-7)
    assert alt.iterations == p2_state.iterations
    assert alt.action_value == pytest.approx(p2_state.action_value, rel=1e-12)
    assert np.max(np.abs(alt.q.values - p2_state.q.values)) \
        <= 1e-9 * np.max(np.abs(p2_state.q.values))


@pytest.mark.parametrize("shape, box, v", [((64, 64), (40.0, 40.0), 0.0),
                                           ((32, 64), (20.0, 40.0), 0.5)])
def test_solver_two_transforms_per_iteration(transform_count, shape, box, v):
    # |u|^{p-1} u forward and the direction back; the spectrum of u is
    # transformed once at the start and then carried along, and the
    # converged iterate needs no direction.  Line-search trials and their
    # backtracks cost no transform.
    g = sp.make_grid(*shape, *box)
    par = ModelParams(p=2.0, v=v)
    s = sol.solve_nehari(g, par, tol=1e-7)
    assert sum(r.backtracks for r in s.history) > 0
    assert len(s.history) == s.iterations
    assert sum(transform_count.values()) == 2 * s.iterations
    assert set(transform_count) == ({"rfft2", "irfft2"} if v == 0.0 else {"fft2", "ifft2"})
    transform_count.clear()
    with pytest.raises(sol.ConvergenceError):
        sol.solve_nehari(g, par, tol=1e-12, max_iter=6)
    # a spent budget adds the gradient of the last iterate
    assert sum(transform_count.values()) == 1 + 2 * 6 + 1


def _random_field(grid, rng, real):
    vals = rng.standard_normal(grid.shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    return vals * np.exp(-(grid.x[:, None] / grid.lx) ** 2 - (grid.y[None, :] / grid.ly) ** 2)


grids = st.builds(sp.make_grid, st.integers(4, 24).map(lambda k: 2 * k),
                  st.integers(4, 24).map(lambda k: 2 * k),
                  st.floats(5.0, 40.0), st.floats(5.0, 40.0))


@given(grid=grids, p=st.floats(1.1, 4.9), omega=st.floats(0.1, 3.0),
       v=st.sampled_from([0.0, -0.9, 0.3, 0.99]), alpha=st.floats(-2.0, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_line_search_forms_match_transforms(grid, p, omega, v, alpha, seed):
    # a(u - alpha d) = a(u) - 2 alpha <Au, d> + alpha^2 a(d), and the
    # summed power change, against fresh transforms of u - alpha d
    rng = np.random.default_rng(seed)
    real = v == 0.0
    par = ModelParams(p=p, omega=omega, v=v)
    u, d = _random_field(grid, rng, real), _random_field(grid, rng, real)
    aq = sp.action_quadratic(omega, v).values(grid, half=real)
    spec = sol._Spectra(grid.shape, grid.cell_area, aq, real)
    hat, dhat = spec.fwd(u), spec.fwd(d)
    a_u, au_d, a_d = (spec.dot(hat, aq * hat), spec.dot(hat, aq * dhat),
                      spec.dot(dhat, aq * dhat))
    trial = sp.physical_field(grid, u - alpha * d)
    assert a_u == pytest.approx(fl.quadratic_action_form(sp.physical_field(grid, u), par),
                                rel=1e-12)
    assert a_u - 2.0 * alpha * au_d + alpha ** 2 * a_d == pytest.approx(
        fl.quadratic_action_form(trial, par), rel=1e-12)
    b_u = fl.lp1_power(sp.physical_field(grid, u), p)
    d_b = sol._lp1_change(u, d, alpha, p) * grid.cell_area
    assert b_u + d_b == pytest.approx(fl.lp1_power(trial, p), rel=1e-12)


@given(grid=grids, real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_spectral_inner_product_matches_physical(grid, real, seed):
    # Parseval on half spectra needs the (1, 2, ..., 2, 1) column weights
    rng = np.random.default_rng(seed)
    f, g = _random_field(grid, rng, real), _random_field(grid, rng, real)
    aq = sp.action_quadratic(1.0).values(grid, half=real)
    spec = sol._Spectra(grid.shape, grid.cell_area, aq, real)
    physical = float(np.vdot(f, g).real) * grid.cell_area
    scale = math.sqrt(float(np.vdot(f, f).real) * float(np.vdot(g, g).real)) * grid.cell_area
    assert abs(spec.dot(spec.fwd(f), spec.fwd(g)) - physical) <= 1e-12 * scale
    assert spec.dot(spec.fwd(f), spec.fwd(f)) == pytest.approx(
        float(np.vdot(f, f).real) * grid.cell_area, rel=1e-12)


def _plain_two_loop(spec, ghat, pairs):
    """Textbook two-loop recursion with full-array products (the oracle)."""
    q = ghat.copy()
    coef = []
    for s, y, rho in reversed(pairs):
        coef.append(rho * spec.dot(s, q))
        q -= coef[-1] * y
    d = q / spec.aq
    for (s, y, rho), a in zip(pairs, reversed(coef)):
        d += (a - rho * spec.dot(y, d)) * s
    return d


@given(grid=grids, real=st.booleans(), k=st.integers(0, 8), block_rows=st.integers(1, 50),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=True, k=8, block_rows=3, seed=1)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=False, k=8, block_rows=1, seed=2)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=True, k=3, block_rows=10, seed=3)
def test_fused_two_loop_matches_plain(grid, real, k, block_rows, seed):
    # blocks of 1 row up to the whole array, with a short last block when
    # the block does not divide the rows, on half and full spectra
    rng = np.random.default_rng(seed)
    aq = sp.action_quadratic(1.3, 0.0 if real else 0.4).values(grid, half=real)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sol, "_FUSE_ELEMS", block_rows * aq.shape[1])
        spec = sol._Spectra(grid.shape, grid.cell_area, aq, real)
    assert len(spec.rows) == -(-grid.nx // min(block_rows, grid.nx))
    hat, ghat = (spec.fwd(_random_field(grid, rng, real)) for _ in range(2))
    pairs = []
    for _ in range(k):
        s = spec.fwd(_random_field(grid, rng, real))
        y = aq * s + 0.1 * spec.fwd(_random_field(grid, rng, real))
        pairs.append((s, y, 1.0 / spec.dot(s, y)))
    want = _plain_two_loop(spec, ghat, pairs)
    dhat, slope, d_sq, au_d, a_d = spec.direction(ghat, hat, pairs)
    assert np.linalg.norm(dhat - want) <= 1e-12 * np.linalg.norm(want)
    assert slope == pytest.approx(spec.dot(want, ghat), rel=1e-12)
    assert d_sq == pytest.approx(spec.dot(want, want), rel=1e-12)
    a_form = spec.dot(hat, aq * hat)
    assert abs(au_d - spec.dot(hat, aq * want)) <= 1e-12 * math.sqrt(a_form * a_d)
    assert a_d == pytest.approx(spec.dot(want, aq * want), rel=1e-12)


@given(grid=grids, real=st.booleans(), p=st.floats(1.1, 4.9), t=st.floats(0.5, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fused_gradient_and_step_match_transforms(grid, real, p, t, seed):
    # the gradient at u and at the trial t (u - d), whose spectrum is formed
    # block by block, against fresh transforms; the step's spectrum too
    rng = np.random.default_rng(seed)
    par = ModelParams(p=p, v=0.0 if real else 0.3)
    aq = sp.action_quadratic(par.omega, par.v).values(grid, half=real)
    spec = sol._Spectra(grid.shape, grid.cell_area, aq, real)
    u, d = _random_field(grid, rng, real), _random_field(grid, rng, real)
    hat, dhat = spec.fwd(u), spec.fwd(d)
    for v, args in ((u, ()), (t * (u - d), (d, dhat, t))):
        field = sp.physical_field(grid, v)
        grad = fl.action_gradient(field, par).values
        ghat, b_pot, n_v, g_sq, v_sq = spec.gradient(u, hat, p, *args)
        want = spec.fwd(grad.real if real else grad)
        assert np.linalg.norm(ghat - want) <= 1e-12 * np.linalg.norm(want)
        assert b_pot == pytest.approx(fl.lp1_power(field, p), rel=1e-12)
        assert abs(n_v - fl.nehari(field, par)) <= 1e-12 * fl.quadratic_action_form(field, par)
        assert g_sq == pytest.approx(sp.l2_norm_sq(sp.physical_field(grid, grad)), rel=1e-12)
        assert v_sq == pytest.approx(sp.l2_norm_sq(field), rel=1e-12)
    step = spec.step(hat, dhat.copy(), 0.3, t)
    assert np.linalg.norm(step - spec.fwd(t * (u - 0.3 * d))) <= 1e-12 * np.linalg.norm(step)


@pytest.mark.parametrize("case", ["real", "complex", "extend"])
def test_reported_residuals_match_recomputed(p2_state, case):
    # the descent reports residuals from the spectrum it carries along;
    # fresh transforms of the returned q must agree
    if case == "real":
        s = p2_state
    elif case == "complex":
        s = sol.solve_nehari(sp.make_grid(32, 64, 20.0, 40.0), ModelParams(p=2.0, v=0.5),
                             tol=1e-7)
    else:
        base = sol.solve_nehari(sp.make_grid(64, 128, 20.0, 20.0), ModelParams(p=2.0), tol=1e-7)
        s = sol.extend_ground_state(base, sp.make_grid(64, 256, 20.0, 40.0), tol=5e-7)
    assert np.any(s.q.values.imag) == (case == "complex")
    bound = 1e-12 * sp.l2_norm(s.q)
    assert abs(s.gradient_residual - sp.l2_norm(fl.action_gradient(s.q, s.params))) <= bound
    assert abs(s.nehari_residual - abs(fl.nehari(s.q, s.params))) <= bound


def test_solver_converges_with_one_blas_thread():
    # The returned iterate must be the one that passed the convergence
    # test; a post-hoc phase rotation used to push this case over tol.
    code = ("from hwlab import spectral as sp, solitary as sol\n"
            "from hwlab.functionals import ModelParams\n"
            "g = sp.make_grid(256, 1024, 40.0, 160.0)\n"
            "s = sol.solve_nehari(g, ModelParams(p=2.0), tol=1e-8)\n"
            "print(s.gradient_residual / sp.l2_norm(s.q))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sol.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) <= 1e-8


def test_solver_zero_init_rejected(p2_state):
    g = p2_state.q.grid
    zero = sp.physical_field(g, np.zeros(g.shape))
    with pytest.raises(sol.CollapseError):
        sol.solve_nehari(g, p2_state.params, init=zero)


def test_solver_iteration_budget_error(p2_state):
    g = p2_state.q.grid
    with pytest.raises(sol.ConvergenceError) as err:
        sol.solve_nehari(g, p2_state.params, tol=1e-12, max_iter=3)
    assert err.value.solution.iterations == 3


def test_rescale_omega_exact_identities(p2_state):
    q2 = sol.rescale_omega(p2_state.q, 2.0, p=2.0)
    par2 = ModelParams(p=2.0, omega=2.0)
    # discrete box rescaling makes the scaling laws exact
    s_p = ModelParams(p=2.0).s_p
    ratio = fl.mass(q2) / fl.mass(p2_state.q)
    assert ratio == pytest.approx(2.0 ** (-s_p), rel=1e-12)
    grad = fl.action_gradient(q2, par2)
    assert sp.l2_norm(grad) <= 1e-4 * sp.l2_norm(q2)
    with pytest.raises(ValueError):
        sol.rescale_omega(p2_state.q, -1.0, p=2.0)


def test_mass_centroid_tracks_shift():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    vals = np.exp(-((g.x[:, None] - 1.5) ** 2 + (g.y[None, :] + 2.0) ** 2))
    cx, cy = sol.mass_centroid(sp.physical_field(g, vals))
    assert cx == pytest.approx(1.5, abs=1e-9)
    assert cy == pytest.approx(-2.0, abs=1e-9)


def _eval_matrix(n, length, origin, targets):
    """Unitary trigonometric evaluation matrix at arbitrary points, O(n^2).

    Row i reconstructs the interpolant at targets[i] from unitary FFT
    coefficients; the Nyquist column is symmetrized to its cosine part
    so real fields stay real.
    """
    freqs = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    phase = np.exp(1j * np.outer(targets - origin, freqs))
    phase[:, n // 2] = np.cos(freqs[n // 2] * (targets - origin))
    return phase / math.sqrt(n)


def test_t_lambda_matches_dense_resampling():
    # white-box oracle: dense trigonometric evaluation matrices
    g = sp.make_grid(32, 48, 12.0, 18.0)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    env = np.exp(-(g.x[:, None] ** 2) - (g.y[None, :] ** 2) / 4.0)
    u = sp.physical_field(g, vals * env)
    lam, cx, cy = 1.3, 0.4, -0.7
    hat = np.fft.fft2(u.values, norm="ortho")
    sx = cx + math.sqrt(lam) * (g.x - cx)
    sy = cy + lam * (g.y - cy)
    ex = _eval_matrix(g.nx, g.lx, g.x[0], sx)
    ey = _eval_matrix(g.ny, g.ly, g.y[0], sy)
    dense = lam ** 0.75 * (ex @ hat @ ey.T)
    # sources that wrap into the bulk are zeroed, not read periodically
    dense[sol._wrap_corrupt(g.x, cx, math.sqrt(lam), g.lx), :] = 0.0
    dense[:, sol._wrap_corrupt(g.y, cy, lam, g.ly)] = 0.0
    fast = sol.t_lambda(u, lam, center=(cx, cy), tail_tol=np.inf)
    assert np.max(np.abs(fast.values - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("axis", [0, 1])
def test_chirp_z_blocks_bit_identical(monkeypatch, axis):
    # each 1-D line is transformed on its own, so blocking changes no bit
    rng = np.random.default_rng(4)
    coef = rng.standard_normal((48, 80)) + 1j * rng.standard_normal((48, 80))
    n = coef.shape[axis]
    args = (coef, axis, n, 12.0, -6.0, -4.5, 0.8 * 12.0 / n)
    monkeypatch.setattr(sol, "_BLOCK_ELEMS", 4 * n)  # blocks of 4 lines
    assert len(sol._slices(coef.shape[1 - axis], n, sol._BLOCK_ELEMS)) > 1
    blocked = sol._czt_eval_axis(*args)
    monkeypatch.setattr(sol, "_BLOCK_ELEMS", coef.size)  # one signal.czt pass
    assert len(sol._slices(coef.shape[1 - axis], n, sol._BLOCK_ELEMS)) == 1
    whole = sol._czt_eval_axis(*args)
    assert np.array_equal(blocked, whole)


def test_t_lambda_isometry_and_potential_scaling():
    g = sp.make_grid(128, 128, 30.0, 30.0)
    gauss = sp.physical_field(
        g, np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 2.0))
    m0 = fl.mass(gauss)
    for lam in (0.8, 1.25):
        scaled = sol.t_lambda(gauss, lam)
        assert fl.mass(scaled) == pytest.approx(m0, rel=1e-10)
        for p in (2.0, 3.0):
            expect = lam ** (3.0 * (p - 1.0) / 4.0) * fl.lp1_power(gauss, p)
            assert fl.lp1_power(scaled, p) == pytest.approx(expect, rel=1e-8)
    assert sol.t_lambda(gauss, 1.0).values is not gauss.values
    with pytest.raises(ValueError):
        sol.t_lambda(gauss, 0.0)


def test_t_lambda_tail_guard():
    g = sp.make_grid(32, 32, 10.0, 10.0)
    wide = sp.physical_field(
        g, np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 40.0))
    with pytest.raises(sol.TailMassError):
        sol.t_lambda(wide, 1.5)
    sol.t_lambda(wide, 0.7)  # compression needs no source outside the box


def test_psi_omega_is_scaling_derivative(p3_state):
    q = p3_state.q
    psi = sol.psi_omega(q, tail_tol=1e-3)
    eps = 1e-3
    c = sol.mass_centroid(q)
    fd = (sol.t_lambda(q, 1.0 + eps, center=c, tail_tol=1e-3).values
          - sol.t_lambda(q, 1.0 - eps, center=c, tail_tol=1e-3).values) / (2 * eps)
    denom = np.max(np.abs(psi.values))
    assert np.max(np.abs(psi.values - fd)) <= 1e-4 * denom
    # L2 orthogonality from the isometry, up to box truncation
    ortho = abs(sp.l2_inner(q, psi).real) / sp.l2_norm_sq(q)
    assert ortho <= 1e-3


def test_scaling_pairing_sign_flip(p3_state):
    par = ModelParams(p=3.0)
    below = sol.scaling_pairing(sol.t_lambda(p3_state.q, 0.95, tail_tol=1e-3),
                                par, tail_tol=1e-3)
    above = sol.scaling_pairing(sol.t_lambda(p3_state.q, 1.05, tail_tol=1e-3),
                                par, tail_tol=1e-3)
    at_q = sol.scaling_pairing(p3_state.q, par, tail_tol=1e-3)
    assert below > 0 > above
    assert abs(at_q) <= 0.05 * abs(above)
    with pytest.raises(ValueError):
        sol.scaling_pairing(p3_state.q, ModelParams(p=3.0, v=0.5))


def test_second_variation_scaling(p3_state):
    sv = sol.second_variation_scaling(p3_state.q, ModelParams(p=3.0),
                                      tail_tol=1e-3)
    p = 3.0
    expect = -3.0 * (p - 1.0) * (3.0 * p - 7.0) / (16.0 * (p + 1.0)) \
        * fl.lp1_power(p3_state.q, p)
    assert sv.analytic == pytest.approx(expect, rel=1e-12)
    assert sv.analytic < 0  # supercritical: scaling direction lowers S
    assert sv.relative_error <= 1e-2
    with pytest.raises(ValueError):
        sol.second_variation_scaling(p3_state.q, ModelParams(p=3.0, v=0.5))


def test_action_scaling_curve_shape(p3_state):
    # interior maximum at lambda = 1 for p > 7/3
    par = ModelParams(p=3.0)
    lams = np.geomspace(0.5, 2.0, 21)
    vals = [fl.action(sol.t_lambda(p3_state.q, float(lam), tail_tol=np.inf), par)
            for lam in lams]
    assert int(np.argmax(vals)) == 10
    assert vals[10] == pytest.approx(p3_state.action_value, rel=1e-10)
    assert vals[0] < vals[10] and vals[-1] < vals[10]


def test_r1_diagnostics_real_complex_parity(p3_state):
    real_diag = sol.r1_diagnostics(p3_state.q, p=3.0, tail_tol=1e-3)
    bumped = sp.physical_field(p3_state.q.grid,
                               p3_state.q.values + 1e-300j)
    complex_diag = sol.r1_diagnostics(bumped, p=3.0, tail_tol=1e-3)
    assert real_diag.linearized_residual == pytest.approx(
        complex_diag.linearized_residual, rel=1e-9)
    assert real_diag.multiplier_roundtrip_error <= 1e-12
    assert complex_diag.multiplier_roundtrip_error <= 1e-12
    assert np.max(np.abs(real_diag.r1.values - complex_diag.r1.values)) \
        <= 1e-9 * np.max(np.abs(real_diag.r1.values))
    for a, b in zip(real_diag.phi_max, complex_diag.phi_max):
        assert a == pytest.approx(b, rel=1e-9)
        assert a <= 1.0 + 1e-12  # multipliers bounded by max(1, 1/omega)


def test_extend_ground_state_widens_box(p2_state, transform_count):
    g0 = sp.make_grid(64, 128, 20.0, 20.0)
    base = sol.solve_nehari(g0, ModelParams(p=2.0), tol=1e-7)
    g1 = sp.make_grid(64, 512, 20.0, 80.0)
    transform_count.clear()
    ext = sol.extend_ground_state(base, g1, tol=5e-7)
    # the descent core of solve_nehari: two real transforms per iteration
    assert sum(transform_count.values()) == 2 * ext.iterations
    assert set(transform_count) == {"rfft2", "irfft2"}
    assert ext.q.grid == g1
    assert ext.gradient_residual <= 5e-7 * sp.l2_norm(ext.q)
    assert ext.tail_mass_fraction < base.tail_mass_fraction
    # oracle: a fresh solve on the wide box reaches the same minimizer
    direct = sol.solve_nehari(g1, ModelParams(p=2.0), tol=1e-7)
    assert ext.action_value == pytest.approx(direct.action_value, rel=1e-6)
    assert sol.orbital_fit(ext.q, direct.q).distance <= 1e-4 * fl.x_norm(direct.q)


def test_extend_ground_state_validation(p2_state):
    g0 = sp.make_grid(64, 128, 20.0, 20.0)
    base = sol.solve_nehari(g0, ModelParams(p=2.0), tol=1e-7)
    with pytest.raises(ValueError):
        sol.extend_ground_state(base, sp.make_grid(64, 512, 20.0, 79.0))
    with pytest.raises(ValueError):
        sol.extend_ground_state(base, sp.make_grid(128, 512, 20.0, 80.0))
    with pytest.raises(ValueError):
        sol.extend_ground_state(base, sp.make_grid(64, 64, 20.0, 10.0))


def test_orbital_fit_recovers_gauge(p2_state):
    q = p2_state.q
    g = q.grid
    shifted = np.roll(q.values, (5, -3), axis=(0, 1))
    u = sp.physical_field(g, np.exp(1j * np.pi / 3.0) * shifted)
    fit = sol.orbital_fit(u, q)
    assert fit.distance <= 1e-10 * fl.x_norm(q)
    assert fit.theta == pytest.approx(np.pi / 3.0, abs=1e-8)
    assert fit.tau1 == pytest.approx(-5 * g.dx, abs=1e-8)
    assert fit.tau2 == pytest.approx(3 * g.dy, abs=1e-8)
    # the distance is the norm of the residual, so a self-fit reads round-off
    trivial = sol.orbital_fit(q, q)
    assert trivial.distance <= 1e-12 * fl.x_norm(q)
    assert abs(trivial.theta) <= 1e-10


@given(shift=st.tuples(st.integers(-32, 31), st.integers(-32, 31)),
       theta=st.floats(-np.pi, np.pi), seed=st.integers(0, 2 ** 32 - 1))
def test_orbital_fit_exact_orbit_members(p2_state, shift, theta, seed):
    # lattice-shifted, rotated copies of q, perturbed in their last bits
    q = p2_state.q
    g = q.grid
    noise = 2.0 ** -52 * np.random.default_rng(seed).standard_normal(g.shape)
    vals = np.exp(1j * theta) * np.roll(q.values, shift, axis=(0, 1)) * (1.0 + noise)
    fit = sol.orbital_fit(sp.physical_field(g, vals), q)
    assert fit.distance <= 1e-12 * fl.x_norm(q)
    assert abs(np.angle(np.exp(1j * (fit.theta - theta)))) <= 1e-8
    for tau, s, d, length in ((fit.tau1, shift[0], g.dx, g.lx), (fit.tau2, shift[1], g.dy, g.ly)):
        assert abs((tau + s * d + length / 2.0) % length - length / 2.0) <= 1e-8


def test_orbital_fit_perturbation_bound(p2_state):
    q = p2_state.q
    g = q.grid
    rng = np.random.default_rng(5)
    noise = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) \
        * np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 16.0)
    pert = sp.physical_field(g, noise)
    delta = 1e-3 * fl.x_norm(q) / fl.x_norm(pert)
    u = sp.physical_field(g, q.values + delta * pert.values)
    fit = sol.orbital_fit(u, q)
    assert fit.distance <= delta * fl.x_norm(pert) * (1.0 + 1e-9)
    assert fit.distance > 0


def test_mass_constrained_matches_ground_state(p2_state):
    g = p2_state.q.grid
    mu = fl.mass(p2_state.q)
    mm = sol.solve_mass_constrained(g, mu, 2.0, tol=1e-5)
    assert mm.energy < 0
    assert fl.mass(mm.minimizer) == pytest.approx(mu, rel=1e-12)
    assert mm.omega_multiplier == pytest.approx(1.0, abs=1e-3)
    fit = sol.orbital_fit(mm.minimizer, p2_state.q)
    assert fit.distance <= 1e-4 * fl.x_norm(p2_state.q)
    hist = np.array(mm.energy_history)
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))


def test_mass_constrained_rejects_supercritical():
    g = sp.make_grid(32, 32, 20.0, 20.0)
    with pytest.raises(ValueError):
        sol.solve_mass_constrained(g, 1.0, 3.0)
    with pytest.raises(ValueError):
        sol.solve_mass_constrained(g, -1.0, 2.0)


def test_travel_probe_degeneration():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    points = sol.travel_upper_bound_probe(g, p=3.0, omega=1.0)
    i_vals = [pt.i_value for pt in points]
    assert all(a > b for a, b in zip(i_vals, i_vals[1:]))
    assert all(0.0 < pt.v < 1.0 for pt in points)
    assert all(pt.i_value > 0 for pt in points)
    with pytest.raises(ValueError):
        sol.travel_upper_bound_probe(g, p=3.0, omega=1.0, alpha=2.0)
