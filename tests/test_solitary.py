"""Ground-state solvers, scaling operators, and profile diagnostics."""

import collections
import dataclasses
import gc
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hwlab import functionals as fl
from hwlab import snapshots
from hwlab import spectral as sp
from hwlab import solitary as sol
from hwlab.functionals import ModelParams

from conftest import count_full_unpacks


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


def _rotated_guess(grid, par):
    """The default guess times exp(0.7i): no longer R-symmetric, u != conj u(-x, -y)."""
    return sp.physical_field(grid, np.exp(0.7j) * sol.default_initial_guess(grid, par).values)


def _check_two_transforms(transform_count, g, par, init, kinds, calls=1):
    # |u|^{p-1} u forward and the direction back; the spectrum of u is
    # transformed once at the start and then carried along, and the
    # converged iterate needs no direction.  Line-search trials and their
    # backtracks cost no transform.  A layout transform is `calls` scipy
    # calls: two on `_RSYM`, a DCT-I along x and one of the real pair along y.
    s = sol.solve_nehari(g, par, init=init, tol=1e-7)
    assert sum(r.backtracks for r in s.history) > 0
    assert len(s.history) == s.iterations
    assert sum(transform_count.values()) == calls * 2 * s.iterations
    assert set(transform_count) == kinds
    first = transform_count.copy()
    transform_count.clear()
    with pytest.raises(sol.ConvergenceError):
        sol.solve_nehari(g, par, init=init, tol=1e-12, max_iter=6)
    # a spent budget adds the gradient of the last iterate
    assert sum(transform_count.values()) == calls * (1 + 2 * 6 + 1)
    assert set(transform_count) == kinds
    return s.iterations, first


@pytest.mark.parametrize("shape, box, v", [((64, 64), (40.0, 40.0), 0.0),
                                           ((32, 64), (20.0, 40.0), 0.5)])
def test_solver_two_transforms_per_iteration(transform_count, shape, box, v):
    # the even real guess at v = 0 runs on quarters, one DCT-I each way; a
    # rotated one at v != 0 on full spectra
    g = sp.make_grid(*shape, *box)
    par = ModelParams(p=2.0, v=v)
    init = sol.default_initial_guess(g, par) if v == 0.0 else _rotated_guess(g, par)
    _check_two_transforms(transform_count, g, par, init,
                          {"dctn"} if v == 0.0 else {"fft2", "ifft2"})


def _shifted_guess(grid, par):
    """The default guess moved by one cell in x: real, but not even."""
    return sp.physical_field(grid, np.roll(sol.default_initial_guess(grid, par).values, 1, 0))


@pytest.mark.parametrize("shape, box", [((64, 64), (40.0, 40.0)), ((32, 128), (20.0, 40.0))])
def test_solver_two_transforms_per_iteration_real(transform_count, shape, box):
    # a real start at v = 0 that is not even runs on rfft2 half spectra
    g = sp.make_grid(*shape, *box)
    par = ModelParams(p=2.0)
    _check_two_transforms(transform_count, g, par, _shifted_guess(g, par), {"rfft2", "irfft2"})


@pytest.mark.parametrize("shape, box, v", [((32, 64), (20.0, 40.0), 0.5),
                                           ((64, 256), (20.0, 80.0), -0.5)])
def test_solver_two_transforms_per_iteration_r_symmetric(transform_count, shape, box, v):
    # an R-symmetric start even in x at v != 0 (the default guess) runs on
    # rows 0..nx/2 of real spectra and the conjugated quarter: per layout
    # transform a DCT-I along x and the real pair along y, in reverse, so
    # one gradient forward (irfft2) and one direction back (rfft2) per
    # iteration, the start forward once and the last iterate no direction
    g = sp.make_grid(*shape, *box)
    par = ModelParams(p=2.0, v=v)
    n, counts = _check_two_transforms(transform_count, g, par, sol.default_initial_guess(g, par),
                                      {"dctn", "rfft2", "irfft2"}, calls=2)
    assert counts == {"dctn": 2 * n, "irfft2": n + 1, "rfft2": n - 1}


def _random_field(grid, rng, real):
    vals = rng.standard_normal(grid.shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    return vals * np.exp(-(grid.x[:, None] / grid.lx) ** 2 - (grid.y[None, :] / grid.ly) ** 2)


def _layout(real):
    """The descent's layout for a float64 (real) or complex128 field."""
    return sp._REAL if real else sp._FULL


def _fwd(vals):
    """The spectrum of a float64 (half) or complex128 (full) field in its layout."""
    return _layout(not np.iscomplexobj(vals)).fwd(vals, vals.shape)


def _aq(sym, grid, real):
    """The symbol on the spectra of `_layout(real)`: columns 0..ny/2 for a real field."""
    return sym.values(grid)[:, :grid.ny // 2 + 1] if real else sym.values(grid)


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
    aq = _aq(sp.action_quadratic(omega, v), grid, real)
    spec = sol._Spectra(grid, sp.action_quadratic(omega, v), _layout(real))
    hat, dhat = _fwd(u), _fwd(d)
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
    spec = sol._Spectra(grid, sp.action_quadratic(1.0), _layout(real))
    physical = float(np.vdot(f, g).real) * grid.cell_area
    scale = math.sqrt(float(np.vdot(f, f).real) * float(np.vdot(g, g).real)) * grid.cell_area
    assert abs(spec.dot(_fwd(f), _fwd(g)) - physical) <= 1e-12 * scale
    assert spec.dot(_fwd(f), _fwd(f)) == pytest.approx(
        float(np.vdot(f, f).real) * grid.cell_area, rel=1e-12)


def _plain_dot(grid, real, a, b):
    """re int conj(f) g for the fields f, g with spectra a, b, by plain numpy
    inverse transforms and a physical-space sum (the oracle)."""
    if real:
        f, g = (np.fft.irfft2(x, s=grid.shape, norm="ortho") for x in (a, b))
    else:
        f, g = (np.fft.ifft2(x, norm="ortho") for x in (a, b))
    return float(np.vdot(f, g).real) * grid.cell_area


@given(grid=grids, real=st.booleans(), beta=st.floats(0.0, 4.0), block_rows=st.integers(1, 50),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=True, beta=0.7, block_rows=3, seed=1)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=False, beta=1.3, block_rows=4, seed=2)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=True, beta=0.0, block_rows=10, seed=3)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), real=False, beta=0.0, block_rows=1, seed=4)
def test_fused_conjugate_direction_matches_plain(grid, real, beta, block_rows, seed):
    # d = P g + beta d_prev, P = 1/aq, written over d_prev in one pass with
    # <d, g>, ||d||^2, <Au, d>, <Ad, d> and <u, d>, against plain numpy; blocks of 1
    # row up to the whole array, with a short last block when the block does
    # not divide the rows, on half and full spectra.  beta = 0 must not read
    # the buffer, which then holds NaN.
    rng = np.random.default_rng(seed)
    sym = sp.action_quadratic(1.3, 0.0 if real else 0.4)
    aq = _aq(sym, grid, real)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sol, "_FUSE_ELEMS", block_rows * aq.shape[1])
        spec = sol._Spectra(grid, sym, _layout(real), sphere=True)
    assert len(spec.rows) == -(-grid.nx // min(block_rows, grid.nx))
    hat, ghat, prev = (_fwd(_random_field(grid, rng, real)) for _ in range(3))
    want = ghat / aq + beta * prev
    out = prev.copy() if beta else np.full_like(prev, np.nan)
    dhat, slope, d_sq, au_d, a_d, u_d = spec.direction(ghat, hat, out, beta)
    assert dhat is out
    assert np.linalg.norm(dhat - want) <= 1e-12 * np.linalg.norm(want)
    g_sq, a_u = _plain_dot(grid, real, ghat, ghat), _plain_dot(grid, real, hat, aq * hat)
    want_sq, want_a = _plain_dot(grid, real, want, want), _plain_dot(grid, real, want, aq * want)
    assert abs(slope - _plain_dot(grid, real, ghat, want)) <= 1e-12 * math.sqrt(g_sq * want_sq)
    assert d_sq == pytest.approx(want_sq, rel=1e-12)
    assert abs(au_d - _plain_dot(grid, real, hat, aq * want)) <= 1e-12 * math.sqrt(a_u * want_a)
    assert a_d == pytest.approx(want_a, rel=1e-12)
    u_sq = _plain_dot(grid, real, hat, hat)
    assert abs(u_d - _plain_dot(grid, real, hat, want)) <= 1e-12 * math.sqrt(u_sq * want_sq)


@given(grid=grids, real=st.booleans(), p=st.floats(1.1, 4.9), t=st.floats(0.5, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fused_gradient_and_step_match_transforms(grid, real, p, t, seed):
    # the gradient at u against fresh transforms; the step's spectrum too,
    # updated as the iterate is, on float views
    rng = np.random.default_rng(seed)
    par = ModelParams(p=p, v=0.0 if real else 0.3)
    aq = _aq(sp.action_quadratic(par.omega, par.v), grid, real)
    spec = sol._Spectra(grid, sp.action_quadratic(par.omega, par.v), _layout(real))
    u, d = _random_field(grid, rng, real), _random_field(grid, rng, real)
    hat, dhat = _fwd(u), _fwd(d)
    field = sp.physical_field(grid, u)
    grad = fl.action_gradient(field, par).values
    ghat, b_pot, n_u, g_sq, u_sq, gpg = spec.gradient(u, hat, p)
    want = _fwd(grad.real if real else grad)
    assert np.linalg.norm(ghat - want) <= 1e-12 * np.linalg.norm(want)
    assert b_pot == pytest.approx(fl.lp1_power(field, p), rel=1e-12)
    assert abs(n_u - fl.nehari(field, par)) <= 1e-12 * fl.quadratic_action_form(field, par)
    assert g_sq == pytest.approx(sp.l2_norm_sq(sp.physical_field(grid, grad)), rel=1e-12)
    assert u_sq == pytest.approx(sp.l2_norm_sq(field), rel=1e-12)
    assert gpg == pytest.approx(_plain_dot(grid, real, want, want / aq), rel=1e-12)
    # the step, written over hat
    want = _fwd(t * (u - 0.3 * d))
    sol._advance(hat.view(np.float64), dhat.view(np.float64), 0.3, t)
    assert np.linalg.norm(hat - want) <= 1e-12 * np.linalg.norm(hat)


def _mirror(u):
    """R u = conj u(-x, -y) on the grid indices, (i, j) from (-i, -j) mod the shape."""
    rows, cols = (-np.arange(n) % n for n in u.shape)
    return np.conj(u[rows][:, cols])


def _x_mirror(u):
    """u(-x, .) on the grid indices, row i from row -i mod nx."""
    return u[-np.arange(len(u)) % len(u)]


@given(grid=grids, p=st.floats(1.1, 4.9), v=st.sampled_from([-0.9, 0.3, 0.99]),
       alpha=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_r_symmetric_half_sums_match_full_arrays(grid, p, v, alpha, seed):
    # int |u|^{p+1}, its line-search change and the gradient pass, summed
    # over the conjugated quarter of R-symmetric fields even in x with the
    # line weights (1, 2, ..., 2, 1) along both axes, and over rows
    # 0..nx/2 of their real spectra, against full arrays; a random field
    # averaged over the identity, R, the x-mirror and their product has
    # that symmetry
    rng = np.random.default_rng(seed)
    u, d = (0.25 * (f + _mirror(f) + _x_mirror(f) + _mirror(_x_mirror(f)))
            for f in (_random_field(grid, rng, False) for _ in range(2)))
    lay = sp._RSYM
    uh, dh = lay.pack(u), lay.pack(d)
    full = lay.unpack(uh)
    assert np.array_equal(full, _mirror(full)) and np.array_equal(full, _x_mirror(full))
    assert np.linalg.norm(full - u) <= 1e-15 * np.linalg.norm(u)
    b_u = fl._lp1_sum(u, p)
    assert fl._lp1_sum(uh, p, lay) == pytest.approx(b_u, rel=1e-12)
    scale = b_u + fl._lp1_sum(u - alpha * d, p)
    assert abs(sol._lp1_change(uh, dh, alpha, p, lay)
               - sol._lp1_change(u, d, alpha, p)) <= 1e-12 * scale
    par = ModelParams(p=p, v=v)
    field = sp.physical_field(grid, u)
    spec = sol._Spectra(grid, sp.action_quadratic(par.omega, v), lay)
    ghat, b_pot, n_u, g_sq, u_sq, _ = spec.gradient(uh, lay.fwd(uh, grid.shape), p)
    want = sp._fft2(fl.action_gradient(field, par).values)
    assert np.linalg.norm(ghat - want[:grid.nx // 2 + 1]) <= 1e-12 * np.linalg.norm(want)
    assert b_pot == pytest.approx(fl.lp1_power(field, p), rel=1e-12)
    assert abs(n_u - fl.nehari(field, par)) <= 1e-12 * fl.quadratic_action_form(field, par)
    assert g_sq == pytest.approx(float(np.vdot(want, want).real) * grid.cell_area, rel=1e-12)
    assert u_sq == pytest.approx(sp.l2_norm_sq(field), rel=1e-12)


def _is_even(u):
    """u = u(-x, .) = u(., -y) bit for bit."""
    rows, cols = (-np.arange(n) % n for n in u.shape)
    return np.array_equal(u, u[rows]) and np.array_equal(u, u[:, cols])


@given(grid=grids, p=st.floats(1.1, 4.9), omega=st.floats(0.1, 3.0), alpha=st.floats(-2.0, 2.0),
       beta=st.floats(0.0, 4.0), block_rows=st.integers(1, 30), seed=st.integers(0, 2 ** 32 - 1))
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), p=3.0, omega=1.0, alpha=0.5, beta=0.7,
         block_rows=1, seed=1)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), p=2.0, omega=0.7, alpha=-0.3, beta=1.5,
         block_rows=5, seed=2)
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), p=4.0, omega=2.0, alpha=1.1, beta=0.0,
         block_rows=6, seed=3)
def test_even_quarter_sums_match_full_arrays(grid, p, omega, alpha, beta, block_rows, seed):
    # int |u|^{p+1}, its line-search change, L2 products and the fused passes,
    # summed over the quarters of even fields with the weights (1, 2, ..., 2, 1)
    # along both axes, against full arrays and the half-spectrum passes; row
    # blocks of one row up to the whole quarter (the examples: blocks of one
    # row; blocks of five on six quarter rows, the last row a block of its
    # own; one block holding the first and the last row)
    rng = np.random.default_rng(seed)
    lay = sp._EVEN
    u, d, g_prev = (lay.unpack(lay.pack(_random_field(grid, rng, True))) for _ in range(3))
    assert _is_even(u) and _is_even(d)
    uq, dq = lay.pack(u), lay.pack(d)
    # pack, then unpack, is bit-exact, and so is the reverse
    assert np.array_equal(lay.unpack(uq), u) and np.array_equal(lay.pack(lay.unpack(uq)), uq)
    assert uq.shape == (grid.nx // 2 + 1, grid.ny // 2 + 1)
    scale = math.sqrt(sp._redot(u, u) * sp._redot(d, d))
    blocks = sp._slices(*uq.shape, block_rows * uq.shape[1])
    assert abs(sum(lay.dot(uq[r], dq[r], r, len(uq)) for r in blocks)
               - sp._redot(u, d)) <= 1e-12 * scale
    b_u = fl._lp1_sum(u, p)
    assert fl._lp1_sum(uq, p, lay) == pytest.approx(b_u, rel=1e-12)
    assert abs(sol._lp1_change(uq, dq, alpha, p, lay) - sol._lp1_change(u, d, alpha, p)) \
        <= 1e-12 * (b_u + fl._lp1_sum(u - alpha * d, p))
    sym = sp.action_quadratic(omega)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sol, "_FUSE_ELEMS", block_rows * uq.shape[1])
        even = sol._Spectra(grid, sym, lay, sphere=True)
        assert len(even.rows) == -(-uq.shape[0] // min(block_rows, uq.shape[0]))
        hat, dhat = lay.fwd(uq, grid.shape), lay.fwd(dq, grid.shape)
        assert abs(even.dot(hat, dhat) - sp._redot(u, d) * grid.cell_area) \
            <= 1e-12 * scale * grid.cell_area
        half = sol._Spectra(grid, sym, sp._REAL, sphere=True)
        uh = sp._rfft2(u)
        got = even.gradient(uq, hat, p)
        want = half.gradient(u, uh, p)
        assert np.linalg.norm(got[0] - want[0][:uq.shape[0]].real) \
            <= 1e-12 * np.linalg.norm(want[0])
        b_pot, n_u = want[1:3]
        assert abs(got[1] - b_pot) <= 1e-12 * b_pot
        assert abs(got[2] - n_u) <= 1e-12 * (abs(n_u) + 2.0 * b_pot)
        for a, b in zip(got[3:], want[3:]):
            assert a == pytest.approx(b, rel=1e-12)
        ghat, g_sq = got[0], want[3]
        got = even.direction(ghat, hat, lay.fwd(lay.pack(g_prev), grid.shape), beta)
        want = half.direction(want[0], uh, sp._rfft2(g_prev), beta)
        assert np.linalg.norm(got[0] - want[0][:uq.shape[0]].real) \
            <= 1e-12 * np.linalg.norm(want[0])
        # <d, g>, ||d||^2, <Au, d>, <Ad, d>, <u, d>, within Cauchy-Schwarz bounds
        d_sq, a_d = want[2], want[4]
        a_u = half.dot(uh, _aq(sym, grid, True) * uh)
        bounds = (math.sqrt(d_sq * g_sq), d_sq, math.sqrt(a_u * a_d), a_d,
                  math.sqrt(half.dot(uh, uh) * d_sq))
        for a, b, bound in zip(got[1:], want[1:], bounds):
            assert abs(a - b) <= 1e-12 * bound


@settings(max_examples=8)
@given(shape=st.sampled_from([(32, 64), (64, 64), (48, 96)]), p=st.floats(1.5, 3.5),
       omega=st.floats(0.5, 2.0))
def test_even_descent_matches_real_descent(shape, p, omega):
    # _EVEN and _REAL runs of _descent from one even start reach the same
    # ground state: actions to 1e-10, orbits to 1e-6 ||Q||_X, and the even
    # run's profile is even bit for bit
    g = sp.make_grid(*shape, 20.0, 40.0)
    par = ModelParams(p=p, omega=omega)
    start = sol.default_initial_guess(g, par).values
    assert sp._layout_of(start, 0.0) is sp._EVEN
    u0 = sp._EVEN.unpack(sp._EVEN.pack(start))
    sym = sp.action_quadratic(omega)
    uq, even, _, _ = sol._descent(sp._EVEN.pack(u0), sym, p, g, 1e-9, 5000, False,
                                  layout=sp._EVEN)
    ur, real, _, _ = sol._descent(u0.copy(), sym, p, g, 1e-9, 5000, False, layout=sp._REAL)
    q = sp.physical_field(g, sp._EVEN.unpack(uq))
    assert _is_even(q.values)
    assert even["action_value"] == pytest.approx(real["action_value"], rel=1e-10)
    assert sol.orbital_fit(q, sp.physical_field(g, ur)).distance <= 1e-6 * fl.x_norm(q)
    assert even["gradient_residual"] == pytest.approx(
        sp.l2_norm(fl.action_gradient(q, par)), rel=1e-6, abs=1e-13 * sp.l2_norm(q))


@pytest.mark.parametrize("shape, box, v", [((32, 64), (20.0, 40.0), 0.5),
                                           ((64, 256), (20.0, 80.0), 0.9),
                                           ((32, 64), (20.0, 40.0), -0.5)])
def test_r_symmetric_path_matches_full_path(transform_count, shape, box, v):
    # the default guess is R-symmetric and even in x: solve_nehari runs on
    # rows 0..nx/2 of real spectra, two scipy calls per layout transform;
    # _descent on the complex array runs the full-spectra path from it
    g = sp.make_grid(*shape, *box)
    par = ModelParams(p=2.0, v=v)
    init = sol.default_initial_guess(g, par)
    dual = sol.solve_nehari(g, par, init=init, tol=1e-8)
    n = dual.iterations
    assert transform_count == {"dctn": 2 * n, "irfft2": n + 1, "rfft2": n - 1}
    u, stats, _, _ = sol._descent(init.values.astype(np.complex128),
                                  sp.action_quadratic(par.omega, v), par.p, g, 1e-8, 5000,
                                  converged_start=False, layout=sp._FULL)
    full = sp.physical_field(g, u)
    assert dual.action_value == pytest.approx(stats["action_value"], rel=1e-10)
    assert sol.orbital_fit(dual.q, full).distance <= 1e-6 * fl.x_norm(full)
    assert dual.q.values.dtype == np.complex128
    assert np.array_equal(dual.q.values, _mirror(dual.q.values))
    assert np.array_equal(dual.q.values, _x_mirror(dual.q.values))
    assert fl.action(dual.q, par) == pytest.approx(dual.action_value, rel=1e-13)


def test_traveling_warm_starts_take_the_stored_quarter(monkeypatch, p2_state):
    # a v != 0 solve from an even v = 0 profile (`_EVEN`) starts on `_RSYM`
    # from its quarter as complex, and one from a traveling wave from its
    # stored quarter, with no full array formed: the start packing the
    # full values gives, bit for bit, as an exactly symmetric field is
    # kept by the symmetrization
    starts = []
    plain = sol._descent

    def spy(u, *args, layout, **kwargs):
        starts.append((u.copy(), layout))
        return plain(u, *args, layout=layout, **kwargs)

    monkeypatch.setattr(sol, "_descent", spy)
    q = p2_state.q
    assert q.layout is sp._EVEN
    prev = sp.Field._of(q.grid, q.stored.copy(), sp._EVEN)
    unpacks = count_full_unpacks(monkeypatch)
    for v in (0.3, 0.5):
        unpacks.clear()
        s = sol.solve_nehari(q.grid, ModelParams(p=2.0, v=v), init=prev, tol=1e-6)
        assert not unpacks
        u, layout = starts.pop()
        assert layout is sp._RSYM and s.q.layout is sp._RSYM
        assert u.dtype == np.complex128
        assert np.array_equal(u, prev.stored)
        assert np.array_equal(u, sp._RSYM.pack(prev.values))
        prev = s.q
    assert np.array_equal(sp._RSYM.unpack(sp._RSYM.pack(q.values)), q.values)


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
    for omega in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            sol.rescale_omega(p2_state.q, omega, p=2.0)


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
    # white-box oracle: dense trigonometric evaluation matrices; a complex
    # field about an off-grid centre, and a real field even in x and in y
    # about (0, 0), which T_lambda resamples on its quarter
    g = sp.make_grid(32, 48, 12.0, 18.0)
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    env = np.exp(-(g.x[:, None] ** 2) - (g.y[None, :] ** 2) / 4.0)
    even = sp._EVEN.unpack(sp._EVEN.pack(rng.standard_normal(g.shape))) * env
    assert _is_even(even)
    for u_vals, lam, cx, cy in ((vals * env, 1.3, 0.4, -0.7), (even, 1.3, 0.0, 0.0),
                                (even, 0.9, 0.0, 0.0)):
        u = sp.physical_field(g, u_vals)
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
        assert fast.values.dtype == u.values.dtype


def test_t_lambda_of_even_profile_is_exactly_even(p3_state):
    # about (0, 0), T_lambda of an even profile is resampled on its quarter
    # and stored as it, so its values are even bit for bit (on the full
    # array it was off by 5.9e-12 in x and 4.3e-12 in y, and sp._even
    # rejected it), and its action, which the second variation sums, is
    # summed over that quarter; the same profile without its layout is
    # found even and scaled alike; the profile moved by one cell, or a
    # centre off (0, 0), keeps the full array
    q, par = p3_state.q, ModelParams(p=3.0)
    assert q.layout is sp._EVEN
    scaled = sol.t_lambda(q, 1.05, tail_tol=1e-3)
    assert scaled.layout is sp._EVEN
    assert _is_even(scaled.values) and sp._even(scaled.values)
    assert np.array_equal(sp._EVEN.unpack(scaled.stored), scaled.values)
    assert fl.action(scaled, par) == pytest.approx(
        fl.action(sp.physical_field(q.grid, scaled.values), par), rel=1e-13)
    bare = sol.t_lambda(sp.physical_field(q.grid, q.values), 1.05, tail_tol=1e-3)
    assert bare.layout is sp._EVEN and np.array_equal(bare.values, scaled.values)
    shifted = sp.physical_field(q.grid, np.roll(q.values, 1, axis=0))
    for u, center in ((shifted, (0.0, 0.0)), (q, (0.3, 0.0)), (q, (0.0, -0.2))):
        out = sol.t_lambda(u, 1.05, center=center, tail_tol=1e-3)
        assert out.layout is sp._REAL and not _is_even(out.values)


def _quarter(layout):
    """A 32x64 Gaussian stored as `layout`'s quarter: even in x and in y
    (`_EVEN`), or even in x and R-symmetric with a phase along y (`_RSYM`)."""
    g = sp.make_grid(32, 64, 12.0, 24.0)
    env = np.exp(-g.x[:, None] ** 2 / 2.0 - g.y[None, :] ** 2 / 8.0)
    vals = env if layout is sp._EVEN else env * np.exp(0.4j * g.y[None, :])
    return sp.Field._of(g, layout.pack(vals), layout)


def _retained(call, q):
    """Bytes tracemalloc still sees once `call(q)` has returned and its
    result is dropped, after a first call on a copy of `q` that fills any
    first-use cache."""
    call(q.copy())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(q)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def test_rest_solve_from_a_traveling_quarter():
    # at v = 0 an R-symmetric start with a phase runs on full spectra: the
    # start is unpacked from its quarter into an array the descent may
    # write to, and the quarter is left as it was
    start = _quarter(sp._RSYM)
    before = start.stored.copy()
    s = sol.solve_nehari(start.grid, ModelParams(p=2.0), init=start, tol=1e-5)
    assert s.q.layout is sp._REAL
    assert s.gradient_residual <= 1e-5 * sp.l2_norm(s.q)
    assert np.array_equal(start.stored, before)


def test_off_centre_scaling_keeps_no_values_on_its_input():
    # about a centre off (0, 0), T_lambda and the generator of an even field
    # run on its full array, formed for the call and not kept on the field
    q = _quarter(sp._EVEN)
    full = q.values.nbytes
    for call in (lambda f: sol.t_lambda(f, 1.05, center=(0.3, 0.0), tail_tol=np.inf),
                 lambda f: sol.psi_omega(f, center=(0.0, -0.2), tail_tol=np.inf)):
        assert call(q).layout is sp._REAL
        assert _retained(call, q) < full / 2


_PUBLIC_CALLS = {
    "l2_norm_sq": lambda f, path: sp.l2_norm_sq(f),
    "l2_inner": lambda f, path: sp.l2_inner(f, f),
    "tail_mass_fraction": lambda f, path: sp.tail_mass_fraction(f),
    "action": lambda f, path: fl.action(f, ModelParams(p=2.0)),
    "functional_report": lambda f, path: fl.functional_report(f, ModelParams(p=2.0)),
    "action_gradient": lambda f, path: fl.action_gradient(f, ModelParams(p=2.0)),
    "mass_centroid": lambda f, path: sol.mass_centroid(f),
    "orbital_fit": lambda f, path: sol.orbital_fit(f, f),
    "psi_omega": lambda f, path: sol.psi_omega(f, tail_tol=np.inf),
    "t_lambda": lambda f, path: sol.t_lambda(f, 1.05, tail_tol=np.inf),
    "save_snapshot": lambda f, path: snapshots.save_snapshot(str(path), f, ModelParams(p=2.0)),
}


@pytest.mark.parametrize("name", list(_PUBLIC_CALLS))
@pytest.mark.parametrize("layout", ["_EVEN", "_RSYM"])
def test_public_api_keeps_no_full_array_on_a_quarter(layout, name, tmp_path):
    # a sum, functional, scaling or snapshot of a field stored as its
    # quarter leaves no full array behind on that field: less than half of
    # one stays allocated once the result is dropped (l2_inner still forms
    # the full array for the call)
    q = _quarter(getattr(sp, layout))
    call = _PUBLIC_CALLS[name]
    assert _retained(lambda f: call(f, tmp_path / "state.hwsf"), q) < q.values.nbytes / 2


def test_even_generator_on_quarters(p3_state, transform_count):
    # the generator of an even q about (0, 0) on its quarter, each derivative
    # a DST-I along its axis and a DCT-I along the other, against the half
    # spectra; one quarter psi_omega and one quarter r1_diagnostics make one
    # DCT-I forward, two mixed pairs and, for R1, two DCT-I pairs more
    q = p3_state.q
    g = q.grid
    assert q.layout is sp._EVEN
    quarter = sol._generator(q, 0.75, (0.0, 0.0)).values
    half = sol._generator(sp.physical_field(g, q.values), 0.75, (0.0, 0.0)).values
    assert np.max(np.abs(quarter - half)) <= 1e-12 * np.max(np.abs(half))
    transform_count.clear()
    psi = sol.psi_omega(q, tail_tol=1e-3)
    assert transform_count == {"dctn": 3, "dstn": 2}
    assert np.array_equal(psi.values, quarter)
    transform_count.clear()
    diag = sol.r1_diagnostics(q, 3.0, tail_tol=1e-3)
    assert transform_count == {"dctn": 7, "dstn": 2}
    assert _is_even(diag.r1.values)


@pytest.mark.parametrize("axis", [0, 1])
def test_chirp_z_blocks_bit_identical(monkeypatch, axis):
    # each 1-D line is transformed on its own, with one chirp spectrum for
    # every block, so blocking changes no bit; lines along axis 0 go in
    # transposed, as in t_lambda's x pass
    src = np.random.default_rng(4).standard_normal((48, 80))
    if axis == 0:
        src = src.T
    n = src.shape[1]
    count = src.shape[0] // 2  # packed line pairs
    args = (12.0, -6.0, -4.5, 0.8 * 12.0 / n, 1.3)
    blocked, whole = np.empty_like(src), np.empty_like(src)
    monkeypatch.setattr(sol, "_BLOCK_ELEMS", 4 * n)  # blocks of 4 line pairs
    assert len(sol._slices(count, n, sol._BLOCK_ELEMS)) > 1
    sol._resample_lines(src, blocked, *args)
    monkeypatch.setattr(sol, "_BLOCK_ELEMS", src.size)  # one block
    assert len(sol._slices(count, n, sol._BLOCK_ELEMS)) == 1
    sol._resample_lines(src, whole, *args)
    assert np.array_equal(blocked, whole)


@given(grid=grids, lam=st.floats(0.7, 1.4), cx=st.floats(-3.0, 3.0), cy=st.floats(-3.0, 3.0),
       block_lines=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
@example(grid=sp.make_grid(10, 16, 10.0, 10.0), lam=1.4, cx=0.4, cy=-0.7, block_lines=3, seed=1)
@example(grid=sp.make_grid(64, 64, 12.0, 20.0), lam=0.7, cx=0.0, cy=0.0, block_lines=1, seed=2)
def test_t_lambda_real_output_and_complex_linearity(grid, lam, cx, cy, block_lines, seed):
    # real lines are resampled two at a time, packed as a + i b, and a
    # complex field as its real and imaginary parts: a real field must stay
    # exactly real, and t(a + i b) = t(a) + i t(b)
    rng = np.random.default_rng(seed)
    a, b = (sp.physical_field(grid, _random_field(grid, rng, True)) for _ in range(2))
    both = sp.physical_field(grid, a.values + 1j * b.values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sol, "_BLOCK_ELEMS", block_lines * grid.ny)  # blocks of lines
        ta, tb, tab = (sol.t_lambda(f, lam, center=(cx, cy), tail_tol=np.inf)
                       for f in (a, b, both))
    assert not np.any(ta.values.imag) and not np.any(tb.values.imag)
    want = ta.values.real + 1j * tb.values.real
    assert np.max(np.abs(tab.values - want)) <= 1e-12 * np.max(np.abs(want))


@given(grid=grids, theta=st.floats(0.0, 2.0 * np.pi), cx=st.floats(-3.0, 3.0),
       cy=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
@example(grid=sp.make_grid(64, 64, 12.0, 20.0), theta=1.0, cx=0.5, cy=-1.0, seed=3)
def test_psi_omega_real_and_complex_paths_agree(grid, theta, cx, cy, seed):
    # a real q runs on half spectra, e^{i theta} q on full ones; psi_omega
    # commutes with the phase
    q = sp.physical_field(grid, _random_field(grid, np.random.default_rng(seed), True))
    rot = sp.physical_field(grid, np.exp(1j * theta) * q.values)
    psi = sol.psi_omega(q, center=(cx, cy), tail_tol=np.inf).values
    psi_rot = sol.psi_omega(rot, center=(cx, cy), tail_tol=np.inf).values
    assert not np.any(psi.imag)
    want = np.exp(1j * theta) * psi
    assert np.max(np.abs(psi_rot - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("fn, even, bound", [
    pytest.param(fn, even, bound, id=fn + ("-even" if even and fn != "extend_ground_state" else ""))
    for fn, even, bound in [
        ("t_lambda", False, 6.5), ("t_lambda", True, 1.85),
        ("psi_omega", False, 2.5), ("psi_omega", True, 0.85),
        ("r1_diagnostics", False, 1.9), ("r1_diagnostics", True, 0.85),
        ("second_variation_scaling", False, 3.4), ("second_variation_scaling", True, 1.85),
        ("extend_ground_state", True, 3.08)]])
def test_scaling_apparatus_peak_memory(fn, even, bound):
    # tracemalloc sees numpy's arrays but not pocketfft's internal buffers.
    # Peaks in units of the complex128 size of the output's grid, whatever
    # the output dtype.  On a real 64x8192 field the full-spectrum pipelines
    # took 8.1 (t_lambda) and 4.0 (psi_omega); packed line pairs and half
    # spectra took 5.1 and 1.5, with a complex128 output 4.1 and 1.5, and
    # take 3.1 and 1.5 with a float64 one (t_lambda's chirp-z blocks are
    # about half a field here, a sixteenth at 128x32768).  r1_diagnostics
    # took 2.25 with a full-size symbol and defect, and takes 1.5 by row
    # blocks; second_variation_scaling takes 3.1.  A Gaussian even about
    # (0, 0) runs on quarters: 1.69 (t_lambda, second_variation_scaling)
    # and 0.77 (psi_omega, r1_diagnostics); one moved by a cell in x keeps
    # the half spectra.  The extension from 64x256 to 64x2048 took 3.17
    # with a full-size symbol, 2.99 with it formed by row blocks, and takes
    # 0.99 on the quarters of the even profile.
    if fn == "extend_ground_state":
        base = sol.solve_nehari(sp.make_grid(64, 256, 20.0, 40.0), ModelParams(p=2.0), tol=1e-8)
        g = sp.make_grid(64, 2048, 20.0, 320.0)
        call = lambda: sol.extend_ground_state(base, g, tol=5e-7).q  # noqa: E731
    else:
        g = sp.make_grid(64, 8192, 20.0, 160.0)
        shift = 0.0 if even else g.dx
        q = sp.physical_field(
            g, np.exp(-((g.x[:, None] - shift) ** 2) - (g.y[None, :] / 4.0) ** 2))
        assert sp._even(q.values) == even
        call = {"t_lambda": lambda: sol.t_lambda(q, 1.01, tail_tol=np.inf),
                "psi_omega": lambda: sol.psi_omega(q, tail_tol=np.inf),
                "r1_diagnostics": lambda: sol.r1_diagnostics(q, 3.0, tail_tol=np.inf).r1,
                "second_variation_scaling": lambda: sol.second_variation_scaling(
                    q, ModelParams(p=3.0), tail_tol=np.inf)}[fn]
    tracemalloc.start()
    try:
        base_mem = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1] - base_mem
    finally:
        tracemalloc.stop()
    if isinstance(out, sp.Field):
        assert out.values.dtype == np.float64
    assert peak <= bound * g.nx * g.ny * 16


def _solver_peak(g, par, init):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = sol.solve_nehari(g, par, init=init, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert s.gradient_residual <= 1e-8 * sp.l2_norm(s.q)
    return peak / (init.values.size * 16)  # the complex128 size, also for a float64 guess


@pytest.mark.parametrize("v, bound", [(0.5, 12.0), (0.0, 7.0)])
def test_solver_peak_memory(v, bound):
    # tracemalloc sees numpy's arrays but not pocketfft's internal buffers.
    # Peaks of solve_nehari on 64x512 in units of the complex field: L-BFGS
    # with 8 pairs took 24.3 (v = 0.5, full spectra) and 13.1 (v = 0, half
    # spectra); conjugate gradients, one previous direction, take 7.3 and took
    # 4.5, and the even start at v = 0 runs on quarters in 1.6
    g = sp.make_grid(64, 512, 20.0, 80.0)
    par = ModelParams(p=2.0, v=v)
    init = sol.default_initial_guess(g, par) if v == 0.0 else _rotated_guess(g, par)
    assert _solver_peak(g, par, init) <= bound


def test_solver_peak_memory_r_symmetric():
    # an R-symmetric start even in x at v = 0.5 runs on the conjugated
    # quarter and rows 0..nx/2 of real spectra: 2.89 complex fields, the
    # default guess included (4.30 with all nx rows of the field's
    # columns 0..ny/2 and of its real spectra stored)
    g = sp.make_grid(64, 512, 20.0, 80.0)
    par = ModelParams(p=2.0, v=0.5)
    assert _solver_peak(g, par, sol.default_initial_guess(g, par)) <= 3.5


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
    for lam in (0.0, math.inf):
        with pytest.raises(ValueError):
            sol.t_lambda(gauss, lam)
    for center in ((math.nan, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="center"):
            sol.t_lambda(gauss, 0.9, center=center)
        with pytest.raises(ValueError, match="center"):
            sol.psi_omega(gauss, center=center)
    # a tall box, where the chirp's phase delta k^2 / 2 reaches 1e5: formed
    # as powers of exp(i delta), as scipy.signal.CZT forms it, the chirp
    # drifts off the unit circle, and the result missed by 5.3e-9 and 1.4e-9
    g = sp.make_grid(32, 32768, 20.0, 640.0)
    tall = sp.physical_field(g, np.exp(-g.x[:, None] ** 2 / 4.0 - g.y[None, :] ** 2 / 32.0))
    for lam in (0.95, 1.05):
        exact = lam ** 0.75 * np.exp(-lam * g.x[:, None] ** 2 / 4.0
                                     - (lam * g.y[None, :]) ** 2 / 32.0)
        assert np.max(np.abs(sol.t_lambda(tall, lam).values - exact)) <= 1e-10


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


def test_second_variation_scaling(p3_state, monkeypatch):
    # the evenness of q is decided once for the three scaled actions, and
    # not at all for a q that carries its quarter
    calls = []
    monkeypatch.setattr(sp, "_even", lambda u, _even=sp._even: calls.append(1) or _even(u))
    sv = sol.second_variation_scaling(p3_state.q, ModelParams(p=3.0),
                                      tail_tol=1e-3)
    assert len(calls) == 0
    bare = sol.second_variation_scaling(sp.physical_field(p3_state.q.grid, p3_state.q.values),
                                        ModelParams(p=3.0), tail_tol=1e-3)
    assert len(calls) == 1
    assert bare.numeric == sv.numeric
    p = 3.0
    expect = -3.0 * (p - 1.0) * (3.0 * p - 7.0) / (16.0 * (p + 1.0)) \
        * fl.lp1_power(p3_state.q, p)
    assert sv.analytic == pytest.approx(expect, rel=1e-12)
    assert sv.analytic < 0  # supercritical: scaling direction lowers S
    assert sv.relative_error <= 1e-2
    with pytest.raises(ValueError):
        sol.second_variation_scaling(p3_state.q, ModelParams(p=3.0, v=0.5))


def test_even_pipeline_keeps_its_quarters(monkeypatch):
    # solve -> extend -> second variation -> psi_omega -> R1 -> report on
    # an even state: the solve decides evenness once, and after it nothing
    # tests or packs again, and no full array is unpacked; every result
    # carries its quarter, its values the unpacked quarter
    g = sp.make_grid(32, 128, 20.0, 40.0)
    par = ModelParams(p=3.0)
    calls = collections.Counter()
    monkeypatch.setattr(sp, "_even", lambda u, _even=sp._even: calls.update(["even"]) or _even(u))
    monkeypatch.setattr(sp, "_EVEN", dataclasses.replace(
        sp._EVEN, pack=lambda u, _pack=sp._EVEN.pack: calls.update(["pack"]) or _pack(u)))
    unpacks = count_full_unpacks(monkeypatch)
    small = sol.solve_nehari(g, par, tol=1e-8)
    assert calls == {"even": 1, "pack": 1}
    calls.clear()
    wide = sol.extend_ground_state(small, sp.make_grid(32, 256, 20.0, 80.0))
    sv = sol.second_variation_scaling(wide.q, par, tail_tol=np.inf)
    psi = sol.psi_omega(wide.q, tail_tol=np.inf)
    diag = sol.r1_diagnostics(wide.q, par.p, tail_tol=np.inf)
    rep = fl.functional_report(wide.q, par)
    assert not calls and not unpacks
    assert sv.analytic < 0.0 and rep.action > 0.0
    for f in (small.q, wide.q, psi, diag.r1):
        assert f.layout is sp._EVEN
        assert np.array_equal(f.values, sp._EVEN.unpack(f.stored)) and _is_even(f.values)
    assert not calls


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
    # the descent core of solve_nehari: two transforms per iteration, on the
    # quarters of the even profile
    assert sum(transform_count.values()) == 2 * ext.iterations
    # Fletcher-Reeves CG takes 13 iterations here with the model step, 20
    # with unit steps, steepest descent 42
    assert ext.iterations <= 13
    # the model step goes beyond alpha = 1, but never on the closing step
    # along P g (history[-1] is the converged iterate, which takes none)
    assert max(r.step for r in ext.history) > 1.0
    assert ext.history[-2].step == 1.0
    assert set(transform_count) == {"dctn"}
    assert _is_even(ext.q.values)
    assert ext.q.grid == g1
    assert ext.gradient_residual <= 5e-7 * sp.l2_norm(ext.q)
    assert ext.tail_mass_fraction < base.tail_mass_fraction
    # oracle: a fresh solve on the wide box reaches the same minimizer
    direct = sol.solve_nehari(g1, ModelParams(p=2.0), tol=1e-7)
    assert ext.action_value == pytest.approx(direct.action_value, rel=1e-6)
    assert sol.orbital_fit(ext.q, direct.q).distance <= 1e-4 * fl.x_norm(direct.q)
    # CG ends with a step along P g, Newton's step where |Q|^{p-1} is
    # negligible: outside the source box the residual is 9e-11 ||q||, not
    # the 1e-8 that the last beta d_prev term leaves there, which the
    # y-weighted R1 diagnostics would amplify
    far = np.abs(g1.y) > g0.ly / 2.0
    resid = fl.action_gradient(ext.q, ext.params).values[:, far]
    assert math.sqrt(float(np.vdot(resid, resid).real) * g1.cell_area) \
        <= 1e-9 * sp.l2_norm(ext.q)


def test_even_extension_matches_real_extension():
    # an even source is padded symmetrically, half of its edge column
    # y = -ly/2 at each end, so the start is exactly even; the half-spectrum
    # descent from that start reaches the same profile
    g0, g1 = sp.make_grid(64, 128, 20.0, 20.0), sp.make_grid(64, 512, 20.0, 80.0)
    base = sol.solve_nehari(g0, ModelParams(p=2.0), tol=1e-7)
    ext = sol.extend_ground_state(base, g1, tol=5e-7)
    offset = (g1.ny - g0.ny) // 2
    start = np.zeros(g1.shape)
    start[:, offset:offset + g0.ny] = base.q.values
    start[:, offset] *= 0.5
    start[:, offset + g0.ny] = start[:, offset]
    assert _is_even(start) and sp._layout_of(start, 0.0) is sp._EVEN
    with pytest.raises(sol.ConvergenceError) as err:
        sol.extend_ground_state(base, g1, max_iter=0)
    first = err.value.solution.q.values  # the start, scaled onto the Nehari manifold
    t = first.max() / start.max()
    assert np.max(np.abs(first - t * start)) <= 1e-13 * first.max()
    u, stats, _, _ = sol._descent(start, sp.action_quadratic(1.0), 2.0, g1, 5e-7, 200,
                                  converged_start=True, layout=sp._REAL)
    assert ext.action_value == pytest.approx(stats["action_value"], rel=1e-10)
    real = sp.physical_field(g1, u)
    assert sol.orbital_fit(ext.q, real).distance <= 1e-6 * fl.x_norm(real)


def test_extension_accepts_full_steps_at_the_action_floor():
    # at a tight tolerance the Armijo bound sinks below the rounding of S;
    # accepting the full step there takes 19 iterations, rejecting it 27
    base = sol.solve_nehari(sp.make_grid(64, 256, 20.0, 40.0), ModelParams(p=3.0), tol=1e-9)
    ext = sol.extend_ground_state(base, sp.make_grid(64, 1024, 20.0, 160.0), tol=1e-10)
    assert ext.iterations <= 22
    assert ext.gradient_residual <= 1e-10 * sp.l2_norm(ext.q)


@pytest.mark.parametrize("case, fault", [
    pytest.param("extend", "uphill", id="uphill"),
    pytest.param("extend", "failed_search", id="failed_search"),
    pytest.param("extend-real", "uphill", id="real-uphill"),
    pytest.param("extend-real", "failed_search", id="real-failed_search"),
    pytest.param("solve", "uphill", id="solve-uphill"),
    pytest.param("solve", "failed_search", id="solve-failed_search"),
    pytest.param("rsym", "uphill", id="rsym-uphill"),
    pytest.param("rsym", "failed_search", id="rsym-failed_search"),
])
def test_conjugate_direction_restart_and_retry(monkeypatch, transform_count, case, fault):
    # The first three conjugate directions (beta > 0) are spoiled.  Reversed
    # ("uphill"), each is replaced by P g within its iteration.  With a slope
    # of 1e30 reported ("failed_search"), no trial meets the Armijo test, and
    # the iteration is retried from P g.  Either way the accepted action
    # decreases monotonically, the budget stays at two transforms per
    # iteration and the descent converges: on quarters (the extension of an
    # even profile), on half spectra (the extension of a shifted one), on
    # full ones (a traveling wave from a rotated start) and on rows of real
    # ones (from an R-symmetric start even in x).
    if case.startswith("extend"):
        g0, par = sp.make_grid(64, 128, 20.0, 20.0), ModelParams(p=2.0)
        init = _shifted_guess(g0, par) if case == "extend-real" else None
        base = sol.solve_nehari(g0, par, init=init, tol=1e-7)
        tol = 5e-7
        run = lambda: sol.extend_ground_state(base, sp.make_grid(64, 512, 20.0, 80.0), tol=tol)
    else:
        tol = 1e-7
        g, par = sp.make_grid(32, 64, 20.0, 40.0), ModelParams(p=2.0, v=0.5)
        init = _rotated_guess(g, par) if case == "solve" else sol.default_initial_guess(g, par)
        run = lambda: sol.solve_nehari(g, par, init=init, tol=tol)
    plain = sol._Spectra.direction
    faults = []

    def reversed_cg(self, ghat, hat, out=None, beta=0.0):
        dhat, slope, d_sq, au_d, a_d, u_d = plain(self, ghat, hat, out, beta)
        if beta and len(faults) < 3:
            faults.append(beta)
            if fault == "failed_search":
                return dhat, 1e30, d_sq, au_d, a_d, u_d
            dhat *= -1.0
            return dhat, -slope, d_sq, -au_d, a_d, -u_d
        return dhat, slope, d_sq, au_d, a_d, u_d

    monkeypatch.setattr(sol._Spectra, "direction", reversed_cg)
    transform_count.clear()
    out = run()
    assert len(faults) == 3
    flagged = [r for r in out.history if r.restart]
    assert len(flagged) == 3
    if fault == "uphill":
        assert all(r.step > 0.0 and r.backtracks == 0 for r in flagged)
    else:
        assert all(r.step == 0.0 and r.backtracks > 0 for r in flagged)
        assert len(out.action_history) == out.iterations - 3
    assert np.all(np.diff(out.action_history) <= 0.0)
    # two scipy calls per layout transform on `_RSYM`, one on the others
    calls = 2 if case == "rsym" else 1
    assert sum(transform_count.values()) == calls * 2 * out.iterations
    assert set(transform_count) == {"extend": {"dctn"}, "solve": {"fft2", "ifft2"},
                                    "rsym": {"dctn", "rfft2", "irfft2"}}.get(
        case, {"rfft2", "irfft2"})
    assert out.gradient_residual <= tol * sp.l2_norm(out.q)


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


def _fit_full_arrays(u, q, refine):
    """orbital_fit formed with full-size arrays: the full spectra, mirrored
    whole from the stored ones, the X weight, the weighted product, its
    transform and modulus, the shift and the residual."""
    g = u.grid
    w = fl.x_weight(g)
    uh, qh = (layout.spectrum_rows(hat, slice(None), g.shape)
              for hat, layout in map(sp._spectrum, (u, q)))
    coef = w * uh * np.conj(qh) * g.cell_area
    j1, j2 = sol._lattice_peaks(np.abs(sp._fft2(coef)))
    taus = np.stack([((j1 + g.nx // 2) % g.nx - g.nx // 2) * g.dx,
                     ((j2 + g.ny // 2) % g.ny - g.ny // 2) * g.dy], axis=1)
    taus = [sol._refine_peak(coef, g, tau) for tau in taus] if refine else taus[:1]
    cs = [sol._corr_derivatives(coef, g.xi, g.eta, tau)[0] for tau in taus]
    best = int(np.argmax(np.abs(cs)))
    tau, theta = taus[best], float(np.angle(cs[best]))
    shift = np.exp(1j * (theta + g.xi * tau[0]))[:, None] * np.exp(1j * g.eta * tau[1])[None, :]
    res = uh - shift * qh
    dist_sq = float(np.sum(w * sp._density(res))) * g.cell_area
    return sol.OrbitalFit(theta=theta, tau1=float(tau[0]), tau2=float(tau[1]),
                          distance=math.sqrt(dist_sq))


def _fit_pair(shape, box, rep):
    """An R-symmetric traveling profile q, stored as its half, and u, a
    shifted, phased and perturbed copy of it, both in representation `rep`."""
    g = sp.make_grid(*shape, *box)
    x, y = g.x[:, None], g.y[None, :]
    q = sp.Field._of(g, sp._RSYM.pack(np.exp(-x ** 2 / 3.0 - (y / 2.0) ** 2 + 0.3j * y)),
                     sp._RSYM)
    rng = np.random.default_rng(11)
    noise = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) \
        * np.exp(-(x ** 2 + y ** 2) / 16.0)
    u = sp.physical_field(g, np.exp(0.7j) * np.roll(q.values, (3, -5), axis=(0, 1))
                          + 0.02 * noise)
    return (u, q) if rep == sp.PHYSICAL else (sp.to_spectral(u), sp.to_spectral(q))


def test_orbital_fit_keeps_the_best_refined_peak():
    # u = q(. - a) + 1.02 q(. - b), a on the lattice and b half a cell off it
    # in x and in y: the lattice argmax of |c| is at a, but the refined peak
    # at b is higher, and its residual q(. - a) + 0.02 q(. - b) is the smaller
    g = sp.make_grid(32, 32, 20.0, 20.0)
    qh = sp._fft2(np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 2.0))

    def shifted(c):
        return qh * np.exp(-1j * (g.xi[:, None] * c[0] + g.eta[None, :] * c[1]))
    a, b = np.array([-8 * g.dx, 0.0]), np.array([8.5 * g.dx, 0.5 * g.dy])
    q = sp.spectral_field(g, qh)
    u = sp.spectral_field(g, shifted(a) + 1.02 * shifted(b))
    lattice = sol.orbital_fit(u, q, refine=False)
    assert (lattice.tau1, lattice.tau2) == pytest.approx(tuple(-a), abs=1e-12)
    fit = sol.orbital_fit(u, q)
    assert (lattice, fit) == (_fit_full_arrays(u, q, False), _fit_full_arrays(u, q, True))
    assert (fit.tau1, fit.tau2) == pytest.approx(tuple(-b), abs=1e-8)
    assert abs(fit.theta) <= 1e-8
    want = fl.x_norm(sp.spectral_field(g, shifted(a) + 0.02 * shifted(b)))
    assert fit.distance == pytest.approx(want, rel=1e-8)
    assert fit.distance < 0.99 * fl.x_norm(sp.spectral_field(g, 1.02 * shifted(b)))


@pytest.mark.parametrize("refine", [True, False], ids=["refine", "lattice"])
@pytest.mark.parametrize("rep", [sp.PHYSICAL, sp.SPECTRAL])
@pytest.mark.parametrize("shape, box", [((128, 128), (40.0, 40.0)),
                                        ((256, 1024), (40.0, 160.0))], ids=["128x128", "256x1024"])
def test_orbital_fit_bit_identical_to_full_arrays(shape, box, rep, refine):
    # the fit by row blocks in one buffer gives the full-array fit's bits
    u, q = _fit_pair(shape, box, rep)
    fit = sol.orbital_fit(u, q, refine)
    assert fit == _fit_full_arrays(u, q, refine)
    assert abs(fit.theta - 0.7) <= 1e-2


@pytest.mark.parametrize("layout", ["_EVEN", "_RSYM", "_REAL"])
def test_orbital_fit_on_stored_spectra_matches_full_copies(monkeypatch, layout):
    # q stored as `layout`, its spectrum read by row blocks of the full
    # spectrum (5-row blocks, one across row nx/2), fits as its `_FULL`
    # copy does, against a shifted, phase-rotated, perturbed partner and
    # against itself, and no full array is unpacked from a quarter (a half
    # spectrum mirrored past ny/2 without its conjugate reflection moves
    # the fit's theta by 1.5e-2)
    lay = getattr(sp, layout)
    g = sp.make_grid(64, 128, 20.0, 40.0)
    x, y = g.x[:, None], g.y[None, :]
    vals = np.exp(-x ** 2 / 3.0 - (y / 2.0) ** 2)
    if lay is sp._RSYM:
        vals = vals * np.exp(0.3j * y)
    elif lay is sp._REAL:
        vals = vals * (1.0 + 0.3 * np.sin(x + 0.5) + 0.2 * np.cos(0.7 * y - 0.2))
    q = sp.Field._of(g, lay.pack(vals), lay)
    full = sp.physical_field(g, q.values.astype(np.complex128))
    hat, _ = sp._spectrum(q)
    want = sp._fft2(full.values)
    assert np.max(np.abs(lay.spectrum_rows(hat, slice(None), g.shape) - want)) \
        <= 1e-14 * np.max(np.abs(want))
    rng = np.random.default_rng(3)
    noise = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)) \
        * np.exp(-(x ** 2 + y ** 2) / 16.0)
    u = sp.physical_field(g, np.exp(0.7j) * np.roll(full.values, (3, -5), axis=(0, 1))
                          + 0.02 * noise)
    monkeypatch.setattr(sol, "_FUSE_ELEMS", 5 * g.ny)
    unpacks = count_full_unpacks(monkeypatch)
    fits = [sol.orbital_fit(u, q), sol.orbital_fit(q, q)]
    assert not unpacks
    refs = [sol.orbital_fit(u, full), sol.orbital_fit(full, full)]
    for fit, ref in zip(fits, refs):
        for got, expect in ((fit.theta, ref.theta), (fit.tau1, ref.tau1), (fit.tau2, ref.tau2)):
            assert abs(got - expect) <= 1e-14
    assert fits[0].distance == pytest.approx(refs[0].distance, rel=1e-12)
    assert max(fits[1].distance, refs[1].distance) <= 1e-12 * fl.x_norm(full)
    assert abs(fits[0].theta - 0.7) <= 1e-2


@pytest.mark.parametrize("rep, bound", [(sp.SPECTRAL, 1.5), (sp.PHYSICAL, 3.5),
                                        (sp.PHYSICAL, 2.2)])
def test_orbital_fit_peak_memory(rep, bound):
    # tracemalloc sees numpy's arrays but not pocketfft's internal buffers.
    # Peaks on 256x1024 in units of the complex field: with full-size
    # weight, product, correlation, modulus, shift and residual the fit
    # took 4.5 on spectral inputs and 6.5 on physical R-symmetric ones (the
    # two spectra formed inside); with one buffer beyond the spectra it
    # took 1.20 and 3.20, and with the R-symmetric spectra kept as their
    # stored rows 0..nx/2 and read by row blocks it takes 1.20 and 1.79
    # (the physical case is held both to the earlier bound, 3.5, and to 2.2)
    u, q = _fit_pair((256, 1024), (40.0, 160.0), rep)
    if rep == sp.PHYSICAL:  # both stored as R-symmetric halves, as the sweep's are
        u, q = (sp.Field._of(f.grid, sp._RSYM.pack(f.values), sp._RSYM) for f in (u, q))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol.orbital_fit(u, q)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound * u.grid.nx * u.grid.ny * 16


@pytest.mark.parametrize("layout", ["_FULL", "_REAL", "_EVEN", "_RSYM"])
def test_cold_solves_take_no_step_beyond_one(monkeypatch, layout):
    # the model step beyond alpha = 1 is taken only from a converged start
    # (extend_ground_state); solve_nehari and solve_mass_constrained (v = 0
    # only, so no `_RSYM`) backtrack from alpha = 1 on every layout
    runs = []
    plain = sol._descent

    def spy(u, *args, layout, **kwargs):
        out = plain(u, *args, layout=layout, **kwargs)
        runs.append((layout, out[1]["history"]))
        return out

    monkeypatch.setattr(sol, "_descent", spy)
    g = sp.make_grid(32, 64, 20.0, 40.0)
    par = ModelParams(p=2.0, v=0.5 if layout == "_RSYM" else 0.0)
    init = {"_FULL": _rotated_guess(g, par), "_REAL": _shifted_guess(g, par)}.get(layout)
    sol.solve_nehari(g, par, init=init, tol=1e-7)
    if par.v == 0.0:
        sol.solve_mass_constrained(g, 3.0, 2.0, init=init, tol=1e-6)
    assert [lay for lay, _ in runs] == [getattr(sp, layout)] * (1 if par.v else 2)
    for _, history in runs:
        assert max(r.step for r in history) == 1.0


@pytest.mark.parametrize("start", [
    pytest.param("even", id="real"),
    pytest.param("rotated", id="rotated"),
    pytest.param("shifted", id="shifted"),
])
def test_mass_constrained_matches_ground_state(p2_state, transform_count, start):
    # the descent of solve_nehari on the mass sphere, two transforms per
    # iteration: an even start on quarters, a real one that is not even on
    # half spectra, a rotated one on full spectra
    g = p2_state.q.grid
    mu = fl.mass(p2_state.q)
    par = ModelParams(p=2.0)
    init = {"even": sol.default_initial_guess(g, par), "shifted": _shifted_guess(g, par),
            "rotated": sp.physical_field(
                g, np.exp(0.7j) * sol.default_initial_guess(g, par).values)}[start]
    transform_count.clear()
    mm = sol.solve_mass_constrained(g, mu, 2.0, init=init, tol=1e-5)
    assert sum(transform_count.values()) == 2 * mm.iterations
    assert set(transform_count) == {"even": {"dctn"}, "shifted": {"rfft2", "irfft2"},
                                    "rotated": {"fft2", "ifft2"}}[start]
    assert mm.energy < 0
    # the outputs come from the descent's sums; fresh functionals must agree
    m = mm.minimizer
    assert mm.energy == pytest.approx(fl.hamiltonian(m, 2.0), rel=1e-12)
    omega = (fl.lp1_power(m, 2.0) - fl.dx_norm_sq(m) - fl.dy_half_norm_sq(m)) / (2.0 * mu)
    assert mm.omega_multiplier == pytest.approx(omega, rel=1e-12)
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
    with pytest.raises(ValueError):
        sol.solve_mass_constrained(g, math.inf, 2.0)
    with pytest.raises(sol.CollapseError):
        sol.solve_mass_constrained(g, 1.0, 2.0, init=sp.physical_field(g, np.zeros(g.shape)))
    with pytest.raises(sol.ConvergenceError) as err:
        sol.solve_mass_constrained(g, 1.0, 2.0, max_iter=3)
    assert isinstance(err.value.solution, sol.MassMinimizer)
    assert err.value.solution.iterations == 3


def test_travel_probe_degeneration():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    points = sol.travel_upper_bound_probe(g, p=3.0, omega=1.0)
    i_vals = [pt.i_value for pt in points]
    assert all(a > b for a, b in zip(i_vals, i_vals[1:]))
    assert all(0.0 < pt.v < 1.0 for pt in points)
    assert all(pt.i_value > 0 for pt in points)
    with pytest.raises(ValueError):
        sol.travel_upper_bound_probe(g, p=3.0, omega=1.0, alpha=2.0)
