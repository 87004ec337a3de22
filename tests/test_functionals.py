"""Functional values on closed-form profiles and identity cross-checks."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from hwlab import functionals as fl
from hwlab import spectral as sp
from hwlab.functionals import ModelParams


@pytest.fixture
def grid():
    return sp.make_grid(64, 64, 20.0, 20.0)


@pytest.fixture
def gauss(grid):
    vals = np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2) / 2.0)
    return sp.physical_field(grid, vals)


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    env = np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2) / 8.0)
    return sp.physical_field(grid, vals * env)


@pytest.mark.parametrize("p,omega,v", [(0.9, 1.0, 0.0), (5.0, 1.0, 0.0), (5.1, 1.0, 0.0),
                                       (2.0, 0.0, 0.0), (2.0, -1.0, 0.0),
                                       (2.0, 1.0, 1.0), (2.0, 1.0, -1.3)])
def test_params_validation(p, omega, v):
    with pytest.raises(ValueError):
        ModelParams(p=p, omega=omega, v=v)


def test_critical_exponents():
    assert ModelParams(p=7.0 / 3.0).s_p == pytest.approx(0.0, abs=1e-15)
    assert ModelParams(p=3.0).s_p == pytest.approx(0.5)
    assert ModelParams(p=3.0).mass_map_exponent == pytest.approx(-2.0)
    assert ModelParams(p=2.0).s_p == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        ModelParams(p=7.0 / 3.0).mass_map_exponent


def test_gaussian_mass(gauss):
    # int exp(-r^2) over the plane is pi, so M = pi/2
    assert fl.mass(gauss) == pytest.approx(np.pi / 2.0, rel=1e-12)


def test_gaussian_lp1_power(gauss):
    # int exp(-(p+1) r^2 / 2) = 2 pi / (p+1)
    for p in (2.0, 3.0, 7.0 / 3.0):
        assert fl.lp1_power(gauss, p) == pytest.approx(2.0 * np.pi / (p + 1.0),
                                                       rel=1e-12)


def test_gaussian_dx_norm(gauss):
    # ||dx u||^2 = int x^2 exp(-r^2) = pi/2
    assert fl.dx_norm_sq(gauss) == pytest.approx(np.pi / 2.0, rel=1e-10)


def test_gaussian_dy_half_norm(gauss):
    # <|D_y| u, u> = (2 pi)^{-1} int |eta| |uhat|^2 with |uhat|^2 = 2 pi e^{-eta^2}
    # per unit x-mass: total = sqrt(pi) * int |eta| e^{-eta^2} deta ... do it
    # directly: sum_eta |eta| * pi e^{-eta^2} -> pi * 1 = pi... keep numeric
    # oracle: 1-D quadrature of |eta| against the exact transform.
    g = gauss.grid
    eta = np.sort(g.eta)
    # exact spectrum of e^{-y^2/2} in unitary convention carries e^{-eta^2}
    oracle = np.sqrt(np.pi) * integrate.trapezoid(np.abs(eta) * np.exp(-eta ** 2), eta)
    assert fl.dy_half_norm_sq(gauss) == pytest.approx(oracle, rel=1e-6)


def test_action_identities(grid):
    u = random_field(grid, 1)
    par = ModelParams(p=2.5, omega=1.3, v=0.4)
    s = fl.action(u, par)
    # S = I + N/(p+1) and S = H + omega M + (v-term) with the v term read
    # off the quadratic forms
    assert s == pytest.approx(fl.i_value(u, par) + fl.nehari(u, par) / (par.p + 1.0),
                              rel=1e-12)
    par0 = ModelParams(p=2.5, omega=1.3, v=0.0)
    assert fl.action(u, par0) == pytest.approx(
        fl.hamiltonian(u, par0.p) + par0.omega * fl.mass(u), rel=1e-12)


def test_quadratic_form_decomposition(grid):
    u = random_field(grid, 2)
    par = ModelParams(p=2.0, omega=0.7, v=0.0)
    expect = fl.dx_norm_sq(u) + fl.dy_half_norm_sq(u) + par.omega * sp.l2_norm_sq(u)
    assert fl.quadratic_action_form(u, par) == pytest.approx(expect, rel=1e-12)


def test_x_norm_composition(grid):
    u = random_field(grid, 3)
    assert fl.x_norm_sq(u) == pytest.approx(
        fl.dx_norm_sq(u) + fl.dy_half_norm_sq(u) + sp.l2_norm_sq(u), rel=1e-12)
    assert fl.x_inner(u, u).real == pytest.approx(fl.x_norm_sq(u), rel=1e-12)
    assert abs(fl.x_inner(u, u).imag) <= 1e-12 * fl.x_norm_sq(u)


def test_i_value_coercive(grid):
    # I controls (1 - |v|) of the X norm for omega ~ 1
    par = ModelParams(p=3.0, omega=1.0, v=0.9)
    u = random_field(grid, 4)
    lower = (0.5 - 1.0 / (par.p + 1.0)) * (1.0 - abs(par.v)) * (
        fl.dx_norm_sq(u) + fl.dy_half_norm_sq(u) + sp.l2_norm_sq(u))
    assert fl.i_value(u, par) >= lower - 1e-12 * fl.x_norm_sq(u)


def test_gn_quotient_invariances(grid):
    u = random_field(grid, 5)
    q0 = fl.gn_quotient(u, 2.0)
    scaled = sp.physical_field(grid, 3.7 * u.values)
    assert fl.gn_quotient(scaled, 2.0) == pytest.approx(q0, rel=1e-12)
    phased = sp.physical_field(grid, np.exp(0.9j) * u.values)
    assert fl.gn_quotient(phased, 2.0) == pytest.approx(q0, rel=1e-12)
    rolled = sp.physical_field(grid, np.roll(u.values, (3, -5), axis=(0, 1)))
    assert fl.gn_quotient(rolled, 2.0) == pytest.approx(q0, rel=1e-12)
    with pytest.raises(ValueError):
        fl.gn_quotient(sp.physical_field(grid, np.zeros(grid.shape)), 2.0)


def test_action_gradient_matches_finite_differences(grid):
    u = random_field(grid, 6)
    w = random_field(grid, 7)
    par = ModelParams(p=2.5, omega=1.1, v=0.3)
    grad = fl.action_gradient(u, par)
    pairing = float(np.sum(grad.values.real * w.values.real
                           + grad.values.imag * w.values.imag)) * grid.cell_area
    eps = 1e-6
    plus = sp.physical_field(grid, u.values + eps * w.values)
    minus = sp.physical_field(grid, u.values - eps * w.values)
    fd = (fl.action(plus, par) - fl.action(minus, par)) / (2.0 * eps)
    assert pairing == pytest.approx(fd, rel=1e-6)


def test_nehari_is_radial_action_derivative(grid):
    # N(u) = d/dt S(t u) at t = 1
    u = random_field(grid, 8)
    par = ModelParams(p=3.0, omega=1.0, v=0.0)
    eps = 1e-6
    fd = (fl.action(sp.physical_field(grid, (1 + eps) * u.values), par)
          - fl.action(sp.physical_field(grid, (1 - eps) * u.values), par)) / (2 * eps)
    assert fl.nehari(u, par) == pytest.approx(fd, rel=1e-6)


def test_functional_report_consistency(grid):
    # one transform in the report, same numbers as the separate functionals
    for u, par in ((random_field(grid, 9), ModelParams(p=2.0, omega=1.0, v=0.0)),
                   (sp.to_spectral(random_field(grid, 10)), ModelParams(p=3.0, omega=0.7, v=0.6))):
        rep = fl.functional_report(u, par)
        separate = {
            "mass": fl.mass(u),
            "hamiltonian": fl.hamiltonian(u, par.p),
            "action": fl.action(u, par),
            "nehari": fl.nehari(u, par),
            "i_value": fl.i_value(u, par),
            "x_norm": fl.x_norm(u),
            "lp1_norm": fl.lp1_norm(u, par.p),
            "gn_quotient": fl.gn_quotient(u, par.p),
        }
        for name, value in separate.items():
            assert getattr(rep, name) == pytest.approx(value, rel=1e-12, abs=0.0), name


_specials = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
                             -1e-160, 1.5e154, 1e200, np.inf, -np.inf, np.nan])


@given(re_part=st.lists(st.one_of(_specials, st.floats()), min_size=1, max_size=24),
       im_part=st.lists(st.one_of(_specials, st.floats()), min_size=1, max_size=24))
def test_density_bit_identical_to_clipped(re_part, im_part):
    # a sum of two squares is never below +0: the clip that used to guard
    # fractional powers changed no bit, including -0.0, subnormals, inf, NaN
    n = min(len(re_part), len(im_part))
    u = np.empty(n, dtype=np.complex128)
    u.real, u.imag = re_part[:n], im_part[:n]  # -0.0, inf and NaN parts kept exactly
    with np.errstate(over="ignore", invalid="ignore"):
        got = fl._density(u)
        want = np.clip(u.real ** 2 + u.imag ** 2, 0.0, None)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@given(nx=st.integers(4, 32).map(lambda k: 2 * k), ny=st.integers(4, 32).map(lambda k: 2 * k),
       p=st.floats(1.1, 4.9), v=st.sampled_from([0.0, 0.5, -0.99]), real=st.booleans(),
       block=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1))
def test_row_blocked_sums_match_unblocked(nx, ny, p, v, real, block, seed):
    # lp1_power and quadratic_form sum row block by row block; the order
    # of the partial sums is the only difference from one np.sum
    g = sp.make_grid(nx, ny, 20.0, 30.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(g.shape)
    u = sp.physical_field(g, vals)
    hat = sp.to_spectral(u).values
    mult = sp.action_quadratic(1.3, v).values(g)
    par = ModelParams(p=p, omega=1.3, v=v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_FUSE_ELEMS", block)
        lp1 = fl.lp1_power(u, p)
        quad = sp.quadratic_form(u, mult)
        quad_action = fl.quadratic_action_form(u, par)
    dens = vals.real ** 2 + vals.imag ** 2
    assert lp1 == pytest.approx(np.sum(dens ** ((p + 1.0) / 2.0)) * g.cell_area, rel=1e-13)
    want = np.sum(mult * np.abs(hat) ** 2) * g.cell_area
    assert quad == pytest.approx(want, rel=1e-13)
    assert quad_action == pytest.approx(want, rel=1e-13)
