"""Tests for split-step evolution, Picard oracle, and decay probes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import hwlab.evolution as ev
import hwlab.solitary as sol
import hwlab.spectral as sp


def _gaussian(g, amp=1.0, width=2.0):
    vals = amp * np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / width)
    return sp.physical_field(g, vals)


def test_linear_propagate_single_mode_phase():
    g = sp.make_grid(16, 16, 2.0 * np.pi, 2.0 * np.pi)
    vals = np.exp(1j * (2.0 * g.x[:, None] + 3.0 * g.y[None, :]))
    u = sp.physical_field(g, vals)
    out = ev.linear_propagate(u, 0.7)
    # mode (2, 3): symbol xi^2 + |eta| = 4 + 3
    assert np.allclose(out.values, np.exp(-1j * 0.7 * 7.0) * vals,
                       rtol=0, atol=1e-12)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ev.linear_propagate(u, t)


@given(nx=st.integers(4, 24).map(lambda k: 2 * k), ny=st.integers(4, 24).map(lambda k: 2 * k),
       real=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_linear_propagate_group_law_and_isometry(nx, ny, real, seed):
    # a real start's norm is also summed over its half spectrum
    g = sp.make_grid(nx, ny, 15.0, 15.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape)
    u = sp.physical_field(g, vals if real else vals + 1j * rng.standard_normal(g.shape))
    once = ev.linear_propagate(u, 0.9)
    twice = ev.linear_propagate(ev.linear_propagate(u, 0.4), 0.5)
    assert np.allclose(once.values, twice.values, rtol=0, atol=1e-13)
    back = ev.linear_propagate(once, -0.9)
    assert np.allclose(back.values, u.values, rtol=0, atol=1e-13)
    assert sp.l2_norm_sq(once) == pytest.approx(sp.l2_norm_sq(u), rel=1e-13)
    assert sp.quadratic_form(u, 1.0) == pytest.approx(sp.l2_norm_sq(once), rel=1e-13)


@pytest.mark.parametrize("focusing,sign", [(True, 1.0), (False, -1.0)])
def test_strang_step_constant_field_oracle(focusing, sign):
    # constant field: no linear phase, pure nonlinear rotation
    g = sp.make_grid(16, 16, 10.0, 10.0)
    c = 0.7 + 0.4j
    u = sp.physical_field(g, np.full(g.shape, c))
    out = ev.strang_step(u, 1e-2, 3.0, focusing=focusing)
    expect = c * np.exp(1j * sign * 1e-2 * abs(c) ** 2)
    assert np.max(np.abs(out.values - expect)) <= 1e-14


@given(shape=st.tuples(st.integers(1, 24), st.integers(1, 24)), p=st.floats(1.05, 5.0),
       angle=st.floats(-math.pi, math.pi), real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rotate_matches_exponential_and_keeps_modulus(shape, p, angle, real, seed):
    # cos and sin from tan(theta/2); the largest angle in the array is `angle`
    rng = np.random.default_rng(seed)
    vals = 3.0 * rng.uniform(size=shape) * np.exp(2j * math.pi * rng.uniform(size=shape))
    if real:
        vals = vals.real + 0j
    vals[0, 0] = 0.0
    amp = np.abs(vals)
    tau = angle / max(float(np.max(amp ** (p - 1.0))), 1e-300)
    rot = ev._rotate(vals, tau, p)
    assert rot.dtype == np.complex128
    assert np.all(np.abs(rot - vals * np.exp(1j * tau * amp ** (p - 1.0))) <= 4e-15 * amp)
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.abs(rot) - amp) <= 4.0 * eps * amp)
    # the way back reads |rot|, an ulp off |vals|, so its angle is off by an
    # ulp of theta: within 1e-15 at Strang-step angles, here up to 0.1
    small = 0.1 * tau / math.pi
    back = ev._rotate(ev._rotate(vals, small, p), -small, p)
    assert np.all(np.abs(back - vals) <= 1e-15 * amp)


def test_rotate_zero_field_and_large_angles():
    zero = np.zeros((4, 6), np.complex128)
    assert np.array_equal(ev._rotate(zero, 1.0, 3.0), zero)
    # angles up to 1e6; at theta = pi (as a double) tan(theta/2) is 1.6e16
    vals = np.linspace(0.0, 1e3, 20001).reshape(1, -1) * np.exp(0.3j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rot = ev._rotate(vals, 1.0, 3.0)
        half_turn = ev._rotate(np.ones((1, 1), np.complex128), math.pi, 2.0)
    assert np.all(np.isfinite(rot))
    assert abs(half_turn[0, 0] - np.exp(1j * math.pi)) <= 4e-16
    amp = np.abs(vals)
    assert np.all(np.abs(np.abs(rot) - amp) <= 4.0 * np.finfo(float).eps * amp)


def test_strang_step_reversible_and_mass_preserving():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    u = _gaussian(g, amp=1.0 + 0.5j, width=3.0)
    f = ev.strang_step(u, 4e-3, 3.0)
    assert sp.l2_norm_sq(f) == pytest.approx(sp.l2_norm_sq(u), rel=1e-14)
    b = ev.strang_step(f, -4e-3, 3.0)
    assert np.max(np.abs(b.values - u.values)) <= 1e-13
    for dt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ev.strang_step(u, dt, 3.0)


def test_strang_step_dealias_small_on_bandlimited_data():
    # the mask only removes the O(dt) harmonics the half-step creates
    g = sp.make_grid(32, 32, 10.0, 10.0)
    hat = np.zeros(g.shape, dtype=complex)
    hat[3, 4] = 1.0
    hat[-2, -5] = 0.5j  # inside the 2/3 band
    u = sp.to_physical(sp.spectral_field(g, hat))
    plain = ev.strang_step(u, 2e-3, 3.0, dealias=False)
    masked = ev.strang_step(u, 2e-3, 3.0, dealias=True)
    assert np.max(np.abs(plain.values - masked.values)) <= 1e-7
    assert sp.l2_norm_sq(masked) == pytest.approx(sp.l2_norm_sq(u), rel=1e-10)


grids = st.builds(sp.make_grid, st.sampled_from([16, 24, 32]), st.sampled_from([16, 32]),
                  st.floats(8.0, 30.0), st.floats(8.0, 30.0))


def _smooth_field(g, seed):
    """Random complex field of unit size: a few low modes under a Gaussian."""
    rng = np.random.default_rng(seed)
    hat = np.zeros(g.shape, dtype=complex)
    hat[:3, :3] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    env = np.exp(-(g.x[:, None] ** 2 / g.lx + g.y[None, :] ** 2 / g.ly))
    vals = env * sp.to_physical(sp.spectral_field(g, hat)).values
    return sp.physical_field(g, vals / np.max(np.abs(vals)))


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@given(grid=grids, p=st.floats(1.5, 4.5), dt=st.floats(1e-4, 1e-2), k=st.integers(1, 6),
       focusing=st.booleans(), dealias=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_merged_steps_match_single_steps(grid, p, dt, k, focusing, dealias, seed):
    u = _smooth_field(grid, seed)
    single = u
    for _ in range(k):
        single = ev.strang_step(single, dt, p, focusing=focusing, dealias=dealias)
    merged = ev.evolve(u, p, k * dt, dt, sample_stride=k, focusing=focusing,
                       dealias=dealias, enforce_dt_limit=False)
    assert merged.n_steps == k
    assert _rel(merged.final.values, single.values) <= 1e-12


@given(grid=grids, p=st.floats(1.5, 4.5), dt=st.floats(1e-4, 1e-2), k=st.integers(1, 6),
       focusing=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_merged_steps_reversible_and_mass_preserving(grid, p, dt, k, focusing, seed):
    u = _smooth_field(grid, seed).values
    sign = 1.0 if focusing else -1.0
    fwd = ev._strang(u, k, dt, p, sign, ev._propagator(grid, dt, False))
    back = ev._strang(fwd, k, -dt, p, sign, ev._propagator(grid, -dt, False))
    assert _rel(back, u) <= 1e-12
    mass = np.vdot(u, u).real
    assert abs(np.vdot(fwd, fwd).real - mass) <= 1e-12 * mass


@pytest.mark.parametrize("dealias", [False, True])
@pytest.mark.parametrize("with_reference", [False, True])
def test_evolve_transform_budget(p2_state, transform_count, dealias, with_reference):
    # one FFT pair per step, one forward transform per monitor sample and
    # per fit correlation, one for the reference spectrum
    q = p2_state.q
    tr = ev.evolve(q, p=2.0, T=0.03, dt=2e-3, sample_stride=4, dealias=dealias,
                   reference=q if with_reference else None, ham_drift_abort=np.inf)
    steps, samples = 15, 5
    assert tr.n_steps == steps
    assert np.allclose(tr.times, [0.0, 8e-3, 16e-3, 24e-3, 30e-3], rtol=0, atol=1e-15)
    fits = samples if with_reference else 0
    assert transform_count["fft2"] == steps + samples + fits + int(with_reference)
    assert transform_count["ifft2"] == steps
    assert sum(transform_count.values()) == 2 * steps + samples + fits + int(with_reference)


def test_evolve_standing_wave_conservation(p2_state):
    q = p2_state.q
    tr = ev.evolve(q, p=2.0, T=0.5, dt=4e-3, sample_stride=10, reference=q)
    m0 = tr.mass[0]
    assert np.max(np.abs(tr.mass - m0)) / m0 <= 1e-12
    h0 = tr.hamiltonian[0]
    assert np.max(np.abs(tr.hamiltonian - h0)) / abs(h0) <= 1e-8
    assert np.max(tr.orbital_distance) <= 5e-4
    assert tr.mass_ok and not tr.blown_up and tr.abort_reason is None
    # the wave rotates as exp(i omega t): relative phase slope is omega
    slope = np.polyfit(tr.times, np.unwrap(tr.phase), 1)[0]
    assert slope == pytest.approx(p2_state.params.omega, abs=1e-4)


def test_evolve_validation(p2_state):
    q = p2_state.q
    with pytest.raises(ValueError):
        ev.evolve(q, p=2.0, T=-1.0, dt=1e-3)
    with pytest.raises(ValueError):
        ev.evolve(q, p=2.0, T=1.0, dt=1e-3, sample_stride=0)
    with pytest.raises(ValueError, match="exceeds 0.5"):
        ev.evolve(q, p=2.0, T=1.0, dt=0.1)
    with pytest.raises(ValueError, match="one step"):
        ev.evolve(q, p=2.0, T=1e-6, dt=1e-3)
    for T, dt in ((math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ev.evolve(q, p=2.0, T=T, dt=dt, enforce_dt_limit=False)
    other = sp.make_grid(32, 32, 40.0, 40.0)
    with pytest.raises(ValueError, match="different grid"):
        ev.evolve(q, p=2.0, T=0.1, dt=1e-3,
                  reference=_gaussian(other))


def test_evolve_blowup_monitor_aborts():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    blob = _gaussian(g, amp=4.0, width=2.0)
    tr = ev.evolve(blob, p=4.0, T=1.0, dt=4e-3, sample_stride=5,
                   blowup_factor=2.0, ham_drift_abort=1e9)
    assert tr.blown_up
    assert tr.abort_reason == "mixed-norm blow-up monitor"
    assert tr.n_steps < int(round(1.0 / 4e-3))
    assert tr.l2x_hsy[-1] >= 2.0 * tr.l2x_hsy[0]


def test_evolve_hamiltonian_drift_aborts():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    blob = _gaussian(g, amp=4.0, width=2.0)
    tr = ev.evolve(blob, p=4.0, T=1.0, dt=4e-3, sample_stride=5,
                   ham_drift_abort=1e-6, blowup_factor=1e9)
    assert not tr.blown_up
    assert tr.abort_reason == "hamiltonian drift"


def test_evolve_distance_stop(p2_state):
    q = p2_state.q
    u0 = sol.t_lambda(q, 1.05, tail_tol=1e-3)
    tr = ev.evolve(u0, p=2.0, T=1.0, dt=4e-3, sample_stride=5, reference=q,
                   distance_stop=1e-3)
    assert tr.abort_reason == "distance threshold"
    assert tr.orbital_distance[-1] >= 1e-3


def test_evolve_dealias_flags_mass_loss():
    # full-spectrum noise loses the masked third of its mass
    g = sp.make_grid(64, 64, 20.0, 20.0)
    rng = np.random.default_rng(3)
    noise = sp.physical_field(g, rng.standard_normal(g.shape)
                              + 1j * rng.standard_normal(g.shape))
    tr = ev.evolve(noise, p=2.0, T=0.02, dt=2e-3, sample_stride=1, dealias=True)
    assert not tr.mass_ok


def test_evolve_extra_monitor(p2_state):
    q = p2_state.q
    tr = ev.evolve(q, p=2.0, T=0.02, dt=2e-3, sample_stride=1,
                   extra_monitor=lambda f: float(np.max(np.abs(f.values))))
    assert tr.extra is not None
    assert np.allclose(tr.extra, tr.linf, rtol=0, atol=1e-12)


def test_strang_second_order_convergence():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    u0 = _gaussian(g, amp=0.5, width=2.0)
    ref = ev.evolve(u0, p=3.0, T=0.1, dt=1.25e-4, sample_stride=10 ** 6).final
    errs = []
    for dt in (2e-3, 1e-3):
        tr = ev.evolve(u0, p=3.0, T=0.1, dt=dt, sample_stride=10 ** 6)
        diff = tr.final.values - ref.values
        errs.append(np.sqrt(np.sum(np.abs(diff) ** 2) * g.cell_area))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_picard_linear_limit_matches_free_group():
    g = sp.make_grid(32, 32, 15.0, 15.0)
    u0 = _gaussian(g, amp=0.3, width=2.0)
    res = ev.picard_solve(u0, p=3.0, T=0.3, n_steps=48, nl_coeff=0.0)
    assert res.converged and res.sweeps == 1
    exact = ev.linear_propagate(u0, 0.3)
    assert np.max(np.abs(res.final.values - exact.values)) <= 1e-13


def test_picard_matches_strang_small_data():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    u0 = _gaussian(g, amp=0.1, width=2.0)
    pic = ev.picard_solve(u0, p=3.0, T=0.2, n_steps=200, tol=1e-13)
    assert pic.converged
    assert pic.distances[-1] < pic.distances[0]
    tr = ev.evolve(u0, p=3.0, T=0.2, dt=1e-3, sample_stride=100)
    diff = pic.final.values - tr.final.values
    err = np.sqrt(np.sum(np.abs(diff) ** 2) * g.cell_area)
    assert err <= 1e-10


def test_picard_contraction_failure_raises():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    big = _gaussian(g, amp=3.0, width=2.0)
    with pytest.raises(ev.PicardContractionError) as info:
        ev.picard_solve(big, p=3.0, T=2.0, n_steps=64)
    assert len(info.value.distances) >= 2
    assert info.value.distances[-1] >= info.value.distances[-2]


def test_picard_validation():
    g = sp.make_grid(16, 16, 10.0, 10.0)
    u0 = _gaussian(g)
    with pytest.raises(ValueError):
        ev.picard_solve(u0, p=3.0, T=0.0)
    with pytest.raises(ValueError):
        ev.picard_solve(u0, p=3.0, T=1.0, n_steps=0)
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ev.picard_solve(u0, p=3.0, T=T)


def test_dispersive_decay_probe_gaussian_slope():
    x = np.linspace(-320.0, 320.0, 8192, endpoint=False)
    prof = np.exp(-x ** 2 / 0.5)
    probe = ev.dispersive_decay_probe(prof, 640.0, np.geomspace(1.0, 8.0, 8))
    assert probe.fit_valid
    assert probe.slope == pytest.approx(-0.5, abs=0.01)
    assert np.all(np.diff(probe.sup_norms) < 0)


def test_dispersive_decay_probe_flags_boundary_reach():
    x = np.linspace(-320.0, 320.0, 8192, endpoint=False)
    prof = np.exp(-x ** 2 / 0.5)
    probe = ev.dispersive_decay_probe(prof, 640.0, np.geomspace(1.0, 400.0, 8))
    assert not probe.fit_valid


def test_dispersive_decay_probe_validation():
    with pytest.raises(ValueError):
        ev.dispersive_decay_probe(np.ones((4, 4)), 10.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        ev.dispersive_decay_probe(np.ones(16), 10.0, [1.0])
    with pytest.raises(ValueError):
        ev.dispersive_decay_probe(np.ones(16), 10.0, [2.0, 1.0])
    with pytest.raises(ValueError):
        ev.dispersive_decay_probe(np.zeros(16), 10.0, [1.0, 2.0])
    for lx in (0.0, -320.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ev.dispersive_decay_probe(np.ones(16), lx, [1.0, 2.0])
    line = np.exp(-np.linspace(-160.0, 160.0, 64, endpoint=False) ** 2)
    for times in ((0.5, math.nan), (0.5, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            ev.dispersive_decay_probe(line, 320.0, times)
