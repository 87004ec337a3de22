"""Acceptance suite: one test per advertised guarantee, at its stated
tolerance.  Run with -v for one pass/fail line per criterion; each test
also prints the measured values.

The final test polishes a ground state on a 320 x 196608 grid and needs
about 0.9 GB and half a minute on 2 cores; it is deliberately last.
"""

import math
import resource

import numpy as np
import pytest
from scipy.integrate import quad

import hwlab.evolution as ev
import hwlab.functionals as fl
import hwlab.solitary as sol
import hwlab.spectral as sp
from hwlab.functionals import ModelParams


@pytest.fixture(scope="module")
def p2_256():
    g = sp.make_grid(256, 256, 40.0, 40.0)
    return sol.solve_nehari(g, ModelParams(p=2.0), tol=1e-7)


@pytest.fixture(scope="module")
def p2_128():
    g = sp.make_grid(128, 128, 40.0, 40.0)
    return sol.solve_nehari(g, ModelParams(p=2.0), tol=1e-7)


@pytest.fixture(scope="module")
def p3_tall():
    # tall box: the scaling diagnostics are tail-limited in y
    g = sp.make_grid(128, 8192, 20.0, 160.0)
    return sol.solve_nehari(g, ModelParams(p=3.0), tol=1e-7)


@pytest.fixture(scope="module")
def p3_wide(p3_tall):
    # the y tail decays only algebraically: the scaling second variation
    # and the orthogonality bound need the continued, much taller box
    return sol.extend_ground_state(p3_tall, sp.make_grid(128, 65536, 20.0, 1280.0))


def test_criterion_01_transform_plancherel_suite():
    g = sp.make_grid(256, 256, 40.0, 55.0)
    rng = np.random.default_rng(0)
    u = sp.physical_field(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    back = sp.to_physical(sp.to_spectral(u))
    rt = np.max(np.abs(back.values - u.values)) / np.max(np.abs(u.values))
    m_phys = sp.l2_norm_sq(u)
    m_spec = sp.l2_norm_sq(sp.to_spectral(u))
    plancherel = abs(m_phys - m_spec) / m_phys
    v = sp.physical_field(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    ip = abs(sp.l2_inner(u, v) - sp.l2_inner(sp.to_spectral(u), sp.to_spectral(v)))
    ip /= abs(sp.l2_inner(u, v))
    print(f"criterion 01: roundtrip {rt:.2e}, plancherel {plancherel:.2e}, "
          f"inner {ip:.2e} (tol 1e-12)")
    assert rt <= 1e-12
    assert plancherel <= 1e-12
    assert ip <= 1e-12


def test_criterion_02_fractional_identity():
    y = np.linspace(-20.0, 20.0, 512, endpoint=False)
    u = np.exp(-y ** 2 / 8.0)
    worst = 0.0
    for s in (0.25, 0.5, 0.75):
        chk = sp.frac_seminorm_identity_check(u, 40.0, s)
        worst = max(worst, chk.relative_error)
        assert chk.relative_error <= 1e-2
    # quadrature oracle for the constant: 4 int_0^inf (1 - cos z)/z^2 dz
    head = quad(lambda z: (1.0 - math.cos(z)) / z ** 2, 0.0, 50.0, limit=200)[0]
    osc = quad(lambda z: 1.0 / z ** 2, 50.0, np.inf, weight="cos", wvar=1.0)[0]
    oracle = 4.0 * (head + 1.0 / 50.0 - osc)
    c_err = abs(sp.frac_constant(0.5) - oracle) / oracle
    print(f"criterion 02: worst identity rel {worst:.2e} (tol 1e-2), "
          f"constant vs quadrature {c_err:.2e} (tol 1e-3, oracle {oracle:.6f})")
    assert c_err <= 1e-3


def test_criterion_03_ground_state_residuals(p2_256):
    par = p2_256.params
    q = p2_256.q
    quad_form = fl.quadratic_action_form(q, par)
    neh = abs(fl.nehari(q, par)) / quad_form
    grad = sp.l2_norm(fl.action_gradient(q, par)) / sp.l2_norm(q)
    other = sol.solve_nehari(q.grid, par, tol=1e-7, init_kind="noise", seed=1)
    gap = abs(other.action_value - p2_256.action_value) / p2_256.action_value
    print(f"criterion 03: nehari {neh:.2e} (tol 1e-8), gradient {grad:.2e} "
          f"(tol 1e-6), two-init action gap {gap:.2e} (tol 1e-6)")
    assert neh <= 1e-8
    assert grad <= 1e-6
    assert gap <= 1e-6


def test_criterion_04_frequency_scaling_law(p2_256):
    q1 = p2_256.q
    rescaled = sol.rescale_omega(q1, 2.0, p=2.0)
    direct = sol.solve_nehari(rescaled.grid, ModelParams(p=2.0, omega=2.0),
                              tol=1e-7)
    fit = sol.orbital_fit(direct.q, rescaled)
    bound = 1e-3 * fl.x_norm(rescaled)
    ratio = fl.mass(rescaled) / fl.mass(q1)
    s_p = ModelParams(p=2.0).s_p  # mass scales as omega^{-s_p}
    ratio_err = abs(ratio - 2.0 ** (-s_p)) / 2.0 ** (-s_p)
    print(f"criterion 04: orbit distance {fit.distance:.2e} (bound {bound:.2e}), "
          f"mass ratio err {ratio_err:.2e} (tol 1e-4)")
    assert fit.distance <= bound
    assert ratio_err <= 1e-4


def test_criterion_05_gagliardo_nirenberg_sharpness(p2_256):
    g = p2_256.q.grid
    best_q = fl.gn_quotient(p2_256.q, 2.0)
    kx = np.abs(np.fft.fftfreq(g.nx) * g.nx)[:, None]
    ky = np.abs(np.fft.fftfreq(g.ny) * g.ny)[None, :]
    envelope = np.exp(-(kx ** 2 + ky ** 2) / (g.nx / 8.0) ** 2)
    rng = np.random.default_rng(0)
    best_random = 0.0
    for _ in range(200):
        coef = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        u = sp.Field(g, np.fft.ifft2(coef * envelope, norm="ortho"), sp.PHYSICAL)
        best_random = max(best_random, fl.gn_quotient(u, 2.0))
    print(f"criterion 05: quotient at ground state {best_q:.6f} > "
          f"best of 200 random fields {best_random:.6f}")
    assert best_q > best_random


def test_criterion_06_second_variation_coefficient(p3_wide, p2_128):
    sv = sol.second_variation_scaling(p3_wide.q, p3_wide.params)
    sv2 = sol.second_variation_scaling(p2_128.q, p2_128.params, tail_tol=1e-3)
    print(f"criterion 06: p=3 rel err {sv.relative_error:.2e} (tol 1e-4); "
          f"signs p=3 {sv.numeric:.3e} < 0 < p=2 {sv2.numeric:.3e}")
    assert sv.relative_error <= 1e-4
    # the coefficient -3(p-1)(3p-7)/(16(p+1)) changes sign at p = 7/3
    assert sv.analytic < 0 and sv.numeric < 0
    assert sv2.analytic > 0 and sv2.numeric > 0


def test_criterion_07_scaling_direction_orthogonality(p3_wide):
    q = p3_wide.q
    psi = sol.psi_omega(q)
    ortho = abs(sp.l2_inner(q, psi).real)
    bound = 1e-8 * sp.l2_norm_sq(q)
    print(f"criterion 07: |re<Q, psi>| {ortho:.3e} (bound {bound:.3e})")
    assert ortho <= bound


def test_criterion_09_conservation_standing_wave(p2_128):
    q = p2_128.q
    trace = ev.evolve(q, p=2.0, T=1.0, dt=1e-3, sample_stride=10, reference=q)
    m0, h0 = trace.mass[0], trace.hamiltonian[0]
    m_drift = float(np.max(np.abs(trace.mass - m0)) / m0)
    h_drift = float(np.max(np.abs(trace.hamiltonian - h0)) / abs(h0))
    rate = float(np.polyfit(trace.times, np.unwrap(trace.phase), 1)[0])
    rate_err = abs(rate - p2_128.params.omega) / p2_128.params.omega
    print(f"criterion 09: mass drift {m_drift:.2e} (tol 1e-12), hamiltonian "
          f"drift {h_drift:.2e} (tol 1e-6), phase rate {rate:.5f} (1% of 1)")
    assert m_drift <= 1e-12
    assert h_drift <= 1e-6
    assert rate_err <= 1e-2


def test_criterion_10_duhamel_cross_oracle():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    u0 = sp.physical_field(
        g, 0.1 * np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 2.0))
    ref = ev.picard_solve(u0, p=3.0, T=0.1, n_steps=400, tol=1e-14)
    assert ref.converged
    errs = []
    for dt in (2e-3, 1e-3):
        tr = ev.evolve(u0, p=3.0, T=0.1, dt=dt, sample_stride=10 ** 6)
        diff = tr.final.values - ref.final.values
        errs.append(float(np.sqrt(np.sum(np.abs(diff) ** 2) * g.cell_area)))
    ratio = errs[0] / errs[1]
    print(f"criterion 10: picard vs strang {errs[1]:.2e} (tol 1e-4), "
          f"halving ratio {ratio:.3f} (3.5..4.5)")
    assert errs[1] <= 1e-4
    assert 3.5 <= ratio <= 4.5


def test_criterion_11_dispersive_decay_exponent():
    x = np.linspace(-640.0, 640.0, 16384, endpoint=False)
    profile = np.exp(-x ** 2 / 0.5)
    probe = ev.dispersive_decay_probe(profile, 1280.0, np.geomspace(1.0, 20.0, 12))
    print(f"criterion 11: sup-norm exponent {probe.slope:.4f} "
          f"(-0.5 +- 0.05), fit_valid {probe.fit_valid}")
    assert probe.fit_valid
    assert abs(probe.slope + 0.5) <= 0.05


def test_criterion_12_orbital_stability_subcritical(p2_128):
    q = p2_128.q
    g = q.grid
    delta = 1e-2
    rng = np.random.default_rng(7)
    noise = (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    noise *= np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 16.0)
    noise_f = sp.physical_field(g, noise)
    scale = delta * fl.x_norm(q) / fl.x_norm(noise_f)
    u0 = sp.physical_field(g, q.values + scale * noise_f.values)
    trace = ev.evolve(u0, p=2.0, T=20.0, dt=4e-3, sample_stride=25, reference=q)
    d_max = float(np.max(trace.orbital_distance))
    bound = 3.0 * delta * fl.x_norm(q)
    print(f"criterion 12: max orbital distance {d_max:.4f} over T=20 "
          f"(bound {bound:.4f}); abort: {trace.abort_reason}")
    assert trace.abort_reason is None
    assert d_max <= bound


def test_criterion_13_scaling_instability_supercritical(p3_2048, p2_128):
    q3 = p3_2048.q
    u0 = sol.t_lambda(q3, 1.05, tail_tol=np.inf)
    d0 = sol.orbital_fit(u0, q3).distance
    trace = ev.evolve(u0, p=3.0, T=20.0, dt=8e-4, sample_stride=50,
                      reference=q3, distance_stop=12.0 * d0,
                      ham_drift_abort=5e-2)
    growth = float(np.max(trace.orbital_distance)) / d0
    t_growth = float(trace.times[-1])

    q2 = p2_128.q
    u0c = sol.t_lambda(q2, 1.05, tail_tol=1e-3)
    d0c = sol.orbital_fit(u0c, q2).distance
    control = ev.evolve(u0c, p=2.0, T=20.0, dt=4e-3, sample_stride=25,
                        reference=q2)
    growth_c = float(np.max(control.orbital_distance)) / d0c
    print(f"criterion 13: p=3 growth {growth:.1f}x by t={t_growth:.2f} "
          f"(need >= 10 before T=20); p=2 control {growth_c:.2f}x")
    assert growth >= 10.0
    assert t_growth < 20.0
    assert growth_c < 10.0


def test_criterion_14_velocity_degeneration(p2_128):
    g = p2_128.q.grid
    l2s, dxs = [], []
    warm = None
    for v in (0.0, 0.5, 0.9, 0.99):
        if v == 0.0:
            solution = p2_128
        else:
            solution = sol.solve_nehari(g, ModelParams(p=2.0, v=v), init=warm,
                                        tol=1e-6, max_iter=5000)
        warm = solution.q
        l2s.append(sp.l2_norm(solution.q))
        dxs.append(math.sqrt(fl.dx_norm_sq(solution.q)))
    slack = 1.0 + 1e-3
    mono_l2 = all(b <= a * slack for a, b in zip(l2s, l2s[1:]))
    mono_dx = all(b <= a * slack for a, b in zip(dxs, dxs[1:]))
    probe = sol.travel_upper_bound_probe(sp.make_grid(256, 256, 40.0, 40.0),
                                         p=2.0, omega=1.0)
    ivals = [pt.i_value for pt in probe]
    mono_i = all(b < a for a, b in zip(ivals, ivals[1:]))
    print(f"criterion 14: l2 {', '.join(f'{x:.4f}' for x in l2s)}; dx "
          f"{', '.join(f'{x:.4f}' for x in dxs)}; probe i "
          f"{', '.join(f'{x:.6f}' for x in ivals)}")
    assert mono_l2 and mono_dx
    assert l2s[-1] <= 0.5 * l2s[0]
    assert dxs[-1] <= 0.5 * dxs[0]
    assert mono_i


@pytest.mark.slow
def test_criterion_08_linearized_profile_formulas():
    # needs dy = 1/96 out to ly = 2048: solve small, then extend
    ly_small = 2048.0 * 16384.0 / 196608.0
    small = sol.solve_nehari(sp.make_grid(320, 16384, 30.0, ly_small),
                             ModelParams(p=3.0), tol=1e-7)
    wide = sol.extend_ground_state(small, sp.make_grid(320, 196608, 30.0, 2048.0))
    diag = sol.r1_diagnostics(wide.q, p=3.0)
    # the process's peak RSS: 2.5 GB on full arrays, 1.4 GB on the quarters
    # of the even profile with the profile and R1 unpacked (320x196608
    # float64 is 503 MB each), 0.89 GB with both kept on their quarters
    # (1.01 GB after the rest of the suite in one process), on 2 cores
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bound = max(1.0 / wide.params.omega, 1.0) + 1e-12
    print(f"criterion 08: linearized residual {diag.linearized_residual:.3e} "
          f"(tol 1e-4), multiplier roundtrip {diag.multiplier_roundtrip_error:.3e} "
          f"(tol 1e-8), phi max {diag.phi_max}, peak RSS {peak_mb:.0f} MB")
    assert diag.linearized_residual <= 1e-4
    assert diag.multiplier_roundtrip_error <= 1e-8
    assert max(diag.phi_max) <= bound
    assert peak_mb <= 1150.0
