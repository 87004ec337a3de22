"""Real fields end to end: a float64 field and its complex128-typed copy."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hwlab import evolution as ev
from hwlab import functionals as fl
from hwlab import snapshots
from hwlab import spectral as sp
from hwlab import solitary as sol
from hwlab.functionals import ModelParams

from conftest import count_full_unpacks

_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]


def _close(a, b, rel=1e-13):
    """max |a - b| within rel of max |b|."""
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def _saved_bytes(fields, params):
    """The snapshot file of each field, as bytes."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.hwsf")
        for u in fields:
            snapshots.save_snapshot(path, u, params)
            with open(path, "rb") as fh:
                out.append(fh.read())
    return out


def _pair(grid, seed):
    """A real localized field and its complex128-typed copy."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) * np.exp(
        -(grid.x[:, None] / (0.2 * grid.lx)) ** 2 - (grid.y[None, :] / (0.2 * grid.ly)) ** 2)
    real = sp.physical_field(grid, vals)
    cplx = sp.physical_field(grid, vals.astype(np.complex128))
    assert real.values.dtype == np.float64 and cplx.values.dtype == np.complex128
    return real, cplx


@given(nx=st.integers(4, 24).map(lambda k: 2 * k), ny=st.integers(4, 24).map(lambda k: 2 * k),
       lx=st.floats(5.0, 40.0), ly=st.floats(5.0, 40.0), p=st.floats(1.1, 4.9),
       omega=st.floats(0.1, 3.0), v=st.sampled_from([0.0, 0.5, -0.9]),
       lam=st.floats(0.8, 1.25), seed=st.integers(0, 2 ** 32 - 1))
@example(nx=8, ny=8, lx=10.0, ly=10.0, p=3.0, omega=1.0, v=0.9, lam=1.2, seed=1)
def test_real_field_matches_complex_copy(nx, ny, lx, ly, p, omega, v, lam, seed):
    # the half-spectrum forms (Parseval column weights, the even part of the
    # symbol: at v != 0 the odd transport row must add nothing) against the
    # full spectrum of the complex copy; the scaling apparatus, the flow and
    # the snapshot bytes against the complex copy
    g = sp.make_grid(nx, ny, lx, ly)
    real, cplx = _pair(g, seed)
    par = ModelParams(p=p, omega=omega, v=v)
    rep_r, rep_c = fl.functional_report(real, par), fl.functional_report(cplx, par)
    for name in rep_r.__dataclass_fields__:
        want = getattr(rep_c, name)
        assert abs(getattr(rep_r, name) - want) <= 1e-13 * abs(want), name
    assert np.isclose(fl.quadratic_action_form(real, par), fl.quadratic_action_form(cplx, par),
                      rtol=1e-13, atol=0.0)

    for f in (lambda u: sol.t_lambda(u, lam, tail_tol=np.inf),
              lambda u: sol.psi_omega(u, tail_tol=np.inf)):
        out_r, out_c = f(real), f(cplx)
        assert out_r.values.dtype == np.float64
        assert _close(out_r.values, out_c.values)
    r1_r = sol.r1_diagnostics(real, p, tail_tol=np.inf)
    r1_c = sol.r1_diagnostics(cplx, p, tail_tol=np.inf)
    assert r1_r.r1.values.dtype == np.float64 and _close(r1_r.r1.values, r1_c.r1.values)
    for a, b in ((r1_r.linearized_residual, r1_c.linearized_residual),
                 (r1_r.multiplier_roundtrip_error, r1_c.multiplier_roundtrip_error)):
        assert abs(a - b) <= 1e-13 * abs(b)
    assert r1_r.phi_max == r1_c.phi_max
    # the row-blocked defect against plain numpy
    q, r1 = cplx.values, r1_c.r1.values
    lin = np.fft.ifft2(sp.action_quadratic(1.0).values(g) * np.fft.fft2(r1, norm="ortho"),
                       norm="ortho")
    defect = lin - p * np.abs(q) ** (p - 1.0) * r1 + q
    want = math.sqrt(np.sum(np.abs(defect) ** 2) / np.sum(np.abs(q) ** 2))
    assert abs(r1_r.linearized_residual - want) <= 1e-12 * want

    # mixed-dtype inner products, both ways round
    w = sp.physical_field(g, cplx.values * np.exp(1j * (g.y[None, :] + 0.3)))
    for a, b in ((real, w), (w, real)):
        want = sp.l2_inner(cplx if a is real else a, cplx if b is real else b)
        assert abs(sp.l2_inner(a, b) - want) <= 1e-13 * abs(want)

    step_r = ev.strang_step(real, 1e-3, p)
    assert step_r.values.dtype == np.complex128
    assert np.array_equal(step_r.values, ev.strang_step(cplx, 1e-3, p).values)

    raw_r, raw_c = _saved_bytes((real, cplx), par)
    assert raw_r == raw_c


@given(nx=st.integers(4, 40).map(lambda k: 2 * k), ny=st.integers(4, 40).map(lambda k: 2 * k),
       block=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1),
       special=st.lists(st.sampled_from(_SPECIAL), max_size=6),
       quarter=st.sampled_from([None, "even", "rsym"]))
@example(nx=10, ny=8, block=24, seed=0, special=[np.nan, -0.0], quarter=None)
@example(nx=10, ny=8, block=24, seed=0, special=[np.nan, -0.0], quarter="even")
@example(nx=10, ny=8, block=24, seed=0, special=[np.nan, -0.0], quarter="rsym")
def test_real_snapshot_bytes_match_complex_copy(nx, ny, block, seed, special, quarter):
    # every layout is written by row blocks, a short last one included, and
    # no full array is unpacked from a quarter; NaN, infinities, -0.0 and
    # subnormals keep their bits; a field stored as its quarter (an even real
    # one, or an R-symmetric one even in x, complex) is written from the
    # quarter, as the bytes of its unpacked values cast to complex128
    g = sp.make_grid(nx, ny, 10.0, 10.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape)
    if quarter == "rsym":
        vals = vals + 1j * rng.standard_normal(g.shape)
    vals.reshape(-1)[rng.choice(vals.size, len(special), replace=False)] = special
    field = sp.physical_field(g, vals)
    if quarter:
        layout = sp._EVEN if quarter == "even" else sp._RSYM
        field = sp.Field._of(g, vals[:nx // 2 + 1, :ny // 2 + 1].copy(), layout)
        vals = layout.unpack(field.stored)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(snapshots, "_WRITE_ELEMS", block)
        unpacks = count_full_unpacks(mp)
        raw_r, = _saved_bytes([field], ModelParams(p=2.0))
    assert not unpacks
    raw_f, raw_c = _saved_bytes([sp.physical_field(g, vals),
                                 sp.physical_field(g, vals.astype(np.complex128))],
                                ModelParams(p=2.0))
    assert raw_r == raw_f == raw_c
    assert raw_r[snapshots._HEADER.size:] == vals.astype("<c16").tobytes()


@pytest.mark.parametrize("shift", [0, 1])
def test_scaling_apparatus_of_real_complex_copy_is_float64(shift):
    # a complex128 field with zero imaginary part is scaled, and its
    # generator and R1 formed, as its float64 copy, bit for bit, whether it
    # is even about (0, 0) (on quarters) or moved by a cell (on half spectra)
    g = sp.make_grid(32, 64, 12.0, 24.0)
    vals = np.roll(np.exp(-g.x[:, None] ** 2 / 2.0 - g.y[None, :] ** 2 / 8.0), shift, axis=0)
    real, cplx = (sp.physical_field(g, vals.astype(t)) for t in (np.float64, np.complex128))
    for fn in (lambda u: sol.t_lambda(u, 1.05, tail_tol=np.inf),
               lambda u: sol.psi_omega(u, tail_tol=np.inf),
               lambda u: sol.r1_diagnostics(u, 3.0, tail_tol=np.inf).r1):
        want, got = fn(real), fn(cplx)
        assert got.layout is want.layout and got.values.dtype == np.float64
        assert got.values.tobytes() == want.values.tobytes()


@given(nx=st.integers(4, 40).map(lambda k: 2 * k), ny=st.integers(4, 40).map(lambda k: 2 * k),
       block=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1),
       special=st.lists(st.sampled_from(_SPECIAL), max_size=6),
       imag=st.sampled_from([None, 1e-300, -0.0, np.nan]), where=st.floats(0.0, 1.0))
@example(nx=10, ny=8, block=24, seed=0, special=[np.nan, -0.0], imag=None, where=0.0)
@example(nx=10, ny=8, block=24, seed=0, special=[], imag=-0.0, where=1.0)
def test_snapshot_loads_real_payload_as_float64(nx, ny, block, seed, special, imag, where):
    # every imaginary part +0.0: float64, bit for bit (NaN, infinities, -0.0
    # and subnormals included); one other imaginary part (-0.0 too), in any
    # row block, first or last: complex128, bit for bit
    g = sp.make_grid(nx, ny, 10.0, 10.0)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape)
    vals.reshape(-1)[rng.choice(vals.size, len(special), replace=False)] = special
    cplx = vals.astype(np.complex128)
    if imag is not None:
        cplx.imag.reshape(-1)[min(int(where * vals.size), vals.size - 1)] = imag
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.hwsf")
        snapshots.save_snapshot(path, sp.physical_field(g, cplx), ModelParams(p=2.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(snapshots, "_READ_ELEMS", block)
            loaded, _ = snapshots.load_snapshot(path, expect_grid=g)
    want = vals if imag is None else cplx
    assert loaded.values.dtype == want.dtype
    assert np.array_equal(loaded.values.view(np.uint64), want.view(np.uint64))


def test_real_warm_start_for_traveling_wave():
    # a float64 start for v != 0 (the v = 0 profile warm-starting the next
    # speed of a sweep) runs as its complex-typed copy does: both are
    # R-symmetric, and take the real-spectra path
    g = sp.make_grid(32, 64, 20.0, 40.0)
    par = ModelParams(p=2.0, v=0.5)
    start = sol.solve_nehari(g, ModelParams(p=2.0), tol=1e-7).q
    assert start.values.dtype == np.float64
    real = sol.solve_nehari(g, par, init=start, tol=1e-7)
    cplx = sol.solve_nehari(g, par, init=sp.physical_field(g, start.values.astype(complex)),
                            tol=1e-7)
    assert np.any(real.q.values.imag)
    assert np.array_equal(real.q.values, cplx.q.values)
