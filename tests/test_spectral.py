"""Grid construction, transforms, multipliers, and the fractional identity."""

import ast
import dataclasses
import math
import os
import pathlib
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, strategies as st
from scipy import integrate

from hwlab import functionals as fl
from hwlab import spectral as sp

from conftest import count_full_unpacks


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return sp.physical_field(grid, vals)


def _half_weights(ny):
    """Parseval multiplicities (1, 2, ..., 2, 1) of the rfft columns for even ny."""
    mult = np.full(ny // 2 + 1, 2.0)
    mult[0] = 1.0
    mult[-1] = 1.0
    return mult


@pytest.fixture
def grid():
    return sp.make_grid(32, 32, 10.0, 10.0)


def test_grid_geometry():
    g = sp.make_grid(8, 8, 2.0 * np.pi, 2.0 * np.pi)
    # unit-frequency box: integer wavenumbers in FFT order
    assert np.allclose(g.xi, [0, 1, 2, 3, -4, -3, -2, -1])
    assert np.allclose(g.eta, [0, 1, 2, 3, -4, -3, -2, -1])
    g2 = sp.make_grid(256, 256, 40.0, 40.0)
    assert g2.dx == pytest.approx(0.15625)
    assert g2.dy == pytest.approx(0.15625)
    assert g2.dx * g2.nx == g2.lx
    assert g2.cell_area == pytest.approx(g2.dx * g2.dy)


def test_grid_accepts_even_non_power_of_two():
    g = sp.make_grid(12, 20, 3.0, 5.0)
    assert g.shape == (12, 20)
    # every non-Nyquist mode has its negative partner
    assert np.allclose(np.sort(g.xi[1:6]), np.sort(-g.xi[7:]))


@pytest.mark.parametrize("nx,ny", [(7, 8), (8, 9), (4, 8), (8, 2), (0, 8)])
def test_grid_rejects_bad_mode_counts(nx, ny):
    with pytest.raises(ValueError):
        sp.make_grid(nx, ny, 1.0, 1.0)


@pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (1.0, -2.0)])
def test_grid_rejects_bad_lengths(lx, ly):
    with pytest.raises(ValueError):
        sp.make_grid(8, 8, lx, ly)


def test_field_validation(grid):
    with pytest.raises(ValueError):
        sp.physical_field(grid, np.zeros((4, 4)))
    with pytest.raises(sp.RepresentationError):
        sp.Field(grid, np.zeros(grid.shape), "momentum")
    # real physical values stay float64; spectral values are complex128
    f = sp.physical_field(grid, np.ones(grid.shape, dtype=np.float64))
    assert f.values.dtype == np.float64
    assert sp.physical_field(grid, np.ones(grid.shape, dtype=int)).values.dtype == np.float64
    assert sp.physical_field(grid, np.ones(grid.shape, complex)).values.dtype == np.complex128
    assert sp.spectral_field(grid, np.ones(grid.shape)).values.dtype == np.complex128


@given(nx=st.integers(4, 32).map(lambda k: 2 * k), ny=st.integers(4, 32).map(lambda k: 2 * k),
       real=st.booleans(), seed=st.integers(0, 1000))
def test_transform_roundtrip_and_plancherel(nx, ny, real, seed):
    # a real field's quadratic forms sum over its half spectrum
    grid = sp.make_grid(nx, ny, 10.0, 14.0)
    f = random_field(grid, seed=seed)
    if real:
        f = sp.physical_field(grid, f.values.real)
    back = sp.transform(sp.transform(f, "forward"), "inverse")
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    assert sp.l2_norm(sp.to_spectral(f)) == pytest.approx(sp.l2_norm(f), rel=1e-12)
    assert sp.quadratic_form(f, 1.0) == pytest.approx(sp.l2_norm_sq(f), rel=1e-12)


def test_transform_direction_errors(grid):
    f = random_field(grid)
    with pytest.raises(sp.RepresentationError):
        sp.transform(sp.to_spectral(f), "forward")
    with pytest.raises(ValueError):
        sp.transform(f, "sideways")
    # idempotent converters accept either representation
    assert sp.to_physical(f) is f


def test_constant_field_concentrates_at_zero_mode(grid):
    f = sp.physical_field(grid, np.ones(grid.shape))
    hat = sp.to_spectral(f).values
    assert abs(hat[0, 0]) > 0
    hat[0, 0] = 0.0
    assert np.max(np.abs(hat)) <= 1e-13


def test_single_mode_lands_on_one_coefficient(grid):
    phase = np.exp(1j * (3 * 2.0 * np.pi / grid.lx) * grid.x)[:, None]
    f = sp.physical_field(grid, np.broadcast_to(phase, grid.shape))
    hat = sp.to_spectral(f).values
    k = np.argmax(np.abs(hat[:, 0]))
    assert grid.xi[k] == pytest.approx(3 * 2.0 * np.pi / grid.lx)
    hat[k, 0] = 0.0
    assert np.max(np.abs(hat)) <= 1e-12


def test_abs_dy_eigenfunction():
    g = sp.make_grid(16, 16, 2.0 * np.pi, 2.0 * np.pi)
    for m in (1, 3, -5):
        f = sp.physical_field(g, np.broadcast_to(np.exp(1j * m * g.y)[None, :], g.shape))
        out = sp.apply_symbol(f, sp.abs_dy())
        assert np.max(np.abs(out.values - abs(m) * f.values)) <= 1e-12 * abs(m)


def test_dxx_on_cosine():
    g = sp.make_grid(32, 8, np.pi * 4, 1.0)
    f = sp.physical_field(g, np.broadcast_to(np.cos(2.0 * g.x)[:, None], g.shape))
    out = sp.apply_symbol(f, sp.dxx())
    assert np.max(np.abs(out.values + 4.0 * f.values)) <= 1e-10


def test_halfwave_group_symbol_and_isometry(grid):
    f = random_field(grid, seed=2)
    out = sp.apply_symbol(f, sp.halfwave_group(0.7))
    assert sp.l2_norm(out) == pytest.approx(sp.l2_norm(f), rel=1e-12)
    g = sp.make_grid(16, 16, 2.0 * np.pi, 2.0 * np.pi)
    mode = sp.physical_field(
        g, np.exp(1j * (2 * g.x[:, None] + 3 * g.y[None, :])))
    prop = sp.apply_symbol(mode, sp.halfwave_group(0.3))
    assert np.allclose(prop.values, np.exp(0.3j * (-4.0 - 3.0)) * mode.values)


def test_apply_symbol_multiplies_spectrum_by_symbol(grid):
    # a physical field's spectrum times the symbol, in that order, whatever
    # numpy's temporary elision would pick: a complex multiply need not be
    # bitwise commutative on every SIMD path
    f, sym = random_field(grid, 5), sp.halfwave_group(0.37)
    want = sp._ifft2(sp.to_spectral(f).values * sym.values(grid))
    assert sp.apply_symbol(f, sym).values.tobytes() == want.tobytes()


def test_symbol_linearity(grid):
    f, g = random_field(grid, 3), random_field(grid, 4)
    sym = sp.frac_dy(0.5)
    lhs = sp.apply_symbol(
        sp.physical_field(grid, 2.0 * f.values - 1.5j * g.values), sym)
    rhs = 2.0 * sp.apply_symbol(f, sym).values - 1.5j * sp.apply_symbol(g, sym).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_frac_dy_half_composes_to_abs_dy(grid):
    f = random_field(grid, 5)
    twice = sp.apply_symbol(sp.apply_symbol(f, sp.frac_dy(0.5)), sp.frac_dy(0.5))
    whole = sp.apply_symbol(f, sp.abs_dy())
    assert np.max(np.abs(twice.values - whole.values)) <= 1e-10


@pytest.mark.parametrize("s", [-0.1, 0.0, 1.5])
def test_frac_dy_order_validation(s):
    with pytest.raises(ValueError):
        sp.frac_dy(s)


def test_transport_coercivity(grid):
    # |eta| - v*eta >= (1 - |v|) |eta| mode by mode
    f = random_field(grid, 6)
    for v in (0.5, -0.9, 0.99):
        b = sp.quadratic_form(
            f, np.abs(grid.eta)[None, :] - v * grid.eta_odd[None, :]
            + np.zeros(grid.shape))
        dy_half = sp.quadratic_form(f, np.abs(grid.eta)[None, :] + np.zeros(grid.shape))
        assert b >= (1.0 - abs(v)) * dy_half - 1e-12 * sp.l2_norm_sq(f)


def test_half_spectrum_symbols(grid):
    cols = grid.ny // 2 + 1
    assert np.array_equal(sp._ActionRows(grid, 1.5, 0.0, sp._REAL)(slice(None)),
                          sp.action_quadratic(1.5).values(grid)[:, :cols])
    with pytest.raises(ValueError):
        sp._ActionRows(grid, 1.0, 0.5, sp._REAL)
    # the X weight is the action symbol at omega = 1, bit for bit the sum it replaced
    for shape in ((8, 8), (128, 128), (256, 1024), (48, 18)):
        g = sp.make_grid(*shape, 10.0, 12.0)
        assert np.array_equal(fl.x_weight(g), g.xi[:, None] ** 2 + np.abs(g.eta)[None, :] + 1.0)
    # the action symbol, formed by row blocks, rounds as this expression does
    for v in (0.0, 0.5):
        want = (grid.xi[:, None] ** 2 + np.abs(grid.eta)[None, :]
                - v * grid.eta_odd[None, :] + 1.5)
        assert np.array_equal(sp.action_quadratic(1.5, v).values(grid), want)
    w = _half_weights(grid.ny)
    u = random_field(grid, 3).values.real
    hat = sp._rfft2(u)
    assert np.sum(w * np.abs(hat) ** 2) == pytest.approx(np.sum(u * u), rel=1e-13)
    assert np.allclose(sp._irfft2(hat, grid.shape), u, rtol=0.0, atol=1e-13)


@given(nx=st.integers(4, 24).map(lambda k: 2 * k), ny=st.integers(4, 24).map(lambda k: 2 * k),
       seed=st.integers(0, 1000))
def test_r_symmetric_fields_take_the_real_pair_in_reverse(nx, ny, seed):
    # u = u(-x, .) = conj u(., -y) has a real spectrum S, even in xi: rows
    # 0..nx/2 of S are the DCT-I along x, then the irfft along y, of the
    # conjugated quarter of u (`_RSYM.fwd`), and `_RSYM.inv` takes the
    # rows of any real S even in xi to that quarter of its field
    g = sp.make_grid(nx, ny, 10.0, 14.0)
    rows, cols = -np.arange(nx) % nx, -np.arange(ny) % ny
    u = random_field(g, seed).values
    u = 0.5 * (u + u[rows])
    u = 0.5 * (u + np.conj(u[:, cols]))
    m, half = nx // 2 + 1, ny // 2 + 1
    want = sp._fft2(u)[:m]
    spec = sp._RSYM.fwd(np.conj(u[:m, :half]), g.shape)
    assert spec.dtype == np.float64 and spec.shape == (m, ny)
    assert np.linalg.norm(spec - want) <= 1e-12 * np.linalg.norm(want)
    real = np.random.default_rng(seed).standard_normal(g.shape)
    real = 0.5 * (real + real[rows])
    want = np.conj(sp._ifft2(real)[:m, :half])
    assert np.linalg.norm(sp._RSYM.inv(real[:m], g.shape) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("v", [0.5, -0.5])
def test_layout_of_needs_r_symmetry_and_x_evenness_at_v_nonzero(v):
    # at v != 0 a start that is R-symmetric, u = conj u(-x, -y), and even
    # in x runs on `_RSYM`; one with only one of the two, or neither, on
    # full spectra
    g = sp.make_grid(16, 24, 10.0, 14.0)
    rows, cols = -np.arange(16) % 16, -np.arange(24) % 24
    f = random_field(g, 5).values

    def r_sym(u):
        return 0.5 * (u + np.conj(u[rows][:, cols]))

    def x_even(u):
        return 0.5 * (u + u[rows])

    both = r_sym(x_even(f))
    assert sp._layout_of(both, v) is sp._RSYM
    assert sp._layout_of(r_sym(f), v) is sp._FULL
    assert sp._layout_of(x_even(f), v) is sp._FULL
    assert sp._layout_of(f, v) is sp._FULL
    # within the 1e-12 tolerance, not beyond it
    assert sp._layout_of(both + 1e-14 * f, v) is sp._RSYM
    assert sp._layout_of(both + 1e-10 * f, v) is sp._FULL
    assert sp._layout_of(both, 0.0) is sp._FULL  # complex at v = 0


def test_transforms_bit_identical_across_worker_counts():
    # 2**20 points: the helpers use every usable core here
    shape = (128, 8192)
    assert sp._workers(shape[0] * shape[1]) == len(os.sched_getaffinity(0))
    assert sp._workers(shape[0] * shape[1] - 1) == 1
    rng = np.random.default_rng(0)
    real = rng.standard_normal(shape)
    half = scipy.fft.rfft2(real, norm="ortho", workers=1)
    assert np.array_equal(sp._rfft2(real), half)
    assert np.array_equal(sp._irfft2(half, shape),
                          scipy.fft.irfft2(half, s=shape, norm="ortho", workers=1))
    del half
    # the DCT-I of an even field's quarter counts the full grid's points
    quarter = real[:shape[0] // 2 + 1, :shape[1] // 2 + 1]
    want = scipy.fft.dctn(quarter, type=1, workers=1)
    assert np.array_equal(scipy.fft.dctn(quarter, type=1,
                                         workers=len(os.sched_getaffinity(0))), want)
    want *= 1.0 / math.sqrt(shape[0] * shape[1])
    assert np.array_equal(sp._dct(quarter), want)
    del quarter, want
    cplx = real + 1j * rng.standard_normal(shape)
    del real
    assert np.array_equal(sp._fft2(cplx), scipy.fft.fft2(cplx, norm="ortho", workers=1))
    assert np.array_equal(sp._ifft2(cplx), scipy.fft.ifft2(cplx, norm="ortho", workers=1))


def test_two_dimensional_transforms_only_in_spectral():
    # every transform, 1-D or 2-D, and every transform library is named in
    # spectral only, so its thread rule, normalization and tracer see them all
    transform = re.compile(r"^(i?r?fft[2n]?|i?d[cs]tn?|i?fftshift|CZT)$")
    libraries = {"numpy.fft", "scipy.fft", "scipy.signal"}
    package = pathlib.Path(sp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and transform.match(node.attr):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Import):
                offenders.extend(f"{path.name}:{node.lineno} import {alias.name}"
                                 for alias in node.names if alias.name in libraries)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                offenders.extend(f"{path.name}:{node.lineno} from {module} import {alias.name}"
                                 for alias in node.names
                                 if module in libraries or f"{module}.{alias.name}" in libraries
                                 or transform.match(alias.name))
    assert not offenders, offenders


def test_wavenumbers_only_in_spectral():
    # spectral owns the wavenumber conventions: no frequency array is
    # built from fftfreq anywhere else in the package
    package = pathlib.Path(sp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "spectral.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.endswith("fftfreq"):
                offenders.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                offenders.extend(f"{path.name}:{node.lineno} import {alias.name}"
                                 for alias in node.names if alias.name.endswith("fftfreq"))
    assert not offenders, offenders


@pytest.mark.parametrize("n,length", [(8, 1.0), (48, 18.0), (1024, 160.0), (4096, 0.3)])
def test_wavenumber_helpers_bit_identical(n, length):
    # the expressions the helpers replaced, so no reported value moves
    assert np.array_equal(sp.wavenumbers(n, length),
                          2.0 * np.pi * np.fft.fftfreq(n, d=length / n))
    assert np.array_equal(sp.mode_numbers(n), np.abs(np.fft.fftfreq(n) * n))
    g = sp.make_grid(8, n, 3.0, length)
    assert np.array_equal(g.eta, 2.0 * np.pi * np.fft.fftfreq(n, d=g.dy))


def test_inner_products_only_in_spectral_helper():
    # BLAS products next to threaded transforms slow them down, and their
    # sums may depend on the BLAS thread count: spectral._redot (einsum)
    # is the one full-array inner product of the package
    blas = {"vdot", "dot", "inner"}
    package = pathlib.Path(sp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "spectral.py":
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_redot")
            allowed = {id(node) for node in ast.walk(helper)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in blas and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                offenders.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                offenders.extend(f"{path.name}:{node.lineno} import {alias.name}"
                                 for alias in node.names if alias.name in blas)
    assert not offenders, offenders


def _is_density(node):
    """Whether an AST node reads `x.real ** 2 + x.imag ** 2`."""
    def square_of(term, part):
        return (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Pow)
                and isinstance(term.left, ast.Attribute) and term.left.attr == part
                and isinstance(term.right, ast.Constant) and term.right.value == 2)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and square_of(node.left, "real") and square_of(node.right, "imag"))


def test_density_only_in_spectral_helper():
    # |z|^2 is spectral._density; every weighted sum of it goes through
    # that helper or spectral._forms, not a hand-written copy
    package = pathlib.Path(sp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "spectral.py":
            helper = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_density")
            allowed = {id(node) for node in ast.walk(helper)}
        offenders.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                         if _is_density(node) and id(node) not in allowed)
    assert not offenders, offenders


def test_storage_decided_only_in_spectral():
    # spectral._Layout carries how a field and its spectrum are stored: no
    # other module tests a dtype to pick a transform or a Parseval weight;
    # snapshots is exempt, because there the dtype is the file format
    package = pathlib.Path(sp.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("spectral.py", "snapshots.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders.extend(f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and node.attr == "iscomplexobj"
                         or isinstance(node, ast.Name) and node.id == "iscomplexobj")
    assert not offenders, offenders


def test_l2_inner_matches_vdot(grid):
    f, g = random_field(grid, 1), random_field(grid, 2)
    want = np.vdot(g.values, f.values) * grid.cell_area
    got = sp.l2_inner(f, g)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert sp.l2_norm_sq(f) == pytest.approx(np.vdot(f.values, f.values).real * grid.cell_area,
                                             rel=1e-13)


@pytest.mark.parametrize("layout", ["_FULL", "_REAL", "_RSYM", "_EVEN"])
def test_values_hold_no_state_of_their_own(layout):
    # `stored` is a field's only state, so its sums and its values agree:
    # on full storage `values` is the stored array and a write lands, on a
    # quarter it is formed on each read, read-only, and a write that would
    # be lost raises
    g = sp.make_grid(32, 64, 12.0, 24.0)
    lay = getattr(sp, layout)
    f = sp.Field._of(g, lay.pack(random_field(g, 3).values), lay)
    norm_sq = sp.l2_norm_sq(f)
    if lay in (sp._FULL, sp._REAL):
        assert f.values is f.stored
        f.values[:] *= 2.0
        assert sp.l2_norm_sq(f) == pytest.approx(4.0 * norm_sq, rel=1e-13)
    else:
        assert f.values is not f.values
        with pytest.raises(ValueError):
            f.values[:] *= 2.0
        assert sp.l2_norm_sq(f) == norm_sq
    assert np.array_equal(f.values, lay.unpack(f.stored))
    assert sp.l2_norm_sq(f) == pytest.approx(sp.l2_inner(f, f).real, rel=1e-13)


def test_derivatives_match_analytic():
    g = sp.make_grid(64, 64, 20.0, 20.0)
    gauss = np.exp(-(g.x[:, None] ** 2 + g.y[None, :] ** 2) / 2.0)
    f = sp.physical_field(g, gauss)
    fx = sp.dx_field(f).values
    fy = sp.dy_field(f).values
    assert np.max(np.abs(fx - (-g.x[:, None] * gauss))) <= 1e-9
    assert np.max(np.abs(fy - (-g.y[None, :] * gauss))) <= 1e-9


def test_dealias_mask_two_thirds(grid):
    mask = sp.dealias_mask(grid)
    kx = np.abs(np.fft.fftfreq(grid.nx) * grid.nx)
    assert mask[kx <= grid.nx // 3, 0].all()
    assert not mask[kx > grid.nx // 3, 0].any()
    f = sp.to_spectral(random_field(grid, 7))
    cut = sp.apply_dealias(f)
    assert np.max(np.abs(cut.values[~mask])) == 0.0
    assert np.allclose(cut.values[mask], f.values[mask])


def test_tail_mass_fraction_localized_vs_edge(grid):
    center = np.exp(-(grid.x[:, None] ** 2 + grid.y[None, :] ** 2))
    assert sp.tail_mass_fraction(sp.physical_field(grid, center)) <= 1e-6
    shifted = np.exp(-((grid.x[:, None] - grid.lx / 2) ** 2
                       + grid.y[None, :] ** 2))
    assert sp.tail_mass_fraction(sp.physical_field(grid, shifted)) > 0.1
    zero = sp.physical_field(grid, np.zeros(grid.shape))
    assert sp.tail_mass_fraction(zero) == 0.0


def _even_field(nx, ny, seed):
    """A random even field, u = u(-x, .) = u(., -y) exactly, and its quarter."""
    rng = np.random.default_rng(seed)
    m, n = nx // 2 + 1, ny // 2 + 1
    quarter = rng.standard_normal((m, n))
    u = np.empty((nx, ny))
    u[:m, :n] = quarter
    u[:m, n:] = quarter[:, n - 2:0:-1]
    u[m:] = u[m - 2:0:-1]
    return u, quarter


@given(nx=st.integers(4, 32).map(lambda k: 2 * k), ny=st.integers(4, 32).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dct_is_the_quarter_of_an_even_spectrum(nx, ny, seed):
    # an even field's spectrum is real and even; its quarter is the DCT-I of
    # the field's quarter, and the scaled DCT-I is its own inverse
    u, quarter = _even_field(nx, ny, seed)
    assert np.array_equal(u, u[-np.arange(nx) % nx])
    assert np.array_equal(u, u[:, -np.arange(ny) % ny])
    full = sp._fft2(u)
    spec = sp._dct(quarter)
    assert spec.shape == quarter.shape and spec.dtype == np.float64
    assert np.max(np.abs(full[:nx // 2 + 1, :ny // 2 + 1] - spec)) <= 1e-13 * np.max(np.abs(full))
    assert np.max(np.abs(sp._dct(spec) - quarter)) <= 1e-13 * np.max(np.abs(quarter))


def _form_one_by_one(hat, grid, multiplier):
    """sum multiplier * |fhat|^2 * dx*dy as summed with one density pass per
    multiplier: the row-block sums, each on a half spectrum twice the block's
    less its edge columns."""
    mult = np.atleast_2d(np.asarray(multiplier, dtype=np.float64))
    half = hat.shape[1] != grid.ny
    if half:
        mult = 0.5 * (mult + np.roll(mult[::-1, ::-1], 1, axis=(0, 1)))
        mult = mult[:, :hat.shape[1]] if mult.shape[1] > 1 else mult
    mult = np.broadcast_to(mult, hat.shape)
    total = 0.0
    for r in sp._slices(*hat.shape, sp._FUSE_ELEMS):
        blk = mult[r] * sp._density(hat[r])
        if half:
            total += 2.0 * float(np.sum(blk)) - float(np.sum(blk[:, ::hat.shape[1] - 1]))
        else:
            total += float(np.sum(blk))
    return total * grid.cell_area


@given(nx=st.integers(4, 32).map(lambda k: 2 * k), ny=st.integers(4, 32).map(lambda k: 2 * k),
       real=st.booleans(), block=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1))
def test_forms_share_one_density_bit_for_bit(nx, ny, real, block, seed):
    # several multipliers summed over one density per row block give each
    # sum the bits of its own pass
    g = sp.make_grid(nx, ny, 10.0, 14.0)
    u = random_field(g, seed % 1000).values
    hat = sp._rfft2(u.real) if real else sp._fft2(u)
    mults = (1.0, g.xi[:, None] ** 2, np.abs(g.eta)[None, :] - 0.3 * g.eta_odd[None, :] + 1.5,
             (1.0 + g.eta[None, :] ** 2) ** 0.6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_FUSE_ELEMS", block)
        got = sp._forms(hat, sp._REAL if real else sp._FULL, g, *mults)
        want = [_form_one_by_one(hat, g, m) for m in mults]
    assert got == want


@given(nx=st.integers(4, 32).map(lambda k: 2 * k), ny=st.integers(4, 32).map(lambda k: 2 * k),
       layout=st.sampled_from(["_FULL", "_REAL", "_RSYM", "_EVEN"]), p=st.floats(1.1, 4.9),
       block=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1))
def test_row_blocked_density_sums_match_full_arrays(nx, ny, layout, p, block, seed):
    # tail_mass_fraction (and solitary.mass_centroid) read |u|^2 through
    # row and column sums taken block by block; a field with the symmetry
    # of `layout`, stored as it says, gives the sums of its full array
    g = sp.make_grid(nx, ny, 10.0, 14.0)
    lay = getattr(sp, layout)
    u = lay.unpack(lay.pack(random_field(g, seed % 1000).values))
    full, stored = sp.physical_field(g, u), sp.Field._of(g, lay.pack(u), lay)
    w = u.real ** 2 + u.imag ** 2
    edge_x = np.abs(g.x) > 0.9 * (g.lx / 2.0)
    edge_y = np.abs(g.y) > 0.9 * (g.ly / 2.0)
    want = np.sum(w[edge_x[:, None] | edge_y[None, :]]) / np.sum(w)
    par = fl.ModelParams(p=p, omega=1.3, v=0.4)
    sums = (sp.l2_norm_sq, lambda f: fl.lp1_power(f, p), lambda f: fl.action(f, par),
            sp.tail_mass_fraction, lambda f: dataclasses.astuple(fl.functional_report(f, par)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sp, "_FUSE_ELEMS", block)
        unpacks = count_full_unpacks(mp)
        rows, cols = sp._marginals(stored)
        frac = sp.tail_mass_fraction(full)
        got, expect = ([np.atleast_1d(fn(f)) for fn in sums] for f in (stored, full))
    assert np.allclose(rows, w.sum(axis=1), rtol=1e-13, atol=0.0)
    assert np.allclose(cols, w.sum(axis=0), rtol=1e-13, atol=0.0)
    assert frac == pytest.approx(want, rel=1e-13)
    assert not unpacks  # no sum formed the full array
    for a, b in zip(got, expect):
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)


def test_frac_constant_half_is_two_pi():
    assert sp.frac_constant(0.5) == pytest.approx(2.0 * np.pi, abs=1e-9)


def _frac_constant_by_quadrature(s):
    """C(s) = 2 int_0^inf (2 - 2 cos r) / r^{1+2s} dr: a series on [0, 1],
    adaptive quadrature on [1, 50], and a cosine-weighted tail."""
    near, sign, fact = 0.0, 1.0, 1.0
    for k in range(1, 30):
        fact *= (2 * k) * (2 * k - 1)
        near += sign * 2.0 / fact / (2 * k - 2 * s)
        sign = -sign
    cut = 50.0
    mid = integrate.quad(lambda r: (2.0 - 2.0 * math.cos(r)) * r ** (-1.0 - 2.0 * s),
                         1.0, cut, limit=200)[0]
    tail_osc = integrate.quad(lambda r: -2.0 * r ** (-1.0 - 2.0 * s), cut, np.inf,
                              weight="cos", wvar=1.0, limit=200)[0]
    return 2.0 * (near + mid + cut ** (-2.0 * s) / s + tail_osc)


@pytest.mark.parametrize("s", [0.05, 0.25, 0.75, 0.95])
def test_frac_constant_matches_quadrature(s):
    assert sp.frac_constant(s) == pytest.approx(_frac_constant_by_quadrature(s), rel=1e-9)


def test_frac_constant_validation():
    for s in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            sp.frac_constant(s)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_frac_identity_gaussian(s):
    y = np.linspace(-20.0, 20.0, 512, endpoint=False)
    chk = sp.frac_seminorm_identity_check(np.exp(-y ** 2 / 8.0), 40.0, s)
    assert chk.relative_error <= 1e-3
    assert not chk.tail_warning


def test_frac_identity_pure_mode_oracle():
    # lhs must reproduce C* |eta_m|^{2s} * l for a single Fourier mode
    n, l, m, s = 256, 40.0, 5, 0.5
    y = np.linspace(-l / 2, l / 2, n, endpoint=False)
    mode = np.exp(1j * (2.0 * np.pi * m / l) * y)
    chk = sp.frac_seminorm_identity_check(mode, l, s, tail_tol=np.inf)
    expect = sp.frac_constant(s) * (2.0 * np.pi * m / l) ** (2 * s) * l
    assert chk.rhs == pytest.approx(expect, rel=1e-12)
    assert chk.lhs == pytest.approx(expect, rel=1e-3)


def test_frac_identity_zero_and_errors():
    chk = sp.frac_seminorm_identity_check(np.zeros(64), 10.0, 0.5)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.relative_error == 0.0
    with pytest.raises(ValueError):
        sp.frac_seminorm_identity_check(np.zeros(64), 10.0, 1.2)
    with pytest.raises(ValueError):
        sp.frac_seminorm_identity_check(np.zeros(63), 10.0, 0.5)
    with pytest.raises(ValueError):
        sp.frac_seminorm_identity_check(np.zeros((8, 8)), 10.0, 0.5)
    for length in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            sp.frac_seminorm_identity_check(np.zeros(64), length, 0.5)


def test_frac_identity_tail_warning():
    y = np.linspace(-5.0, 5.0, 128, endpoint=False)
    wide = np.exp(-y ** 2 / 50.0)
    assert sp.frac_seminorm_identity_check(wide, 10.0, 0.5).tail_warning
