"""Periodic grid, unitary Fourier transforms, and multiplier calculus.

Fields live on a rectangular periodic box [-lx/2, lx/2) x [-ly/2, ly/2)
sampled on even-count grids, x index slow and y index fast.  Every
linear operator used by the model is a Fourier multiplier; this module
owns the wavenumber conventions so the rest of the package never builds
a frequency array by hand.

Transforms use the unitary normalization, so the discrete Parseval
identity holds with the same quadrature weight dx*dy in both
representations.

A spectral Field is complex128; `to_spectral` gives the full spectrum
of any Field.  A physical Field carries its storage, a `_Layout`, the
one record of how a field and its spectrum are stored, changed in one
place (`_settle`, by `_layout_of`).  Its `fwd` and
`inv` pick the transforms and its mirrored axes the Parseval weights, so
no other module looks at a dtype or a spectrum's shape to choose either,
and sums over a field read its stored array.  The weights are applied in
one place, `_Layout.dot`, to each cache-sized row block as it is summed:

- `_FULL`: complex128 values, full spectra.
- `_REAL`: float64 values, half spectra (`rfft2` along y), on which
  Parseval weighs the columns (1, 2, ..., 2, 1) and a multiplier counts
  by its even part (`_spectrum`, `_forms`).
- `_RSYM`: u(x, y) = u(-x, y) = conj u(x, -y) (R-symmetric, u = conj
  u(-x, -y), and even in x, as a traveling wave grown from such a start
  is) is fixed by conj u on indices 0..nx/2 x 0..ny/2, mirrored along
  both axes, and has a real spectrum even in xi, fixed by its rows
  0..nx/2.  Between them a DCT-I runs along x on the float view of the
  complex rows and the real pair along y in reverse (`_dct_irfft`,
  `_rfft_dct`): Parseval weighs the values' lines along both axes and
  the spectrum's rows.
- `_EVEN`: a real field even in x and in y, u = u(-x, .) = u(., -y) (a
  v = 0 ground state), is fixed by its quarter, indices 0..nx/2 x
  0..ny/2, and its spectrum is real and even, its quarter the DCT-I of
  the field's (`_dct`, its own inverse).  Parseval weighs a quarter's
  lines (1, 2, ..., 2, 1) along both axes.

Every transform in the package goes through `_fft2`, `_ifft2`, `_rfft2`,
`_irfft2`, `_dct`, `_dst_dct`, `_dct_irfft`, `_rfft_dct` or the 1-D `_fft`
and `_ifft`, on which T_lambda's
chirp z-transform runs; all call `scipy.fft` (pocketfft), and no other
module names `numpy.fft`, `scipy.fft` or `scipy.signal`.  A transform
runs on `len(os.sched_getaffinity(0))` threads (the usable cores) when
its real-space array, for a quarter the full grid it stands for, has at
least 2**20 points and on one thread otherwise, where thread start-up
eats the gain.  On a shared 2-core Xeon, 1 -> 2 threads take the p = 3
solve on 128x8192 (2**20 points) from 1.03 to 0.78 s (medians of 5, in
the tall benchmark body), the DCT-I of a 65x4097 quarter from 6.9 to
3.6 ms and an r2c pair at 128x32768 from 114 to 82 ms (minima of 15),
while the 256x1024 solves of a velocity sweep (2**18 points) gain
nothing (the sweep body takes 3.15 s on one thread, 3.19 s on two,
medians of 4).  pocketfft hands whole 1-D lines to the threads, so the
output is bit-identical for any thread count.

Every full-array inner product in the package is `_redot`, an einsum on
float views.  BLAS is kept out of it: OpenBLAS workers left spinning
after a `np.vdot` slowed the next 2-thread transform about 1.6x, and an
einsum sum does not depend on any thread count.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

_MIN_MODES = 8
_THREADED_POINTS = 1 << 20
_FUSE_ELEMS = 1 << 14  # entries per cache-sized row block of a fused pass or a sum


def _slices(count: int, per: int, elems: int) -> list[slice]:
    """Slices of range(count) spanning about `elems` entries at `per` per item."""
    step = max(1, elems // max(1, per))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _workers(points: int) -> int:
    """FFT thread count for a transform whose real-space array has (or, for
    an even field's quarter, stands for) `points` entries."""
    if points < _THREADED_POINTS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# scipy.fft is looked up at call time so that wrappers installed on the
# module (profilers, tracers) see every transform.
def _fft(a: np.ndarray, n: int | None = None) -> np.ndarray:
    """Unitary 1-D FFT along the last axis, of `n` points (zero-padded) if given."""
    return scipy.fft.fft(a, n, norm="ortho", workers=_workers(a.size))


def _ifft(a: np.ndarray) -> np.ndarray:
    return scipy.fft.ifft(a, norm="ortho", workers=_workers(a.size))


def _fft2(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Unitary 2-D FFT; with `overwrite`, pocketfft may reuse `a`'s memory
    for the result (use the returned array: `a` is then undefined)."""
    return scipy.fft.fft2(a, norm="ortho", overwrite_x=overwrite, workers=_workers(a.size))


def _ifft2(a: np.ndarray) -> np.ndarray:
    return scipy.fft.ifft2(a, norm="ortho", workers=_workers(a.size))


def _rfft2(a: np.ndarray) -> np.ndarray:
    """Unitary half spectrum of a real (nx, ny) array, shape (nx, ny//2 + 1)."""
    return scipy.fft.rfft2(a, norm="ortho", workers=_workers(a.size))


def _irfft2(a: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Real (nx, ny) array from its unitary half spectrum."""
    return scipy.fft.irfft2(a, s=shape, norm="ortho", workers=_workers(shape[0] * shape[1]))


def _dct(a: np.ndarray) -> np.ndarray:
    """Unitary spectrum of an even real field, u = u(-x, .) = u(., -y), from
    its quarter, indices 0..nx/2 x 0..ny/2, as the quarter of that real, even
    spectrum, and back: dctn(type=1) times 1/sqrt(nx*ny), its own inverse.
    The thread rule counts the nx*ny points the quarter stands for."""
    points = 4 * (a.shape[0] - 1) * (a.shape[1] - 1)
    out = scipy.fft.dctn(a, type=1, workers=_workers(points))
    out *= 1.0 / math.sqrt(points)
    return out


def _dst_dct(a: np.ndarray, axis: int) -> np.ndarray:
    """Lines 1..n/2-1 along `axis` of the derivative along it of an even
    real field, odd along `axis` (lines 0 and n/2 are zero), from the same
    lines of its spectrum's quarter times the wavenumber: a DST-I along
    `axis`, a DCT-I along the other, times -1/sqrt(nx*ny) (the points the
    thread rule counts)."""
    points = 4 * (a.shape[axis] + 1) * (a.shape[1 - axis] - 1)
    out = scipy.fft.dstn(a, type=1, axes=axis, workers=_workers(points))
    out = scipy.fft.dctn(out, type=1, axes=1 - axis, overwrite_x=True, workers=_workers(points))
    out *= -1.0 / math.sqrt(points)
    return out


def _dct_irfft(w: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Rows 0..nx/2 of the real spectrum of an `_RSYM` field of `shape`
    from its stored conj u: a DCT-I along x of the float view of the
    complex rows, then irfft along y, unitary in all."""
    nx, ny = shape
    workers = _workers(nx * ny)
    out = scipy.fft.dctn(w.view(np.float64), type=1, axes=0, workers=workers)
    out *= 1.0 / math.sqrt(nx)
    return scipy.fft.irfft2(out.view(np.complex128), s=(ny,), axes=(1,), norm="ortho",
                            workers=workers)


def _rfft_dct(hat: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The stored conj u of an `_RSYM` field of `shape` from rows 0..nx/2
    of its real spectrum: `_dct_irfft` in reverse, its inverse."""
    nx, ny = shape
    workers = _workers(nx * ny)
    out = scipy.fft.rfft2(hat, axes=(1,), norm="ortho", workers=workers)
    out = scipy.fft.dctn(out.view(np.float64), type=1, axes=0, overwrite_x=True,
                         workers=workers)
    out *= 1.0 / math.sqrt(nx)
    return out.view(np.complex128)


def _redot(a: np.ndarray, b: np.ndarray) -> float:
    """re sum conj(a) b over two 2-D arrays of one shape, by einsum on float
    views (of complex ones, copied if strided along y, as edge columns are);
    a real operand pairs with the real part of a complex one."""
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        a, b = (np.ascontiguousarray(x).view(np.float64) for x in (a, b))
    else:
        a, b = a.real, b.real
    return float(np.einsum("ij,ij->", a, b))


def _density(u: np.ndarray) -> np.ndarray:
    """|u|^2, squared directly for real u."""
    if not np.iscomplexobj(u):
        return u * u
    return u.real ** 2 + u.imag ** 2


def _even_pack(u: np.ndarray) -> np.ndarray:
    """Rows 0..nx/2 and columns 0..ny/2 of conj w, w the part of u with
    w = w(-x, .) = conj w(., -y): h = (u + u(-x, .)) / 2, then
    (h + conj h(., -y)) / 2, which keeps such a u bit for bit (for a real
    u, w is its part even in x and in y)."""
    m, n = (k // 2 + 1 for k in u.shape)
    half = u[:m] + u[-np.arange(m) % u.shape[0]]
    half *= 0.5
    out = np.conj(half[:, :n])
    out += half[:, -np.arange(n) % u.shape[1]]
    out *= 0.5
    return out


def _even_unpack(w: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows `rows` of the field u whose rows 0..nx/2 and columns 0..ny/2
    are conj `w` (`_even_pack`): past them, entry (i, j) from (-i mod nx, j)
    and, conjugated, from (i, -j mod ny)."""
    m, n = w.shape
    start, stop, _ = rows.indices(2 * m - 2)
    mid = min(max(start, m), stop)  # the first selected row past the quarter
    q = np.empty((stop - start, 2 * n - 2), w.dtype)
    for part, src in ((q[:mid - start], w[start:mid]),
                      (q[mid - start:], w[2 * m - 2 - mid:2 * m - 2 - stop:-1])):
        np.conjugate(src, out=part[:, :n])
        part[:, n:] = src[:, n - 2:0:-1]  # from w: a copy within q would be buffered
    return q


@dataclass(frozen=True)
class _Layout:
    """How a field u and its spectrum are stored (see the module docstring
    for the four layouts), and how sums over them are weighed.

    `spectra` and `values` name the axes along which the stored arrays hold
    lines 0..n/2 of ones even about line 0, which Parseval weighs
    (1, 2, ..., 2, 1) as `dot` sums a row block, so a weighted sum is a
    loop over `_slices` adding `dot`.  `fwd(u, shape)` and `inv(hat,
    shape)` are the unitary transforms between the stored arrays of a
    field of `shape`; `pack` makes the stored values of a full field (on
    `_FULL` and `_REAL` maybe its own array), `unpack(u, rows)` the full
    field of stored values or its rows `rows` (on those two `u` itself,
    not a view, which numpy would not elide as a temporary).
    """

    spectra: tuple[int, ...]
    values: tuple[int, ...]
    fwd: Callable
    inv: Callable
    pack: Callable
    unpack: Callable = lambda u, rows=None: u if rows is None else u[rows]

    def spectra_shape(self, grid: Grid) -> tuple[int, int]:
        """The shape of the stored spectra of a field on `grid`."""
        return tuple(n // 2 + 1 if axis in self.spectra else n
                     for axis, n in enumerate(grid.shape))

    def dot(self, a: np.ndarray, b: np.ndarray | None, rows: slice, n: int,
            spectra: bool = False) -> float:
        """re sum conj(a) b (sum a for b None) over the field, for row blocks
        a, b of the stored values (`spectra`: the stored spectra), rows `rows`
        of `n`: weighed (1, 2, ..., 2, 1) along the mirrored axes, where the
        block's first and last columns, and stored rows 0 and n - 1 in the
        block that holds them, are their own mirrors."""
        axes = self.spectra if spectra else self.values
        cols = slice(None, None, a.shape[1] - 1)

        def plain(ix) -> float:
            return float(np.sum(a[ix])) if b is None else _redot(a[ix], b[ix])

        def lines(r: slice) -> float:
            """The sum over the block's rows r, weighed along y."""
            return 2.0 * plain(r) - plain((r, cols)) if 1 in axes else plain(r)

        total = lines(slice(None))
        if 0 in axes:
            start, stop, _ = rows.indices(n)
            own = [i for i, edge in ((0, start == 0), (len(a) - 1, stop == n)) if edge]
            total = 2.0 * total - (lines(own) if own else 0.0)
        return total


_FULL = _Layout((), (), lambda u, shape: _fft2(u), lambda h, shape: _ifft2(h),
                lambda u0: u0.astype(np.complex128, copy=False))
_REAL = _Layout((1,), (), lambda u, shape: _rfft2(u), _irfft2,
                lambda u0: np.ascontiguousarray(u0.real))
_RSYM = _Layout((0,), (0, 1), _dct_irfft, _rfft_dct,
                lambda u0: _even_pack(u0.astype(np.complex128, copy=False)), _even_unpack)
_EVEN = _Layout((0, 1), (0, 1), lambda u, shape: _dct(u), lambda h, shape: _dct(h),
                lambda u0: _even_pack(u0.real), _even_unpack)


def _even(u: np.ndarray, conj: bool = False) -> bool:
    """||u - u(-x, .)|| and ||u - u(., -y)|| (`conj`: ||u - conj u(., -y)||)
    each at most 1e-12 ||u||, summed by row blocks."""
    rows, cols = (-np.arange(n) % n for n in u.shape)
    dx_sq = dy_sq = 0.0
    for r in _slices(*u.shape, _FUSE_ELEMS):
        blk = u[r]
        diff = blk - u[rows[r]]
        dx_sq += _redot(diff, diff)
        diff = blk - (np.conj(blk[:, cols]) if conj else blk[:, cols])
        dy_sq += _redot(diff, diff)
    return max(dx_sq, dy_sq) <= 1e-24 * _redot(u, u)


def _layout_of(u0: np.ndarray, v: float, origin: bool = True) -> _Layout:
    """The layout of a computation on `u0` at velocity `v`, by checks in
    physical space summed by row blocks (`_even`): at v = 0, `_EVEN` for
    real values (complex ones too, with zero imaginary part) with
    ||u0 - u0(-x, .)|| and ||u0 - u0(., -y)|| each at most 1e-12 ||u0||,
    `_REAL` for other real ones; at v != 0, `_RSYM` for values with
    ||u0 - u0(-x, .)|| and ||u0 - conj u0(., -y)|| each at most
    1e-12 ||u0|| (even in x and R-symmetric to that tolerance); else
    `_FULL`.  Without `origin`, about a centre off (0, 0), no quarter."""
    if v != 0.0:
        return _RSYM if origin and _even(u0, conj=True) else _FULL
    if np.iscomplexobj(u0) and np.any(u0.imag):
        return _FULL
    return _EVEN if origin and _even(u0.real) else _REAL


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Angular wavenumbers of n samples on a period `length`, in FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def mode_numbers(n: int) -> np.ndarray:
    """|k| for the n FFT modes k = 0, 1, ..., n/2-1, -n/2, ..., -1."""
    return np.abs(np.fft.fftfreq(n) * n)


class RepresentationError(ValueError):
    """A Field arrived in the wrong representation for the operation."""


class Grid:
    """Rectangular periodic box with even-count sampling.

    Coordinates run over [-l/2, l/2) with the first sample at -l/2.
    Wavenumbers follow FFT ordering, 2*pi/l * (0, 1, ..., n/2-1, -n/2,
    ..., -1).  `xi_odd` and `eta_odd` are the same arrays with the
    Nyquist entry zeroed; odd-order multipliers (first derivatives, the
    transport symbol) use them because the Nyquist mode carries no sign
    information.  Mode counts must be even (the Nyquist row must exist)
    and should be products of small primes for FFT speed.
    """

    __slots__ = ("nx", "ny", "lx", "ly", "dx", "dy",
                 "x", "y", "xi", "eta", "xi_odd", "eta_odd")

    def __init__(self, nx: int, ny: int, lx: float, ly: float):
        if nx < _MIN_MODES or nx % 2:
            raise ValueError(f"nx must be an even integer >= {_MIN_MODES}, got {nx}")
        if ny < _MIN_MODES or ny % 2:
            raise ValueError(f"ny must be an even integer >= {_MIN_MODES}, got {ny}")
        if not (0 < lx < math.inf and 0 < ly < math.inf):
            raise ValueError(f"box lengths must be positive and finite, got lx={lx}, ly={ly}")
        self.nx, self.ny = int(nx), int(ny)
        self.lx, self.ly = float(lx), float(ly)
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny
        self.x = -self.lx / 2.0 + self.dx * np.arange(self.nx)
        self.y = -self.ly / 2.0 + self.dy * np.arange(self.ny)
        self.xi = wavenumbers(self.nx, self.lx)
        self.eta = wavenumbers(self.ny, self.ly)
        self.xi_odd = self.xi.copy()
        self.xi_odd[self.nx // 2] = 0.0
        self.eta_odd = self.eta.copy()
        self.eta_odd[self.ny // 2] = 0.0

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.nx, self.ny, self.lx, self.ly) == (other.nx, other.ny, other.lx, other.ly)

    def __hash__(self) -> int:
        return hash((self.nx, self.ny, self.lx, self.ly))

    def __repr__(self) -> str:
        return f"Grid(nx={self.nx}, ny={self.ny}, lx={self.lx}, ly={self.ly})"


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a periodic grid; rejects odd or undersized mode counts."""
    return Grid(nx, ny, lx, ly)


PHYSICAL = "physical"
SPECTRAL = "spectral"


class Field:
    """Scalar field on a Grid, tagged with its representation.

    values is a C-ordered (nx, ny) array: x is the slow index, y the
    fast one, formed on first read from `stored` by `layout.unpack`.
    Built from values, a field stores float64 physical ones as they are
    (`_REAL`) and others as complex128 (`_FULL`); the solvers and the
    scaling apparatus take theirs from `_settle`, results by `_of`.
    """

    def __init__(self, grid: Grid, values: np.ndarray, rep: str):
        if rep not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {rep!r}")
        real = rep == PHYSICAL and not np.iscomplexobj(values)
        vals = np.ascontiguousarray(values, dtype=np.float64 if real else np.complex128)
        if vals.shape != grid.shape:
            raise ValueError(f"values shape {vals.shape} does not match grid {grid.shape}")
        self.grid, self.rep, self.stored, self.layout = grid, rep, vals, _REAL if real else _FULL

    @classmethod
    def _of(cls, grid: Grid, stored: np.ndarray, layout: _Layout, rep: str = PHYSICAL) -> Field:
        """The field whose values `stored` holds as `layout` says, unchecked."""
        f = cls.__new__(cls)
        f.grid, f.rep, f.stored, f.layout = grid, rep, stored, layout
        return f

    @cached_property
    def values(self) -> np.ndarray:
        return self.layout.unpack(self.stored)

    def _full(self) -> np.ndarray:
        """`values` if kept, else formed for one use and not kept."""
        return vars(self)["values"] if "values" in vars(self) else self.layout.unpack(self.stored)

    def _rows(self, rows: slice) -> np.ndarray:
        """Rows `rows` of `values` from the stored array alone (a quarter's mirrored)."""
        return self.layout.unpack(self.stored, rows)

    def copy(self) -> Field:
        return Field._of(self.grid, self.stored.copy(), self.layout, self.rep)


def physical_field(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid, values, PHYSICAL)


def spectral_field(grid: Grid, values: np.ndarray) -> Field:
    return Field(grid, values, SPECTRAL)


def transform(f: Field, direction: str) -> Field:
    """Unitary 2-D FFT between representations.

    forward: physical -> spectral, inverse: spectral -> physical.
    Calling with a field already in the target representation is an
    error; use to_spectral/to_physical for idempotent conversion.  Real
    values are transformed as their complex-typed copy, whose spectrum
    scipy's real-input fft2 does not match bit for bit.
    """
    if direction == "forward":
        if f.rep != PHYSICAL:
            raise RepresentationError("forward transform expects a physical field")
        return Field(f.grid, _fft2(np.asarray(f._full(), np.complex128)), SPECTRAL)
    if direction == "inverse":
        if f.rep != SPECTRAL:
            raise RepresentationError("inverse transform expects a spectral field")
        return Field(f.grid, _ifft2(f.values), PHYSICAL)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def to_spectral(f: Field) -> Field:
    return f if f.rep == SPECTRAL else transform(f, "forward")


def to_physical(f: Field) -> Field:
    return f if f.rep == PHYSICAL else transform(f, "inverse")


def _settle(f: Field, v: float = 0.0, center: tuple[float, float] = (0.0, 0.0)) -> Field:
    """`f` in physical space, stored as a computation at velocity `v` about
    `center` runs on it: the one place a field changes storage.  About
    (0, 0) a stored quarter is kept, an `_EVEN` one taken at v != 0 as
    `_RSYM`'s; any other field is unpacked once (`Field._full`: nothing is
    kept on `f`) and stored as `_layout_of` says, off (0, 0) as a full
    array, float64 for real values.  The stored array may be `f`'s own."""
    phys = to_physical(f)
    origin = tuple(center) == (0.0, 0.0)
    if origin and v and phys.layout is _EVEN:
        return Field._of(phys.grid, phys.stored.astype(np.complex128), _RSYM)
    if origin and phys.layout is (_RSYM if v else _EVEN):
        return Field._of(phys.grid, phys.stored, phys.layout)
    u = phys._full()
    layout = _layout_of(u, v, origin)
    return Field._of(phys.grid, layout.pack(u), layout)


_SYMBOL_KINDS = ("dxx", "abs_dy", "frac_dy", "transport",
                 "halfwave_group", "action_quadratic")


@dataclass(frozen=True)
class Symbol:
    """Fourier multiplier, identified by kind plus parameters."""

    kind: str
    s: float = 0.0
    v: float = 0.0
    t: float = 0.0
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in _SYMBOL_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "frac_dy" and not (0.0 < self.s <= 1.0):
            raise ValueError(f"frac_dy order must lie in (0, 1], got {self.s}")

    def values(self, grid: Grid) -> np.ndarray:
        """Multiplier values on the grid, shape (nx, ny)."""
        xi2 = grid.xi[:, None] ** 2
        abs_eta = np.abs(grid.eta)[None, :]
        if self.kind == "dxx":
            return np.broadcast_to(-xi2, grid.shape).copy()
        if self.kind == "abs_dy":
            return np.broadcast_to(abs_eta, grid.shape).copy()
        if self.kind == "frac_dy":
            return np.broadcast_to(abs_eta ** self.s, grid.shape).copy()
        if self.kind == "transport":
            # Nyquist mode zeroed: its frequency sign is ambiguous.
            return np.broadcast_to(-self.v * grid.eta_odd[None, :], grid.shape).copy()
        if self.kind == "halfwave_group":
            return np.exp(1j * self.t * (-xi2 - abs_eta))
        return _ActionRows(grid, self.omega, self.v, _FULL)(slice(None))


class _ActionRows:
    """The action_quadratic symbol xi^2 + |eta| - v*eta + omega, strictly
    positive for omega > 0 and |v| <= 1, by row blocks, bit for bit its full
    array, with no full-size array, on the spectra of `layout`: lines 0..n/2
    along its mirrored axes, along which the symbol is even: along x
    always, along y for v = 0."""

    def __init__(self, grid: Grid, omega: float, v: float, layout: _Layout):
        if 1 in layout.spectra and v:
            raise ValueError(f"action symbol with v={v} does not act on half spectra")
        self.shape = rows, cols = layout.spectra_shape(grid)
        self.xi2 = grid.xi[:rows, None] ** 2
        self.abs_eta = np.abs(grid.eta[:cols])
        self.v_eta = v * grid.eta_odd[:cols] if v else None
        self.omega = omega

    def __call__(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The symbol on a row block, written into `out` if given."""
        out = np.add(self.xi2[rows], self.abs_eta, out=out)
        if self.v_eta is not None:
            out -= self.v_eta
        out += self.omega
        return out

    def apply(self, hat: np.ndarray, out: np.ndarray, inverse: bool = False) -> np.ndarray:
        """aq hat (inverse: hat / aq) written into `out`, which may be hat,
        by cache-sized row blocks."""
        op = np.divide if inverse else np.multiply
        blocks = _slices(*self.shape, _FUSE_ELEMS)
        buf = np.empty((blocks[0].stop, self.shape[1]))
        for rows in blocks:
            op(hat[rows], self(rows, buf[:rows.stop - rows.start]), out=out[rows])
        return out


def dxx() -> Symbol:
    return Symbol("dxx")


def abs_dy() -> Symbol:
    return Symbol("abs_dy")


def frac_dy(s: float) -> Symbol:
    return Symbol("frac_dy", s=s)


def transport(v: float) -> Symbol:
    return Symbol("transport", v=v)


def halfwave_group(t: float) -> Symbol:
    return Symbol("halfwave_group", t=t)


def action_quadratic(omega: float, v: float = 0.0) -> Symbol:
    return Symbol("action_quadratic", omega=omega, v=v)


def apply_symbol(f: Field, sym: Symbol) -> Field:
    """Apply a Fourier multiplier; the result keeps the input representation."""
    mult = sym.values(f.grid)
    if f.rep == SPECTRAL:
        return Field(f.grid, mult * f.values, SPECTRAL)
    return Field(f.grid, _ifft2(to_spectral(f).values * mult), PHYSICAL)


def l2_inner(f: Field, g: Field):
    """Discrete L2 inner product int f conj(g), same representation required."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.rep != g.rep:
        raise RepresentationError("fields must share a representation")
    a, b = g.values, f.values
    # im sum conj(a) b = re sum conj(i a) b, zero for two real fields
    im = _redot(1j * a, b) if np.iscomplexobj(a) or np.iscomplexobj(b) else 0.0
    return complex(_redot(a, b), im) * f.grid.cell_area


def l2_norm_sq(f: Field) -> float:
    """||f||^2 from the stored array's row blocks (`_Layout.dot`)."""
    u, layout = f.stored, f.layout
    return sum(layout.dot(u[r], u[r], r, len(u))
               for r in _slices(*u.shape, _FUSE_ELEMS)) * f.grid.cell_area


def l2_norm(f: Field) -> float:
    return math.sqrt(l2_norm_sq(f))


def _spectrum(f: Field) -> tuple[np.ndarray, _Layout]:
    """The spectrum the quadratic forms sum over and its layout: a spectral
    field's values, or the transform of a physical field's stored array."""
    if f.rep == SPECTRAL:
        return f.values, _FULL
    return f.layout.fwd(f.stored, f.grid.shape), f.layout


def _forms(hat: np.ndarray, layout: _Layout, grid: Grid,
           *multipliers: np.ndarray | float) -> list[float]:
    """sum m * |fhat|^2 * dx*dy for each multiplier m, over the spectrum `hat`
    of f stored as `layout` says (`_spectrum`: full or half spectra), for
    real multipliers that broadcast to the grid shape, by cache-sized row
    blocks (`_Layout.dot`) that form |fhat|^2 once for every multiplier.
    On a half spectrum a multiplier counts by its even part (m(k) +
    m(-k))/2, with the column weights (1, 2, ..., 2, 1): an odd part, such
    as the transport row, sums to zero over a real field; on the rows of
    an `_RSYM` spectrum, by its part even in kx, with those weights along
    x, so the transport row counts; on a quarter, by its part even in kx
    and in ky, with those weights along both axes."""
    shape = layout.spectra_shape(grid)
    folds = [axes for axes, mirrored in (((0, 1), 1 in layout.spectra),
                                         ((0,), 0 in layout.spectra)) if mirrored]
    mults = []
    for multiplier in multipliers:
        mult = np.atleast_2d(np.asarray(multiplier, dtype=np.float64))
        # m(-k), then m(-kx, ky): reversed, then rolled so that index 0
        # stays in place
        for axes in folds:
            mult = 0.5 * (mult + np.roll(np.flip(mult, axes), 1, axis=axes))
        mult = mult[tuple(slice(n) if m > 1 else slice(None) for n, m in zip(shape, mult.shape))]
        mults.append(np.broadcast_to(mult, shape))
    totals = [0.0] * len(mults)
    for r in _slices(*hat.shape, _FUSE_ELEMS):
        dens = _density(hat[r])
        totals = [t + layout.dot(m[r] * dens, None, r, len(hat), spectra=True)
                  for t, m in zip(totals, mults)]
    return [t * grid.cell_area for t in totals]


def quadratic_form(f: Field, multiplier: np.ndarray) -> float:
    """sum multiplier * |fhat|^2 * dx*dy for a real multiplier array that
    broadcasts to the grid shape, by cache-sized row blocks; a real field
    sums over its half spectrum (`_forms`)."""
    return _forms(*_spectrum(f), f.grid, multiplier)[0]


def dx_field(f: Field) -> Field:
    """Spectral x-derivative (Nyquist zeroed), physical representation."""
    return Field(f.grid, _ifft2(1j * f.grid.xi_odd[:, None] * to_spectral(f).values), PHYSICAL)


def dy_field(f: Field) -> Field:
    """Spectral y-derivative (Nyquist zeroed), physical representation."""
    return Field(f.grid, _ifft2(1j * f.grid.eta_odd[None, :] * to_spectral(f).values), PHYSICAL)


def dealias_mask(grid: Grid) -> np.ndarray:
    """Two-thirds rule mask (True = keep), optional everywhere."""
    kx = mode_numbers(grid.nx)
    ky = mode_numbers(grid.ny)
    return (kx[:, None] <= grid.nx // 3) & (ky[None, :] <= grid.ny // 3)


def apply_dealias(f: Field) -> Field:
    mask = dealias_mask(f.grid)
    hat = to_spectral(f).values * mask
    if f.rep == SPECTRAL:
        return Field(f.grid, hat, SPECTRAL)
    return Field(f.grid, _ifft2(hat), PHYSICAL)


def _marginals(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column sums of |u|^2, by cache-sized row blocks."""
    rows, cols = np.empty(u.shape[0]), np.zeros(u.shape[1])
    for blk in _slices(*u.shape, _FUSE_ELEMS):
        w = _density(u[blk])
        rows[blk] = w.sum(axis=1)
        cols += w.sum(axis=0)
    return rows, cols


def tail_mass_fraction(f: Field) -> float:
    """Fraction of ||f||^2 in the outer 10% band of the box: |x| > 0.9 lx/2
    or |y| > 0.9 ly/2.

    Validates periodic truncation: solitary profiles decay exponentially
    in x but only algebraically in y, so boxes must be sized until this
    is small.  Both masses are summed in one pass (`_Layout.dot`).
    """
    g, f = f.grid, to_physical(f)
    u, layout = f.stored, f.layout
    inner_x = np.abs(g.x[:u.shape[0]]) <= 0.9 * (g.lx / 2.0)
    edge_y = np.abs(g.y[:u.shape[1]]) > 0.9 * (g.ly / 2.0)
    total = band = 0.0
    for r in _slices(*u.shape, _FUSE_ELEMS):
        dens = _density(u[r])
        total += layout.dot(dens, None, r, len(u))
        dens[inner_x[r]] *= edge_y  # the x band's rows whole, the others on the y band
        band += layout.dot(dens, None, r, len(u))
    return 0.0 if total == 0.0 else band / total


def frac_constant(s: float) -> float:
    """C(s) = int_R |e^{ir} - 1|^2 / |r|^{1+2s} dr = 2 pi / (Gamma(1 + 2s) sin(pi s)),
    2 / c_{1,2s} in Kwasnicki, Ten equivalent definitions of the fractional
    Laplace operator (Fract. Calc. Appl. Anal. 20, 2017).  C(1/2) = 2 pi.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return 2.0 * math.pi / (math.gamma(1.0 + 2.0 * s) * math.sin(math.pi * s))


@dataclass(frozen=True)
class FracIdentityCheck:
    lhs: float
    rhs: float
    relative_error: float
    c_star: float
    tail_warning: bool


def frac_seminorm_identity_check(values: np.ndarray, length: float, s: float,
                                 tail_tol: float = 1e-8) -> FracIdentityCheck:
    """Difference-quotient identity for the 1-D fractional seminorm.

    lhs: double quadrature of |u(y+h) - u(y)|^2 / |h|^{1+2s} dy dh with h
    running over the whole line.  The numerator is periodic in h, so the
    h integral folds into one period against the periodized kernel
    sum_k |h + k*length|^{-1-2s}; for a periodic trigonometric interpolant
    the folded double integral equals C(s) * || |D_y|^s u ||^2 exactly, and
    all discrepancy is quadrature error.  rhs: the spectral side.

    Numerator at every shift comes from one FFT autocorrelation.  The
    principal (k=0) kernel is integrated cell by cell against a quadratic
    interpolant of the numerator (product integration; plain midpoint
    sampling loses to the |h|^{-1-2s} singularity for s near 1).  Image
    sums use 64 explicit terms plus a midpoint-corrected integral
    remainder, written as a difference so it stays finite for s <= 1/2.
    The |h| < dy/2 cell is handled through the small-h expansion
    |u(y+h) - u(y)|^2 ~ h^2 |u'(y)|^2.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    u = np.ascontiguousarray(values, dtype=np.complex128)
    if u.ndim != 1:
        raise ValueError("expected a 1-D slice")
    n = u.size
    if n < _MIN_MODES or n % 2:
        raise ValueError(f"slice length must be an even integer >= {_MIN_MODES}")
    if not 0.0 < length < math.inf:
        raise ValueError(f"length must be positive and finite, got {length}")
    dy = length / n

    w = _density(u)
    total = float(np.sum(w))
    tail_warning = False
    if total > 0.0:
        pos = np.abs(-length / 2.0 + dy * np.arange(n))
        tail = float(np.sum(w[pos > 0.9 * (length / 2.0)]))
        tail_warning = tail / total > tail_tol

    # num[j] = dy * sum_y |u(y + j*dy) - u(y)|^2 for every shift at once.
    power = _density(_fft(u))
    corr = math.sqrt(n) * _ifft(power).real
    num = dy * 2.0 * (total - corr)

    j = np.arange(-(n // 2), n // 2)
    j = j[j != 0]
    h = j * dy
    half = dy / 2.0
    two_s = 2.0 * s

    def powdiff(a, b, gamma):
        # (b^gamma - a^gamma) / gamma, continuous through gamma = 0
        if gamma == 0.0:
            return np.log(b / a)
        return a ** gamma * np.expm1(gamma * np.log(b / a)) / gamma

    def cell(dist):
        # integral of |t|^{-1-2s} over a width-dy cell centered at dist > 0
        return ((dist - half) ** -two_s - (dist + half) ** -two_s) / two_s

    # Image kernel: smooth at distance >= length/2, midpoint weights do.
    weight = np.zeros(h.size)
    k_img = np.arange(1, 65, dtype=float)
    for off in (h, -h):
        weight += cell(k_img[:, None] * length + off[None, :]).sum(axis=0)
        # remainder of the image sum, as the convergent difference
        # sum_{k>K} (k*length + a)^{-2s} - (k*length + b)^{-2s}
        a = 64.5 * length + off - half
        b = a + dy
        integral = powdiff(a, b, 1.0 - two_s) / length
        deriv = -two_s * (a ** (-1.0 - two_s) - b ** (-1.0 - two_s))
        weight += (integral + deriv * length / 24.0) / two_s

    num_j = num[j % n]
    lhs = float(np.sum(num_j * weight))

    # Principal kernel: product integration, quadratic interpolant of the
    # numerator against exact moments of t^{-1-2s} on each cell.
    dnum = (num[(j + 1) % n] - num[(j - 1) % n]) / (2.0 * dy)
    d2num = (num[(j + 1) % n] - 2.0 * num_j + num[(j - 1) % n]) / dy ** 2
    pos = np.abs(h)
    a0 = pos - half
    b0 = pos + half
    m0 = cell(pos)
    m1 = powdiff(a0, b0, 1.0 - two_s) - pos * m0
    m2 = (powdiff(a0, b0, 2.0 - two_s)
          - 2.0 * pos * powdiff(a0, b0, 1.0 - two_s) + pos ** 2 * m0)
    lhs += float(np.sum(num_j * m0 + np.sign(h) * dnum * m1 + 0.5 * d2num * m2))

    # Central cell [-dy/2, dy/2]: integrand ~ |h|^{1-2s} * ||u'||^2.
    eta = wavenumbers(n, length)
    du_sq = float(np.sum((eta ** 2) * power)) * dy
    lhs += du_sq * 2.0 * half ** (2.0 - two_s) / (2.0 - two_s)

    c_star = frac_constant(s)
    seminorm_sq = float(np.sum((np.abs(eta) ** two_s) * power)) * dy
    rhs = c_star * seminorm_sq

    scale = max(abs(lhs), abs(rhs))
    rel = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return FracIdentityCheck(lhs=lhs, rhs=rhs, relative_error=rel,
                             c_star=c_star, tail_warning=tail_warning)
