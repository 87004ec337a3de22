"""Periodic grid, unitary Fourier transforms, and multiplier calculus.

Fields live on a rectangular periodic box [-lx/2, lx/2) x [-ly/2, ly/2)
sampled on even-count grids, x index slow and y index fast.  Every
linear operator used by the model is a Fourier multiplier; this module
owns the wavenumber conventions so the rest of the package never builds
a frequency array by hand.

Transforms use the unitary normalization, so the discrete Parseval
identity holds with the same quadrature weight dx*dy in both
representations.

A physical Field holds float64 values when its input is real and
complex128 otherwise; a spectral Field is always complex128, and
`to_spectral` gives the full spectrum of either.  Inside the package a
`_Layout` is the one record of how a field and its spectrum are stored;
its `fwd` and `inv` pick the transforms and its mirrored axes the
Parseval weights, so no other module looks at a dtype or a spectrum's
shape to choose either:

- `_FULL`: complex128 values, full spectra.
- `_REAL`: float64 values, half spectra (`rfft2` along y), on which
  Parseval weighs the columns (1, 2, ..., 2, 1) and a multiplier counts
  by its even part (`_spectrum`, `_forms`).
- `_RSYM`: u(x, y) = conj u(-x, -y) (R-symmetric, as a traveling wave
  grown from an R-symmetric start is) has a real spectrum S, and the
  real pair serves it in reverse: the conjugates of its columns
  0..ny/2 are `_rfft2(S)`, and S is their `_irfft2`.
- `_EVEN`: a real field even in x and in y, u = u(-x, .) = u(., -y) (a
  v = 0 ground state), is fixed by its quarter, indices 0..nx/2 x
  0..ny/2, and its spectrum is real and even, its quarter the DCT-I of
  the field's (`_dct`, its own inverse).  Parseval weighs a quarter's
  lines (1, 2, ..., 2, 1) along both axes (`_mirror_sum`).

Every 2-D transform in the package goes through `_fft2`, `_ifft2`,
`_rfft2`, `_irfft2` or `_dct`, the line transforms of T_lambda through
`_fft`; all call `scipy.fft` (pocketfft).  A transform runs on
`len(os.sched_getaffinity(0))` threads (the usable cores) when its
real-space array, for a quarter the full grid it stands for, has at
least 2**22 points and on one thread otherwise, where thread start-up
eats the gain.  On a 2-core Xeon, an r2c pair with 1 -> 2 threads
takes 0.20 -> 0.21 ms at 128x128, 31 -> 30 ms at 128x8192 and
132 -> 89 ms at 128x32768.  pocketfft hands whole 1-D lines to the
threads, so the output is bit-identical for any thread count.

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

import numpy as np
import scipy.fft

_MIN_MODES = 8
_THREADED_POINTS = 1 << 22
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
def _fft(a: np.ndarray, axis: int) -> np.ndarray:
    """Unitary 1-D FFT of every line of `a` along `axis`."""
    return scipy.fft.fft(a, axis=axis, norm="ortho", workers=_workers(a.size))


def _fft2(a: np.ndarray, norm: str = "ortho") -> np.ndarray:
    return scipy.fft.fft2(a, norm=norm, workers=_workers(a.size))


def _ifft2(a: np.ndarray, norm: str = "ortho") -> np.ndarray:
    return scipy.fft.ifft2(a, norm=norm, workers=_workers(a.size))


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


def _redot(a: np.ndarray, b: np.ndarray) -> float:
    """re sum conj(a) b over two 2-D arrays of one shape (complex ones with
    a contiguous last axis), by einsum on float views; a real operand pairs
    with the real part of a complex one."""
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        a, b = a.view(np.float64), b.view(np.float64)
    else:
        a, b = a.real, b.real
    return float(np.einsum("ij,ij->", a, b))


def _density(u: np.ndarray) -> np.ndarray:
    """|u|^2, squared directly for real u."""
    if not np.iscomplexobj(u):
        return u * u
    return u.real ** 2 + u.imag ** 2


def _reflected(u: np.ndarray) -> np.ndarray:
    """R u = conj u(-x, -y): entry (i, j) from (-i mod nx, -j mod ny), conjugated."""
    r = np.roll(u[::-1, ::-1], 1, axis=(0, 1))
    return np.conjugate(r, out=r)


def _rsym_pack(u0: np.ndarray) -> np.ndarray:
    """The conjugate of columns 0..ny/2 of (u0 + R u0) / 2, complex128."""
    sym = (u0 + _reflected(u0)) * 0.5
    return np.conj(sym[:, :u0.shape[1] // 2 + 1]).astype(np.complex128, copy=False)


def _rsym_unpack(w: np.ndarray) -> np.ndarray:
    """The field q with columns 0..ny/2 conj(w) and q[i, ny - j] = conj q[-i, j];
    the two edge columns are symmetrized, so R q equals q bit for bit."""
    nx, cols = w.shape
    rows = -np.arange(nx) % nx
    q = np.empty((nx, 2 * cols - 2), np.complex128)
    np.conjugate(w, out=q[:, :cols])
    edges = q[:, :cols:cols - 1]  # columns 0 and ny/2, their own mirrors
    edges[...] = 0.5 * (edges + np.conj(edges[rows]))
    q[:, cols:] = w[rows, cols - 2:0:-1]
    return q


def _even_pack(u0: np.ndarray) -> np.ndarray:
    """Rows 0..nx/2 and columns 0..ny/2 of the even part of the real u0:
    (u + u(-x, .)) / 2, then the same in y, which keeps an even u bit for bit."""
    u = u0.real
    m, n = (k // 2 + 1 for k in u.shape)
    half = (u[:m] + u[-np.arange(m) % u.shape[0]]) * 0.5
    return (half[:, :n] + half[:, -np.arange(n) % u.shape[1]]) * 0.5


def _even_unpack(w: np.ndarray) -> np.ndarray:
    """The even field whose rows 0..nx/2 and columns 0..ny/2 are `w`: past
    them, entry (i, j) from (-i mod nx, -j mod ny)."""
    m, n = w.shape
    q = np.empty((2 * m - 2, 2 * n - 2))
    q[:m, :n] = w
    q[:m, n:] = w[:, n - 2:0:-1]
    q[m:] = q[m - 2:0:-1]
    return q


@dataclass(frozen=True)
class _Layout:
    """How a field u and its spectrum are stored (see the module docstring
    for the four layouts), and how sums over them are weighed.

    `spectra` and `values` name the axes along which the stored arrays hold
    lines 0..n/2 of ones even about line 0, which Parseval weighs
    (1, 2, ..., 2, 1) (`_mirror_sum`).  `fwd(u, shape)` and `inv(hat,
    shape)` are the unitary transforms between the stored arrays of a
    field of `shape`; `pack` makes the stored values of a full field,
    `unpack` the full field of stored values.
    """

    spectra: tuple[int, ...]
    values: tuple[int, ...]
    fwd: Callable
    inv: Callable
    pack: Callable
    unpack: Callable = lambda u: u

    def spectra_shape(self, grid: Grid) -> tuple[int, int]:
        """The shape of the stored spectra of a field on `grid`."""
        return tuple(n // 2 + 1 if axis in self.spectra else n
                     for axis, n in enumerate(grid.shape))

    def _weigh(self, total: float, shape: tuple[int, int], axis: int, reduce: Callable) -> float:
        return _mirror_sum(total, shape, (axis,) if axis in self.values else (), reduce)

    def total(self, a: np.ndarray) -> float:
        """Sum of a row block of values, with the column weights of `values`."""
        return self._weigh(_sum(a), a.shape, 1, lambda ix: _sum(a[ix]))

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """`_redot` of two row blocks of values, as `total` weighs them."""
        return self._weigh(_redot(a, b), a.shape, 1, lambda ix: _redot(a[ix], b[ix]))

    def weigh_rows(self, reduce: Callable, shape: tuple[int, int],
                   total: float | None = None) -> float:
        """The sum over the field of terms whose sum over the stored rows ix,
        column-weighted as by `total`, is `reduce(ix)` (`total`: over all of
        them, if known): on a quarter, rows 0 and nx/2 count once."""
        if total is None:
            total = reduce((slice(None), slice(None)))
        return self._weigh(total, shape, 0, reduce)


def _sum(a: np.ndarray) -> float:
    return float(np.sum(a))


_FULL = _Layout((), (), lambda u, shape: _fft2(u), lambda h, shape: _ifft2(h),
                lambda u0: u0.astype(np.complex128))
_REAL = _Layout((1,), (), lambda u, shape: _rfft2(u), _irfft2, lambda u0: u0.real.copy())
_RSYM = _Layout((), (1,), _irfft2, lambda h, shape: _rfft2(h), _rsym_pack, _rsym_unpack)
_EVEN = _Layout((0, 1), (0, 1), lambda u, shape: _dct(u), lambda h, shape: _dct(h),
                _even_pack, _even_unpack)


def _is_real(vals: np.ndarray) -> bool:
    """Whether the values are real: float64, or complex with zero imaginary part."""
    return not (np.iscomplexobj(vals) and np.any(vals.imag))


def _samples(vals: np.ndarray) -> tuple[np.ndarray, _Layout]:
    """Real values as their float64 view on `_REAL`, others as they are on `_FULL`."""
    return (vals.real, _REAL) if _is_real(vals) else (vals, _FULL)


def _even(u: np.ndarray) -> bool:
    """||u - u(-x, .)|| and ||u - u(., -y)|| each at most 1e-12 ||u||, for
    real u, summed by row blocks."""
    rows, cols = (-np.arange(n) % n for n in u.shape)
    dx_sq = dy_sq = 0.0
    for r in _slices(*u.shape, _FUSE_ELEMS):
        blk = u[r]
        diff = blk - u[rows[r]]
        dx_sq += _redot(diff, diff)
        diff = blk - blk[:, cols]
        dy_sq += _redot(diff, diff)
    return max(dx_sq, dy_sq) <= 1e-24 * _redot(u, u)


def _layout_of(u0: np.ndarray, v: float) -> _Layout:
    """The layout of a descent from `u0`, by checks in physical space: at
    v = 0, `_EVEN` for a real start with ||u0 - u0(-x, .)|| and
    ||u0 - u0(., -y)|| each at most 1e-12 ||u0||, `_REAL` for another real
    one; at v != 0, `_RSYM` if ||u0 - R u0|| <= 1e-12 ||u0||; else `_FULL`."""
    if v == 0.0:
        if not _is_real(u0):
            return _FULL
        return _EVEN if _even(u0.real) else _REAL
    diff = u0 - _reflected(u0)
    return _RSYM if _redot(diff, diff) <= 1e-24 * _redot(u0, u0) else _FULL


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


@dataclass
class Field:
    """Scalar field on a Grid, tagged with its representation.

    values is a C-ordered (nx, ny) array: x is the slow index, y the
    fast one.  Physical values are float64 when the input is real and
    complex128 otherwise; spectral values are always complex128.
    """

    grid: Grid
    values: np.ndarray
    rep: str

    def __post_init__(self):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {self.rep!r}")
        real = self.rep == PHYSICAL and not np.iscomplexobj(self.values)
        vals = np.ascontiguousarray(self.values, dtype=np.float64 if real else np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}")
        self.values = vals

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy(), self.rep)


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
        return Field(f.grid, _fft2(np.asarray(f.values, np.complex128)), SPECTRAL)
    if direction == "inverse":
        if f.rep != SPECTRAL:
            raise RepresentationError("inverse transform expects a spectral field")
        return Field(f.grid, _ifft2(f.values), PHYSICAL)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def to_spectral(f: Field) -> Field:
    return f if f.rep == SPECTRAL else transform(f, "forward")


def to_physical(f: Field) -> Field:
    return f if f.rep == PHYSICAL else transform(f, "inverse")


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
    along its mirrored axes, where the symbol is even for v = 0."""

    def __init__(self, grid: Grid, omega: float, v: float, layout: _Layout):
        if layout.spectra and v:
            raise ValueError(f"action symbol with v={v} does not act on half spectra")
        self.shape = rows, cols = layout.spectra_shape(grid)
        self.xi2 = grid.xi[:rows, None] ** 2
        self.abs_eta = np.abs(grid.eta[:cols])
        self.v_eta = v * grid.eta_odd[:cols] if v else None
        self.omega = omega

    def __call__(self, rows: slice, out: np.ndarray | None = None,
                 cols: slice = slice(None)) -> np.ndarray:
        """The symbol on rows x cols, written into `out` if given."""
        out = np.add(self.xi2[rows], self.abs_eta[cols], out=out)
        if self.v_eta is not None:
            out -= self.v_eta[cols]
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
    return Field(f.grid, _ifft2(mult * to_spectral(f).values), PHYSICAL)


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
    return _redot(f.values, f.values) * f.grid.cell_area


def l2_norm(f: Field) -> float:
    return math.sqrt(l2_norm_sq(f))


def _spectrum(f: Field) -> tuple[np.ndarray, _Layout]:
    """The spectrum the quadratic forms sum over and its layout: the half
    spectrum of a real physical field (`_REAL`), the full one otherwise."""
    if f.rep == PHYSICAL and not np.iscomplexobj(f.values):
        return _REAL.fwd(f.values, f.grid.shape), _REAL
    return to_spectral(f).values, _FULL


def _mirror_sum(total: float, shape: tuple[int, int], axes: tuple[int, ...],
                reduce: Callable[[tuple[slice, slice]], float],
                index: tuple[slice, slice] = (slice(None), slice(None))) -> float:
    """The sum over the full arrays of terms whose plain sum over the stored
    arrays of `shape` is `total`.  Along each axis in `axes` the stored
    arrays hold lines 0..n/2 of arrays even about line 0 (a half spectrum
    along y, both axes of an even field's quarter), which Parseval weighs
    (1, 2, ..., 2, 1): twice the sum, less `reduce(ix)`, the plain sum over
    the two self-mirrored lines ix, first and last, weighed alike along the
    other axis of `axes`."""
    if not axes:
        return total
    *rest, axis = axes
    edges = list(index)
    edges[axis] = slice(None, None, shape[axis] - 1)
    edges = tuple(edges)
    return (2.0 * _mirror_sum(total, shape, rest, reduce, index)
            - _mirror_sum(reduce(edges), shape, rest, reduce, edges))


def _forms(hat: np.ndarray, layout: _Layout, grid: Grid,
           *multipliers: np.ndarray | float) -> list[float]:
    """sum m * |fhat|^2 * dx*dy for each multiplier m, over the spectrum `hat`
    of f stored as `layout` says (`_spectrum`: full or half spectra), for
    real multipliers that broadcast to the grid shape, by cache-sized row
    blocks that form |fhat|^2 once for every multiplier.  On a half
    spectrum a multiplier counts by its even part (m(k) + m(-k))/2, with
    the column weights (1, 2, ..., 2, 1): an odd part, such as the
    transport row, sums to zero over a real field."""
    shape = layout.spectra_shape(grid)
    mults = []
    for multiplier in multipliers:
        mult = np.atleast_2d(np.asarray(multiplier, dtype=np.float64))
        if layout.spectra:
            # m(-k): reversed, then rolled so that index 0 stays in place
            mult = 0.5 * (mult + np.roll(mult[::-1, ::-1], 1, axis=(0, 1)))
            mult = mult[:, :shape[1]] if mult.shape[1] > 1 else mult
        mults.append(np.broadcast_to(mult, shape))
    totals = [0.0] * len(mults)
    for r in _slices(*hat.shape, _FUSE_ELEMS):
        dens = _density(hat[r])
        totals = [t + float(np.sum(m[r] * dens)) for t, m in zip(totals, mults)]
    def edges(m):
        return lambda ix: float(np.sum(m[ix] * _density(hat[ix])))
    return [_mirror_sum(t, hat.shape, layout.spectra, edges(m)) * grid.cell_area
            for t, m in zip(totals, mults)]


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
    is small.
    """
    g = f.grid
    u = to_physical(f).values
    rows = _marginals(u)[0]
    total = float(np.sum(rows))
    if total == 0.0:
        return 0.0
    edge_x = np.abs(g.x) > 0.9 * (g.lx / 2.0)
    edge_y = np.abs(g.y) > 0.9 * (g.ly / 2.0)
    side = u[np.ix_(~edge_x, edge_y)]  # the y band outside the x band
    return (float(np.sum(rows[edge_x])) + float(np.sum(_density(side)))) / total


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
    spec = np.fft.fft(u)
    corr = np.fft.ifft(_density(spec)).real
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
    power = _density(np.fft.fft(u, norm="ortho"))
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
