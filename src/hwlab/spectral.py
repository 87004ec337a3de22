"""Periodic grid, unitary Fourier transforms, and multiplier calculus.

Fields live on a rectangular periodic box [-lx/2, lx/2) x [-ly/2, ly/2)
sampled on even-count grids, x index slow and y index fast.  Every
linear operator used by the model is a Fourier multiplier; this module
owns the wavenumber conventions so the rest of the package never builds
a frequency array by hand.

Transforms use the unitary normalization, so the discrete Parseval
identity holds with the same quadrature weight dx*dy in both
representations.

Every 2-D transform in the package goes through the private helpers
`_fft2`, `_ifft2`, `_rfft2` and `_irfft2`, which call `scipy.fft`
(pocketfft).  Real fields use half spectra (`rfft2` along y), on which
Parseval weighs the columns (1, 2, ..., 2, 1).  A transform runs on
`len(os.sched_getaffinity(0))` threads (the usable cores) when its
real-space array has at least 2**22 points and on one thread
otherwise, where thread start-up eats the gain.  On a 2-core Xeon, an
r2c pair with 1 -> 2 threads takes 0.20 -> 0.21 ms at 128x128,
31 -> 30 ms at 128x8192 and 132 -> 89 ms at 128x32768.  pocketfft
hands whole 1-D lines to the threads, so the output is bit-identical
for any thread count.

Every full-array inner product in the package is `_redot`, an einsum on
float views.  BLAS is kept out of it: OpenBLAS workers left spinning
after a `np.vdot` slowed the next 2-thread transform about 1.6x, and an
einsum sum does not depend on any thread count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy import integrate

_MIN_MODES = 8
_THREADED_POINTS = 1 << 22


def _workers(points: int) -> int:
    """FFT thread count for a transform whose real-space array has `points` entries."""
    if points < _THREADED_POINTS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# scipy.fft is looked up at call time so that wrappers installed on the
# module (profilers, tracers) see every transform.
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


def _redot(a: np.ndarray, b: np.ndarray) -> float:
    """re sum conj(a) b over two 2-D arrays of one shape and dtype (complex
    ones with a contiguous last axis), by einsum on float views."""
    if np.iscomplexobj(a):
        a, b = a.view(np.float64), b.view(np.float64)
    return float(np.einsum("ij,ij->", a, b))


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
        if not (lx > 0 and ly > 0):
            raise ValueError(f"box lengths must be positive, got lx={lx}, ly={ly}")
        self.nx, self.ny = int(nx), int(ny)
        self.lx, self.ly = float(lx), float(ly)
        self.dx = self.lx / self.nx
        self.dy = self.ly / self.ny
        self.x = -self.lx / 2.0 + self.dx * np.arange(self.nx)
        self.y = -self.ly / 2.0 + self.dy * np.arange(self.ny)
        self.xi = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        self.eta = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
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
    """Complex scalar field on a Grid, tagged with its representation.

    values is a C-ordered (nx, ny) complex128 array: x is the slow
    index, y the fast one.
    """

    grid: Grid
    values: np.ndarray
    rep: str

    def __post_init__(self):
        if self.rep not in (PHYSICAL, SPECTRAL):
            raise RepresentationError(f"unknown representation {self.rep!r}")
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
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
    error; use to_spectral/to_physical for idempotent conversion.
    """
    if direction == "forward":
        if f.rep != PHYSICAL:
            raise RepresentationError("forward transform expects a physical field")
        return Field(f.grid, _fft2(f.values), SPECTRAL)
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

    def values(self, grid: Grid, half: bool = False) -> np.ndarray:
        """Multiplier values on the grid, shape (nx, ny).

        half=True gives the values on the rfft half spectrum, shape
        (nx, ny//2 + 1), for the real even symbols that map real fields
        to real fields.
        """
        cols = grid.ny // 2 + 1 if half else grid.ny
        if half and (self.kind in ("transport", "halfwave_group") or self.v != 0.0):
            raise ValueError(f"{self.kind} symbol with v={self.v} does not act on half spectra")
        shape = (grid.nx, cols)
        xi2 = grid.xi[:, None] ** 2
        abs_eta = np.abs(grid.eta[:cols])[None, :]
        if self.kind == "dxx":
            return np.broadcast_to(-xi2, shape).copy()
        if self.kind == "abs_dy":
            return np.broadcast_to(abs_eta, shape).copy()
        if self.kind == "frac_dy":
            return np.broadcast_to(abs_eta ** self.s, shape).copy()
        if self.kind == "transport":
            # Nyquist mode zeroed: its frequency sign is ambiguous.
            return np.broadcast_to(-self.v * grid.eta_odd[None, :], grid.shape).copy()
        if self.kind == "halfwave_group":
            return np.exp(1j * self.t * (-xi2 - abs_eta))
        # action_quadratic: xi^2 + |eta| - v*eta + omega, strictly positive
        # for omega > 0 and |v| <= 1.
        return xi2 + abs_eta - self.v * grid.eta_odd[None, :cols] + self.omega


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
    return Field(f.grid, _ifft2(mult * _fft2(f.values)), PHYSICAL)


def l2_inner(f: Field, g: Field):
    """Discrete L2 inner product int f conj(g), same representation required."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    if f.rep != g.rep:
        raise RepresentationError("fields must share a representation")
    a, b = g.values, f.values
    # im sum conj(a) b = re sum conj(i a) b
    return complex(_redot(a, b), _redot(1j * a, b)) * f.grid.cell_area


def l2_norm_sq(f: Field) -> float:
    return _redot(f.values, f.values) * f.grid.cell_area


def l2_norm(f: Field) -> float:
    return math.sqrt(l2_norm_sq(f))


def quadratic_form(f: Field, multiplier: np.ndarray) -> float:
    """sum multiplier * |fhat|^2 * dx*dy for a real multiplier array."""
    hat = to_spectral(f).values
    return float(np.sum(multiplier * (hat.real ** 2 + hat.imag ** 2))) * f.grid.cell_area


def dx_field(f: Field) -> Field:
    """Spectral x-derivative (Nyquist zeroed), physical representation."""
    hat = to_spectral(f).values
    out = _ifft2(1j * f.grid.xi_odd[:, None] * hat)
    return Field(f.grid, out, PHYSICAL)


def dy_field(f: Field) -> Field:
    """Spectral y-derivative (Nyquist zeroed), physical representation."""
    hat = to_spectral(f).values
    out = _ifft2(1j * f.grid.eta_odd[None, :] * hat)
    return Field(f.grid, out, PHYSICAL)


def dealias_mask(grid: Grid) -> np.ndarray:
    """Two-thirds rule mask (True = keep), optional everywhere."""
    kx = np.abs(np.fft.fftfreq(grid.nx) * grid.nx)
    ky = np.abs(np.fft.fftfreq(grid.ny) * grid.ny)
    return (kx[:, None] <= grid.nx // 3) & (ky[None, :] <= grid.ny // 3)


def apply_dealias(f: Field) -> Field:
    mask = dealias_mask(f.grid)
    hat = to_spectral(f).values * mask
    if f.rep == SPECTRAL:
        return Field(f.grid, hat, SPECTRAL)
    return Field(f.grid, _ifft2(hat), PHYSICAL)


def tail_mass_fraction(f: Field, annulus: float = 0.1) -> float:
    """Fraction of ||f||^2 in the outer `annulus` band of the box.

    Validates periodic truncation: solitary profiles decay exponentially
    in x but only algebraically in y, so boxes must be sized until this
    is small.
    """
    g = f.grid
    u = to_physical(f).values
    w = u.real ** 2 + u.imag ** 2
    total = float(np.sum(w))
    if total == 0.0:
        return 0.0
    edge_x = np.abs(g.x) > (1.0 - annulus) * (g.lx / 2.0)
    edge_y = np.abs(g.y) > (1.0 - annulus) * (g.ly / 2.0)
    mask = edge_x[:, None] | edge_y[None, :]
    return float(np.sum(w[mask])) / total


def frac_constant(s: float) -> float:
    """C(s) = int_R |e^{ir} - 1|^2 / |r|^{1+2s} dr by adaptive quadrature.

    The integrand near r = 0 behaves like r^{1-2s}; the cell [0, 1] is
    integrated through the series 2 - 2cos r = sum (-1)^{k+1} 2 r^{2k}/(2k)!
    to avoid the singular quotient, the oscillatory tail uses a cosine-
    weighted quadrature.  C(1/2) = 2*pi.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")
    # |e^{ir} - 1|^2 = 2 - 2 cos r, even in r.
    near = 0.0
    term_sign = 1.0
    fact = 1.0
    for k in range(1, 30):
        fact *= (2 * k) * (2 * k - 1)
        contrib = term_sign * 2.0 / fact / (2 * k - 2 * s)
        near += contrib
        term_sign = -term_sign
        if abs(contrib) < 1e-18:
            break
    cut = 50.0
    mid, _ = integrate.quad(lambda r: (2.0 - 2.0 * math.cos(r)) * r ** (-1.0 - 2.0 * s),
                            1.0, cut, limit=200)
    tail_mono = 2.0 * cut ** (-2.0 * s) / (2.0 * s)
    tail_osc, _ = integrate.quad(lambda r: -2.0 * r ** (-1.0 - 2.0 * s),
                                 cut, np.inf, weight="cos", wvar=1.0, limit=200)
    return 2.0 * (near + mid + tail_mono + tail_osc)


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
    if length <= 0:
        raise ValueError("length must be positive")
    dy = length / n

    w = u.real ** 2 + u.imag ** 2
    total = float(np.sum(w))
    tail_warning = False
    if total > 0.0:
        pos = np.abs(-length / 2.0 + dy * np.arange(n))
        tail = float(np.sum(w[pos > 0.9 * (length / 2.0)]))
        tail_warning = tail / total > tail_tol

    # num[j] = dy * sum_y |u(y + j*dy) - u(y)|^2 for every shift at once.
    spec = np.fft.fft(u)
    corr = np.fft.ifft(spec.real ** 2 + spec.imag ** 2).real
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
    uhat = np.fft.fft(u, norm="ortho")
    eta = 2.0 * np.pi * np.fft.fftfreq(n, d=dy)
    du_sq = float(np.sum((eta ** 2) * (uhat.real ** 2 + uhat.imag ** 2))) * dy
    lhs += du_sq * 2.0 * half ** (2.0 - two_s) / (2.0 - two_s)

    c_star = frac_constant(s)
    seminorm_sq = float(np.sum((np.abs(eta) ** two_s)
                               * (uhat.real ** 2 + uhat.imag ** 2))) * dy
    rhs = c_star * seminorm_sq

    scale = max(abs(lhs), abs(rhs))
    rel = 0.0 if scale == 0.0 else abs(lhs - rhs) / scale
    return FracIdentityCheck(lhs=lhs, rhs=rhs, relative_error=rel,
                             c_star=c_star, tail_warning=tail_warning)
