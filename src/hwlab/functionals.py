"""Conserved quantities and variational functionals.

The model is the focusing half-wave-Schroedinger equation

    i dt psi + dxx psi - |D_y| psi + |psi|^{p-1} psi = 0,   1 < p < 5,

on the periodic box.  This module evaluates mass, Hamiltonian, the
action S_{omega,v} and its Nehari derivative pairing, the anisotropic
Sobolev X norm, and the Gagliardo-Nirenberg quotient, all through the
multiplier calculus of `spectral`.  Nonlinear powers are computed as
(|u|^2)^{(p+1)/2} in physical space; the square is a sum of two squares,
never below +0, so fractional p never sees a negative base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral as sp
from .spectral import _density, Field, Grid


@dataclass(frozen=True)
class ModelParams:
    """Exponent p, frequency omega, velocity v, with derived exponents."""

    p: float
    omega: float = 1.0
    v: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.p < 5.0):
            raise ValueError(f"p must lie in (1, 5), got {self.p}")
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not abs(self.v) < 1.0:
            raise ValueError(f"|v| must be < 1, got {self.v}")

    @property
    def s_p(self) -> float:
        """Scaling-critical index 3/2 - 2/(p-1); zero at p = 7/3."""
        return 1.5 - 2.0 / (self.p - 1.0)

    @property
    def mass_map_exponent(self) -> float:
        """Exponent of the mass -> omega map, -1/s_p; undefined at p = 7/3."""
        # 1.5 - 2/(p-1) does not hit zero exactly in floats at p = 7/3
        if abs(self.s_p) < 1e-12:
            raise ValueError("mass-critical exponent p = 7/3 has no mass->omega map")
        return -1.0 / self.s_p


def mass(u: Field) -> float:
    """M(u) = 1/2 ||u||_{L2}^2."""
    return 0.5 * sp.l2_norm_sq(u)


def _power(dens: np.ndarray, e: float) -> np.ndarray:
    """dens ** e for dens >= 0; dens * sqrt(dens) for e = 1.5, which numpy's
    ** computes without a fast path."""
    return dens * np.sqrt(dens) if e == 1.5 else dens ** e


def _lp1_sum(u: np.ndarray, p: float, total=np.sum) -> float:
    """sum |u|^{p+1} by cache-sized row blocks, each block summed by `total`."""
    e = (p + 1.0) / 2.0
    return sum(float(total(_power(_density(u[rows]), e)))
               for rows in sp._slices(*u.shape, sp._FUSE_ELEMS))


def lp1_power(u: Field, p: float) -> float:
    """int |u|^{p+1}, via (|u|^2)^{(p+1)/2} in physical space, by row blocks."""
    return _lp1_sum(sp.to_physical(u).values, p) * u.grid.cell_area


def lp1_norm(u: Field, p: float) -> float:
    return lp1_power(u, p) ** (1.0 / (p + 1.0))


def _action_row(grid: Grid, params: ModelParams) -> np.ndarray:
    """The row |eta| - v*eta + omega: with ||dx u||^2 it makes the action's
    quadratic form, and no full-size multiplier is built."""
    return (np.abs(grid.eta) - params.v * grid.eta_odd + params.omega)[None, :]


def _dx_dy_forms(hat: np.ndarray, layout: sp._Layout, grid: Grid, *multipliers) -> list[float]:
    """||dx u||^2, || |D_y|^{1/2} u ||^2 and the form of each further
    multiplier, from one density pass over the spectrum stored as `layout`
    says (`spectral._forms`)."""
    return sp._forms(hat, layout, grid, grid.xi[:, None] ** 2, np.abs(grid.eta)[None, :],
                     *multipliers)


def dx_norm_sq(u: Field) -> float:
    return sp._forms(*sp._spectrum(u), u.grid, u.grid.xi[:, None] ** 2)[0]


def dy_half_norm_sq(u: Field) -> float:
    """|| |D_y|^{1/2} u ||^2 = <|D_y| u, u>."""
    return sp._forms(*sp._spectrum(u), u.grid, np.abs(u.grid.eta)[None, :])[0]


def quadratic_action_form(u: Field, params: ModelParams) -> float:
    """<(-dxx + |D_y| + i v dy + omega) u, u>, the action's quadratic part;
    a real field sums over its half spectrum, where the odd transport part
    adds nothing (`spectral._forms`)."""
    dx_sq, row = sp._forms(*sp._spectrum(u), u.grid, u.grid.xi[:, None] ** 2,
                           _action_row(u.grid, params))
    return dx_sq + row


def hamiltonian(u: Field, p: float) -> float:
    """H(u) = 1/2 (||dx u||^2 + <|D_y| u, u>) - 1/(p+1) int |u|^{p+1}."""
    return 0.5 * (dx_norm_sq(u) + dy_half_norm_sq(u)) - lp1_power(u, p) / (p + 1.0)


def action(u: Field, params: ModelParams) -> float:
    """S_{omega,v}(u) = 1/2 quadratic form - 1/(p+1) int |u|^{p+1}."""
    return 0.5 * quadratic_action_form(u, params) - lp1_power(u, params.p) / (params.p + 1.0)


def nehari(u: Field, params: ModelParams) -> float:
    """N(u) = <S'(u), u> = quadratic form - int |u|^{p+1}."""
    return quadratic_action_form(u, params) - lp1_power(u, params.p)


def i_value(u: Field, params: ModelParams) -> float:
    """I(u) = S(u) - N(u)/(p+1) = (1/2 - 1/(p+1)) * quadratic form."""
    return (0.5 - 1.0 / (params.p + 1.0)) * quadratic_action_form(u, params)


def x_norm_sq(u: Field) -> float:
    return dx_norm_sq(u) + dy_half_norm_sq(u) + sp.l2_norm_sq(u)


def x_norm(u: Field) -> float:
    """Anisotropic energy norm {||dx u||^2 + |||D_y|^{1/2} u||^2 + ||u||^2}^{1/2}."""
    return math.sqrt(x_norm_sq(u))


def x_weight(grid: Grid) -> np.ndarray:
    """Spectral weight 1 + xi^2 + |eta| of the X inner product: the action
    symbol at omega = 1, v = 0."""
    return sp.action_quadratic(1.0).values(grid)


def x_inner(u: Field, w: Field):
    """X inner product <u, w>_X as a complex number."""
    if u.grid != w.grid:
        raise ValueError("fields live on different grids")
    uh = sp.to_spectral(u).values
    wh = sp.to_spectral(w).values
    return complex(np.sum(x_weight(u.grid) * uh * np.conj(wh)) * u.grid.cell_area)


def gn_quotient(u: Field, p: float) -> float:
    """Anisotropic Gagliardo-Nirenberg quotient

        int |u|^{p+1}
        -------------------------------------------------------------
        ||dx u||^{(p-1)/2} |||D_y|^{1/2} u||^{p-1} ||u||^{(5-p)/2}

    maximized exactly by the ground states.
    """
    return _gn_quotient(lp1_power(u, p), dx_norm_sq(u), dy_half_norm_sq(u),
                        sp.l2_norm_sq(u), p)


def _gn_quotient(lp1: float, dx_sq: float, dy_sq: float, l2_sq: float, p: float) -> float:
    a = dx_sq ** 0.5
    b = dy_sq ** 0.5
    c = math.sqrt(l2_sq)
    if a == 0.0 or b == 0.0 or c == 0.0:
        raise ValueError("Gagliardo-Nirenberg quotient needs nonzero norm factors")
    denom = a ** ((p - 1.0) / 2.0) * b ** (p - 1.0) * c ** ((5.0 - p) / 2.0)
    return lp1 / denom


def action_gradient(u: Field, params: ModelParams) -> Field:
    """L2 gradient of the action under the real pairing re int f conj(g).

    grad S(u) = (-dxx + |D_y| + i v dy + omega) u - |u|^{p-1} u.
    """
    lin = sp.apply_symbol(sp.to_spectral(u), sp.action_quadratic(params.omega, params.v))
    phys = sp.to_physical(u).values
    nl = _density(phys) ** ((params.p - 1.0) / 2.0) * phys
    return Field(u.grid, sp.to_physical(lin).values - nl, sp.PHYSICAL)


@dataclass(frozen=True)
class FunctionalReport:
    """One-stop evaluation of every functional on a field."""

    mass: float
    hamiltonian: float
    action: float
    nehari: float
    i_value: float
    x_norm: float
    lp1_norm: float
    gn_quotient: float


def functional_report(u: Field, params: ModelParams) -> FunctionalReport:
    """Every functional of u from one transform, the half spectrum of a real
    field, and one density pass over it; equal to the separate functions."""
    p = params.p
    hat, layout = sp._spectrum(u)
    dx_sq, dy_sq, row = _dx_dy_forms(hat, layout, u.grid, _action_row(u.grid, params))
    quad = dx_sq + row
    del hat
    lp1 = lp1_power(u, p)
    l2_sq = sp.l2_norm_sq(u)
    return FunctionalReport(
        mass=0.5 * l2_sq,
        hamiltonian=0.5 * (dx_sq + dy_sq) - lp1 / (p + 1.0),
        action=0.5 * quad - lp1 / (p + 1.0),
        nehari=quad - lp1,
        i_value=(0.5 - 1.0 / (p + 1.0)) * quad,
        x_norm=math.sqrt(dx_sq + dy_sq + l2_sq),
        lp1_norm=lp1 ** (1.0 / (p + 1.0)),
        gn_quotient=_gn_quotient(lp1, dx_sq, dy_sq, l2_sq, p),
    )
