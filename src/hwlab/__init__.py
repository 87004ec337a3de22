"""Pseudospectral laboratory for the focusing half-wave-Schroedinger equation.

    i dt psi + dxx psi - |Dy| psi + |psi|^(p-1) psi = 0

on a periodic box, with solitary-wave solvers, conserved-quantity
functionals, symplectic time stepping, and orbital stability probes.
"""

import types as _types

from .spectral import (
    PHYSICAL,
    SPECTRAL,
    Field,
    FracIdentityCheck,
    Grid,
    RepresentationError,
    Symbol,
    abs_dy,
    action_quadratic,
    apply_dealias,
    apply_symbol,
    dealias_mask,
    dx_field,
    dxx,
    dy_field,
    frac_constant,
    frac_dy,
    frac_seminorm_identity_check,
    halfwave_group,
    l2_inner,
    l2_norm,
    l2_norm_sq,
    make_grid,
    physical_field,
    quadratic_form,
    spectral_field,
    tail_mass_fraction,
    to_physical,
    to_spectral,
    transform,
    transport,
)
from .functionals import (
    FunctionalReport,
    ModelParams,
    action,
    action_gradient,
    dx_norm_sq,
    dy_half_norm_sq,
    functional_report,
    gn_quotient,
    hamiltonian,
    i_value,
    lp1_norm,
    lp1_power,
    mass,
    nehari,
    quadratic_action_form,
    x_inner,
    x_norm,
    x_norm_sq,
    x_weight,
)
from .solitary import (
    CollapseError,
    ConvergenceError,
    IterationRecord,
    MassMinimizer,
    OrbitalFit,
    ProbePoint,
    R1Diagnostics,
    SecondVariationScaling,
    SolitarySolution,
    TailMassError,
    default_initial_guess,
    extend_ground_state,
    mass_centroid,
    nehari_project,
    orbital_fit,
    psi_omega,
    r1_diagnostics,
    rescale_omega,
    scaling_pairing,
    second_variation_scaling,
    solve_mass_constrained,
    solve_nehari,
    t_lambda,
    travel_upper_bound_probe,
)
from .evolution import (
    DecayProbe,
    EvolutionTrace,
    PicardContractionError,
    PicardResult,
    dispersive_decay_probe,
    evolve,
    linear_propagate,
    picard_solve,
    strang_step,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .snapshots import SnapshotError, load_snapshot, save_snapshot

__version__ = "0.1.0"

# every public name imported above, and no submodule
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _types.ModuleType)]
__all__.append("__version__")
