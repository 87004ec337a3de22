"""The package's public namespace and what importing it costs."""

import os
import subprocess
import sys
import types

import hwlab

EXPORTED = {
    "PHYSICAL", "SPECTRAL", "Field", "FracIdentityCheck", "Grid",
    "RepresentationError", "Symbol", "abs_dy", "action_quadratic",
    "apply_dealias", "apply_symbol", "dealias_mask", "dx_field", "dxx",
    "dy_field", "frac_constant", "frac_dy", "frac_seminorm_identity_check",
    "halfwave_group", "l2_inner", "l2_norm", "l2_norm_sq", "make_grid",
    "physical_field", "quadratic_form", "spectral_field",
    "tail_mass_fraction", "to_physical", "to_spectral", "transform",
    "transport",
    "FunctionalReport", "ModelParams", "action", "action_gradient",
    "dx_norm_sq", "dy_half_norm_sq", "functional_report", "gn_quotient",
    "hamiltonian", "i_value", "lp1_norm", "lp1_power", "mass", "nehari",
    "quadratic_action_form", "x_inner", "x_norm", "x_norm_sq", "x_weight",
    "CollapseError", "ConvergenceError", "IterationRecord", "MassMinimizer",
    "OrbitalFit", "ProbePoint", "R1Diagnostics", "SecondVariationScaling",
    "SolitarySolution", "TailMassError", "default_initial_guess",
    "extend_ground_state", "mass_centroid", "nehari_project", "orbital_fit",
    "psi_omega", "r1_diagnostics", "rescale_omega", "scaling_pairing",
    "second_variation_scaling", "solve_mass_constrained", "solve_nehari",
    "t_lambda", "travel_upper_bound_probe",
    "DecayProbe", "EvolutionTrace", "PicardContractionError", "PicardResult",
    "dispersive_decay_probe", "evolve", "linear_propagate", "picard_solve",
    "strang_step",
    "ConfigError", "ExperimentConfig", "load_config", "parse_config",
    "SnapshotError", "load_snapshot", "save_snapshot",
    "__version__",
}


def test_all_is_the_public_namespace():
    # __all__ is derived from the imports: every name resolves, no
    # submodule leaks into it, and no name is listed twice
    names = hwlab.__all__
    assert len(names) == len(set(names))
    assert set(names) == EXPORTED
    for name in names:
        assert not isinstance(getattr(hwlab, name), types.ModuleType), name
    namespace = {}
    exec("from hwlab import *", namespace)
    assert set(namespace) - {"__builtins__"} == EXPORTED


def test_cli_import_skips_slow_scipy_modules():
    # every transform is scipy.fft's, T_lambda's chirp-z included, so neither
    # importing the package nor resampling loads scipy.signal or the
    # scipy.stats it pulls in, and nothing needs scipy.integrate
    src = os.path.dirname(os.path.dirname(os.path.abspath(hwlab.__file__)))
    code = ("import sys, numpy as np, hwlab.cli\n"
            "from hwlab import dispersive_decay_probe, make_grid, physical_field, t_lambda\n"
            "g = make_grid(16, 16, 10.0, 10.0)\n"
            "t_lambda(physical_field(g, np.exp(-g.x[:, None] ** 2 - g.y ** 2)), 0.9)\n"
            "dispersive_decay_probe(np.exp(-g.x ** 2), 10.0, [0.1, 0.2])\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.stats', 'scipy.integrate')\n"
            "             if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
