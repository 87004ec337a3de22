"""Command-line laboratory driver.

    hwlab <command> --config <path> [--grid.nx N] [--model.p P] [--out DIR]

Commands: ground-state, travel, evolve, stability, instability,
sweep-velocity, verify.  Any schema key can be overridden from the
command line with a --section.key flag.  Exit codes: 0 success, 1
numerical failure, 2 usage error.  All randomness is seeded from
solver.seed, so identical config and seed give byte-identical CSV and
snapshot outputs.  Every output file is written to a temporary file and
moved into place (`snapshots.atomic_open`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import evolution as ev
from . import functionals as fl
from . import solitary as sol
from . import spectral as sp
from .config import COMMANDS, ConfigError, ExperimentConfig, load_config, _ORDER
from .functionals import ModelParams
from .snapshots import SnapshotError, atomic_open, load_snapshot, save_snapshot
from .spectral import Field, Grid

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.16e}"


def _write_csv(path: str, columns, rows, cfg: ExperimentConfig) -> None:
    lines = [f"# config_sha256 = {cfg.config_hash()}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_report(cfg: ExperimentConfig, report: dict) -> None:
    out_dir = cfg["output.out_dir"]
    report = {"config_sha256": cfg.config_hash(), **report}
    text = json.dumps(report, indent=2, default=float)
    with atomic_open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)


def _experiment_T(cfg: ExperimentConfig) -> float:
    # Stability/instability experiments default to the long horizon.
    return cfg["evolution.T"] if cfg.was_set("evolution.T") else 20.0


def _solve_from_config(cfg: ExperimentConfig, grid: Grid, params: ModelParams):
    return sol.solve_nehari(
        grid, params,
        tol=cfg["solver.tol"], max_iter=cfg["solver.max_iter"],
        init_kind=cfg["solver.init_kind"], seed=cfg["solver.seed"])


def _reference_state(cfg: ExperimentConfig, grid: Grid, params: ModelParams):
    """Ground state from snapshot_in when given, else a fresh solve."""
    path = cfg["output.snapshot_in"]
    if path:
        return load_snapshot(path, expect_grid=grid)
    solution = _solve_from_config(cfg, grid, params)
    return solution.q, params


def _solve_command(cfg: ExperimentConfig, grid: Grid, params: ModelParams,
                   default_name: str) -> int:
    try:
        solution = _solve_from_config(cfg, grid, params)
    except (sol.ConvergenceError, sol.CollapseError) as exc:
        _emit_report(cfg, {"command": cfg["command"], "converged": False,
                           "error": str(exc)})
        return EXIT_NUMERICAL
    q = solution.q
    snap_path = cfg["output.snapshot_out"] or os.path.join(
        cfg["output.out_dir"], default_name)
    save_snapshot(snap_path, q, params)
    rep = fl.functional_report(q, params)
    _emit_report(cfg, {
        "command": cfg["command"],
        "converged": True,
        "p": params.p, "omega": params.omega, "v": params.v,
        "m_value": solution.action_value,
        "nehari_residual": solution.nehari_residual,
        "gradient_residual": solution.gradient_residual,
        "iterations": solution.iterations,
        "tail_mass_fraction": solution.tail_mass_fraction,
        "mass": rep.mass,
        "hamiltonian": rep.hamiltonian,
        "x_norm": rep.x_norm,
        "gn_quotient": rep.gn_quotient,
        "snapshot": snap_path,
        "history": [dataclasses.asdict(r) for r in solution.history],
    })
    return EXIT_OK


def cmd_evolve(cfg: ExperimentConfig, grid: Grid, params: ModelParams) -> int:
    if cfg["output.snapshot_in"]:
        reference = u0 = load_snapshot(cfg["output.snapshot_in"], expect_grid=grid)[0]
    else:
        reference = None
        u0 = sol.default_initial_guess(grid, params, kind=cfg["solver.init_kind"],
                                       seed=cfg["solver.seed"])
    trace = ev.evolve(u0, params.p, cfg["evolution.T"], cfg["evolution.dt"],
                      sample_stride=cfg["evolution.sample_stride"],
                      s_monitor=cfg["evolution.s_monitor"], reference=reference)
    columns = ["t", "mass", "hamiltonian", "l2x_hsy", "linf"]
    series = [trace.times, trace.mass, trace.hamiltonian, trace.l2x_hsy, trace.linf]
    if reference is not None:
        columns += ["orbital_distance", "phase"]
        series += [trace.orbital_distance, trace.phase]
    _write_csv(os.path.join(cfg["output.out_dir"], "trace.csv"),
               columns, list(zip(*series)), cfg)
    m0 = trace.mass[0]
    h_scale = max(abs(trace.hamiltonian[0]), 1e-30)
    report = {
        "command": "evolve",
        "steps": trace.n_steps,
        "dt": trace.dt,
        "mass_drift": float(np.max(np.abs(trace.mass - m0)) / max(m0, 1e-30)),
        "hamiltonian_drift": float(np.max(np.abs(trace.hamiltonian
                                                 - trace.hamiltonian[0])) / h_scale),
        "mass_ok": trace.mass_ok,
        "blown_up": trace.blown_up,
        "abort_reason": trace.abort_reason,
    }
    if reference is not None:
        report["max_orbital_distance"] = float(np.max(trace.orbital_distance))
    _emit_report(cfg, report)
    return EXIT_OK if trace.abort_reason is None else EXIT_NUMERICAL


def _random_field(grid: Grid, rng: np.random.Generator, filt: np.ndarray) -> Field:
    """Seeded complex field whose spectrum is white noise times `filt`."""
    coef = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, sp._ifft2(coef * filt), sp.PHYSICAL)


def cmd_stability(cfg: ExperimentConfig, grid: Grid, params: ModelParams) -> int:
    if not (1.0 < params.p < 7.0 / 3.0):
        raise ConfigError("stability experiment needs 1 < p < 7/3")
    try:
        q, params = _reference_state(cfg, grid, params)
    except (sol.ConvergenceError, sol.CollapseError) as exc:
        _emit_report(cfg, {"command": "stability", "error": str(exc)})
        return EXIT_NUMERICAL

    rng = np.random.default_rng(cfg["solver.seed"])
    noise = _random_field(grid, rng, sp.dealias_mask(grid))  # top third of each axis zeroed
    delta = cfg["experiment.delta"]
    q_xnorm = fl.x_norm(q)
    scale = delta * q_xnorm / fl.x_norm(noise)
    u0 = Field(grid, q.values + scale * noise.values, sp.PHYSICAL)

    trace = ev.evolve(u0, params.p, _experiment_T(cfg), cfg["evolution.dt"],
                      sample_stride=cfg["evolution.sample_stride"],
                      s_monitor=cfg["evolution.s_monitor"], reference=q)
    _write_csv(os.path.join(cfg["output.out_dir"], "stability.csv"),
               ["t", "orbital_distance"],
               list(zip(trace.times, trace.orbital_distance)), cfg)
    d0 = float(trace.orbital_distance[0])
    d_max = float(np.max(trace.orbital_distance))
    factor = cfg["experiment.distance_factor"]
    stable = trace.abort_reason is None and d_max <= factor * d0
    _emit_report(cfg, {
        "command": "stability",
        "verdict": "STABLE" if stable else "UNSTABLE",
        "delta": delta,
        "initial_distance": d0,
        "max_distance": d_max,
        "distance_factor_threshold": factor,
        "reference_x_norm": q_xnorm,
        "T": float(trace.times[-1]),
        "steps": trace.n_steps,
        "blown_up": trace.blown_up,
        "abort_reason": trace.abort_reason,
    })
    return EXIT_OK


def cmd_instability(cfg: ExperimentConfig, grid: Grid, params: ModelParams) -> int:
    if not (7.0 / 3.0 < params.p < 5.0):
        raise ConfigError(f"instability experiment needs 7/3 < p < 5, got model.p = "
                          f"{params.p:g}: pass --model.p 3.0, for example")
    try:
        q, params = _reference_state(cfg, grid, params)
    except (sol.ConvergenceError, sol.CollapseError) as exc:
        _emit_report(cfg, {"command": "instability", "error": str(exc)})
        return EXIT_NUMERICAL

    growth = cfg["experiment.growth_factor"]
    runs = []
    any_grew = False
    for lam in cfg["experiment.lambdas"]:
        u0 = sol.t_lambda(q, lam, tail_tol=math.inf)
        pairing = lambda f: sol.scaling_pairing(f, params, tail_tol=math.inf)  # noqa: E731
        d0 = sol.orbital_fit(u0, q).distance
        trace = ev.evolve(u0, params.p, _experiment_T(cfg), cfg["evolution.dt"],
                          sample_stride=cfg["evolution.sample_stride"],
                          s_monitor=cfg["evolution.s_monitor"], reference=q,
                          distance_stop=growth * d0, ham_drift_abort=5e-2,
                          extra_monitor=pairing)
        name = f"instability_lam{lam:g}.csv"
        _write_csv(os.path.join(cfg["output.out_dir"], name),
                   ["t", "orbital_distance", "scaling_pairing"],
                   list(zip(trace.times, trace.orbital_distance, trace.extra)), cfg)
        d_max = float(np.max(trace.orbital_distance))
        grew = d_max >= growth * d0
        any_grew = any_grew or grew
        runs.append({
            "lambda": lam,
            "initial_distance": float(d0),
            "max_distance": d_max,
            "growth_observed": d_max / d0 if d0 > 0 else math.inf,
            "grew": grew,
            "initial_pairing": float(trace.extra[0]),
            "steps": trace.n_steps,
            "blown_up": trace.blown_up,
            "abort_reason": trace.abort_reason,
            "csv": name,
        })
    _emit_report(cfg, {
        "command": "instability",
        "verdict": "UNSTABLE" if any_grew else "NO-GROWTH",
        "growth_factor_threshold": growth,
        "runs": runs,
    })
    return EXIT_OK


def cmd_sweep_velocity(cfg: ExperimentConfig, grid: Grid, *speeds: ModelParams) -> int:
    rows = []
    failure = None
    last_solution = None
    for params in speeds:
        try:
            if last_solution is None:
                solution = _solve_from_config(cfg, grid, params)
            else:
                solution = sol.solve_nehari(grid, params, init=last_solution.q,
                                            tol=cfg["solver.tol"],
                                            max_iter=cfg["solver.max_iter"])
        except (sol.ConvergenceError, sol.CollapseError) as exc:
            failure = f"v = {params.v}: {exc}"
            break
        q = solution.q
        last_solution = solution
        dx_sq, dy_sq = fl._dx_dy_forms(*sp._spectrum(q), grid)  # one transform for both norms
        rows.append((params.v, solution.action_value, sp.l2_norm(q),
                     math.sqrt(dx_sq), math.sqrt(dy_sq), solution.iterations))
    _write_csv(os.path.join(cfg["output.out_dir"], "sweep_velocity.csv"),
               ["v", "m_value", "l2_norm", "dx_norm", "dy_half_norm", "iterations"],
               rows, cfg)

    slack = 1e-3
    l2s = [r[2] for r in rows]
    dxs = [r[3] for r in rows]
    trend_ok = all(b <= a * (1.0 + slack) for a, b in zip(l2s, l2s[1:])) and \
        all(b <= a * (1.0 + slack) for a, b in zip(dxs, dxs[1:]))

    report = {
        "command": "sweep-velocity",
        "v_list": list(cfg["experiment.v_list"]),
        "completed": len(rows),
        "trend_non_increasing": trend_ok,
        "trend_slack": slack,
        "failure": failure,
    }
    if cfg["experiment.restart_check"] and last_solution is not None and failure is None:
        try:
            cold = sol.solve_nehari(grid, last_solution.params,
                                    tol=cfg["solver.tol"], max_iter=cfg["solver.max_iter"],
                                    init_kind="gaussian-wide", seed=cfg["solver.seed"])
        except (sol.ConvergenceError, sol.CollapseError) as exc:
            report["failure"] = f"restart: {exc}"
        else:
            report["restart_orbit_distance"] = sol.orbital_fit(cold.q, last_solution.q).distance
            report["restart_x_norm"] = fl.x_norm(last_solution.q)
    _emit_report(cfg, report)
    if report["failure"] is not None or not trend_ok:
        return EXIT_NUMERICAL
    return EXIT_OK


def _rel(a: Field, b: np.ndarray, ref: float) -> float:
    """L2 norm of `a - b` over `ref`."""
    return sp.l2_norm(Field(a.grid, a.values - b, sp.PHYSICAL)) / ref


def _checks(cfg: ExperimentConfig, grid: Grid, params: ModelParams):
    """The self-tests of `verify` in report order: (name, value, threshold),
    passed when value <= threshold, or (name, value, threshold, passed, detail)."""
    rng = np.random.default_rng(cfg["solver.seed"])
    kx = sp.mode_numbers(grid.nx)[:, None]
    ky = sp.mode_numbers(grid.ny)[None, :]
    smooth = np.exp(-(kx ** 2 + ky ** 2) / (grid.nx / 8.0) ** 2)
    u = _random_field(grid, rng, smooth)
    g2 = _random_field(grid, rng, smooth)
    u_norm = sp.l2_norm(u)
    yield "transform_roundtrip", _rel(sp.to_physical(sp.to_spectral(u)), u.values, u_norm), 1e-12
    yield "plancherel", abs(sp.l2_norm(sp.to_spectral(u)) - u_norm) / u_norm, 1e-12
    sym = sp.frac_dy(0.7)
    lin = sp.apply_symbol(Field(grid, 2.0 * u.values - 1.5j * g2.values, sp.PHYSICAL), sym)
    sep = 2.0 * sp.apply_symbol(u, sym).values - 1.5j * sp.apply_symbol(g2, sym).values
    yield "symbol_linearity", _rel(lin, sep, sp.l2_norm(lin)), 1e-12
    twice = sp.apply_symbol(sp.apply_symbol(u, sp.frac_dy(0.5)), sp.frac_dy(0.5))
    once = sp.apply_symbol(u, sp.abs_dy())
    yield ("frac_half_composition", _rel(twice, once.values, max(sp.l2_norm(once), 1e-300)),
           1e-10)
    prop = ev.linear_propagate(ev.linear_propagate(u, 0.37), 0.21)
    yield "group_law", _rel(prop, ev.linear_propagate(u, 0.58).values, u_norm), 1e-12
    yield ("group_isometry", abs(sp.l2_norm(ev.linear_propagate(u, 1.7)) - u_norm) / u_norm,
           1e-12)
    v_test = 0.7
    b_form = sp.quadratic_form(u, np.abs(grid.eta)[None, :] - v_test * grid.eta_odd[None, :])
    yield ("transport_coercivity", (1.0 - v_test) * fl.dy_half_norm_sq(u) - b_form,
           1e-12 * sp.l2_norm_sq(u))
    yield "c_star_half_vs_2pi", abs(sp.frac_constant(0.5) - 2.0 * math.pi), 1e-3
    slice_grid = np.exp(-(np.linspace(-20.0, 20.0, 512, endpoint=False) ** 2) / 8.0)
    yield ("frac_identity_gaussian_s_half",
           sp.frac_seminorm_identity_check(slice_grid, 40.0, 0.5).relative_error, 1e-2)
    s_val = fl.action(u, params)
    recon = fl.i_value(u, params) + fl.nehari(u, params) / (params.p + 1.0)
    yield "action_identity", abs(s_val - recon) / max(1.0, abs(s_val)), 1e-10
    shifted = Field(grid, np.roll(u.values * np.exp(1.3j), (5, -7), axis=(0, 1)),
                    sp.PHYSICAL)
    h_u = fl.hamiltonian(u, params.p)
    yield ("gauge_translation_invariance",
           abs(fl.hamiltonian(shifted, params.p) - h_u) / max(1.0, abs(h_u)), 1e-12)
    t_pow = 1.7 ** (params.p + 1.0)
    lp1 = fl.lp1_power(u, params.p)
    yield ("nonlinear_homogeneity",
           abs(fl.lp1_power(Field(grid, 1.7 * u.values, sp.PHYSICAL), params.p) - t_pow * lp1)
           / lp1 / t_pow, 1e-10)
    eps = 1e-5
    plus = fl.action(Field(grid, u.values + eps * g2.values, sp.PHYSICAL), params)
    minus = fl.action(Field(grid, u.values - eps * g2.values, sp.PHYSICAL), params)
    pairing = sp.l2_inner(fl.action_gradient(u, params), g2).real
    yield ("action_gradient_fd",
           abs((plus - minus) / (2.0 * eps) - pairing) / max(1.0, abs(pairing)), 1e-6)
    box = Grid(256, 256, 40.0, 40.0)
    gauss = Field(box, np.exp(-box.x[:, None] ** 2 - box.y[None, :] ** 2)
                  .astype(np.complex128), sp.PHYSICAL)
    yield "gaussian_mass_quarter_pi", abs(fl.mass(gauss) - math.pi / 4.0), 1e-6
    c_p = 0.5 - 1.0 / (params.p + 1.0)
    dx_sq, dy_sq = fl._dx_dy_forms(*sp._spectrum(u), grid)
    lower = c_p * (1.0 - abs(params.v)) * (dx_sq + dy_sq + params.omega * sp.l2_norm_sq(u))
    yield "i_value_coercive", lower - fl.i_value(u, params), 1e-10 * max(1.0, lower)
    small = Grid(64, 64, 20.0, 20.0)
    vals = [pt.i_value for pt in sol.travel_upper_bound_probe(small, params.p, params.omega)]
    yield ("travel_level_degeneration", 0.0, 0.5,
           all(b < a for a, b in zip(vals, vals[1:])) and vals[-1] > 0.0, f"i_values {vals}")
    w0 = Field(small, 0.3 * np.exp(-small.x[:, None] ** 2 / 2.0 - small.y[None, :] ** 2 / 2.0)
               .astype(np.complex128), sp.PHYSICAL)
    pic = ev.picard_solve(w0, params.p, 0.1, n_steps=100)
    fwd = w0
    for _ in range(100):
        fwd = ev.strang_step(fwd, 0.001, params.p)
    yield "picard_vs_strang", _rel(pic.final, fwd.values, 1.0), 1e-4
    fwd = w0
    for dt in [0.002] * 100 + [-0.002] * 100:
        fwd = ev.strang_step(fwd, dt, params.p)
    yield "strang_reversibility", _rel(fwd, w0.values, sp.l2_norm(w0)), 1e-8
    line = np.exp(-np.linspace(-160.0, 160.0, 2048, endpoint=False) ** 2 / 0.5)
    decay = ev.dispersive_decay_probe(line, 320.0, (0.5, 1.0, 1.5, 2.0))
    err = abs(decay.slope + 0.5)
    yield ("dispersive_decay_slope", err, 0.05, decay.fit_valid and err <= 0.05,
           f"slope {decay.slope:.4f}")

    if not cfg["output.snapshot_in"]:
        return
    q, qparams = load_snapshot(cfg["output.snapshot_in"])
    yield ("snapshot_nehari_residual", abs(fl.nehari(q, qparams)),
           1e-8 * fl.quadratic_action_form(q, qparams))
    yield ("snapshot_gradient_residual", sp.l2_norm(fl.action_gradient(q, qparams)),
           cfg["solver.tol"] * sp.l2_norm(q))
    if qparams.v != 0.0:
        return  # the scaling identities below hold for v = 0 profiles
    try:
        sv = sol.second_variation_scaling(q, qparams)
        yield ("second_variation_scaling", sv.relative_error, 1e-4, sv.relative_error <= 1e-4,
               f"analytic {sv.analytic:.6e}, numeric {sv.numeric:.6e}")
        yield ("psi_orthogonality", abs(sp.l2_inner(q, sol.psi_omega(q)).real),
               1e-8 * sp.l2_norm_sq(q))
        diag = sol.r1_diagnostics(q, qparams.p)
        yield "r1_multiplier_roundtrip", diag.multiplier_roundtrip_error, 1e-8
        yield "r1_linearized_residual", diag.linearized_residual, 1e-4
        yield "phi_multipliers_bounded", max(diag.phi_max), max(1.0 / qparams.omega, 1.0) + 1e-12
    except sol.TailMassError as exc:
        yield "snapshot_tail_mass", 1.0, 0.0, False, str(exc)


def cmd_verify(cfg: ExperimentConfig, grid: Grid, params: ModelParams) -> int:
    checks = []
    for name, value, threshold, *verdict in _checks(cfg, grid, params):
        passed, detail = verdict or (value <= threshold, None)
        entry = {"check": name, "value": float(value), "threshold": float(threshold),
                 "passed": bool(passed)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)
    all_ok = all(c["passed"] for c in checks)
    _emit_report(cfg, {"command": "verify", "passed": all_ok, "checks": checks})
    return EXIT_OK if all_ok else EXIT_NUMERICAL


_HANDLERS = {
    "ground-state": functools.partial(_solve_command, default_name="ground_state.hwsf"),
    "travel": functools.partial(_solve_command, default_name="travel.hwsf"),
    "evolve": cmd_evolve,
    "stability": cmd_stability,
    "instability": cmd_instability,
    "sweep-velocity": cmd_sweep_velocity,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwlab",
        description="Numerical laboratory for the half-wave-Schroedinger equation")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="path to key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--snapshot", default=None, help="input snapshot path")
        p.add_argument("--v-list", default=None, help="comma-separated velocities")
        for key in _ORDER:
            if key == "command":
                continue
            p.add_argument(f"--{key}", default=None, dest=key, metavar="VALUE")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    ns = vars(args)
    try:
        if args.config is not None:
            if not os.path.exists(args.config):
                raise ConfigError(f"config file {args.config!r} does not exist")
            cfg = load_config(args.config)
        else:
            cfg = ExperimentConfig()
        cfg.set("command", args.command, parse=False)
        if args.out is not None:
            cfg.set("output.out_dir", args.out)
        if args.snapshot is not None:
            cfg.set("output.snapshot_in", args.snapshot)
        if ns.get("v_list") is not None:
            cfg.set("experiment.v_list", ns["v_list"])
        for key in _ORDER:
            if key != "command" and ns.get(key) is not None:
                cfg.set(key, ns[key])
        # invalid grid, model, solver and evolution values are usage errors,
        # found before any solve
        grid = Grid(cfg["grid.nx"], cfg["grid.ny"], cfg["grid.lx"], cfg["grid.ly"])
        speeds = (cfg["experiment.v_list"] if args.command == "sweep-velocity"
                  else (cfg["model.v"],))
        if not speeds:
            raise ConfigError("experiment.v_list is empty")
        params = [ModelParams(p=cfg["model.p"], omega=cfg["model.omega"], v=float(v))
                  for v in speeds]
        if cfg["solver.init_kind"] not in sol._INIT_KINDS:
            raise ConfigError(f"unknown solver.init_kind {cfg['solver.init_kind']!r}; "
                              f"expected one of {sol._INIT_KINDS}")
        if not (0.0 < cfg["evolution.T"] < math.inf and 0.0 < cfg["evolution.dt"] < math.inf):
            raise ConfigError("evolution.T and evolution.dt must be positive and finite")
        if cfg["evolution.sample_stride"] < 1:
            raise ConfigError("evolution.sample_stride must be >= 1")
        os.makedirs(cfg["output.out_dir"], exist_ok=True)
    except (ConfigError, ValueError) as exc:
        print(f"hwlab: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        return _HANDLERS[args.command](cfg, grid, *params)
    except (ConfigError, SnapshotError) as exc:
        print(f"hwlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (sol.ConvergenceError, sol.CollapseError, sol.TailMassError,
            ev.PicardContractionError, ValueError) as exc:
        print(f"hwlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
