"""The three benchmark workloads: set-up, timed body and correctness checks.

Each workload is one process's work.  ``setup`` makes grids and inputs
(for ``orbit_stability`` also the reference ground state, saved as a
snapshot), ``body`` is the timed part and returns plain numbers plus a
digest of the outputs, and ``checks`` turns those numbers into named
pass/fail results.  Checks are pure functions of the results, so the
tests can show that each one rejects a tampered value.

Sizes: ``full`` is what the benchmark times; ``tiny`` runs the same code
in seconds for the tests.

The seed is the noise seed of the stability experiment and the
``solver.seed`` of the sweep's configuration (which its Gaussian initial
guesses do not use).  The tall pipeline has no random input, so its
work is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from hwlab import cli, functionals as fl, snapshots, solitary as sol, spectral as sp
from hwlab.functionals import ModelParams


class Steps:
    """Runs a body's operations in order and records which completed."""

    def __init__(self):
        self.done: list[str] = []

    def __call__(self, name, fn, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.done.append(name)
        return out


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _sample(values: np.ndarray) -> bytes:
    # a strided sample is enough to show two runs computed the same field
    return np.ascontiguousarray(values[::7, ::61]).tobytes()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# tall_ground_state: the criterion-08 pipeline at a sixth of the height.

TALL_SIZES = {
    "full": dict(nx=128, ny=8192, lx=20.0, ly=160.0, ny_ext=32768, ly_ext=640.0,
                 tol=1e-7),
    "tiny": dict(nx=64, ny=1024, lx=20.0, ly=160.0, ny_ext=4096, ly_ext=640.0,
                 tol=1e-7),
}


@dataclass
class TallState:
    grid: sp.Grid
    grid_ext: sp.Grid
    params: ModelParams
    tol: float
    snapshot: str


def tall_setup(size: dict, seed: int, workdir: str) -> TallState:
    return TallState(
        grid=sp.make_grid(size["nx"], size["ny"], size["lx"], size["ly"]),
        grid_ext=sp.make_grid(size["nx"], size["ny_ext"], size["lx"], size["ly_ext"]),
        params=ModelParams(p=3.0, omega=1.0, v=0.0),
        tol=size["tol"],
        snapshot=os.path.join(workdir, "tall.hwsf"))


def tall_body(st: TallState, step: Steps) -> dict:
    pr = st.params
    small = step("solve", sol.solve_nehari, st.grid, pr, tol=st.tol)
    wide = step("extend", sol.extend_ground_state, small, st.grid_ext)
    sv = step("second_variation", sol.second_variation_scaling, wide.q, pr)
    psi = step("psi_omega", sol.psi_omega, wide.q)
    psi_sample = _sample(psi.values)
    del psi
    r1 = step("r1", sol.r1_diagnostics, wide.q, pr.p)
    r1_sample = _sample(r1.r1.values)
    r1_lin, r1_rt = r1.linearized_residual, r1.multiplier_roundtrip_error
    del r1
    rep = step("report", fl.functional_report, wide.q, pr)
    step("save", snapshots.save_snapshot, st.snapshot, wide.q, pr)
    loaded, lparams = step("load", snapshots.load_snapshot, st.snapshot,
                           expect_grid=st.grid_ext)
    exact = bool(np.array_equal(loaded.values, wide.q.values)) and lparams == pr
    return {
        "solve_rel_nehari": small.nehari_residual / abs(small.action_value),
        "extend_rel_nehari": abs(rep.nehari) / abs(rep.action),
        "second_variation_rel_err": sv.relative_error,
        "r1_roundtrip_err": r1_rt,
        "snapshot_exact": exact,
        "iterations": [small.iterations, wide.iterations],
        "digest": _sha(_sample(loaded.values), psi_sample, r1_sample,
                       small.action_value, sv.numeric, r1_lin, r1_rt, rep),
    }


def tall_checks(res: dict) -> dict:
    return {
        "solve_nehari_rel<=1e-8": res["solve_rel_nehari"] <= 1e-8,
        "extend_nehari_rel<=1e-8": res["extend_rel_nehari"] <= 1e-8,
        "second_variation_rel_err<=1e-4": res["second_variation_rel_err"] <= 1e-4,
        "r1_roundtrip<=1e-8": res["r1_roundtrip_err"] <= 1e-8,
        "snapshot_roundtrip_exact": res["snapshot_exact"] is True,
    }


# --------------------------------------------------------------------------
# orbit_stability: `hwlab stability` on a small grid with many steps.

ORBIT_SIZES = {
    "full": dict(nx=128, ny=128, lx=40.0, ly=40.0, tol=1e-7, T=20.0, dt=4e-3,
                 stride=25, delta=1e-2),
    "tiny": dict(nx=32, ny=32, lx=20.0, ly=20.0, tol=1e-7, T=0.4, dt=4e-3,
                 stride=25, delta=1e-2),
}


@dataclass
class CliState:
    argv: list
    out_dir: str
    size: dict


def orbit_setup(size: dict, seed: int, workdir: str) -> CliState:
    grid = sp.make_grid(size["nx"], size["ny"], size["lx"], size["ly"])
    params = ModelParams(p=2.0)
    ref = sol.solve_nehari(grid, params, tol=size["tol"])
    snap = os.path.join(workdir, "reference.hwsf")
    snapshots.save_snapshot(snap, ref.q, params)
    out_dir = os.path.join(workdir, "stability")
    argv = ["stability", "--snapshot", snap, "--out", out_dir,
            "--grid.nx", str(size["nx"]), "--grid.ny", str(size["ny"]),
            "--grid.lx", repr(size["lx"]), "--grid.ly", repr(size["ly"]),
            "--model.p", "2.0", "--evolution.T", repr(size["T"]),
            "--evolution.dt", repr(size["dt"]),
            "--evolution.sample_stride", str(size["stride"]),
            "--experiment.delta", repr(size["delta"]), "--solver.seed", str(seed)]
    return CliState(argv=argv, out_dir=out_dir, size=size)


def _run_cli(st: CliState, step: Steps, csv_name: str) -> tuple[int, dict, bytes]:
    code = step("cli", cli.main, st.argv)
    report_path = os.path.join(st.out_dir, "report.json")
    report = json.loads(_read(report_path))
    csv = _read(os.path.join(st.out_dir, csv_name))
    return code, report, csv


def orbit_body(st: CliState, step: Steps) -> dict:
    code, report, csv = _run_cli(st, step, "stability.csv")
    return {
        "exit_code": code,
        "verdict": report.get("verdict"),
        "abort_reason": report.get("abort_reason"),
        "blown_up": report.get("blown_up"),
        "max_distance": report.get("max_distance"),
        "distance_bound": 3.0 * st.size["delta"] * report.get("reference_x_norm", 0.0),
        "digest": _sha(csv, json.dumps(report, sort_keys=True)),
    }


def orbit_checks(res: dict) -> dict:
    return {
        "exit_0": res["exit_code"] == 0,
        "verdict_STABLE": res["verdict"] == "STABLE",
        "no_abort": res["abort_reason"] is None and res["blown_up"] is False,
        "max_distance<=3*delta*|Q|_X": (res["max_distance"] is not None
                                        and res["max_distance"] <= res["distance_bound"]),
    }


# --------------------------------------------------------------------------
# velocity_sweep: `hwlab sweep-velocity`, the v != 0 complex solver path.

V_LIST = "0,0.25,0.5,0.75,0.9,0.95,0.99"

SWEEP_SIZES = {
    "full": dict(nx=256, ny=1024, lx=40.0, ly=160.0, tol=1e-8),
    "tiny": dict(nx=32, ny=64, lx=20.0, ly=40.0, tol=1e-6),
}


def sweep_setup(size: dict, seed: int, workdir: str) -> CliState:
    out_dir = os.path.join(workdir, "sweep")
    argv = ["sweep-velocity", "--out", out_dir, "--v-list", V_LIST,
            "--grid.nx", str(size["nx"]), "--grid.ny", str(size["ny"]),
            "--grid.lx", repr(size["lx"]), "--grid.ly", repr(size["ly"]),
            "--model.p", "2.0", "--solver.tol", repr(size["tol"]),
            "--experiment.restart_check", "1", "--solver.seed", str(seed)]
    return CliState(argv=argv, out_dir=out_dir, size=size)


def sweep_body(st: CliState, step: Steps) -> dict:
    code, report, csv = _run_cli(st, step, "sweep_velocity.csv")
    return {
        "exit_code": code,
        "completed": report.get("completed"),
        "trend_non_increasing": report.get("trend_non_increasing"),
        "failure": report.get("failure"),
        "restart_distance": report.get("restart_orbit_distance"),
        "restart_bound": 1e-3 * report.get("restart_x_norm", 0.0),
        "digest": _sha(csv, json.dumps(report, sort_keys=True)),
    }


def sweep_checks(res: dict) -> dict:
    return {
        "exit_0": res["exit_code"] == 0,
        "completed_7": res["completed"] == 7 and res["failure"] is None,
        "trend_non_increasing": res["trend_non_increasing"] is True,
        "restart_distance<=1e-3*|Q|_X": (res["restart_distance"] is not None
                                         and res["restart_distance"] <= res["restart_bound"]),
    }


@dataclass(frozen=True)
class Workload:
    sizes: dict
    setup: object
    body: object
    checks: object
    n_checks: int


WORKLOADS = {
    "tall_ground_state": Workload(TALL_SIZES, tall_setup, tall_body, tall_checks, 5),
    "orbit_stability": Workload(ORBIT_SIZES, orbit_setup, orbit_body, orbit_checks, 4),
    "velocity_sweep": Workload(SWEEP_SIZES, sweep_setup, sweep_body, sweep_checks, 4),
}
