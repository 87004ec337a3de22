"""Tests for the config format, snapshot files, and the hwlab CLI."""

import json
import re

import numpy as np
import pytest

import hwlab.spectral as sp
from hwlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from hwlab.config import (COMMANDS, ConfigError, ExperimentConfig,
                          load_config, parse_config)
from hwlab.functionals import ModelParams
from hwlab.snapshots import SnapshotError, load_snapshot, save_snapshot

TINY = ["--grid.nx", "32", "--grid.ny", "32",
        "--grid.lx", "20", "--grid.ly", "20",
        "--solver.tol", "1e-5"]


def _report(capsys):
    return json.loads(capsys.readouterr().out)


def test_config_defaults_and_types():
    cfg = ExperimentConfig()
    assert cfg["grid.nx"] == 256
    assert cfg["model.p"] == 2.0
    assert cfg["experiment.lambdas"] == (0.95, 1.05)
    assert not cfg.was_set("evolution.T")
    cfg.set("evolution.T", "2.5")
    assert cfg["evolution.T"] == 2.5
    assert cfg.was_set("evolution.T")


def test_config_parse_canonical_roundtrip():
    text = """
    # comment and blank lines are skipped
    model.p = 3.0
    grid.nx = 64  # trailing comment

    experiment.v_list = 0.0, 0.25, 0.5
    """
    cfg = parse_config(text)
    assert cfg["model.p"] == 3.0
    assert cfg["grid.nx"] == 64
    assert cfg["experiment.v_list"] == (0.0, 0.25, 0.5)
    again = parse_config(cfg.canonical_text())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_order_independent():
    a = parse_config("model.p = 3.0\ngrid.nx = 64\n")
    b = parse_config("grid.nx = 64\nmodel.p = 3.0\n")
    assert a.config_hash() == b.config_hash()


@pytest.mark.parametrize("text", [
    "nonsense.key = 1",
    "grid.nx = abc",
    "experiment.v_list = 0.1, oops",
    "command = frobnicate",
    "just some words",
])
def test_config_rejects_malformed(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_config_unknown_key_access():
    with pytest.raises(ConfigError):
        ExperimentConfig()["grid.nz"]


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.cfg"))


def test_snapshot_roundtrip(tmp_path):
    g = sp.make_grid(16, 32, 10.0, 12.0)
    rng = np.random.default_rng(2)
    u = sp.physical_field(g, rng.standard_normal(g.shape)
                          + 1j * rng.standard_normal(g.shape))
    params = ModelParams(p=2.5, omega=1.5, v=0.25)
    path = str(tmp_path / "state.hwsf")
    save_snapshot(path, u, params)
    loaded, lp = load_snapshot(path, expect_grid=g)
    assert loaded.grid == g
    assert np.array_equal(loaded.values, u.values)
    assert (lp.p, lp.omega, lp.v) == (2.5, 1.5, 0.25)


def test_snapshot_grid_mismatch(tmp_path):
    g = sp.make_grid(16, 16, 10.0, 10.0)
    u = sp.physical_field(g, np.ones(g.shape))
    path = str(tmp_path / "state.hwsf")
    save_snapshot(path, u, ModelParams(p=2.0))
    with pytest.raises(SnapshotError, match="does not match"):
        load_snapshot(path, expect_grid=sp.make_grid(16, 16, 10.0, 20.0))


def test_snapshot_corruption_detected(tmp_path):
    g = sp.make_grid(16, 16, 10.0, 10.0)
    u = sp.physical_field(g, np.ones(g.shape))
    path = tmp_path / "state.hwsf"
    save_snapshot(str(path), u, ModelParams(p=2.0))
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.hwsf"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(SnapshotError, match="magic"):
        load_snapshot(str(bad_magic))

    truncated = tmp_path / "short.hwsf"
    truncated.write_bytes(raw[:40])
    with pytest.raises(SnapshotError, match="truncated"):
        load_snapshot(str(truncated))

    clipped = tmp_path / "clipped.hwsf"
    clipped.write_bytes(raw[:-16])
    with pytest.raises(SnapshotError, match="payload"):
        load_snapshot(str(clipped))

    with pytest.raises(SnapshotError, match="cannot read"):
        load_snapshot(str(tmp_path / "absent.hwsf"))


def test_cli_ground_state_and_evolve(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["ground-state", *TINY, "--out", out])
    assert code == EXIT_OK
    rep = _report(capsys)
    assert rep["converged"] is True
    assert rep["nehari_residual"] <= 1e-10
    # one convergence-history entry per iteration, no timings
    hist = rep["history"]
    assert len(hist) == rep["iterations"]
    assert set(hist[0]) == {"action", "gradient_residual", "step", "backtracks", "restart"}
    assert hist[-1]["gradient_residual"] <= 1e-5 < hist[0]["gradient_residual"]
    assert hist[-1]["action"] == pytest.approx(rep["m_value"], rel=1e-12)
    snap = rep["snapshot"]
    q, params = load_snapshot(snap)
    assert params.p == 2.0
    assert q.grid.nx == 32

    code = main(["evolve", *TINY, "--out", out, "--snapshot", snap,
                 "--evolution.T", "0.1", "--evolution.dt", "1e-2",
                 "--evolution.sample_stride", "2"])
    assert code == EXIT_OK
    rep = _report(capsys)
    assert rep["mass_drift"] <= 1e-10
    assert rep["max_orbital_distance"] <= 1e-2

    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert re.fullmatch(r"# config_sha256 = [0-9a-f]{64}", lines[0])
    assert lines[0].split(" = ")[1] == rep["config_sha256"]
    header = lines[1].split(",")
    assert header[:5] == ["t", "mass", "hamiltonian", "l2x_hsy", "linf"]
    assert "orbital_distance" in header
    assert len(lines) >= 7  # comment, header, t=0 plus 5 samples


def test_cli_config_file_and_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "grid.nx = 32\ngrid.ny = 32\ngrid.lx = 20\ngrid.ly = 20\n"
        "solver.tol = 1e-5\nmodel.p = 2.0\n")
    out = str(tmp_path / "out")
    code = main(["ground-state", "--config", str(cfg_path), "--out", out,
                 "--model.p", "2.5"])
    assert code == EXIT_OK
    rep = _report(capsys)
    assert rep["p"] == 2.5  # flag wins over the file


@pytest.mark.parametrize("argv", [
    ["ground-state", "--config", "no/such/file.cfg"],
    ["stability", *TINY, "--model.p", "3.0"],      # needs 1 < p < 7/3
    ["instability", *TINY, "--model.p", "2.0"],    # needs 7/3 < p < 5
    ["sweep-velocity", *TINY, "--v-list", ""],
    ["ground-state", "--grid.nx", "not-a-number"],
])
def test_cli_usage_errors(argv, tmp_path, capsys):
    code = main(argv + ["--out", str(tmp_path)])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_cli_unknown_command(tmp_path, capsys):
    code = main(["frobnicate", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_cli_bad_config_key_in_file(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("grid.nz = 12\n")
    code = main(["ground-state", "--config", str(cfg_path)])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_cli_numerical_failures(tmp_path, capsys):
    # solver hits the iteration cap
    code = main(["ground-state", *TINY, "--out", str(tmp_path),
                 "--solver.max_iter", "1"])
    rep = _report(capsys)
    assert code == EXIT_NUMERICAL
    assert rep["converged"] is False

    # dt violates the sampling guard
    code = main(["evolve", *TINY, "--out", str(tmp_path),
                 "--evolution.dt", "0.1"])
    capsys.readouterr()
    assert code == EXIT_NUMERICAL


def test_cli_sweep_velocity_deterministic(tmp_path, capsys):
    out = str(tmp_path)
    argv = ["sweep-velocity", *TINY, "--out", out, "--v-list", "0,0.3"]
    assert main(argv) == EXIT_OK
    rep = _report(capsys)
    assert rep["completed"] == 2
    assert rep["trend_non_increasing"] is True
    assert "history" not in rep
    first = (tmp_path / "sweep_velocity.csv").read_bytes()

    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "sweep_velocity.csv").read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[1] == "v,m_value,l2_norm,dx_norm,dy_half_norm,iterations"
    rows = [line.split(",") for line in lines[2:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.3]
    # m-value decreases with velocity
    assert float(rows[1][1]) < float(rows[0][1])


def test_cli_verify_all_green(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path)])
    rep = _report(capsys)
    assert code == EXIT_OK
    assert rep["passed"] is True
    assert all(c["passed"] for c in rep["checks"])
    names = {c["check"] for c in rep["checks"]}
    assert "frac_identity_gaussian_s_half" in names
    assert (tmp_path / "report.json").exists()


def test_cli_commands_enumerated():
    assert set(COMMANDS) == {"ground-state", "travel", "evolve", "stability",
                             "instability", "sweep-velocity", "verify"}
