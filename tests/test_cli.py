"""Tests for the config format, snapshot files, and the hwlab CLI."""

import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import hwlab.solitary as sol
import hwlab.spectral as sp
from hwlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from hwlab.config import (_SCHEMA, COMMANDS, ConfigError, ExperimentConfig,
                          load_config, parse_config)
from hwlab.functionals import ModelParams
from hwlab.snapshots import (_HEADER, MAGIC, VERSION, SnapshotError, atomic_open,
                             load_snapshot, save_snapshot)

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


_floats = st.floats(width=64)
_RAW_VALUES = {
    "int": st.integers(-10 ** 9, 10 ** 9).map(lambda n: f" {n:+d} "),
    "float": _floats.map(repr) | _floats.map(lambda x: f"{x:.17g}"),
    "floats": st.lists(_floats, max_size=4).map(lambda xs: ", ".join(map(repr, xs))),
    # any one-line text: '#' starts a comment, the value is stripped
    "str": st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12),
}


@st.composite
def _config_texts(draw):
    lines = []
    for key, kind, _ in draw(st.lists(st.sampled_from(_SCHEMA), max_size=10)):
        raw = draw(st.sampled_from(COMMANDS) if key == "command" else _RAW_VALUES[kind])
        lines.append(f"{key} = {raw}")
        lines.extend(draw(st.sampled_from([[], [""], ["  # a comment"]])))
    return "\n".join(lines)


@given(text=_config_texts())
@example(text="output.out_dir = a#b\nexperiment.v_list = nan, -0.0, inf\ngrid.nx = 64")
def test_config_parse_canonical_parse_property(text):
    cfg = parse_config(text)
    again = parse_config(cfg.canonical_text())
    assert again.canonical_text() == cfg.canonical_text()
    assert again.config_hash() == cfg.config_hash()


_config_lines = (st.text(max_size=60)
                 | st.builds("{} = {}".format, st.sampled_from([k for k, _, _ in _SCHEMA]),
                             st.text(max_size=30)))


@given(text=st.lists(_config_lines, max_size=6).map("\n".join), raw=st.binary(max_size=40))
@example(text="grid.nx = 1e3", raw=b"\xff\xfegrid.nx = 8")
def test_config_fuzz_raises_only_config_error(text, raw):
    # malformed text, and bytes that need not be UTF-8 read from a file
    for parse in (lambda: parse_config(text), lambda: _load_config_bytes(raw)):
        try:
            cfg = parse()
        except ConfigError:
            continue
        assert isinstance(cfg, ExperimentConfig)


def _load_config_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "wb") as fh:
            fh.write(raw)
        return load_config(path)


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


_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]


@given(nx=st.integers(4, 12).map(lambda k: 2 * k), ny=st.integers(4, 12).map(lambda k: 2 * k),
       lx=st.floats(0.5, 200.0), ly=st.floats(0.5, 200.0), p=st.floats(1.01, 4.99),
       omega=st.floats(0.01, 10.0), v=st.floats(-0.99, 0.99), seed=st.integers(0, 2 ** 32 - 1),
       special=st.lists(st.sampled_from(_SPECIAL), max_size=6))
def test_snapshot_save_load_property(nx, ny, lx, ly, p, omega, v, seed, special):
    # values (NaN, infinities, -0.0 and subnormals included) and params come
    # back bit for bit, and the file holds the version-1 layout: the packed
    # header, then the little-endian complex128 samples
    g = sp.make_grid(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    flat = vals.view(np.float64).reshape(-1)
    flat[rng.choice(flat.size, len(special), replace=False)] = special
    params = ModelParams(p=p, omega=omega, v=v)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.hwsf")
        save_snapshot(path, sp.physical_field(g, vals), params)
        with open(path, "rb") as fh:
            raw = fh.read()
        loaded, lp = load_snapshot(path, expect_grid=g)
        assert os.listdir(tmp) == ["state.hwsf"]
    assert raw == (_HEADER.pack(MAGIC, VERSION, nx, ny, g.lx, g.ly, p, omega, v)
                   + vals.astype("<c16").tobytes())
    assert loaded.grid == g
    assert np.array_equal(loaded.values.view(np.uint64), vals.view(np.uint64))
    assert (lp.p, lp.omega, lp.v) == (p, omega, v)


_header_fields = st.tuples(
    st.sampled_from([MAGIC]) | st.binary(min_size=4, max_size=4),
    st.sampled_from([VERSION]) | st.integers(0, 2 ** 32 - 1),
    st.sampled_from([8, 16]) | st.integers(0, 2 ** 64 - 1),
    st.sampled_from([8, 16]) | st.integers(0, 2 ** 64 - 1),
    *[st.sampled_from([10.0, 2.0, 1.0, 0.0]) | st.floats(width=64)] * 5)


@given(fields=_header_fields, payload=st.sampled_from([64 * 16, 128 * 16, 256 * 16])
       | st.integers(0, 4200), flips=st.lists(st.tuples(st.integers(0, _HEADER.size - 1),
                                                          st.integers(0, 255)), max_size=4),
       cut=st.none() | st.integers(0, _HEADER.size + 64))
@example(fields=(MAGIC, VERSION, 2 ** 63, 0, 10.0, 10.0, 2.0, 1.0, 0.0), payload=0, flips=[],
         cut=None)
@example(fields=(MAGIC, VERSION, 8, 8, 10.0, 10.0, 7.0, 1.0, 0.0), payload=64 * 16, flips=[],
         cut=None)
@example(fields=(MAGIC, VERSION, 8, 8, np.inf, 10.0, 2.0, 1.0, 0.0), payload=64 * 16,
         flips=[], cut=None)
def test_snapshot_corrupt_header_raises_only_snapshot_error(fields, payload, flips, cut):
    # a header packed from arbitrary values, with bytes flipped and the file
    # cut short; the size check precedes the grid, so no field is allocated
    # for a size the file does not hold
    raw = bytearray(_HEADER.pack(*fields) + bytes(payload))
    for pos, byte in flips:
        raw[pos] = byte
    if cut is not None:
        raw = raw[:cut]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.hwsf")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            field, params = load_snapshot(path)
        except SnapshotError:
            return
    assert field.values.size * 16 + _HEADER.size == len(raw)
    assert 1.0 < params.p < 5.0


def test_atomic_open_keeps_old_file_on_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(str(path), "w") as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.json"]
    # the CLI writes its report and snapshot the same way
    out = tmp_path / "run"
    out.mkdir()
    assert main(["ground-state", *TINY, "--out", str(out)]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["ground_state.hwsf", "report.json"]
    assert json.loads((out / "report.json").read_text()) == _report(capsys)


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


def test_cli_experiment_reports_carry_steps(tmp_path, capsys):
    # report.json counts the steps each evolution completed, the abort step
    # for a run cut short; the CSVs keep their columns
    out = tmp_path / "stab"
    assert main(["stability", *TINY, "--out", str(out), "--evolution.T", "0.2",
                 "--evolution.dt", "1e-2", "--evolution.sample_stride", "5"]) == EXIT_OK
    rep = _report(capsys)
    assert rep["abort_reason"] is None and rep["steps"] == 20
    assert (out / "stability.csv").read_text().splitlines()[1] == "t,orbital_distance"
    out = tmp_path / "inst"
    assert main(["instability", *TINY, "--model.p", "3.0", "--out", str(out),
                 "--evolution.T", "2.0", "--evolution.dt", "1e-2",
                 "--evolution.sample_stride", "5", "--experiment.growth_factor", "1.2"]) \
        == EXIT_OK
    runs = _report(capsys)["runs"]
    assert any(r["abort_reason"] == "distance threshold" for r in runs)
    for r in runs:
        lines = (out / r["csv"]).read_text().splitlines()
        assert lines[1] == "t,orbital_distance,scaling_pairing"
        last_t = float(lines[-1].split(",")[0])
        assert r["steps"] == round(last_t / 1e-2)
        assert (r["steps"] < 200) == (r["abort_reason"] is not None)


def test_cli_stability_outputs_independent_of_fft_threads(tmp_path, capsys, monkeypatch):
    # pocketfft hands whole lines to its threads, so a run with every
    # transform on every usable core writes the same bytes as one with every
    # transform on one thread (32x32 is far below the threading threshold)
    out = tmp_path / "stab"
    argv = ["stability", *TINY, "--out", str(out), "--evolution.T", "0.5",
            "--evolution.dt", "1e-2", "--evolution.sample_stride", "5"]
    runs = []
    for threaded in (False, True):
        if threaded:
            monkeypatch.setattr(sp, "_THREADED_POINTS", 1)
            assert sp._workers(32 * 32) == len(os.sched_getaffinity(0))
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        runs.append([(out / name).read_bytes() for name in ("stability.csv", "report.json")])
    assert runs[0] == runs[1]


def test_cli_instability_default_config_names_the_flag(tmp_path, capsys):
    # model.p defaults to 2.0, outside the instability range: the usage
    # error names the flag and a valid value, and no report is written
    assert main(["instability", *TINY, "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "instability experiment needs 7/3 < p < 5" in err
    assert "model.p = 2" in err and "--model.p 3.0" in err
    assert not (tmp_path / "report.json").exists()


def test_cli_sweep_velocity_outputs_independent_of_fft_threads(tmp_path, capsys, monkeypatch):
    # as for stability: the sweep's CSV and report, from the v = 0 solve on
    # quarters, the warm traveling solves on `_RSYM` and the restart
    # check's cold solve and orbit fit, are the same bytes with every
    # transform on every usable core as with every one on one thread
    out = tmp_path / "sweep"
    argv = ["sweep-velocity", *TINY, "--out", str(out), "--v-list", "0,0.3,0.6",
            "--experiment.restart_check", "1"]
    runs = []
    for threaded in (False, True):
        if threaded:
            monkeypatch.setattr(sp, "_THREADED_POINTS", 1)
            assert sp._workers(32 * 32) == len(os.sched_getaffinity(0))
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        runs.append([(out / name).read_bytes() for name in ("sweep_velocity.csv", "report.json")])
    assert runs[0] == runs[1]


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
    # invalid grid and model values, rejected before any solve
    ["ground-state", *TINY, "--model.p", "5"],
    ["ground-state", *TINY, "--grid.nx", "7"],
    ["ground-state", *TINY, "--model.omega", "-1"],
    ["ground-state", *TINY, "--model.omega", "inf"],
    ["travel", *TINY, "--model.v", "1.0"],
    ["sweep-velocity", *TINY, "--v-list", "0,1.5"],
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


VERIFY_CHECKS = [
    "transform_roundtrip", "plancherel", "symbol_linearity", "frac_half_composition",
    "group_law", "group_isometry", "transport_coercivity", "c_star_half_vs_2pi",
    "frac_identity_gaussian_s_half", "action_identity", "gauge_translation_invariance",
    "nonlinear_homogeneity", "action_gradient_fd", "gaussian_mass_quarter_pi",
    "i_value_coercive", "travel_level_degeneration", "picard_vs_strang",
    "strang_reversibility", "dispersive_decay_slope"]
SNAPSHOT_CHECKS = [
    "snapshot_nehari_residual", "snapshot_gradient_residual", "second_variation_scaling",
    "psi_orthogonality", "r1_multiplier_roundtrip", "r1_linearized_residual",
    "phi_multipliers_bounded"]


def test_cli_verify_report_contract(tmp_path, capsys, monkeypatch):
    # check names and order are part of the report format
    out = str(tmp_path)
    assert main(["verify", "--out", out]) == EXIT_OK
    assert [c["check"] for c in _report(capsys)["checks"]] == VERIFY_CHECKS

    # a p = 3 ground state whose y tail is too heavy for the scaling diagnostics
    assert main(["ground-state", "--grid.nx", "32", "--grid.ny", "1024",
                 "--grid.lx", "20", "--grid.ly", "160", "--model.p", "3",
                 "--solver.tol", "1e-7", "--out", out]) == EXIT_OK
    rep = _report(capsys)
    assert rep["tail_mass_fraction"] > 1e-8
    q, params = load_snapshot(rep["snapshot"])
    with pytest.raises(sol.TailMassError) as err:
        sol.second_variation_scaling(q, params)
    argv = ["verify", "--out", out, "--snapshot", rep["snapshot"]]
    assert main(argv) == EXIT_NUMERICAL
    rep = _report(capsys)
    assert rep["passed"] is False
    assert [c["check"] for c in rep["checks"]] == VERIFY_CHECKS + [
        "snapshot_nehari_residual", "snapshot_gradient_residual", "snapshot_tail_mass"]
    assert rep["checks"][-1]["passed"] is False
    assert rep["checks"][-1]["detail"] == str(err.value)

    # a traveling wave's snapshot gets its residual checks only: the scaling
    # identities hold for v = 0 profiles; it writes its report and exits by
    # the checks' verdict
    travel = str(tmp_path / "travel")
    assert main(["travel", "--grid.nx", "32", "--grid.ny", "64", "--grid.lx", "20",
                 "--grid.ly", "40", "--model.p", "2", "--model.v", "0.5",
                 "--solver.tol", "1e-5", "--out", travel]) == EXIT_OK
    snap = _report(capsys)["snapshot"]
    code = main(["verify", "--out", out, "--snapshot", snap, "--solver.tol", "1e-5"])
    rep = _report(capsys)
    assert [c["check"] for c in rep["checks"]] == VERIFY_CHECKS + [
        "snapshot_nehari_residual", "snapshot_gradient_residual"]
    assert json.loads((tmp_path / "report.json").read_text()) == rep
    assert code == (EXIT_OK if rep["passed"] else EXIT_NUMERICAL)

    # without the tail guard every snapshot check runs; values need not pass
    monkeypatch.setattr(sol, "_check_tail", lambda *args: 0.0)
    main(argv)
    assert [c["check"] for c in _report(capsys)["checks"]] == VERIFY_CHECKS + SNAPSHOT_CHECKS


def test_cli_sweep_restart_failure_reported(tmp_path, capsys, monkeypatch):
    # a failed cold restart is a numerical failure with a report, like a chain failure
    solve = sol.solve_nehari

    def cold_fails(*args, **kwargs):
        if kwargs.get("init_kind") == "gaussian-wide":
            raise sol.ConvergenceError("iteration budget exhausted")
        return solve(*args, **kwargs)

    monkeypatch.setattr(sol, "solve_nehari", cold_fails)
    assert main(["sweep-velocity", *TINY, "--out", str(tmp_path), "--v-list", "0,0.3",
                 "--experiment.restart_check", "1"]) == EXIT_NUMERICAL
    rep = _report(capsys)
    assert rep["failure"] == "restart: iteration budget exhausted"
    assert rep["completed"] == 2 and rep["trend_non_increasing"] is True
    assert "restart_orbit_distance" not in rep
    assert json.loads((tmp_path / "report.json").read_text()) == rep
    assert (tmp_path / "sweep_velocity.csv").exists()


def test_cli_commands_enumerated():
    assert set(COMMANDS) == {"ground-state", "travel", "evolve", "stability",
                             "instability", "sweep-velocity", "verify"}
