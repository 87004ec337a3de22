"""Tests of the benchmark itself, on tiny grids.

    PYTHONPATH=src python3 -m pytest benchmarks -q

Each workload body runs end to end and passes its checks; each check
rejects a tampered result; the traced run is pass-through and reports
exactly the metrics BENCHMARK.json declares; and the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# check name -> (result key, tampered value) that must make it fail
TAMPER = {
    "tall_ground_state": {
        "solve_nehari_rel<=1e-8": ("solve_rel_nehari", 2e-8),
        "extend_nehari_rel<=1e-8": ("extend_rel_nehari", 2e-8),
        "second_variation_rel_err<=1e-4": ("second_variation_rel_err", 2e-4),
        "r1_roundtrip<=1e-8": ("r1_roundtrip_err", 2e-8),
        "snapshot_roundtrip_exact": ("snapshot_exact", False),
    },
    "orbit_stability": {
        "exit_0": ("exit_code", 1),
        "verdict_STABLE": ("verdict", "UNSTABLE"),
        "no_abort": ("abort_reason", "hamiltonian drift"),
        "max_distance<=3*delta*|Q|_X": ("max_distance", float("inf")),
    },
    "velocity_sweep": {
        "exit_0": ("exit_code", 1),
        "completed_7": ("completed", 6),
        "trend_non_increasing": ("trend_non_increasing", False),
        "restart_distance<=1e-3*|Q|_X": ("restart_distance", float("inf")),
    },
}

# The scaling second variation converges only with the full size's fine
# y spacing (dy = 0.02); on the tiny grid (dy = 0.16) it is off by O(1).
NEEDS_FULL_SIZE = {"second_variation_rel_err<=1e-4"}


@pytest.fixture(scope="module")
def tiny_results(tmp_path_factory):
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(name))
        state = wl.setup(wl.sizes["tiny"], 3, workdir)
        step = workloads.Steps()
        out[name] = (wl.body(state, step), step.done)
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_body_passes_checks(name, tiny_results):
    res, done = tiny_results[name]
    checks = workloads.WORKLOADS[name].checks(res)
    assert len(checks) == workloads.WORKLOADS[name].n_checks
    failing = {c for c, ok in checks.items() if not ok}
    assert failing <= NEEDS_FULL_SIZE, failing
    assert done and len(res["digest"]) == 64


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_check_rejects_tampered_result(name, tiny_results):
    res, _ = tiny_results[name]
    check = workloads.WORKLOADS[name].checks
    assert set(TAMPER[name]) == set(check(res))
    for check_name, (key, bad) in TAMPER[name].items():
        tampered = dict(res, **{key: bad})
        assert check(tampered)[check_name] is False, check_name


def test_tracer_self_time_and_fft_counts():
    tr = tracing.Tracer()
    outer = tr.open("solitary.solve_nehari")
    inner = tr.open("spectral.fft.numpy.fft2")
    tr.close(inner, {"bytes": 100})
    tr.close(outer, {"iters": 3})
    tr.start[:] = [0.0, 1.0]
    tr.end[:] = [4.0, 2.5]
    summary = tracing.summarize(tr)
    solve = summary["by_name"]["solitary.solve_nehari"]
    assert solve["s"] == 4.0 and solve["self_s"] == 2.5
    assert solve["fft_calls"] == 1 and solve["iters"] == 3
    assert summary["fft"] == {"calls": 1, "s": 1.5, "bytes": 100,
                              "entry_points": {"numpy.fft2": 1}}
    assert summary["layer_self_s"] == {"solitary": 2.5, "spectral.fft": 1.5}


def _run(cwd, *extra):
    cmd = [sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
           "--seed", "5", "--seconds", "0", "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]},
            {w["name"] for w in spec["workloads"]})


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_declared_metrics(trace):
    end_to_end, per_layer, names = _declared()
    assert names == set(workloads.WORKLOADS) == set(run.WORKLOADS)
    proc = _run(ROOT, "--workload", "orbit_stability", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # correct with trace 1 also means the traced outputs equal the untraced
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == (per_layer if trace else end_to_end)
    if trace:
        assert result["metrics"]["evolution.steps"]["value"] == 100
        assert result["metrics"]["solitary.orbital_fit.calls"]["value"] == 5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "--workload", "velocity_sweep")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
