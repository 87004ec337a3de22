"""hwlab benchmark: one workload per invocation, each run in child processes.

    python3 benchmarks/run.py --workload orbit_stability --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; hwlab is imported from its ``src``.
With ``--trace 0`` it prints the end-to-end metrics (wall_s, setup_s,
peak_rss_mb) and fail_frac; with ``--trace 1`` the per-layer metrics of
a traced run and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Any
child that crashes, times out or imports hwlab from elsewhere ends the
benchmark with a non-zero exit code and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("tall_ground_state", "orbit_stability", "velocity_sweep")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
BUDGET_S = 170.0  # whole invocation, below the 180 s a run may take


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Results depend on the BLAS pool size: pin it to the usable cores.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, mode: str, trace: int, seconds: float, deadline: float) -> dict:
    os.makedirs(".bench_work", exist_ok=True)
    result_path = os.path.join(".bench_work", f"result-{os.getpid()}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--trace", str(trace), "--size", args.size, "--t-spawn", repr(t_spawn),
           "--result", result_path]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(result_path)
    return out


def untraced(args, deadline: float) -> tuple[dict, dict]:
    setups = [spawn(args, "setup", 0, 0.0, deadline)["setup_s"] for _ in range(SETUPS - 1)]
    run = spawn(args, "run", 0, args.seconds, deadline)
    setups.append(run["setup_s"])
    metrics = {
        "wall_s": (statistics.median(run["walls"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [f"wall_s over {len(run['walls'])} repetition(s): "
             + ", ".join(f"{w:.3f}" for w in run["walls"]),
             f"setup_s over {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups)]
    return run, {"metrics": metrics, "notes": notes}


def traced(args, deadline: float) -> tuple[dict, dict]:
    # Untraced bodies before and after the traced one, so that a machine
    # slowly speeding up or slowing down does not read as tracing cost.
    before = spawn(args, "run", 0, 0.0, deadline)
    run = spawn(args, "run", 1, 0.0, deadline)
    after = spawn(args, "run", 0, 0.0, deadline)
    plain_wall = (before["walls"][0] + after["walls"][0]) / 2.0
    metrics = dict(run["layers"])
    metrics["trace.overhead_frac"] = (run["walls"][0] / plain_wall - 1.0, "fraction")
    for plain in (before, after):
        run["attempted"] += plain["attempted"] + 1
        run["failed"] += plain["failed"]
        run["failures"] += plain["failures"]
        if run["digest"] != plain["digest"]:
            run["failed"] += 1
            run["failures"].append("traced_outputs_differ_from_untraced")
    notes = [f"untraced wall_s {before['walls'][0]:.3f} and {after['walls'][0]:.3f}, "
             f"traced {run['walls'][0]:.3f}",
             "FFT entry points called: " + ", ".join(
                 f"{name} x{n}" for name, n in sorted(run["fft_entry_points"].items())),
             "spans: .bench_work/spans-" + args.workload + ".json"]
    return run, {"metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny grids for a quick smoke run")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "hwlab")):
        print("benchmark: run from the repository root (src/hwlab not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        run, report = (traced if args.trace else untraced)(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    env = run["env"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for note in report["notes"]:
        print(note)
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"  {'fail_frac':<52} {failed / attempted:>14.6g} fraction "
          f"({failed} of {attempted} operations and checks)")
    if run["failures"]:
        print("failures: " + ", ".join(run["failures"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
