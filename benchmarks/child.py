"""One workload in one process: set up, run the timed body, report as JSON.

Started by run.py with the checkout root as working directory and
``src`` on PYTHONPATH; writes its result to the file named by --result.

    --mode setup   import, grids and inputs only (set-up timing)
    --mode run     set-up, then the body repeated until --seconds have
                   passed (at least once); with --trace 1 exactly once,
                   traced, followed by the layer microbenchmarks
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

WORK = ".bench_work"


def _rss_mb() -> float:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6
    except OSError:
        return 0.0


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def environment() -> dict:
    import numpy
    import scipy
    import scipy.fft

    import hwlab

    cpu = platform.processor() or "unknown"
    ram_gb = 0.0
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            ram_gb = int(next(ln for ln in fh if ln.startswith("MemTotal")).split()[1]) / 1e6
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hwlab": hwlab.__version__,
        # which entry points hwlab calls shows in a traced run's notes
        "fft_backends": f"numpy.fft (pocketfft), scipy.fft (workers={scipy.fft.get_workers()})",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "ram_gb": round(ram_gb, 2),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install_fft(tracer)
    import hwlab
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(hwlab.__file__).startswith(src + os.sep):
        print(f"hwlab was imported from {hwlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracing.install_layers(tracer)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    rss = {"import": _rss_mb()}
    # Relative paths: they enter the CLI's hashed config, and the outputs
    # must not depend on where the checkout lives.
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        size = wl.sizes[args.size]
        if tracer is not None:
            state = tracer.span("bench.setup", wl.setup, size, args.seed, workdir)
        else:
            state = wl.setup(size, args.seed, workdir)
        result = {"setup_s": time.monotonic() - args.t_spawn}
        result["env"] = environment()
        rss["setup"] = _rss_mb()
        if args.mode == "run":
            result.update(run_body(wl, state, args, tracer))
            rss["body"] = _rss_mb()
            result["rss_after_mb"] = rss
            if tracer is not None:
                result["layers"] = trace_layers(tracer, args, result, rss)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_body(wl, state, args, tracer) -> dict:
    """Repeat the body until --seconds have passed; count operations and checks."""
    import workloads

    walls, digests, failures = [], [], []
    attempted = failed = 0
    cpu0 = _cpu_s()
    while True:
        step = workloads.Steps()
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                res = tracer.span("bench.body", wl.body, state, step)
            else:
                res = wl.body(state, step)
        except Exception:  # a failed operation is counted, not fatal
            walls.append(time.perf_counter() - t0)
            traceback.print_exc()
            failures.append(f"operation after {step.done} raised")
            attempted += len(step.done) + 1 + wl.n_checks
            failed += 1 + wl.n_checks
            break
        walls.append(time.perf_counter() - t0)
        checks = wl.checks(res)
        attempted += len(step.done) + len(checks)
        for name, ok in checks.items():
            if not ok:
                failed += 1
                failures.append(name)
        digests.append(res["digest"])
        if tracer is not None or sum(walls) >= args.seconds:
            break
    if len(digests) > 1:
        attempted += 1
        if len(set(digests)) > 1:
            failed += 1
            failures.append("repetitions_disagree")
    return {"walls": walls, "digest": digests[0] if digests else None,
            "attempted": attempted, "failed": failed, "failures": failures,
            "cpu_s": _cpu_s() - cpu0}


def trace_layers(tracer, args, result, rss) -> dict:
    """Write the spans out, then add the microbenchmarks (untraced)."""
    import layers
    import tracing

    os.makedirs(WORK, exist_ok=True)
    tracer.dump(os.path.join(WORK, f"spans-{args.workload}.json"))
    tracer.enabled = False
    micro = layers.microbenchmarks(args.seed)
    result["fft_entry_points"] = tracing.summarize(tracer)["fft"]["entry_points"]
    out = layers.span_metrics(tracer, micro[f"evolution.bare_step_ms.{layers.SMALL}"][0])
    out.update(micro)
    out["proc.cpu_s"] = (result["cpu_s"], "s")
    for stage, mb in rss.items():
        out[f"proc.rss_after.{stage}_mb"] = (mb, "MB")
    return out


if __name__ == "__main__":
    sys.exit(main())
