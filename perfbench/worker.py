"""One benchmark process: set up, run a workload, check it, report JSON.

Started by run.py, which puts the checkout's `src` on PYTHONPATH.  The
last line on stdout is one JSON object.  Every time it reports is taken on
a SpeedClock (speedclock.py) that starts before the heavy imports, so the
machine's drifting speed is divided out.  With --setup-only the process
stops once pentapack, numpy, scipy and mpmath are imported and the inputs
are loaded, and reports setup_s: the time from --spawned, the parent's
`time.perf_counter` reading just before it started this process (the clock
is system-wide on Linux), to that moment.
"""

from __future__ import annotations

import speedclock

CLOCK = speedclock.SpeedClock()
CLOCK.start()

import argparse  # noqa: E402  (the imports below are part of setup_s)
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import mpmath
import numpy
import scipy

import pentapack
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
if not Path(pentapack.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"pentapack was imported from {pentapack.__file__}, not from {ROOT / 'src'}")


def environment() -> dict:
    """What decides whether two results are comparable.

    The BLAS thread count follows nproc unless the environment sets it, and
    it changes the solver's rounding: with `--facet-lines` the bound moves
    by about 5e-6 between one and two OpenBLAS threads.
    """
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "nproc",
    }


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    inputs = workloads.prepare(args.workload, args.seed, toy=args.toy)
    ready = time.perf_counter()
    if args.setup_only:
        CLOCK.stop()
        print(json.dumps({"setup_s": CLOCK.elapsed(args.spawned, ready)}))
        return 0

    workdir = Path(args.workdir)
    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.patch()
    bodies, cpus, errors = [], [], []
    artifact_bytes = 0
    start = time.perf_counter()
    # Whole repetitions until the next one would overrun --seconds; at least one.
    while True:
        outdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workdir))
        try:
            c0, t0 = cpu_seconds(), time.perf_counter()
            result = workloads.run(inputs, outdir)
            t1, c1 = time.perf_counter(), cpu_seconds()
            errs = workloads.check(inputs, result, outdir)
            artifact_bytes += sum(f.stat().st_size for f in outdir.iterdir())
        finally:
            shutil.rmtree(outdir)
        bodies.append((t0, t1))
        cpus.append(c1 - c0)
        errors.append(errs)
        if time.perf_counter() - start + (t1 - t0) > args.seconds:
            break
    CLOCK.stop()
    reps = len(bodies)
    totals, norm_cpus = [], []
    for (t0, t1), cpu in zip(bodies, cpus):
        # A sample is single-threaded, so its CPU time is its wall time; the
        # rest of the CPU time is scaled by the repetition's mean speed.
        paused = CLOCK.paused(t0, t1)
        totals.append(CLOCK.elapsed(t0, t1))
        norm_cpus.append((cpu - paused) * totals[-1] / (t1 - t0 - paused))

    out = {
        "env": environment(),
        "total_s": statistics.median(totals),
        "wall_s": statistics.median(t1 - t0 for t0, t1 in bodies),
        "cpu_s": statistics.median(norm_cpus),
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": CLOCK.elapsed(args.spawned, ready),
        "errors": errors,
    }
    if trace:
        trace.unpatch()
        layers = tracer.layer_metrics(trace.spans, reps, CLOCK.elapsed)
        layers["pipeline.artifact_bytes"] = artifact_bytes / reps
        layers["certify.verify_level0_boxes"] = workloads.level0_boxes(inputs)
        layers["trace.spans"] = len(trace.spans) / reps
        layers["trace.total_s"] = out["total_s"]
        layers["trace.overhead_s"] = tracer.wrapper_overhead() * len(trace.spans) / reps
        spans_file = workdir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        trace.write(spans_file)
        out["per_layer"] = layers
        out["spans_file"] = str(spans_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
