"""pentapack benchmark: one workload, measured in fresh processes.

    python3 perfbench/run.py --workload paper-default --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its `src`.  Workloads (see workloads.py):
paper-default and verify-refine.  Closed loop: one repetition of the
workload at a time, in one worker process, RunConfig.threads = 1.  Whole
repetitions run until the next would overrun --seconds, at least one; times
are medians over them.

Every time is taken on the worker's SpeedClock (speedclock.py): wall time
rescaled, stretch by stretch, to a fixed reference speed of the machine,
which a timed integer kernel samples ten times a second.  A shared host's
speed drifts by up to 1.7x over minutes; the rescaled times do not follow
it, while a change in the program's own work still shows in full.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  total_s       time of the timed body (`run_all` from sample through
                bound, or the verify calls of verify-refine)
  cpu_s         user+sys CPU of the worker and its children over the body,
                rescaled by the body's mean speed
  setup_s       process start until pentapack, numpy, scipy and mpmath are
                imported and the inputs loaded; median of five processes
  peak_rss_mib  peak resident memory of the worker
and, on a line of its own, wall_s: the body's plain wall time.
--trace 1 wraps the public functions of pipeline, geometry, sos, sdpa,
solver and certify (tracer.py) and reports the per-layer metrics instead.
Counts and times are per repetition.  certify.verify_failures counts the
failures a SignVerification keeps, which is at most 16.  trace.overhead_s
is the wrapper cost of one no-op call, measured in the same process, times
the number of spans; trace.total_s is the traced body's time, to set
against an untraced run's total_s.

Output checks (counted in `failed`): the headline bound within 1e-6 of the
recorded reference, the expected certified flag, closed-form
fourier.evaluate_f at each reported witness equal to its sign_margin within
1e-9, and on verify-refine `certified_sign` only with cert_margin <= 0 and
no failures.  The last stdout line is the JSON result; lines before it give
each metric with its unit, failed_frac (failed / attempted, carried in the
JSON by those two fields) and the environment (interpreter, library
versions, mpmath backend, BLAS, nproc): figures from different mpmath
backends or BLAS thread counts are not comparable.  --toy runs every code path at toy size in
seconds (test_smoke.py).  The exit code is nonzero, with no result, when
the package cannot be imported or a worker fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 5  # setup_s is the median of this many processes
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn_worker(args, extra: list[str], timeout: float) -> dict:
    """Start worker.py; return the JSON it printed last."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(WORKDIR), *extra,
    ]
    if args.toy:
        cmd.append("--toy")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd += ["--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = ap.parse_args()

    t_start = time.perf_counter()
    WORKDIR.mkdir(parents=True, exist_ok=True)
    # Bytecode is compiled before any timing, so setup_s never includes it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn_worker(args, ["--setup-only"], DEADLINE_S)["setup_s"])
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    res = spawn_worker(args, [], remaining)
    setups.append(res["setup_s"])

    failed = sum(1 for errs in res["errors"] if errs)
    attempted = len(res["errors"])
    for i, errs in enumerate(res["errors"]):
        for e in errs:
            print(f"check failed (repetition {i + 1}): {e}", file=sys.stderr)

    if args.trace:
        values, wanted = res["per_layer"], spec["per_layer"]
    else:
        values = {
            "total_s": res["total_s"],
            "cpu_s": res["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": res["peak_rss_mib"],
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"worker reported no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {attempted} repetition(s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  wall_s = {res['wall_s']:.6g} s (body wall time, not rescaled)")
    print(f"  failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if args.trace:
        print(f"  spans written to {res['spans_file']}")
    print("env " + json.dumps(res["env"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
