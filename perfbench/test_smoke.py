"""Smoke test of the benchmark at toy size, in well under a minute:

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import speedclock  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("env {") for line in lines)
    assert any("failed_frac" in line for line in lines)


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper-default", "--seed", "1", "--toy", root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pipeline_checks_catch_wrong_outputs(tmp_path):
    inputs = workloads.prepare("paper-default", 0, toy=True)
    report = workloads.run(inputs, tmp_path)
    assert workloads.check(inputs, report, tmp_path) == []
    for change in ({"bound": report.bound + 1e-5}, {"certified": True}, {"sign_margin": report.sign_margin + 1e-8}):
        assert workloads.check(inputs, dataclasses.replace(report, **change), tmp_path), change


def test_verify_checks_catch_wrong_outputs(tmp_path):
    inputs = workloads.prepare("verify-refine", 0, toy=True)
    inputs["enlargements"] = inputs["enlargements"][:1]
    (sv,) = workloads.run(inputs, tmp_path)
    assert workloads.check(inputs, [sv], tmp_path) == []
    assert sv.failures
    assert workloads.check(inputs, [dataclasses.replace(sv, certified_sign=True)], tmp_path)
    assert workloads.check(inputs, [dataclasses.replace(sv, sign_margin=sv.sign_margin - 1e-8)], tmp_path)


def test_enlargements_follow_the_seed():
    assert workloads.enlargements(7) == workloads.enlargements(7)
    assert workloads.enlargements(7) != workloads.enlargements(8)
    assert all(1.04 <= e <= 1.06 for s in range(20) for e in workloads.enlargements(s))


def test_speed_clock_rescales_wall_time_and_cuts_out_its_samples():
    clock = speedclock.SpeedClock(interval=0.02)
    clock.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        speedclock.kernel(100)
    t1 = time.perf_counter()
    clock.stop()
    assert len(clock.pauses) >= 5
    speeds = [speedclock.REFERENCE_S / (b - a) for a, b in clock.pauses]
    active = t1 - t0 - clock.paused(t0, t1)
    assert 0 < clock.paused(t0, t1) < t1 - t0
    assert min(speeds) * active * 0.99 <= clock.elapsed(t0, t1) <= max(speeds) * active * 1.01
    assert clock.elapsed(t0, t0) == 0.0
