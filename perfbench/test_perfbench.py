"""Tests of the benchmark itself, at smoke sizes: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--smoke")


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = smoke(workload, seed=3, trace=0)
    assert proc.returncode == 0, proc.stderr
    r = result(proc)
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in r["metrics"].values())
    assert "\nenv {" in proc.stdout and "\ndigest {" in proc.stdout


def test_traced_run_reports_every_per_layer_metric():
    proc = smoke("attack", seed=3, trace=1)
    assert proc.returncode == 0, proc.stderr
    r = result(proc)
    assert r["correct"] and r["failed"] == 0
    assert {k: v["unit"] for k, v in r["metrics"].items()} == units("per_layer")
    timings = {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "s"}
    del timings["trace.overhead_s"]  # traced minus untraced; noise can make it negative
    assert all(v > 0 for v in timings.values()), timings


def test_same_seed_gives_same_digest():
    first, second = smoke("verify", seed=5, trace=0), smoke("verify", seed=5, trace=0)
    digest = [line for line in first.stdout.splitlines() if line.startswith("digest ")]
    assert digest and digest == [
        line for line in second.stdout.splitlines() if line.startswith("digest ")
    ]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run("--workload", "prove", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
