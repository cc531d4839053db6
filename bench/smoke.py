"""Smoke test: every workload at tiny sizes, one seed, untraced and traced.

Not collected by a plain ``pytest`` run (the file name does not match
``test_*.py``); run it explicitly:

    python -m pytest bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks(workload, trace):
    proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        if workload != "ladder":
            assert result["failed"] == 0
    record = json.loads((BENCH / "out" / f"BENCH_{workload}_seed7_trace{trace}.json").read_text())
    for key in ("commit", "src_lines", "nproc", "python", "numpy", "samples"):
        assert key in record


def test_ladder_failures_are_the_over_cap_ladders():
    proc = run("--workload", "ladder", "--seed", "7", "--seconds", "1",
               "--trace", "0", "--scale", "tiny")
    record = json.loads((BENCH / "out" / "BENCH_ladder_seed7_trace0.json").read_text())
    share = record["inputs"]["share_n_ge_13"]
    assert proc.returncode == 0
    assert record["fail_reasons"]["over_cap"] == round(share * record["samples"]["ops"])
    assert record["fail_ratio"] == pytest.approx(share)


def test_refuses_to_run_without_sources():
    bare = BENCH / "out" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("--workload", "paper", "--seed", "7", "--seconds", "1",
                   "--trace", "0", "--scale", "tiny", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
