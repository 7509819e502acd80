"""Smoke test of the end-to-end benchmark at a tiny size.

Runs every workload once, traced, with a handful of ops (2 plans, 8
``/plan`` round trips, 6 train steps) and checks the result line, the
metric names against ``BENCHMARK.json``, the trace self-check and the
Chrome trace. The full-size runs are what ``BENCHMARK.json`` describes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE_OPS = {"plan_cold": 2, "plan_warm": 2, "serve_hot": 8, "train": 6}


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(SMOKE_OPS))
def test_workload_traced_at_tiny_size(workload, tmp_path):
    ops = SMOKE_OPS[workload]
    proc = _run(
        [
            f"--workload={workload}",
            "--seed=3",
            "--seconds=3",
            "--trace=1",
            f"--ops={ops}",
            f"--out={tmp_path}",
        ]
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout[-3000:]
    assert (result["attempted"], result["failed"]) == (ops, 0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]

    record = json.loads((tmp_path / f"{workload}-seed3-trace.json").read_text())
    assert record["messages"] == []
    for m in SPEC["end_to_end"]:
        assert record["metrics"][m["name"]] > 0, m["name"]
    metrics = record["metrics"]
    assert metrics["trace.coverage"] >= 0.95
    if workload == "serve_hot":
        from repro.schedules.cache import DEFAULT_MAX_ENTRIES

        # The hot set is designed to fit the memory tier: all hits.
        assert 0 < metrics["schedules.cache.artifacts.working_set"] <= DEFAULT_MAX_ENTRIES
        assert metrics["schedules.cache.artifacts.hit_rate"] == 1.0
        assert metrics["schedules.registry.build_schedule.calls"] == 0
    if workload == "plan_warm":
        assert metrics["schedules.diskcache.load.hit_rate"] == 1.0
        assert metrics["schedules.registry.build_schedule.calls"] == 0

    trace = json.loads((tmp_path / f"{workload}-seed3-trace.trace.json").read_text())
    events = trace["traceEvents"]
    assert events and {e["ph"] for e in events} == {"X"}
    assert not list(tmp_path.glob("work-*")), "scratch directory left behind"


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "results"),
    )
    proc = _run(["--workload=train", "--seed=1", "--seconds=1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(base, [1.02, 1.03, 1.01, 1.02], "lower", 0.1)[0] == "ok"
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3], "lower", 0.1)[0] == "REGRESSED"
    assert compare.verdict(base, [1.3, 1.31, 1.29, 1.3], "higher", 0.1)[0] == "better"
    noisy = [0.5, 1.0, 1.5, 2.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
