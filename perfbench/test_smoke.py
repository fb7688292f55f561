"""Smoke test of the pipeline benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric it names, each with a unit, pass every
output check, and refuse to run where the pssim sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

COMMANDS = {
    "trace_pipeline": ("simulate_s", "aggregate_s"),
    "fit_validate": ("ingest_s", "fit_s", "aggregate_s", "validate_s"),
    "small_runs": ("simulate_s", "aggregate_s", "call_p50_ms", "call_p95_ms"),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict[str, str]:
    """name -> unit of every 'metric NAME VALUE UNIT n=N' line."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit, samples = line.split()
            float(value)
            assert samples.startswith("n=")
            out[name] = unit
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_checks(workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name

    printed = printed_metrics(done.stdout)
    for name in [m["name"] for m in SPEC["end_to_end"]] + list(COMMANDS[workload]):
        assert name in printed, name
    assert printed["failed_frac"] == "ratio"
    assert "failed_frac 0 ratio" in done.stdout
    for key in ("kernel_backend", "git_sha", "python", "numpy", "nproc", "trace_rows",
                "events", "raw_rows", "accepted_rows"):
        assert f"\nmeta {key} " in "\n" + done.stdout, key

    if trace:
        layers = result["metrics"]
        assert layers["trace.missing"]["value"] == 0
        assert "trace.self_sum_gap" in printed
        gap = next(float(line.split()[2]) for line in done.stdout.splitlines()
                   if line.startswith("metric trace.self_sum_gap "))
        assert gap < 0.05  # self times + cli.self_s add up to each command's wall time
    else:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    done = run("trace_pipeline", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
