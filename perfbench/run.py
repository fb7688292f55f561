"""Pipeline benchmark for pssim: three CLI workloads, end-to-end metrics and
per-layer traced metrics.

Run from the repository root:

    python3 perfbench/run.py --workload trace_pipeline --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): trace_pipeline, fit_validate, small_runs.
The seed makes every input; pssim sees only the generated files and
arguments.  With ``--trace 0`` the last line of output is a JSON object
whose metrics are the end-to-end ones: setup_s (median time to import
pssim.cli in a fresh interpreter), wall_s (median time of one pass of the
workload), reports_per_s (input rows per second of wall time) and
peak_rss_mib (the measuring process's high-water mark over the first two
passes, above its level after import).  With ``--trace 1`` they are the
per-layer metrics of tracing.py, from traced passes alternating with
untraced ones.  Every time is scaled to the reference speed of
reference.py, measured next to it; the unscaled figures are printed as
raw_* lines.  Lines before the JSON print every metric by name and unit,
including per-command times, call percentiles on small_runs and
failed_frac, plus run metadata.  The full record, spans included, is
written to perfbench/_out/.

``--size tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from reference import Reference, speed_factor
from tracing import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pssim.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {"setup_s": "s", "wall_s": "s", "reports_per_s": "1/s", "peak_rss_mib": "MiB"}
COMMAND_METRICS = ("ingest", "fit", "simulate", "aggregate", "validate")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pssim_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Time ``import pssim.cli`` in fresh interpreters; returns the raw
    samples and the samples scaled by reference runs on either side."""
    raw, scaled = [], []
    with Reference() as speed_ref:
        before = speed_ref.seconds()
        for _ in range(SETUP_SAMPLES):
            probe = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE],
                cwd=ROOT, env=pssim_env(), capture_output=True, text=True, timeout=60,
            )
            if probe.returncode != 0:
                raise RuntimeError(f"import pssim.cli failed: {probe.stderr.strip()}")
            after = speed_ref.seconds()
            raw.append(float(probe.stdout.strip().splitlines()[-1]))
            scaled.append(raw[-1] * speed_factor([before, after]))
            before = after
    return raw, scaled


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarize(record: dict, spec: dict, setup: tuple) -> tuple[dict, list]:
    """End-to-end metrics from the untraced passes, and the human lines for
    every metric (name, value, unit, sample count)."""
    raw_setup, setup = setup
    passes = [p for p in record["passes"] if not p["traced"]]
    info = record["passes"][0]["info"]
    rows = spec["inputs"].get("raw_rows") or info.get("trace_rows", 0)
    walls = [p["scaled_wall_s"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "reports_per_s": statistics.median(rows / w for w in walls),
        "peak_rss_mib": record["peak_rss_mib"],
    }
    lines = [(name, metrics[name], END_TO_END[name], n)
             for name, n in (("setup_s", len(setup)), ("wall_s", len(walls)),
                             ("reports_per_s", len(walls)), ("peak_rss_mib", 1))]
    lines += [
        ("raw_setup_s", statistics.median(raw_setup), "s", len(raw_setup)),
        ("raw_wall_s", statistics.median(p["wall_s"] for p in passes), "s", len(passes)),
        ("speed_factor", statistics.median(p["factor"] for p in passes), "ratio", len(passes)),
    ]
    for name in COMMAND_METRICS:
        per_pass = [sum(c[2] for c in p["commands"] if c[0] == name) for p in passes]
        if any(per_pass):
            lines.append((f"{name}_s", statistics.median(per_pass), "s", len(per_pass)))
    if spec["workload"] == "small_runs":
        calls = []
        for p in passes:
            times = [c[2] for c in p["commands"]]
            calls += [1000.0 * (a + b) for a, b in zip(times[::2], times[1::2])]
        lines.append(("call_p50_ms", statistics.median(calls), "ms", len(calls)))
        lines.append(("call_p95_ms", statistics.quantiles(calls, n=20)[-1], "ms", len(calls)))
    return metrics, lines


def layer_summary(record: dict) -> tuple[dict, list]:
    """Per-layer metrics: medians over the traced passes, times scaled by
    each pass's reference runs."""
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]
    metrics = {
        name: statistics.median(
            p["layers"][name] * (p["factor"] if UNITS[name] == "s" else 1.0) for p in traced
        )
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(p["scaled_wall_s"] for p in traced)
        / statistics.median(p["scaled_wall_s"] for p in plain)
        - 1.0
    )
    # span self times of each command against the command's measured time
    gap = max(
        abs(p["self_sums"].get(str(i), 0.0) - seconds) / seconds
        for p in traced
        for i, (_, seconds, _) in enumerate(p["commands"])
    )
    lines = [(name, metrics[name], UNITS[name], len(traced)) for name in sorted(metrics)]
    lines.append(("trace.self_sum_gap", gap, "ratio", len(traced)))
    return {name: (metrics[name], UNITS[name]) for name in metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "pssim" / "__init__.py").is_file():
        return fail(f"no pssim sources under {SRC}; run from a pssim checkout")

    scratch = HERE / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        try:
            setup = measure_setup()
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc))
        sizes = workloads.SIZES[args.size]
        inputs = {}
        if args.workload == "fit_validate":
            raw = work / "raw_export.csv"
            inputs = workloads.write_raw_export(raw, args.seed, sizes.raw_users)
            inputs["raw_path"] = str(raw)
        spec = {
            "src": str(SRC), "work": str(work), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "inputs": inputs,
        }
        spec_path, result_path = work / "spec.json", work / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        budget = max(10.0, DEADLINE_S - (time.perf_counter() - started))
        try:
            worker = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                cwd=ROOT, timeout=budget, stdout=subprocess.DEVNULL,
            )
        except subprocess.TimeoutExpired:
            return fail(f"worker did not finish within {budget:.0f}s")
        if worker.returncode != 0:
            return fail(f"worker exited with code {worker.returncode}")
        record = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, lines = summarize(record, spec, setup)
    if args.trace:
        layers, layer_lines = layer_summary(record)
        lines += layer_lines
        reported = layers
    else:
        reported = {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}

    failed = {(i, c) for i, p in enumerate(record["passes"]) for c, _ in p["failures"]}
    attempted = sum(len(p["commands"]) for p in record["passes"])
    info = record["passes"][0]["info"]
    meta = dict(
        record["meta"],
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=args.size, git_sha=git_sha(), nproc=os.cpu_count(),
        passes=len(record["passes"]),
        trace_rows=info.get("trace_rows", 0), events=info.get("events", 0),
        raw_rows=inputs.get("raw_rows", 0), accepted_rows=info.get("accepted_rows", 0),
    )
    lines.append(("failed_frac", len(failed) / attempted, "ratio", attempted))

    for key, value in meta.items():
        print(f"meta {key} {value}")
    for name, value, unit, n in lines:
        print(f"metric {name} {value:.6g} {unit} n={n}")
    for p in record["passes"]:
        for _, message in p["failures"]:
            print(f"failed {message}")
    if record.get("missing"):
        print(f"missing {' '.join(record['missing'])}")

    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(
        json.dumps({"meta": meta, "metrics": [list(line) for line in lines], **record}),
        encoding="utf-8",
    )

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
