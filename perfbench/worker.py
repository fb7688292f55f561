"""Measuring process of the pipeline benchmark.

Started by run.py with a JSON spec and a result path:

    python3 perfbench/worker.py SPEC.json RESULT.json

It imports pssim.cli, then runs passes of one workload back to back in this
process (one client, no extra threads) by calling
``pssim.cli.main.main(argv, standalone_mode=False)``.  It stops starting
passes once the next one would end after ``seconds``, but runs at least
two; peak RSS is the high-water mark over the first two, above the level
after import.  With tracing, passes alternate untraced and traced, so the
traced run and its untraced reference share the process.  The outputs of
the first pass are checked; every later pass must reproduce their digests.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads
from reference import Reference, speed_factor
from tracing import Tracer

CALIBRATE_EVERY_S = 1.0


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_command(main, command, index, tracer):
    """Run one CLI command; returns (seconds, printed output, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    span = tracer.command(index, command.name) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            main.main(list(command.argv), standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit {exc.code}: {err.getvalue().strip()}"
        except Exception as exc:  # a failed command is counted, not fatal
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return time.perf_counter() - start, out.getvalue(), error


def run_pass(main, rounds, tracer, speed_ref, expected):
    """One pass over every round.  With ``expected`` None the outputs are
    checked and their digests become the expected ones; otherwise each
    round's digest must equal its expected digest.  A command fails when it
    raises or exits non-zero, or when a check or digest of its round fails.

    The reference workload runs before the pass, after it, and between
    commands once CALIBRATE_EVERY_S has passed; each command's time is
    also given scaled by the reference runs on either side of it."""
    commands, failures, digests, info = [], [], [], {}
    speed = [speed_ref.seconds()]
    last = time.perf_counter()
    for r, round_ in enumerate(rounds):
        first = len(commands)
        printed, round_failures = [], []
        for command in round_:
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                speed.append(speed_ref.seconds())
                last = time.perf_counter()
            seconds, stdout, error = run_command(main, command, len(commands), tracer)
            commands.append([command.name, seconds, len(speed) - 1])
            printed.append(stdout)
            if error:
                round_failures.append((len(commands) - 1, f"round {r} {command.name}: {error}"))
        if not round_failures and expected is None:
            for i, (command, stdout) in enumerate(zip(round_, printed)):
                try:
                    for key, value in command.check(stdout).items():
                        info[key] = info.get(key, 0) + value
                except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                    round_failures.append((first + i, f"round {r} {command.name} check: {exc}"))
        digests.append(None)
        if not round_failures:
            digests[-1] = workloads.digest(p for command in round_ for p in command.outputs)
            if expected is not None and digests[-1] != expected[r]:
                round_failures = [
                    (first + i, f"round {r} {command.name}: output differs from the first pass")
                    for i, command in enumerate(round_)
                ]
        failures.extend(round_failures)
    speed.append(speed_ref.seconds())
    for command in commands:
        k = command[2]
        command[2] = command[1] * speed_factor(speed[k : k + 2])
    return {
        "commands": commands,  # [name, seconds, seconds at reference speed]
        "wall_s": sum(c[1] for c in commands),
        "scaled_wall_s": sum(c[2] for c in commands),
        "factor": speed_factor(speed),
        "failures": failures,
        "digests": digests,
        "info": info,
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import pssim
    import pssim.cli

    if not Path(pssim.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"pssim imported from {pssim.__file__}, not from {src}")
    rss_after_setup = max_rss_kib()

    sizes = workloads.SIZES[spec["size"]]
    out = Path(spec["work"]) / "out"
    out.mkdir(parents=True, exist_ok=True)
    rounds = workloads.plan(spec["workload"], sizes, spec["seed"], out, spec["inputs"])
    names = [command.name for round_ in rounds for command in round_]

    tracer = Tracer() if spec["trace"] else None
    passes = []
    expected = None
    with Reference() as speed_ref:
        begin = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            gc.collect()
            pass_start = time.perf_counter()
            if traced:
                tracer.install(len(passes))
            try:
                result = run_pass(
                    pssim.cli.main, rounds, tracer if traced else None, speed_ref, expected
                )
            finally:
                if traced:
                    tracer.uninstall()
            result["traced"] = traced
            if traced:
                result["layers"] = tracer.layer_metrics(len(passes), names)
                result["self_sums"] = tracer.command_self_sums(len(passes))
            if expected is None:
                expected = result["digests"]
            passes.append(result)
            if len(passes) == 2:
                # a fixed amount of work, so the figure does not depend on
                # how many passes fit in the run
                peak_rss_mib = (max_rss_kib() - rss_after_setup) / 1024.0
            now = time.perf_counter()
            # the last pass is never the checked first one once two have run
            if len(passes) >= 2 and now - begin + (now - pass_start) > spec["seconds"]:
                break

    record = {
        "peak_rss_mib": peak_rss_mib,
        "passes": passes,
        "meta": {
            "kernel_backend": pssim.KERNEL_BACKEND,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "pssim": pssim.__version__,
        },
    }
    if tracer is not None:
        record["missing"] = sorted(tracer.missing)
        record["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
