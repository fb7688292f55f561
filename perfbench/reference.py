"""Reference workload: how fast the machine runs pure-Python work right now.

The shared test machines this benchmark runs on change speed by up to 2x
over tens of seconds.  Timing a fixed stdlib-only workload (tuples, string
formatting, CSV write and read, dict grouping -- the same kinds of work as
pssim's per-row code) next to each measured pass tracks those swings: on a
2-core VM, fit times spread 0.40 (IQR/median) while their ratio to the
reference spread 0.10.  Times are reported scaled to the reference's nominal
duration, so a reported second is a second on the machine running at the
speed where the reference takes REFERENCE_S.

The workload runs in a helper process, one run per request, so that its
memory and objects stay out of the measured process.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys
from time import perf_counter

REFERENCE_S = 0.1  # nominal duration of one reference run
_ROWS = 30_000


def reference_seconds() -> float:
    """Run the reference workload once and return its duration."""
    start = perf_counter()
    rows = [(i, f"U{i % 997:05d}", "Elm Street", i * 0.5) for i in range(_ROWS)]
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    buffer.seek(0)
    groups: dict[str, list] = {}
    for row in csv.reader(buffer):
        groups.setdefault(row[1], []).append(row)
    return perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Multiplier that turns seconds measured alongside ``samples`` into
    seconds at the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)


class Reference:
    """A helper process that runs the reference workload on request."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        return float(self._helper.stdout.readline())

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(reference_seconds(), flush=True)
