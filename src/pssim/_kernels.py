"""Participant order for the simulator's reports, drawn with numpy.

Each report goes to a participant drawn uniformly among those with quota
left.  Sampled step by step, that is a sequential loop; here it is drawn
from its continuous-time equivalent instead.  Participant p holds a clock
whose k-th report fires at the sum of k independent Exp(1) gaps, and
reports are emitted in firing order.  Every clock is memoryless, so each
next firing is uniform over the participants that still have quota: the
emitted sequence has exactly the law of the sequential loop.

The clocks are ordered by numpy's default argsort, which is SIMD-accelerated
where the CPU allows (AVX-512 or AVX2 on x86) but not stable.  Clocks that
tie exactly are rare, and only when the sorted clocks hold one is the order
taken again from a stable sort, so the output is the same on every input
and every CPU.

Memory: beside the caller's uniforms, the sampler holds one float64 clock
per report, built in place, and the clocks' int64 order; the tie check
gathers TIE_WINDOW sorted clocks at a time, and the participant indices
are repeated in the code type they are returned in.  On the 485,533
reports of the benchmark's trace_pipeline trace it peaks at 18.7 bytes per
report above its inputs (tracemalloc), and 2 of them are returned.
"""

from __future__ import annotations

import sys

import numpy as np

from .table import code_dtype

BACKEND = "numpy"
TIE_WINDOW = 1 << 16  # sorted clocks checked for ties at a time


def get_backend(name: str = "auto"):
    """``(BACKEND, this module)``, the one implementation there is.

    perfbench's tracer finds ``assign_participants`` through it.
    """
    return BACKEND, sys.modules[__name__]


def assign_participants(quotas: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Order the reports of ``quotas`` among the participants.

    ``u`` holds one uniform in [0, 1) per report, laid out participant-major:
    the first ``quotas[0]`` belong to participant 0, the next ``quotas[1]``
    to participant 1, and so on.  ``-log1p(-u)`` turns them into the
    participants' Exp(1) gaps.  Returns ``len(u)`` participant indices, each
    index ``i`` appearing ``quotas[i]`` times, in ``code_dtype(len(quotas),
    len(u))``; clocks that tie exactly keep participant-major order.
    """
    quotas = np.asarray(quotas, dtype=np.int64)
    held = np.flatnonzero(quotas)
    counts = quotas[held]
    total = int(counts.sum())
    if len(u) != total:
        raise ValueError(f"{len(u)} uniforms for {total} quota units")

    clock = np.negative(u, dtype=np.float64)
    np.log1p(clock, out=clock)
    np.negative(clock, out=clock)
    # restart the running sum at each participant: its first gap carries
    # minus the previous participant's total
    starts = np.cumsum(counts) - counts
    clock[starts[1:]] -= np.add.reduceat(clock, starts)[:-1]
    np.cumsum(clock, out=clock)

    # without an exact tie (or a NaN) the order is unique, so stable
    order = np.argsort(clock)
    if not _ascending(clock, order):
        order = np.argsort(clock, kind="stable")
    del clock
    return np.repeat(held.astype(code_dtype(len(quotas), total), copy=False), counts)[order]


def _ascending(clock: np.ndarray, order: np.ndarray) -> bool:
    """Whether ``clock[order]`` strictly increases, gathered TIE_WINDOW
    clocks at a time; each window starts on the last clock of the one
    before, so a tie across their boundary is seen."""
    for first in range(0, len(order) - 1, TIE_WINDOW):
        ordered = clock[order[first : first + TIE_WINDOW + 1]]
        if not (ordered[1:] > ordered[:-1]).all():
            return False
    return True
