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
"""

from __future__ import annotations

import sys

import numpy as np

BACKEND = "numpy"


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
    index ``i`` appearing ``quotas[i]`` times; clocks that tie exactly keep
    participant-major order.
    """
    quotas = np.asarray(quotas, dtype=np.int64)
    held = np.flatnonzero(quotas)
    counts = quotas[held]
    if len(u) != int(counts.sum()):
        raise ValueError(f"{len(u)} uniforms for {int(counts.sum())} quota units")

    clock = np.log1p(np.negative(u, dtype=np.float64))
    np.negative(clock, out=clock)
    # restart the running sum at each participant: its first gap carries
    # minus the previous participant's total
    starts = np.cumsum(counts) - counts
    clock[starts[1:]] -= np.add.reduceat(clock, starts)[:-1]
    np.cumsum(clock, out=clock)

    # without an exact tie (or a NaN) the order is unique, so stable
    order = np.argsort(clock)
    ordered = clock[order]
    if not (ordered[1:] > ordered[:-1]).all():
        order = np.argsort(clock, kind="stable")
    del clock, ordered
    return np.repeat(held, counts)[order]
