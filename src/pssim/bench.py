"""Scalability sweep: time ``simulate`` over a grid of participant counts
and durations, and fit polynomial growth exponents to the timings.  The
``pssim bench`` command runs it."""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .simulator import simulate
from .types import DEFAULT_MODEL, SimConfig


def bench_grid(n_values, m_values, seed=1, repeats=3, model=DEFAULT_MODEL):
    """Time one simulation per grid point; returns rows of (n, m, seconds).

    Timings are the median over ``repeats`` runs of ``model`` with pr_lie
    0.1.
    """
    base = SimConfig(tau=7, n=10, seed=seed, loc="bench", pr_lie=0.1, model=model)
    # warm caches and lazy imports so the first grid point is not penalized
    simulate(base)

    def run_point(n, m):
        config = dataclasses.replace(base, tau=m, n=n)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate(config)
            times.append(time.perf_counter() - t0)
        return n, m, float(np.median(times))

    return [run_point(n, m) for n in n_values for m in m_values]


def fit_growth_exponents(rows) -> tuple[float, float] | None:
    """Least-squares fit of log t = c + a log n + b log m over the grid."""
    ns = {r[0] for r in rows}
    ms = {r[1] for r in rows}
    if len(ns) < 2 or len(ms) < 2:
        return None
    design = np.array([[1.0, math.log(n), math.log(m)] for n, m, _ in rows])
    target = np.array([math.log(max(t, 1e-9)) for _, _, t in rows])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return float(coef[1]), float(coef[2])
