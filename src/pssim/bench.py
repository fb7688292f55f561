"""Scalability sweep: time ``simulate`` over a grid of participant counts
and durations, and fit polynomial growth exponents to the timings.  The
``pssim bench`` command runs it."""

from __future__ import annotations

import datetime as dt
import math
import time

import numpy as np

from .distributions import uniform_pmf
from .simulator import simulate
from .types import DAY_BINS, DEFAULT_EV_TYPES, TEMPORAL_BINS, SimConfig


def bench_grid(
    n_values, m_values, seed=1, repeats=3, lambda_e=10.0, backend="auto", workers=1
):
    """Time one simulation per grid point; returns rows of (n, m, seconds).

    Timings are the median over ``repeats`` runs.  With workers > 1 grid
    points run concurrently, which speeds the sweep but adds contention
    noise to individual timings.
    """
    types = DEFAULT_EV_TYPES
    pmf_day = uniform_pmf(DAY_BINS)
    pmf_time = uniform_pmf(TEMPORAL_BINS)
    pmf_ev = uniform_pmf(types)

    # warm caches and lazy imports so the first grid point is not penalized
    simulate(
        SimConfig(
            tau=7, start_date=dt.date(2015, 2, 23), ev_types=types, pr_lie=0.1,
            n=10, lambda_e=lambda_e, mlog=math.log(3.0), sdlog=0.5,
            pmf_time=pmf_time, pmf_day=pmf_day, pmf_ev_type=pmf_ev,
            seed=seed, loc="bench",
        ),
        backend=backend,
    )

    def run_point(point):
        n, m = point
        config = SimConfig(
            tau=m,
            start_date=dt.date(2015, 2, 23),
            ev_types=types,
            pr_lie=0.1,
            n=n,
            lambda_e=lambda_e,
            mlog=math.log(3.0),  # three reports per participant-week on average
            sdlog=0.5,
            pmf_time=pmf_time,
            pmf_day=pmf_day,
            pmf_ev_type=pmf_ev,
            seed=seed,
            loc="bench",
        )
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            simulate(config, backend=backend)
            times.append(time.perf_counter() - t0)
        return n, m, float(np.median(times))

    points = [(n, m) for n in n_values for m in m_values]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_point, points))
    return [run_point(p) for p in points]


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
