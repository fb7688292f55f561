"""Real-vs-simulated similarity: k-fold splits, normalized histograms along
the reports-per-user / per-day-bin / per-time-bin axes, Pearson correlation,
and RMSE."""

from __future__ import annotations

import dataclasses
import datetime as dt
import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

from .analysis import estimate_model
from .distributions import RandomSource
from .errors import PsSimError
from .simulator import simulate
from .table import report_columns
from .types import DAY_BINS, TEMPORAL_BINS, SimConfig, day_index

#: The comparison axes, in order, each with its label in ``pssim validate``'s
#: table.
AXES = {
    "perUser": "Reports per user",
    "perDayBin": "Reports per day bin",
    "perTimeBin": "Reports per time bin",
}


@dataclass(frozen=True)
class AxisResult:
    """Similarity along one axis, with the two histograms it compares."""

    correlation: float
    rmse: float
    real_n: int
    sim_n: int
    real: dict[Hashable, float]
    sim: dict[Hashable, float]


@dataclass(frozen=True)
class ValidationReport:
    """Per-fold comparison: each axis's result by name, in ``AXES`` order."""

    fold: int
    axes: dict[str, AxisResult]

    def axis(self, name: str) -> AxisResult:
        return self.axes[name]


def _fold_rows(n: int, k: int, rng: RandomSource) -> list[np.ndarray]:
    """Row indices of k disjoint folds of a shuffled range(n), sizes
    differing by <= 1; the one owner of the fold layout."""
    if k < 2:
        raise PsSimError(f"need k >= 2 folds, got {k}")
    if k > n:
        raise PsSimError(f"cannot split {n} reports into {k} folds")
    order = rng.generator.permutation(n)
    base, extra = divmod(n, k)
    return np.split(order, np.cumsum([base + (i < extra) for i in range(k - 1)]))


def kfold_split(reports: Sequence, k: int, rng: RandomSource) -> list[list]:
    """Shuffle and split into k disjoint folds with sizes differing by <= 1.

    ``reports`` is a plain sequence; a table is not indexable by row, and
    each fold is a list of its items.  No command calls this: to get a fold
    as a table, pass ``_fold_rows``'s indices to ``CanonicalTable.take``, as
    ``cross_validate`` does.  It stays because perfbench/tracing.py wraps
    it by name.
    """
    return [[reports[j] for j in rows] for rows in _fold_rows(len(reports), k, rng)]


def histogram(reports, axis: str) -> dict[Hashable, float]:
    """Normalized frequency map along one comparison axis.

    perUser: fraction of users at each observed report-count value, in
    increasing count order.
    perDayBin / perTimeBin: fraction of reports per bin, zero-filled over the
    full 7- or 8-bin support.  The day bin is the weekday of the date.
    ``reports`` is a CanonicalTable or a ReportTable.
    """
    if axis not in AXES:
        raise PsSimError(f"unknown axis {axis!r}; expected one of {tuple(AXES)}")
    table, _ = report_columns(reports)
    total = len(table)
    if not total:
        raise PsSimError("cannot build a histogram from an empty report set")
    if axis == "perUser":
        per_user = np.bincount(table.source)
        counts, users = np.unique(per_user[per_user > 0], return_counts=True)
        n_users = int(users.sum())
        return {c: u / n_users for c, u in zip(counts.tolist(), users.tolist())}
    if axis == "perDayBin":
        support: tuple = DAY_BINS
        codes = day_index(table.date)
    else:
        support = TEMPORAL_BINS
        codes = table.time
    counts = np.bincount(codes, minlength=len(support)).tolist()
    return {s: c / total for s, c in zip(support, counts)}


def align_histograms(
    a: dict[Hashable, float], b: dict[Hashable, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-fill both histograms onto their union support, in sorted order."""
    keys = set(a) | set(b)
    ordered = sorted(keys, key=lambda k: k.index if hasattr(k, "index") else k)
    return (
        np.asarray([a.get(k, 0.0) for k in ordered]),
        np.asarray([b.get(k, 0.0) for k in ordered]),
    )


def pearson_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Standard sample Pearson coefficient."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise PsSimError("inputs must be one-dimensional vectors of equal length")
    if x.size < 2:
        raise PsSimError(f"need at least 2 points, got {x.size}")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx == 0.0 or vy == 0.0:
        raise PsSimError("zero variance: correlation undefined")
    r = float(np.dot(xc, yc)) / math.sqrt(vx * vy)
    return max(-1.0, min(1.0, r))


def rmse(a: Sequence[float], b: Sequence[float]) -> float:
    """Root-mean-square difference of two equal-length vectors."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 1:
        raise PsSimError("inputs must be non-empty vectors of equal length")
    return float(np.sqrt(np.mean((x - y) ** 2)))


def compare_axes(real, sim) -> dict[str, AxisResult]:
    """Histogram both report sets along every axis and score the match."""
    real, _ = report_columns(real)
    sim, _ = report_columns(sim)
    out = {}
    for axis in AXES:
        h_real = histogram(real, axis)
        h_sim = histogram(sim, axis)
        v_real, v_sim = align_histograms(h_real, h_sim)
        out[axis] = AxisResult(
            correlation=pearson_correlation(v_real, v_sim),
            rmse=rmse(v_real, v_sim),
            real_n=len(real),
            sim_n=len(sim),
            real=h_real,
            sim=h_sim,
        )
    return out


def fold_config(
    train,
    fold,
    window: tuple[dt.date, int],
    seed: int,
) -> SimConfig:
    """Fit models on the training reports, scaled to the test fold's size.

    The configuration runs ``estimate_model``'s model of the training
    folds, as ``pssim fit`` estimates it, over the window without a
    location, so at the overall lambda.  The model's location parameter
    mlog is replaced by one anchored so the expected per-participant quota
    matches the fold's mean reports per user, and n matches the fold's
    user count, so both traces live at comparable scale.  ``train`` and
    ``fold`` are CanonicalTables or ReportTables.
    """
    start, days = window
    model, _ = estimate_model(train, window)
    fold, _ = report_columns(fold)
    fold_users = int(np.count_nonzero(np.bincount(fold.source)))
    mean_per_user = len(fold) / fold_users
    mlog = math.log(mean_per_user) - model.sdlog**2 / 2.0 - math.log(days / 7.0)
    model = dataclasses.replace(model, mlog=mlog)
    return SimConfig(tau=days, n=fold_users, seed=seed, start_date=start, model=model)


def cross_validate(
    real_data, k: int, seed: int, window: tuple[dt.date, int]
) -> list[ValidationReport]:
    """k-fold validation over ``window``: per fold, fit on the remaining
    folds, simulate a trace of matching scale, and compare histograms
    along every axis.

    ``real_data`` is a CanonicalTable or a ReportTable.  Each training set
    holds the other folds in fold order.  Every AxisResult keeps the real
    and simulated histograms it scored.
    """
    if k < 2:
        raise PsSimError(f"need k >= 2 folds, got {k}")
    table, _ = report_columns(real_data)
    rng = RandomSource(seed)
    folds = _fold_rows(len(table), k, rng.substream("folds"))
    seed_gen = rng.substream("fold-seeds").generator

    results = []
    for i, rows in enumerate(folds):
        fold = table.take(rows)
        train = table.take(np.concatenate([f for j, f in enumerate(folds) if j != i]))
        config = fold_config(
            train, fold, window, seed=int(seed_gen.integers(0, 2**63))
        )
        trace = simulate(config)
        results.append(ValidationReport(i, compare_axes(fold, trace.reports)))
    return results


def summarize(reports: Iterable[ValidationReport]) -> dict[str, dict[str, float]]:
    """Mean and standard deviation of correlation and RMSE per axis."""
    reports = list(reports)
    if not reports:
        raise PsSimError("no validation reports to summarize")
    out = {}
    for axis in AXES:
        corr = np.asarray([r.axis(axis).correlation for r in reports])
        err = np.asarray([r.axis(axis).rmse for r in reports])
        out[axis] = {
            "correlation_mean": float(corr.mean()),
            "correlation_std": float(corr.std()),
            "rmse_mean": float(err.mean()),
            "rmse_std": float(err.std()),
        }
    return out
