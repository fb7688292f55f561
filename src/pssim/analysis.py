"""Model fitting from report data.

Estimates the categorical day/time/type pmfs, the log-normal participation
parameters with Q-Q diagnostics, per-location Poisson rates, autocorrelation
of binned report counts, and percentile-based outlier filtering.  Every
counting stage works on the code columns of ``table.report_columns``, and
groups by counting over their code spaces (locations, user x week cells)
rather than by sorting the rows; only when the user x week space is large
against the row count are the rows sorted instead (``DENSE_CELLS_PER_ROW``).
Groups come out in code order, not in row order.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .distributions import (
    LogNormalParams,
    Pmf,
    fit_lognormal,
    lognormal_quantile,
    pmf_from_counts,
)
from .errors import PsSimError
from .table import report_columns
from .types import DAY_BINS, DEFAULT_LOC, TEMPORAL_BINS, Model, day_index

#: ``_user_weekly`` counts (user, week) pairs in a dense array while the
#: user codes times the weeks stay at most this many times (rows + 256),
#: and sorts the rows above that.
DENSE_CELLS_PER_ROW = 4


@dataclass(frozen=True)
class BinnedSeries:
    """Chronological report counts per (date, temporal-bin) cell.

    Cells are date-major: 8 consecutive entries per day, in temporal-bin
    order, starting at ``start_date``.
    """

    location: str
    start_date: dt.date
    cells: np.ndarray

    def __post_init__(self) -> None:
        if len(self.cells) == 0 or len(self.cells) % 8 != 0:
            raise PsSimError("cell vector length must be a positive multiple of 8")

    @property
    def days(self) -> int:
        return len(self.cells) // 8


@dataclass(frozen=True)
class QqData:
    """Theoretical and empirical quantiles, pairwise, plus the r^2 of their
    best-fit line."""

    theoretical: np.ndarray
    empirical: np.ndarray
    r2: float


@dataclass
class BinnedData:
    """Result of binning a report set over a window.

    The report count of each (user, week) pair is kept as columns, in
    (user code, week) order.
    """

    overall: BinnedSeries
    per_location: dict[str, BinnedSeries]
    users: list[str]  # sourceIds, in code order
    pair_user: np.ndarray  # per (user, week) pair: index into users
    pair_week: np.ndarray  # week index from the window start
    pair_count: np.ndarray  # reports, always positive
    excluded: int
    window_start: dt.date
    window_days: int
    accepted: int = field(default=0)

    def weekly_samples(self) -> list[float]:
        """Positive per-(user, week) report counts, the participation samples."""
        return self.pair_count.astype(np.float64).tolist()


def bin_reports(
    reports, window: tuple[dt.date, int], default_loc: str = DEFAULT_LOC
) -> BinnedData:
    """Tally reports into per-location (date, bin) cells and per-user weeks.

    ``reports`` is a CanonicalTable or a ReportTable; trace reports carry
    no location and are tallied under ``default_loc``.  Reports outside
    the window, and trace reports with an empty type, are excluded with a
    counter, not an error.
    """
    start, days = window
    if days < 1:
        raise PsSimError(f"empty window: days must be >= 1, got {days}")
    table, rejected = report_columns(reports, default_loc)
    offset, inside = _window_offsets(table, window)
    offset = offset[inside]
    cell = offset * 8 + table.time[inside]
    n_cells = 8 * days

    loc = table.loc[inside]
    present = np.flatnonzero(np.bincount(loc, minlength=len(table.locs)))  # codes in the window
    rank = np.zeros(len(table.locs), dtype=np.int64)  # so only they get cells
    rank[present] = np.arange(len(present))
    per_loc = np.bincount(
        rank[loc] * n_cells + cell, minlength=len(present) * n_cells
    ).reshape(len(present), n_cells)
    per_location = {
        table.locs[code]: BinnedSeries(table.locs[code], start, cells)
        for code, cells in zip(present.tolist(), per_loc)
    }

    users, pair_user, pair_week, pair_count = _user_weekly(
        table.source[inside], offset // 7, table.sources
    )
    return BinnedData(
        overall=BinnedSeries("(all)", start, per_loc.sum(axis=0)),
        per_location=per_location,
        users=users,
        pair_user=pair_user,
        pair_week=pair_week,
        pair_count=pair_count,
        excluded=len(table) - len(cell) + rejected,
        window_start=start,
        window_days=days,
        accepted=len(cell),
    )


def mean_weekly(reports, window: tuple[dt.date, int]) -> dict[str, float]:
    """Each user's mean report count over the weeks it reported in inside
    ``window``, from the (user, week) pairs ``bin_reports`` counts but
    without its (date, bin) cells.  The outlier filter of ingest compares
    these means.
    """
    table, _ = report_columns(reports)
    offset, inside = _window_offsets(table, window)
    users, pair_user, _, pair_count = _user_weekly(
        table.source[inside], offset[inside] // 7, table.sources
    )
    weeks = np.bincount(pair_user, minlength=len(users))
    total = np.bincount(pair_user, pair_count, minlength=len(users))
    return dict(zip(users, (total / weeks).tolist()))


def _window_offsets(table, window: tuple[dt.date, int]) -> tuple[np.ndarray, np.ndarray]:
    """Each report's day offset from the window start, and whether the
    window holds it."""
    start, days = window
    offset = table.date - start.toordinal()
    return offset, (offset >= 0) & (offset < days)


def _user_weekly(
    source: np.ndarray, week: np.ndarray, sources: Sequence
) -> tuple[list, np.ndarray, np.ndarray, np.ndarray]:
    """BinnedData's users and pair columns of the report count per (user,
    week), in (user code, week) order.

    While the user codes times the weeks are at most
    ``DENSE_CELLS_PER_ROW * (rows + 256)``, the pairs are counted over that
    code space with ``bincount``: one int64 array of that size, at most 32
    bytes per row plus 8 KiB.  Above it, the user codes are compacted to
    the users present, and one ``np.unique`` sorts and counts the pairs.
    """
    n = len(source)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return [], empty, empty, empty
    weeks = int(week.max()) + 1
    codes = None
    if len(sources) * weeks <= DENSE_CELLS_PER_ROW * (n + 256):
        count = np.bincount(source.astype(np.int64) * weeks + week)
        key = np.flatnonzero(count)
        count = count[key]
    else:
        codes, source = np.unique(source, return_inverse=True)
        key, count = np.unique(source.astype(np.int64) * weeks + week, return_counts=True)
    user = key // weeks
    new_user = np.diff(user, prepend=-1) != 0
    names = user[new_user] if codes is None else codes[user[new_user]]
    users = [sources[code] for code in names.tolist()]
    return users, np.cumsum(new_user) - 1, key % weeks, count


def weekly_samples_by_location(
    reports, window: tuple[dt.date, int]
) -> dict[str, list[float]]:
    """Each location's participation samples inside ``window``: what
    ``bin_reports`` of that location's reports alone gives as
    ``weekly_samples()``, from one grouping over (location, user, week).
    A location name held by several codes is the last code's, as
    ``table.locs`` lists them; locations with no report inside the window
    are left out.
    """
    table, _ = report_columns(reports)
    offset, inside = _window_offsets(table, window)
    width = max(len(table.sources), 1)
    users, pair_user, _, pair_count = _user_weekly(
        table.loc[inside].astype(np.int64) * width + table.source[inside],
        offset[inside] // 7,
        range(len(table.locs) * width),
    )
    pair_loc = (np.asarray(users, dtype=np.int64) // width)[pair_user]
    code_of = {name: code for code, name in enumerate(table.locs)}
    return {
        name: samples
        for name, code in code_of.items()
        if (samples := pair_count[pair_loc == code].astype(np.float64).tolist())
    }


def estimate_pmfs(binned: BinnedSeries) -> tuple[Pmf, Pmf]:
    """Estimate (pmf_day, pmf_time) from an aggregate binned series."""
    by_day = binned.cells.reshape(binned.days, 8)
    days = day_index(binned.start_date.toordinal() + np.arange(binned.days))
    day_totals = np.bincount(days, weights=by_day.sum(axis=1), minlength=len(DAY_BINS))
    day_counts = dict(zip(DAY_BINS, day_totals.astype(np.int64).tolist()))
    time_totals = by_day.sum(axis=0)
    time_counts = {b: int(time_totals[b.index]) for b in TEMPORAL_BINS}
    return pmf_from_counts(day_counts), pmf_from_counts(time_counts)


def estimate_evtype_pmf(reports) -> Pmf:
    """Pmf over incident types, support sorted lexicographically.

    ``reports`` is a CanonicalTable or a ReportTable; trace reports count
    under their reported type.
    """
    table, _ = report_columns(reports)
    counts = np.bincount(table.type, minlength=len(table.types)).tolist()
    return pmf_from_counts({label: c for label, c in sorted(zip(table.types, counts)) if c})


def estimate_lambda(binned: BinnedSeries | Sequence[float]) -> float:
    """Mean report count per temporal-bin cell (Poisson rate MLE).

    Accepts a BinnedSeries or any bare sequence of cell counts.
    """
    cells = binned.cells if isinstance(binned, BinnedSeries) else np.asarray(binned)
    if len(cells) == 0:
        raise PsSimError("need at least one cell")
    return float(np.mean(cells))


def autocorrelation(series: Sequence[float], lag: int) -> float:
    """Sample ACF: sum((x_t - xbar)(x_{t+lag} - xbar)) / sum((x_t - xbar)^2)."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if not 0 <= lag <= n - 2:
        raise PsSimError(f"lag must be in [0, {n - 2}] for a series of length {n}")
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise PsSimError("constant series: autocorrelation undefined")
    if lag == 0:
        return 1.0
    num = float(np.dot(centered[:-lag], centered[lag:]))
    return num / denom


def qq_against_lognormal(
    samples: Sequence[float], params: LogNormalParams
) -> QqData:
    """Empirical quantiles at plotting positions (i-0.5)/n against the
    theoretical log-normal quantiles, with the r^2 of the fit line."""
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    n = arr.size
    if n < 10:
        raise PsSimError(f"need at least 10 samples for a Q-Q fit, got {n}")
    if arr[0] == arr[-1]:
        raise PsSimError("zero variance: all samples identical")
    positions = (np.arange(1, n + 1) - 0.5) / n
    theoretical = np.array([lognormal_quantile(p, params) for p in positions.tolist()])
    r = np.corrcoef(theoretical, arr)[0, 1]
    return QqData(theoretical=theoretical, empirical=arr, r2=float(r * r))


def filter_outliers(
    user_counts: Mapping[str, float], percentile: float = 99.5
) -> tuple[dict[str, float], list[str]]:
    """Drop users whose count lies strictly above the given percentile.

    Returns (kept map, rejected user ids sorted).
    """
    if not 0.0 < percentile < 100.0:
        raise PsSimError(f"percentile must be in (0, 100), got {percentile}")
    if not user_counts:
        return {}, []
    threshold = float(np.percentile(list(user_counts.values()), percentile))
    kept = {u: c for u, c in user_counts.items() if c <= threshold}
    rejected = sorted(u for u, c in user_counts.items() if c > threshold)
    return kept, rejected


def estimate_model(reports, window: tuple[dt.date, int]) -> tuple[Model, BinnedData]:
    """The model's parameters from the reports inside ``window``: the day,
    time and type pmfs, lambda overall and per location, and the
    participation mlog and sdlog.

    Returns the model and the binned reports it was estimated from.
    """
    table, _ = report_columns(reports)
    binned = bin_reports(table, window)
    pmf_day, pmf_time = estimate_pmfs(binned.overall)
    pmf_ev = estimate_evtype_pmf(table)
    lam_overall = estimate_lambda(binned.overall)
    lam_by_loc = {
        loc: estimate_lambda(series)
        for loc, series in sorted(binned.per_location.items())
    }
    participation = fit_lognormal(binned.pair_count)
    model = Model(
        mlog=participation.m,
        sdlog=participation.s,
        lambda_overall=lam_overall,
        lambda_by_loc=lam_by_loc,
        pmf_day=pmf_day,
        pmf_time=pmf_time,
        pmf_ev_type=pmf_ev,
    )
    return model, binned


def fit_models(
    records, window: tuple[dt.date, int], per_location: bool, out_of_window: int = 0
) -> tuple[Model, dict, np.ndarray, QqData | None]:
    """Fit every model parameter from reports inside ``window``.

    Returns ``estimate_model``'s model, its fitting metadata
    (``out_of_window`` is recorded as the excluded count), the
    participation samples (the report count of each user-week pair) and
    their Q-Q fit (None when it is undefined).  With
    ``per_location`` the participation model is also fitted per location,
    into the metadata.
    """
    table, _ = report_columns(records)
    model, binned = estimate_model(table, window)
    samples = binned.pair_count

    qq = None
    if len(samples) >= 10:
        try:
            qq = qq_against_lognormal(samples, LogNormalParams(model.mlog, model.sdlog))
        except PsSimError:
            qq = None

    acf: dict[str, list[float] | None] = {}
    for loc, series in sorted(binned.per_location.items()):
        try:
            acf[loc] = [
                autocorrelation(series.cells, lag)
                for lag in range(1, min(9, len(series.cells) - 1))
            ]
        except PsSimError:
            acf[loc] = None

    meta = dict(
        window_start=binned.window_start.isoformat(),
        window_days=binned.window_days,
        reports=binned.accepted,
        users=len(binned.users),
        participation_samples=len(samples),
        excluded=out_of_window,
        diagnostics={
            "qq_r2": None if qq is None else qq.r2,
            "acf": acf,
        },
    )
    if per_location:
        loc_samples = weekly_samples_by_location(table, window)
        per_loc_fit: dict[str, dict[str, float] | None] = {}
        for loc in sorted(binned.per_location):
            try:
                fit = fit_lognormal(loc_samples.get(loc, []))
                per_loc_fit[loc] = {"mlog": fit.m, "sdlog": fit.s}
            except PsSimError:
                per_loc_fit[loc] = None
        meta["per_location_participation"] = per_loc_fit
    return model, meta, samples, qq
