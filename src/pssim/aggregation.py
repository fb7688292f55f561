"""Grouping of reports into events.

Reports are keyed by the four-tuple (date, temporal bin, location, incident
type).  The keys become integer code columns and one sort groups them: equal
keys end up adjacent, in the canonical key order, with each group's reporters
sorted beside them.  The key columns come from ``table.report_columns``.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PsSimError
from .table import CanonicalTable, dates_of, report_columns, row_key
from .types import TEMPORAL_BINS, TemporalBin


@dataclass(frozen=True)
class EventKey:
    """Group identity of an event: the four-tuple that defines it."""

    date: dt.date
    day_time: TemporalBin
    loc: str
    incident_type: str

    def sort_key(self) -> tuple:
        return (self.date, self.day_time.index, self.loc, self.incident_type)


@dataclass(frozen=True)
class AggregatedEvent:
    key: EventKey
    support_count: int
    reporters: frozenset[str]


@dataclass(frozen=True)
class AggregateResult:
    events: tuple[AggregatedEvent, ...]
    rejected: int


def map_report(
    report, default_loc: str = "unspecified", use_occurred: bool = False
) -> tuple[EventKey, str]:
    """Project a report row onto its (EventKey, sourceId) pair.

    Works on simulated trace rows (which carry reported and occurred types
    but no location) and on ingested raw reports (which carry a location and
    a single incident type).  A missing or None field raises PsSimError,
    which `aggregate` turns into a record-level reject.
    """
    date, time, loc, incident, source = row_key(report, default_loc, use_occurred)
    return EventKey(date, time, loc, incident), source


def reduce_count(key: EventKey, values: Sequence[str]) -> AggregatedEvent:
    """Count supporting reports; reporters deduplicate source ids."""
    if not values:
        raise PsSimError("cannot reduce an empty group")
    return AggregatedEvent(
        key=key, support_count=len(values), reporters=frozenset(values)
    )


def _ranks(vocab: Sequence[str]) -> np.ndarray:
    """Position of each vocabulary entry in sorted string order."""
    ranks = np.empty(len(vocab), dtype=np.int64)
    ranks[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    return ranks


def _group(cols: CanonicalTable, min_support: int) -> tuple[AggregatedEvent, ...]:
    """Sort by (date, bin, loc, type, source); each run of equal keys is one
    event and each run of equal sources inside it one reporter."""
    n = len(cols.date)
    if n == 0:
        return ()
    loc_rank = _ranks(cols.locs)[cols.loc]
    type_rank = _ranks(cols.types)[cols.type]
    source = cols.source.astype(np.int64)
    order = np.lexsort((source, type_rank, loc_rank, cols.time, cols.date))
    # nonzero where the key (then the source) differs from the previous row
    key_change = np.zeros(n, dtype=np.int64)
    key_change[0] = 1
    for column in (cols.date, cols.time, loc_rank, type_rank):
        key_change[1:] |= np.diff(column[order])
    source_change = key_change.copy()
    source_change[1:] |= np.diff(source[order])

    starts = np.flatnonzero(key_change)
    reporter_at = np.flatnonzero(source_change)
    # the reporters of event i are names[bounds[i]:bounds[i + 1]]
    bounds = np.searchsorted(reporter_at, starts).tolist() + [len(reporter_at)]
    names = [cols.sources[s] for s in source[order[reporter_at]].tolist()]
    first = order[starts]
    starts = starts.tolist()
    ends = starts[1:] + [n]
    events = []
    for i, (date, t, loc, k) in enumerate(
        zip(
            dates_of(cols.date[first]),
            cols.time[first].tolist(),
            cols.loc[first].tolist(),
            cols.type[first].tolist(),
        )
    ):
        support = ends[i] - starts[i]
        if support >= min_support:
            events.append(
                AggregatedEvent(
                    key=EventKey(date, TEMPORAL_BINS[t], cols.locs[loc], cols.types[k]),
                    support_count=support,
                    reporters=frozenset(names[bounds[i] : bounds[i + 1]]),
                )
            )
    return tuple(events)


def aggregate(
    reports: Iterable,
    partitions: int = 1,
    workers: int | None = None,
    min_support: int = 1,
    default_loc: str = "unspecified",
    use_occurred: bool = False,
) -> AggregateResult:
    """Group reports into aggregated events, sorted by key order.

    ``reports`` is anything ``report_columns`` accepts: a CanonicalTable, a
    ReportTable or an iterable of report rows.  Rejected records (missing
    fields) are counted, not fatal.  Events with fewer than
    ``min_support`` supporting reports are dropped after counting.
    ``partitions`` and ``workers`` are accepted for compatibility and have no
    effect: the grouping runs as one sort in this process.
    """
    if partitions < 1:
        raise PsSimError(f"partition count must be >= 1, got {partitions}")
    if min_support < 1:
        raise PsSimError(f"min_support must be >= 1, got {min_support}")
    cols, rejected = report_columns(reports, default_loc, use_occurred)
    return AggregateResult(events=_group(cols, min_support), rejected=rejected)
