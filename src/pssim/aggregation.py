"""Grouping of reports into events.

Reports are keyed by the four-tuple (date, temporal bin, location, incident
type).  The key columns, which come from ``table.report_columns``, are
packed into one integer per report whose order is the canonical key order,
and one sort groups them: each run of equal keys is one event.  The result
is columnar: an AggregatedEventTable holds each event's key codes and
support count, and builds the reporter sets only when its rows are used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PsSimError
from .table import AggregatedEventTable, CanonicalTable, code_dtype, report_columns

_KEY_SPACE = 2**63  # packed keys are int64


@dataclass(frozen=True)
class AggregateResult:
    events: AggregatedEventTable
    rejected: int


def _ranks(vocab: Sequence[str]) -> np.ndarray:
    """Position of each vocabulary entry in sorted string order."""
    ranks = np.empty(len(vocab), dtype=np.int64)
    ranks[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    return ranks


def _packed_key(cols: CanonicalTable) -> np.ndarray:
    """One int64 per report, ordered as (date, bin, loc, type) are.

    Each column is folded in as ``key * size + value``.  Should the sizes
    multiply past int64, the distinct keys so far are first renumbered
    0, 1, ... in order, which keeps the order and bounds the size by the
    report count.
    """
    key = cols.date - (cols.date.min() if len(cols.date) else 0)
    size = int(key.max(initial=0)) + 1
    for values, count in (
        (cols.time, 8),
        (_ranks(cols.locs)[cols.loc], len(cols.locs)),
        (_ranks(cols.types)[cols.type], len(cols.types)),
    ):
        if size * count > _KEY_SPACE:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        key *= count
        key += values
        size *= count
    return key


def _group(cols: CanonicalTable, min_support: int) -> AggregatedEventTable:
    """Sort the packed keys once; each run of equal keys is one event."""
    n = len(cols.date)
    key = _packed_key(cols)
    order = np.argsort(key)
    key = key[order]
    new = np.ones(n, dtype=bool)  # where a run of equal keys starts
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    starts = np.flatnonzero(new)
    support = np.diff(starts, append=n)
    kept = np.flatnonzero(support >= min_support)
    first = order[starts[kept]]
    # each report's event index; reports of dropped events get len(kept)
    number = np.full(len(starts), len(kept), dtype=code_dtype(len(kept) + 1, n))
    number[kept] = np.arange(len(kept))
    event = np.empty(n, dtype=number.dtype)
    event[order] = np.repeat(number, support)
    return AggregatedEventTable(
        date=cols.date[first],
        time=cols.time[first],
        loc=cols.loc[first],
        locs=cols.locs,
        type=cols.type[first],
        types=cols.types,
        support=support[kept],
        event=event,
        source=cols.source,
        sources=cols.sources,
    )


def aggregate(
    reports,
    *,
    min_support: int = 1,
    default_loc: str = "unspecified",
    use_occurred: bool = False,
) -> AggregateResult:
    """Group reports into aggregated events, sorted by key order.

    ``reports`` is a CanonicalTable or a ReportTable (see
    ``table.report_columns``).  The events come as an AggregatedEventTable,
    a Sequence of AggregatedEvent rows whose reporter sets are built on
    first access.  Rejected records (missing fields) are counted, not
    fatal.  Events with fewer than ``min_support`` supporting reports are
    dropped after counting.  The grouping runs as one sort in this process.
    """
    if min_support < 1:
        raise PsSimError(f"min_support must be >= 1, got {min_support}")
    cols, rejected = report_columns(reports, default_loc, use_occurred)
    return AggregateResult(events=_group(cols, min_support), rejected=rejected)
