"""Grouping of reports into events.

Reports are keyed by the four-tuple (date, temporal bin, location, incident
type).  The key columns, which come from ``table.report_columns``, are
packed into one integer per report whose order is the canonical key order,
and one counting pass groups them: ``np.bincount`` gives each key's support,
the keys kept come in key order, and a report's event index is a gather from
a per-key table.  The result is columnar: an AggregatedEventTable holds each
event's key codes and support count, and per grouped report its event index
and source code, so an event's reporters are the sources of its reports.

Memory: the packed keys are held in the smallest integer type of their
space (uint16 for the benchmark's trace_pipeline trace), which renumbering
keeps within ``DENSE_CELLS_PER_ROW * (rows + 256)``; the count casts them to
intp once.  A trace's reports are first projected onto int32 dates and
one-byte bins and codes.  Grouping the 485,533 reports of the trace_pipeline
trace peaks at 16.1 bytes per report above the table read (tracemalloc),
and the result holds 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PsSimError
from .table import AggregatedEventTable, CanonicalTable, code_dtype, report_columns, take
from .table import DENSE_CELLS_PER_ROW, TAKE_ROWS
from .types import DEFAULT_LOC


@dataclass(frozen=True)
class AggregateResult:
    events: AggregatedEventTable
    rejected: int


def _ranks(vocab: Sequence[str], dtype) -> np.ndarray:
    """Position of each vocabulary entry in sorted string order."""
    ranks = np.empty(len(vocab), dtype=dtype)
    ranks[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    return ranks


def _packed_key(cols: CanonicalTable) -> tuple[np.ndarray, int]:
    """One integer per report, ordered as (date, bin, loc, type) are, and
    the size of their space: at most ``DENSE_CELLS_PER_ROW * (rows + 256)``.

    Each column is folded in as ``key * size + value``, the string codes
    through their ranks in one scratch column, in code_dtype of the space.
    A wider space is folded in int64, and each fold that passes the bound
    renumbers the distinct keys 0, 1, ... in order (an intp inverse, which
    bincount takes), which keeps the order and bounds the size by the rows.
    """
    n = len(cols.date)
    bound = DENSE_CELLS_PER_ROW * (n + 256)
    low = int(cols.date.min()) if n else 0
    size = int(cols.date.max()) - low + 1 if n else 1
    space = size * 8 * len(cols.locs) * len(cols.types)
    dtype = code_dtype(space, n) if space <= bound else np.dtype(np.int64)
    key = np.subtract(cols.date, low, out=np.empty(n, dtype=dtype), casting="unsafe")
    scratch = None
    for values, vocab, count in (
        (cols.time, None, 8),
        (cols.loc, cols.locs, len(cols.locs)),
        (cols.type, cols.types, len(cols.types)),
    ):
        if count == 1:  # every value is 0
            continue
        key *= count
        if vocab is not None:
            values = scratch = take(_ranks(vocab, dtype), values, out=scratch)
        np.add(key, values, out=key, casting="unsafe")
        size *= count
        if size > bound:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
    return key, size


def _group(cols: CanonicalTable, min_support: int) -> AggregatedEventTable:
    """Count the reports of each packed key; each key with ``min_support``
    reports or more is one event, in key order."""
    n = len(cols.date)
    key, space = _packed_key(cols)
    support = np.bincount(key, minlength=space)
    kept = np.flatnonzero(support >= min_support)
    support = support[kept]
    # per key: its event index (len(kept) when dropped) and one of its
    # reports, whose four codes every report of the key shares
    number = np.full(space, len(kept), dtype=code_dtype(len(kept) + 1, n))
    number[kept] = np.arange(len(kept))
    row = np.empty(space, dtype=code_dtype(n, space))
    for first in range(0, n, TAKE_ROWS):
        row[key[first : first + TAKE_ROWS]] = np.arange(first, min(first + TAKE_ROWS, n))
    first = row[kept]
    return AggregatedEventTable(
        date=cols.date[first],
        time=cols.time[first],
        loc=cols.loc[first],
        locs=cols.locs,
        type=cols.type[first],
        types=cols.types,
        support=support,
        event=take(number, key),
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
    ``table.report_columns``).  The events come as an AggregatedEventTable
    of columns; its ``event`` and ``source`` columns name each event's
    reporters.  Rejected records (missing fields) are counted, not
    fatal.  Events with fewer than ``min_support`` supporting reports are
    dropped after counting.  The grouping is one counting pass over the
    packed keys in this process, with no sort below the key-space bound.
    """
    if min_support < 1:
        raise PsSimError(f"min_support must be >= 1, got {min_support}")
    cols, rejected = report_columns(reports, default_loc, use_occurred)
    return AggregateResult(events=_group(cols, min_support), rejected=rejected)
