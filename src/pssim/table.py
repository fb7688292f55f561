"""Columnar events and reports: each table is a frozen set of columns.

An EventTable holds one entry per event, a ReportTable one entry per trace
report, a CanonicalTable one entry per ingested report and an
AggregatedEventTable one entry per group of reports.  Dates are
proleptic ordinals (``date.toordinal()``), time bins are indices into
TEMPORAL_BINS, and string fields are integer codes into vocabularies kept
beside the columns.  The day label is never stored: it is always the weekday
of the date.

A table is its columns and vocabularies and nothing more: no stage builds a
per-row object.  Every stage takes a table: ``report_columns`` gives each
counting stage a CanonicalTable, as it is or projected from a ReportTable.
The tables compare by identity, as numpy columns have no single truth value.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .types import DEFAULT_LOC, TEMPORAL_BINS


TAKE_ROWS = 1 << 16  # codes per call of take() and mark()

#: A counting stage counts over a code space of at most this many times
#: (rows + 256) values in one int64 array, at most 32 bytes per row plus
#: 8 KiB; a wider space is renumbered or sorted instead.
DENSE_CELLS_PER_ROW = 4


def column_dtype(dtype, length: int) -> np.dtype:
    """``dtype`` for a column of ``length`` entries, or int64 below 1024.

    numpy keeps freed blocks under 1 KiB in a cache per exact size, so many
    short compact columns of varying lengths grow the process while saving
    next to nothing.
    """
    return np.dtype(np.int64 if length < 1024 else dtype)


def code_dtype(size: int, length: int) -> np.dtype:
    """Integer type for a column of ``length`` codes in 0..size-1: the
    smallest unsigned type that holds them (see column_dtype)."""
    return column_dtype(np.min_scalar_type(max(size - 1, 0)), length)


def take(values: np.ndarray, index: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``values[index]``, into ``out`` when given, TAKE_ROWS entries at a
    time.  numpy casts an index to intp before it gathers, so one gather by
    a whole column of narrow codes holds 8 bytes per entry beside them."""
    if out is None:
        out = np.empty(len(index), dtype=values.dtype)
    for first in range(0, len(index), TAKE_ROWS):
        np.take(values, index[first : first + TAKE_ROWS], out=out[first : first + TAKE_ROWS])
    return out


def mark(seen: np.ndarray, codes: np.ndarray) -> None:
    """Set ``seen[codes]`` to True, TAKE_ROWS codes at a time, as numpy
    casts an index to intp here too."""
    for first in range(0, len(codes), TAKE_ROWS):
        seen[codes[first : first + TAKE_ROWS]] = True


def distinct_dates(ordinals: np.ndarray) -> tuple[list[dt.date], np.ndarray]:
    """The distinct dates of an ordinal column in ascending order, and each
    entry's index among them in code_dtype.

    Both are found TAKE_ROWS entries at a time, so that beside the codes
    only one block's temporaries are held.  Not np.unique: its first call
    imports numpy.ma, about 0.5 MiB, which shows in the peak memory of short
    runs.
    """
    blocks = [slice(first, first + TAKE_ROWS) for first in range(0, len(ordinals), TAKE_ROWS)]
    distinct = ordinals[:0]
    for block in blocks:
        ordered = np.sort(np.concatenate([distinct, ordinals[block]]))
        distinct = ordered[np.insert(ordered[1:] != ordered[:-1], 0, True)]
    codes = np.empty(len(ordinals), dtype=code_dtype(len(distinct), len(ordinals)))
    for block in blocks:
        codes[block] = np.searchsorted(distinct, ordinals[block])
    return list(map(dt.date.fromordinal, distinct.tolist())), codes


@dataclass(frozen=True, eq=False)
class EventTable:
    """Events as columns."""

    event_no: np.ndarray  # EventNo
    date: np.ndarray  # date ordinal
    time: np.ndarray  # TemporalBin index
    type: np.ndarray  # code into ``types``
    types: tuple[str, ...]
    loc: np.ndarray  # code into ``locs``
    locs: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.event_no)


@dataclass(frozen=True, eq=False)
class ReportTable:
    """Trace reports as columns.

    ``event_no``/``date``/``time`` hold one entry per event slot and
    ``event`` points each report at its slot, so the (EventNo, Date, Day,
    Time) prefix of a row is stored once per event.  Reported and occurred
    types share the ``types`` vocabulary, so equal codes mean equal types.
    """

    event_no: np.ndarray  # per slot: EventNo
    date: np.ndarray  # per slot: date ordinal
    time: np.ndarray  # per slot: TemporalBin index
    event: np.ndarray  # per report: slot index
    report_no: np.ndarray
    source: np.ndarray  # code into ``sources``
    sources: tuple[str, ...]
    reported: np.ndarray  # code into ``types``
    occurred: np.ndarray  # code into ``types``
    types: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.event)

    @classmethod
    def from_codes(
        cls,
        slots: dict[tuple[int, int, int], int],
        event,
        report_no,
        source,
        sources: dict[str, int],
        reported,
        occurred,
        types: dict[str, int],
    ) -> "ReportTable":
        """Build a table from code columns and first-seen vocabularies.

        ``slots`` maps (EventNo, date ordinal, time-bin index) to the slot
        index the ``event`` column uses.
        """
        event_no, date, time = np.asarray(list(slots), dtype=np.int64).reshape(-1, 3).T.copy()
        n = len(event)
        type_dtype = code_dtype(len(types), n)
        return cls(
            event_no=event_no,
            date=date,
            time=time,
            event=np.asarray(event).astype(code_dtype(len(slots), n), copy=False),
            report_no=np.asarray(report_no, dtype=np.int64),
            source=np.asarray(source).astype(code_dtype(len(sources), n), copy=False),
            sources=tuple(sources),
            reported=np.asarray(reported).astype(type_dtype, copy=False),
            occurred=np.asarray(occurred).astype(type_dtype, copy=False),
            types=tuple(types),
        )


@dataclass(frozen=True, eq=False)
class CanonicalTable:
    """Ingested reports as columns.

    Every column has one entry per report.  ``report_columns`` gives a
    ReportTable in this form too.
    """

    date: np.ndarray  # date ordinal
    time: np.ndarray  # TemporalBin index
    source: np.ndarray  # code into ``sources``
    sources: tuple[str, ...]
    loc: np.ndarray  # code into ``locs``
    locs: tuple[str, ...]
    type: np.ndarray  # code into ``types``
    types: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.date)

    def take(self, rows) -> "CanonicalTable":
        """The reports an index array or boolean mask selects, in its order.

        The vocabularies are shared, so they may hold strings no selected
        report uses.
        """
        return dataclasses.replace(
            self,
            date=self.date[rows],
            time=self.time[rows],
            source=self.source[rows],
            loc=self.loc[rows],
            type=self.type[rows],
        )

    @classmethod
    def from_codes(
        cls, date, time, source, sources, loc, locs, type_, types
    ) -> "CanonicalTable":
        """Build a table from code columns and first-seen vocabularies."""
        n = len(date)
        return cls(
            date=np.asarray(date, dtype=np.int64),
            time=np.asarray(time).astype(code_dtype(len(TEMPORAL_BINS), n), copy=False),
            source=np.asarray(source).astype(code_dtype(len(sources), n), copy=False),
            sources=tuple(sources),
            loc=np.asarray(loc).astype(code_dtype(len(locs), n), copy=False),
            locs=tuple(locs),
            type=np.asarray(type_).astype(code_dtype(len(types), n), copy=False),
            types=tuple(types),
        )


@dataclass(frozen=True, eq=False)
class AggregatedEventTable:
    """Aggregated events as columns.

    Each event has the key codes its reports share and its support count.
    ``event`` and ``source`` have one entry per grouped report: the index
    of its event (``len(self)`` when its event was dropped) and its source
    code: an event's reporters are the sources of its reports.
    """

    date: np.ndarray  # per event: date ordinal
    time: np.ndarray  # per event: TemporalBin index
    loc: np.ndarray  # per event: code into ``locs``
    locs: tuple[str, ...]
    type: np.ndarray  # per event: code into ``types``
    types: tuple[str, ...]
    support: np.ndarray  # per event: report count
    event: np.ndarray  # per report: event index
    source: np.ndarray  # per report: code into ``sources``
    sources: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.support)


def report_columns(
    reports, default_loc: str = DEFAULT_LOC, use_occurred: bool = False
) -> tuple[CanonicalTable, int]:
    """The reports as key columns, and the number rejected for a missing field.

    A CanonicalTable is returned as it is.  A ReportTable is projected
    column by column: trace reports carry no location, so every report
    gets ``default_loc``, and the type is the reported one (the occurred one
    with ``use_occurred``); reports whose type is empty are rejected.  Any
    other input raises TypeError.
    """
    if isinstance(reports, CanonicalTable):
        return reports, 0
    if isinstance(reports, ReportTable):
        return _trace_columns(reports, default_loc, use_occurred)
    raise TypeError(
        f"reports must be a CanonicalTable or a ReportTable, not {type(reports).__name__}"
    )


def _trace_columns(
    table: ReportTable, default_loc: str, use_occurred: bool
) -> tuple[CanonicalTable, int]:
    codes = table.occurred if use_occurred else table.reported
    event, source = table.event, table.source
    rejected = 0
    blank = [code for code, name in enumerate(table.types) if not name]
    if blank:  # an empty type is a missing key field
        keep = ~np.isin(codes, blank)
        rejected = len(codes) - int(np.count_nonzero(keep))
        codes, event, source = codes[keep], event[keep], source[keep]
    columns = CanonicalTable(
        # any date ordinal fits in int32
        date=take(table.date.astype(column_dtype(np.int32, len(codes))), event),
        time=take(table.time.astype(code_dtype(len(TEMPORAL_BINS), len(codes))), event),
        source=source,
        sources=table.sources,
        loc=np.zeros(len(codes), dtype=code_dtype(1, len(codes))),
        locs=(default_loc,),
        type=codes,
        types=table.types,
    )
    return columns, rejected
