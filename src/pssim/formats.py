"""File formats: raw/canonical report CSVs, trace CSVs, model files, and the
derived CSV outputs (events, validation, bench, plot data).

All CSVs are comma-delimited UTF-8 with a header row and LF line endings.
Trace files use the eight-column report schema with ISO dates on output;
day-first DD/MM/YYYY dates are accepted on ingest only.

The three report readers find columns by header name.  A file of at least
BYTE_PATH_MIN_BYTES with no quote, NUL or lone CR byte takes the byte path:
blocks of BLOCK_BYTES whole lines are split at LF (CRLF too) and at commas
with numpy, and equal field texts are grouped by sorting their bytes as
8-byte words, so each distinct text reaches Python once per file (raw
timestamps, which seldom repeat, once per block).  Any other file is read
row by row with csv.reader.  Both paths run the same checks and return the
same tables and reject counts.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import json
import operator
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .aggregation import AggregatedEvent
from .distributions import Pmf
from .errors import PsSimError
from .table import CanonicalTable, ReportTable, dates_of, report_columns
from .types import (
    TEMPORAL_BINS,
    DayBin,
    IngestedReport,
    Report,
    TemporalBin,
    weekday_of,
)

MODEL_SCHEMA_VERSION = 1

RAW_FIELDS = ("timestamp", "sourceId", "loc", "incidentType")
CANONICAL_HEADER = ("date", "day", "time", "sourceId", "loc", "incidentType")
TRACE_HEADER = (
    "EventNo",
    "Date",
    "Day",
    "Time",
    "ReportNo",
    "SourceId",
    "EventReported",
    "EventOccurred",
)
EVENTS_HEADER = ("date", "dayTime", "loc", "incidentType", "supportCount")
VALIDATION_HEADER = ("fold", "axis", "correlation", "rmse", "realN", "simN")
BENCH_HEADER = ("n", "m", "seconds")
PLOT_HEADER = ("plot", "series", "x", "y")


@dataclass
class ModelFile:
    """Fitted model parameters plus fitting metadata; schema-versioned."""

    mlog: float
    sdlog: float
    lambda_overall: float
    lambda_by_loc: dict[str, float]
    pmf_day: Pmf
    pmf_time: Pmf
    pmf_ev_type: Pmf
    meta: dict


def parse_timestamp(text: str) -> dt.datetime:
    """Parse an ISO-8601 timestamp, normalized to UTC.

    A trailing Z is accepted; timestamps without an offset are treated as
    already being UTC.
    """
    t = text.strip()
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    stamp = dt.datetime.fromisoformat(t)
    if stamp.tzinfo is None:
        return stamp.replace(tzinfo=dt.timezone.utc)
    return stamp.astimezone(dt.timezone.utc)


def parse_date(text: str) -> dt.date:
    """Accept ISO YYYY-MM-DD or the day-first DD/MM/YYYY trace style."""
    t = text.strip()
    try:
        return dt.date.fromisoformat(t)
    except ValueError:
        pass
    try:
        return dt.datetime.strptime(t, "%d/%m/%Y").date()
    except ValueError:
        raise PsSimError(f"unparseable date {t!r}") from None


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


CHUNK_ROWS = 1 << 14  # rows per chunk of the writers and of the csv.reader path
BLOCK_BYTES = 1 << 19  # bytes per block of the byte path, cut after an LF
BYTE_PATH_MIN_BYTES = 1 << 16  # smaller files are read by csv.reader
_MALFORMED = -1
_MISMATCH = -2
_BAD_DATE = -1
_BAD_TIME = -2
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # EventNo and ReportNo are int64
_MAX_KEY_WORDS = 16  # longer keys are looked up by text
_PAD = bytes(8 * _MAX_KEY_WORDS)  # lets every key word be read past a block's end
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row (quoted only if needed)."""
    if not text:
        return ""  # a lone empty field would be written as ""
    buf = io.StringIO()
    _writer(buf).writerow((text,))
    return buf.getvalue()[:-1]


def _intern(raw: str, vocab: dict[str, int]) -> int:
    """Code of a stripped string field, or _MALFORMED when it is blank."""
    text = raw.strip()
    return vocab.setdefault(text, len(vocab)) if text else _MALFORMED


def _int64(text: str) -> int | None:
    """``int(text)`` when it parses and fits in int64, else None."""
    try:
        number = int(text)
    except ValueError:
        return None
    return number if _INT64_MIN <= number <= _INT64_MAX else None


def _header_columns(path: Path, reader, required: Sequence[str]) -> dict[str, int]:
    """Column index of every header name (the last duplicate wins); raises
    PsSimError when the file is empty or a required column is absent."""
    header = next(reader, None)
    if header is None:
        raise PsSimError(f"{path}: missing header row")
    missing = [c for c in required if c not in header]
    if missing:
        raise PsSimError(f"{path}: header lacks required columns {missing}")
    return {name: i for i, name in enumerate(header)}


def read_header(path: Path) -> list[str]:
    """The column names of a CSV's header row, parsed by csv.reader as the
    readers parse it; raises PsSimError when the file is empty."""
    with open(path, newline="", encoding="utf-8") as handle:
        return list(_header_columns(path, csv.reader(handle), ()))


def _chunks(reader):
    """The data rows as iterators of up to CHUNK_ROWS rows each; a
    chunk must be used up before the next one is taken."""
    while True:
        first_line = reader.line_num
        yield itertools.islice(reader, CHUNK_ROWS)
        if reader.line_num == first_line:
            return


class _Lookup:
    """Resolves the distinct texts of some columns to ints, each text once.

    ``resolve`` takes a row's text (a string for one column, a tuple for
    several) and is called in the order rows first use a text.  It may be
    called again for a text it has seen, and must then give the same value.
    Resolved texts are kept, by key words for the byte path and by text
    otherwise, unless ``remember`` is false (for columns whose texts seldom
    repeat).
    """

    def __init__(self, names: Sequence[str], resolve, remember: bool = True):
        self.names, self.resolve, self.remember = tuple(names), resolve, remember
        self.by_text: dict = {}
        self.words: list[list[np.ndarray]] = [[] for _ in self.names]  # per column
        self.values = np.zeros(0, dtype=np.int64)  # per known key

    def of(self, text) -> int:
        """The value of one text."""
        value = self.by_text.get(text)
        if value is None:
            value = self.resolve(text)
            if self.remember:
                self.by_text[text] = value
        return value


def _groups(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Group rows with equal key words: a group number per row, and the
    first row of each group.

    The sort is on one mixed word, and groups are cut wherever any word
    changes, so a group never holds two keys; keys whose mixed words
    collide may split into several groups.
    """
    mixed = keys[0]
    for word in keys[1:]:
        mixed = mixed * _MIX + word
    order = np.argsort(mixed)
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for word in keys:
        word = word[order]
        new[1:] |= word[1:] != word[:-1]
    groups = np.empty(len(order), dtype=np.intp)
    groups[order] = np.cumsum(new) - 1
    return groups, np.minimum.reduceat(order, np.flatnonzero(new))


class _ByteBlock:
    """The rows of a block of whole lines from a file with no quote, NUL or
    lone CR, split at LF (after dropping a CR before it) and at every
    comma, as csv.reader splits such a file.  Blank lines are no rows, and
    fields past a row's end are empty.

    A field's key is its bytes read as little-endian 8-byte words, zero past
    its end; with no NUL in the file, equal keys mean equal texts.
    """

    def __init__(self, buf: np.ndarray, size: int, col: dict[str, int]):
        """The whole lines in ``buf[:size]``; ``self.size`` is their length.
        Bytes past ``size`` are read but never used, and ``buf`` holds at
        least len(_PAD) of them."""
        ends = np.flatnonzero(buf[:size] == 10)
        self.size = size = int(ends[-1]) + 1 if len(ends) else 0
        if buf[:size].max(initial=0) > 127:
            buf[:size].tobytes().decode("utf-8")  # malformed UTF-8 raises, as when read as text
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1] + 1
        ends -= (ends > starts) & (buf[ends - 1] == 13)
        rows = ends > starts
        self.starts, self.ends = starts[rows], ends[rows]
        commas = np.flatnonzero(buf[:size] == 44)
        self.first = np.searchsorted(commas, self.starts)  # a row's first comma
        self.count = np.searchsorted(commas, self.ends) - self.first
        self.commas = np.append(commas, size)
        self.buf, self.col = buf, col
        self.words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
        limit = csv.field_size_limit()
        for row in np.flatnonzero(self.ends - self.starts > limit).tolist():
            line = self._text(self.starts[row], self.ends[row])
            if max(map(len, line.split(","))) > limit:
                raise csv.Error(f"field larger than field limit ({limit})")

    def __len__(self) -> int:
        return len(self.starts)

    def _bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Start and end offset of one column's field in every row."""
        j, last = self.col[name], len(self.commas) - 1
        starts, ends = self.starts, self.ends
        if j:
            after = self.commas[np.minimum(self.first + j - 1, last)] + 1
            starts = np.where(j <= self.count, after, ends)
        return starts, np.where(j < self.count, self.commas[np.minimum(self.first + j, last)], ends)

    def _text(self, start: int, end: int) -> str:
        return self.buf[start:end].tobytes().decode()

    def _texts(self, bounds, rows) -> list:
        texts = []
        for starts, ends in bounds:
            starts, ends = starts[rows], ends[rows]
            if not len(starts):
                texts.append([])
                continue
            base = int(starts.min())
            data = self.buf[base : int(ends.max())].tobytes()
            starts, ends = (starts - base).tolist(), (ends - base).tolist()
            texts.append([data[s:e].decode() for s, e in zip(starts, ends)])
        return texts[0] if len(bounds) == 1 else list(zip(*texts))

    def values(self, lookup: _Lookup, keep: np.ndarray | None = None) -> np.ndarray:
        """``lookup``'s value of every row's text; rows outside ``keep`` get
        _MALFORMED and resolve nothing.  The rows are grouped together with
        the keys the lookup knows, so only new texts reach Python."""
        bounds = [self._bounds(name) for name in lookup.names]
        lengths = [ends - starts for starts, ends in bounds]
        sizes = [  # key words per column
            max(-(-int(length.max()) // 8), len(old)) for length, old in zip(lengths, lookup.words)
        ]
        known, n = len(lookup.values), len(self)
        rows = np.arange(n) if keep is None else np.flatnonzero(keep)
        if sum(sizes) > _MAX_KEY_WORDS:
            value = np.full(n, _MALFORMED, dtype=np.int64)
            value[rows] = [lookup.of(text) for text in self._texts(bounds, rows)]
            return value
        columns = []  # per column: its key words, known keys first
        for (starts, _), length, size, old in zip(bounds, lengths, sizes, lookup.words):
            old = old + [np.zeros(known, dtype=np.uint64)] * (size - len(old))
            new = [
                self.words[starts + at] & _LOW_BYTES[np.clip(length - at, 0, 8)]
                for at in range(0, 8 * size, 8)
            ]
            columns.append([np.concatenate(pair) for pair in zip(old, new)])
        keys = [word for column in columns for word in column]
        groups, first = _groups(keys or [np.zeros(known + n, dtype=np.uint64)])
        value = np.full(len(first), _MALFORMED, dtype=np.int64)
        old = first < known
        value[old] = lookup.values[first[old]]
        groups = groups[known:]
        first_kept = np.full(len(first), n)
        np.minimum.at(first_kept, groups[rows], rows)
        at = np.sort(first_kept[~old & (first_kept < n)])  # rows that first use a new text
        value[groups[at]] = [lookup.resolve(text) for text in self._texts(bounds, at)]
        if lookup.remember:
            lookup.words = [[np.concatenate((w[:known], w[known + at])) for w in c] for c in columns]
            lookup.values = np.concatenate((lookup.values, value[groups[at]]))
        return value[groups]

    def integers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``int()`` of one column's field in every row, as int64 values and
        a mask of the rows where it parsed and fits in int64.  Fields of 1-18
        ASCII digits are parsed here; ``int()`` decides every other one."""
        starts, ends = self._bounds(name)
        length = ends - starts
        ok = (length > 0) & (length <= 18)
        value = np.zeros(len(self), dtype=np.int64)
        for at in range(int(length.max(initial=0, where=ok))):
            inside = at < length
            digit = self.buf[starts + at] - np.uint8(48)
            ok &= ~inside | (digit < 10)
            value = np.where(inside, value * 10 + digit, value)
        for i in np.flatnonzero(~ok).tolist():
            number = _int64(self._text(starts[i], ends[i]))
            if number is not None:
                value[i], ok[i] = number, True
        return value, ok


def _byte_path(path: Path) -> bool:
    """Whether a CSV is read by the byte path: it is at least
    BYTE_PATH_MIN_BYTES long (below that csv.reader's row loop is faster)
    and holds no quote, NUL or lone CR, so the byte path splits it as
    csv.reader would."""
    if os.path.getsize(path) < BYTE_PATH_MIN_BYTES:
        return False
    with open(path, "rb") as handle:
        while block := handle.read(BLOCK_BYTES):
            if block.endswith(b"\r"):
                block += handle.read(1)
            if b'"' in block or b"\0" in block:
                return False
            if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
                return False
    return True


def _blocks(path: Path, required: Sequence[str]):
    """The data rows of a CSV as _ByteBlocks.  Raises PsSimError when a
    required column is absent."""
    with open(path, "rb") as handle:
        header = handle.readline()
        col = _header_columns(path, csv.reader([header.decode("utf-8")] if header else []), required)
        rest = b""  # the start of a line that the last block cut
        while True:
            buf = np.empty(len(rest) + BLOCK_BYTES + len(_PAD), dtype=np.uint8)
            buf[: len(rest)] = np.frombuffer(rest, dtype=np.uint8)
            read = handle.readinto(memoryview(buf)[len(rest) : len(rest) + BLOCK_BYTES])
            size = len(rest) + read
            if not read:
                if not rest:
                    return
                buf[size] = 10  # the last line has no LF
                size += 1
            block = _ByteBlock(buf, size, col)
            rest = buf[block.size : size].tobytes()
            if len(block):
                yield block


def _narrow(codes: np.ndarray, size: int) -> np.ndarray:
    """Codes below ``size`` in the smallest unsigned type that holds them."""
    return codes.astype(np.min_scalar_type(max(size - 1, 0)))


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _report_rows(path, required, cell: _Lookup, string_columns, vocabs):
    """The csv.reader loop of _read_reports: one row at a time."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        col = _header_columns(path, reader, required)
        width = max(col.values()) + 1
        cell_text_of = operator.itemgetter(*(col[c] for c in cell.names))
        strings_of = operator.itemgetter(*(col[c] for c in string_columns))

        sources, locs, types = vocabs
        seen_sources: dict[str, int] = {}  # field text -> code
        seen_locs: dict[str, int] = {}
        seen_types: dict[str, int] = {}
        bad_cells: dict[int, int] = {}
        blank = [0, 0, 0]
        columns: list[list[np.ndarray]] = [[], [], [], [], []]
        for chunk in _chunks(reader):
            cells, codes = [], []
            for row in chunk:
                if len(row) < width:
                    if not row:
                        continue  # blank line
                    row += [""] * (width - len(row))
                cell_code = cell.of(cell_text_of(row))
                if cell_code < 0:
                    bad_cells[cell_code] = bad_cells.get(cell_code, 0) + 1
                    continue
                src, loc, typ = strings_of(row)
                s = seen_sources.get(src)
                if s is None:
                    s = seen_sources[src] = _intern(src, sources)
                lc = seen_locs.get(loc)
                if lc is None:
                    lc = seen_locs[loc] = _intern(loc, locs)
                t = seen_types.get(typ)
                if t is None:
                    t = seen_types[typ] = _intern(typ, types)
                if s < 0 or lc < 0 or t < 0:
                    blank[(s, lc, t).index(_MALFORMED)] += 1
                    continue
                cells.append(cell_code)
                codes.append((s, lc, t))
            cells = np.asarray(cells, dtype=np.int64)
            columns[0].append(cells >> 3)
            columns[1].append(cells & 7)
            for column, code in zip(columns[2:], np.asarray(codes, dtype=np.int64).reshape(-1, 3).T):
                column.append(code)
    return columns, bad_cells, blank


def _report_blocks(path, required, cell: _Lookup, string_columns, vocabs):
    """The byte path of _read_reports: one block at a time."""
    strings = [
        _Lookup((name,), functools.partial(_intern, vocab=vocab))
        for name, vocab in zip(string_columns, vocabs)
    ]
    bad_cells: dict[int, int] = {}
    blank = [0, 0, 0]
    columns: list[list[np.ndarray]] = [[], [], [], [], []]
    for block in _blocks(path, required):
        cells = block.values(cell)
        keep = cells >= 0
        for code, count in zip(*np.unique(cells[~keep], return_counts=True)):
            bad_cells[int(code)] = bad_cells.get(int(code), 0) + int(count)
        codes = [block.values(lookup, keep) for lookup in strings]
        for i, code in enumerate(codes):
            missing = keep & (code < 0)
            blank[i] += int(np.count_nonzero(missing))
            keep &= ~missing
        cells = cells[keep]
        columns[0].append(cells >> 3)
        columns[1].append((cells & 7).astype(np.uint8))
        for column, code, vocab in zip(columns[2:], codes, vocabs):
            column.append(_narrow(code[keep], len(vocab)))
    return columns, bad_cells, blank


def _read_reports(
    path: Path, required: Sequence[str], cell: _Lookup, string_columns: Sequence[str]
) -> tuple[CanonicalTable, dict[int, int], list[int]]:
    """Read a report CSV into a CanonicalTable.

    ``cell`` maps a row's date and time text to its cell code, date
    ordinal * 8 + time-bin index, or to a negative reject code.  The
    ``string_columns`` are sourceId, loc and incidentType; they are
    stripped, and each distinct text is checked once.  Returns the table,
    the rows rejected per negative cell code and, per string column, the
    rows rejected because it is the first blank one.
    """
    vocabs: tuple[dict[str, int], ...] = ({}, {}, {})  # sources, locs, types
    read = _report_blocks if _byte_path(path) else _report_rows
    columns, bad_cells, blank = read(path, required, cell, string_columns, vocabs)
    date, time, source, loc, type_ = (_joined(c) for c in columns)
    sources, locs, types = vocabs
    table = CanonicalTable.from_codes(date, time, source, sources, loc, locs, type_, types)
    return table, bad_cells, blank


def _stamp_cell(text: str) -> int:
    """Cell code of a raw timestamp, or _BAD_DATE."""
    try:
        stamp = parse_timestamp(text)
    except (ValueError, OverflowError):  # unparseable, or out of range in UTC
        return _BAD_DATE
    return stamp.toordinal() * 8 + (stamp.hour - 3) % 24 // 3


def read_raw_reports(
    path: Path, column_map: Mapping[str, str] | None = None
) -> tuple[CanonicalTable, dict[str, int]]:
    """Read a raw report CSV into a CanonicalTable.

    Malformed rows are counted per reason, never silently dropped.  Columns
    are found by header name, through ``column_map`` for renamed ones.
    Raises PsSimError if the header lacks a mapped column.
    """
    colmap = {f: f for f in RAW_FIELDS}
    if column_map:
        colmap.update(column_map)
    columns = [colmap[f] for f in RAW_FIELDS]
    # timestamps seldom repeat, so they are checked once per block
    stamps = _Lookup(columns[:1], _stamp_cell, remember=False)
    table, bad_cells, blank = _read_reports(path, columns, stamps, columns[1:])
    rejects = {}
    if bad_cells:
        rejects["bad timestamp"] = bad_cells[_BAD_DATE]
    for field, count in zip(RAW_FIELDS[1:], blank):
        if count:
            rejects[f"missing {field}"] = count
    return table, rejects


def write_canonical(reports: Iterable[IngestedReport], path: Path) -> None:
    """Write the canonical dataset schema with ISO dates.

    ``reports`` is a CanonicalTable or any iterable of IngestedReport rows;
    the bytes equal csv.writer's output row by row.  The day column is the
    weekday of the date.
    """
    table, rejected = report_columns(reports)
    if rejected:
        raise PsSimError(f"{rejected} reports lack a canonical field")
    cells, cell_of = np.unique(table.date * 8 + table.time, return_inverse=True)
    prefixes = [
        f"{date.isoformat()},{weekday_of(date).label},{TEMPORAL_BINS[t].label},"
        for date, t in zip(dates_of(cells >> 3), (cells & 7).tolist())
    ]
    sources, locs, types = (
        [_csv_field(s) for s in vocab] for vocab in (table.sources, table.locs, table.types)
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(CANONICAL_HEADER) + "\n")
        for start in range(0, len(table), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            handle.write(
                "".join(
                    [
                        f"{prefixes[c]}{sources[s]},{locs[loc]},{types[k]}\n"
                        for c, s, loc, k in zip(
                            cell_of[rows].tolist(),
                            table.source[rows].tolist(),
                            table.loc[rows].tolist(),
                            table.type[rows].tolist(),
                        )
                    ]
                )
            )


def _canonical_cell(date_text: str, time_text: str) -> int:
    """Cell code of a (date, time) text, or _BAD_DATE / _BAD_TIME; the date
    is checked first."""
    try:
        date = parse_date(date_text)
    except PsSimError:
        return _BAD_DATE
    try:
        time = TemporalBin.from_label(time_text.strip())
    except PsSimError:
        return _BAD_TIME
    return date.toordinal() * 8 + time.index


def read_canonical(path: Path) -> tuple[CanonicalTable, dict[str, int]]:
    """Read a canonical dataset CSV into a CanonicalTable.

    Columns are found by header name.  The day column is recomputed from
    the date, so the day==weekday(date) invariant always holds.  Each
    distinct (date, time) text and string field is checked once.
    """
    cells = _Lookup(("date", "time"), lambda texts: _canonical_cell(*texts))
    table, bad_cells, blank = _read_reports(path, CANONICAL_HEADER, cells, CANONICAL_HEADER[3:])
    counts = (
        ("bad date", bad_cells.get(_BAD_DATE, 0)),
        ("bad time bin", bad_cells.get(_BAD_TIME, 0)),
        ("missing field", sum(blank)),
    )
    return table, {reason: count for reason, count in counts if count}


def write_trace(reports: Iterable[Report], path: Path) -> None:
    """Write the eight-column trace schema with ISO dates.

    ``reports`` is a ReportTable or any iterable of Report rows; the bytes
    equal csv.writer's output row by row.  The Day column is the weekday of
    the date.
    """
    table = reports if isinstance(reports, ReportTable) else ReportTable.from_rows(reports)
    prefixes = [
        f"{no},{date.isoformat()},{weekday_of(date).label},{TEMPORAL_BINS[t].label},"
        for no, date, t in zip(
            table.event_no.tolist(), dates_of(table.date), table.time.tolist()
        )
    ]
    sources = [_csv_field(s) for s in table.sources]
    types = [_csv_field(t) for t in table.types]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(TRACE_HEADER) + "\n")
        for start in range(0, len(table), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            handle.write(
                "".join(
                    [
                        f"{prefixes[e]}{n},{sources[s]},{types[r]},{types[o]}\n"
                        for e, n, s, r, o in zip(
                            table.event[rows].tolist(),
                            table.report_no[rows].tolist(),
                            table.source[rows].tolist(),
                            table.reported[rows].tolist(),
                            table.occurred[rows].tolist(),
                        )
                    ]
                )
            )


def _trace_slot(prefix: tuple[str, str, str, str], slots: dict) -> int:
    """Check one distinct (EventNo, Date, Day, Time) text and return its
    slot index, or _MALFORMED / _MISMATCH.

    The checks run in the order every trace row has always been checked in:
    date and time bin, then the stated day against the date's weekday, then
    the EventNo.
    """
    event_no, date_text, day_text, time_text = prefix
    try:
        date = parse_date(date_text)
        time = TemporalBin.from_label(time_text.strip())
        stated = day_text.strip()
        if stated and DayBin.from_label(stated) is not weekday_of(date):
            return _MISMATCH
        number = int(event_no)
    except (PsSimError, ValueError):
        return _MALFORMED
    if not _INT64_MIN <= number <= _INT64_MAX:
        return _MALFORMED
    return slots.setdefault((number, date.toordinal(), time.index), len(slots))


def _trace_rows(path, slots, sources, types):
    """The csv.reader loop of read_trace: one row at a time."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        col = _header_columns(path, reader, TRACE_HEADER)
        prefix_of = operator.itemgetter(*(col[c] for c in TRACE_HEADER[:4]))
        rest_of = operator.itemgetter(*(col[c] for c in TRACE_HEADER[4:]))

        status: dict[tuple, int] = {}  # prefix text -> slot or reject
        seen_sources: dict[str, int] = {}  # field text -> code
        seen_types: dict[str, int] = {}
        columns: list[list[np.ndarray]] = [[], [], [], [], []]
        malformed = mismatched = 0
        width = max(col.values()) + 1
        for chunk in _chunks(reader):
            event, report_no, source, reported, occurred = [], [], [], [], []
            for row in chunk:
                if len(row) < width:
                    if not row:
                        continue  # blank line
                    row += [""] * (width - len(row))
                prefix = prefix_of(row)
                slot = status.get(prefix)
                if slot is None:
                    slot = status[prefix] = _trace_slot(prefix, slots)
                if slot < 0:
                    if slot == _MISMATCH:
                        mismatched += 1
                    else:
                        malformed += 1
                    continue
                number, src, rep, occ = rest_of(row)
                s = seen_sources.get(src)
                if s is None:
                    s = seen_sources[src] = _intern(src, sources)
                r = seen_types.get(rep)
                if r is None:
                    r = seen_types[rep] = _intern(rep, types)
                o = seen_types.get(occ)
                if o is None:
                    o = seen_types[occ] = _intern(occ, types)
                if s < 0 or r < 0 or o < 0:
                    malformed += 1
                    continue
                n = _int64(number)
                if n is None:
                    malformed += 1
                    continue
                report_no.append(n)
                event.append(slot)
                source.append(s)
                reported.append(r)
                occurred.append(o)
            for column, values in zip(
                columns, (event, report_no, source, reported, occurred)
            ):
                column.append(np.asarray(values, dtype=np.int64))
    return columns, malformed, mismatched


def _trace_blocks(path, slots, sources, types):
    """The byte path of read_trace: one block at a time."""
    prefixes = _Lookup(TRACE_HEADER[:4], functools.partial(_trace_slot, slots=slots))
    source_codes = _Lookup(("SourceId",), functools.partial(_intern, vocab=sources))
    pairs: list[tuple[int, int]] = []  # type codes of each distinct pair

    def pair_of(texts: tuple[str, str]) -> int:
        # reported then occurred, as a row-by-row reading interns them
        pairs.append((_intern(texts[0], types), _intern(texts[1], types)))
        return len(pairs) - 1

    pair_codes = _Lookup(("EventReported", "EventOccurred"), pair_of)
    columns: list[list[np.ndarray]] = [[], [], [], [], []]
    malformed = mismatched = 0
    for block in _blocks(path, TRACE_HEADER):
        slot = block.values(prefixes)
        mismatched += int(np.count_nonzero(slot == _MISMATCH))
        malformed += int(np.count_nonzero(slot == _MALFORMED))
        keep = slot >= 0
        source = block.values(source_codes, keep)[keep]
        pair = block.values(pair_codes, keep)[keep]
        pair = np.array(pairs, dtype=np.int64).reshape(-1, 2)[pair]
        number, number_ok = block.integers("ReportNo")
        ok = (source >= 0) & (pair >= 0).all(axis=1) & number_ok[keep]
        malformed += int(np.count_nonzero(~ok))
        rows = np.flatnonzero(keep)[ok]
        columns[0].append(_narrow(slot[rows], len(slots)))
        columns[1].append(number[rows])
        columns[2].append(_narrow(source[ok], len(sources)))
        columns[3].append(_narrow(pair[ok, 0], len(types)))
        columns[4].append(_narrow(pair[ok, 1], len(types)))
    return columns, malformed, mismatched


def read_trace(path: Path) -> tuple[ReportTable, dict[str, int]]:
    """Read a trace CSV into a ReportTable.

    Dates may be ISO or DD/MM/YYYY; the day label is recomputed from the
    date, and rows whose stated day disagrees are rejected with a counter.
    Columns are found by header name.  Each distinct (EventNo, Date, Day,
    Time) text and string field is checked once.
    """
    slots: dict[tuple[int, int, int], int] = {}
    sources: dict[str, int] = {}
    types: dict[str, int] = {}  # reported and occurred types share it
    read = _trace_blocks if _byte_path(path) else _trace_rows
    columns, malformed, mismatched = read(path, slots, sources, types)
    rejects = {}
    if malformed:
        rejects["malformed row"] = malformed
    if mismatched:
        rejects["day/date mismatch"] = mismatched
    event, report_no, source, reported, occurred = (_joined(c) for c in columns)
    table = ReportTable.from_codes(
        slots, event, report_no, source, sources, reported, occurred, types
    )
    return table, rejects


def _pmf_to_json(pmf: Pmf) -> dict:
    labels = [s.label if hasattr(s, "label") else s for s in pmf.support]
    return {"support": labels, "probs": list(pmf.probs)}


def _pmf_from_json(
    payload: dict, label_kind: str
) -> Pmf:
    support: list = payload["support"]
    if label_kind == "day":
        support = [DayBin.from_label(s) for s in support]
    elif label_kind == "time":
        support = [TemporalBin.from_label(s) for s in support]
    return Pmf(tuple(support), tuple(float(p) for p in payload["probs"]))


def model_to_json(model: ModelFile) -> str:
    payload = {
        "version": MODEL_SCHEMA_VERSION,
        "participation": {"mlog": model.mlog, "sdlog": model.sdlog},
        "lambda_e": {
            "overall": model.lambda_overall,
            "by_location": model.lambda_by_loc,
        },
        "pmf_day": _pmf_to_json(model.pmf_day),
        "pmf_time": _pmf_to_json(model.pmf_time),
        "pmf_event_type": _pmf_to_json(model.pmf_ev_type),
        "meta": model.meta,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_model(model: ModelFile, path: Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: Path) -> ModelFile:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PsSimError(f"{path}: not a valid model file ({exc})") from None
    version = payload.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise PsSimError(
            f"{path}: unsupported model schema version {version!r} "
            f"(expected {MODEL_SCHEMA_VERSION})"
        )
    try:
        return ModelFile(
            mlog=float(payload["participation"]["mlog"]),
            sdlog=float(payload["participation"]["sdlog"]),
            lambda_overall=float(payload["lambda_e"]["overall"]),
            lambda_by_loc={
                k: float(v) for k, v in payload["lambda_e"]["by_location"].items()
            },
            pmf_day=_pmf_from_json(payload["pmf_day"], "day"),
            pmf_time=_pmf_from_json(payload["pmf_time"], "time"),
            pmf_ev_type=_pmf_from_json(payload["pmf_event_type"], "label"),
            meta=payload["meta"],
        )
    except KeyError as exc:
        raise PsSimError(f"{path}: model file lacks field {exc}") from None


def _ingest_meta_path(dataset_path: Path) -> Path:
    return Path(str(dataset_path) + ".meta.json")


def write_ingest_meta(dataset_path: Path, meta: dict) -> None:
    """Persist ingestion provenance (window, outlier threshold, reject
    summary) next to the canonical dataset."""
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    _ingest_meta_path(dataset_path).write_text(text, encoding="utf-8")


def read_ingest_meta(dataset_path: Path) -> dict | None:
    """Load the ingestion sidecar if present; None when absent or unreadable."""
    path = _ingest_meta_path(dataset_path)
    if not path.is_file():
        return None
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return meta if isinstance(meta, dict) else None


def write_events_csv(events: Iterable[AggregatedEvent], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = _writer(handle)
        w.writerow(EVENTS_HEADER)
        for ev in events:
            w.writerow(
                (
                    ev.key.date.isoformat(),
                    ev.key.day_time.label,
                    ev.key.loc,
                    ev.key.incident_type,
                    ev.support_count,
                )
            )


def write_validation_csv(reports, path: Path) -> None:
    from .validation import AXES  # local import to keep formats a leaf module

    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = _writer(handle)
        w.writerow(VALIDATION_HEADER)
        for rep in reports:
            for axis in AXES:
                res = rep.axis(axis)
                w.writerow(
                    (rep.fold, axis, res.correlation, res.rmse, res.real_n, res.sim_n)
                )


def write_bench_csv(rows: Iterable[tuple[int, int, float]], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = _writer(handle)
        w.writerow(BENCH_HEADER)
        for n, m, seconds in rows:
            w.writerow((n, m, seconds))


def write_plot_data(rows: Iterable[Sequence], path: Path) -> None:
    """Tidy long-format plot data: (plot, series, x, y) per row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = _writer(handle)
        w.writerow(PLOT_HEADER)
        for row in rows:
            w.writerow(row)
