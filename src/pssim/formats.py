"""File formats: raw/canonical report CSVs, trace CSVs, model files, and the
derived CSV outputs (events, validation, bench, plot data).

All CSVs are comma-delimited UTF-8 with a header row and LF line endings.
Trace files use the eight-column report schema with ISO dates on output;
day-first DD/MM/YYYY dates are accepted on ingest only.

The three report readers find columns by header name, and each runs one
loop over blocks of rows that _read takes from one of three sources:

* the sidecar ``<path>.cols`` that write_trace and write_canonical leave
  next to a regular file of at least BYTE_PATH_MIN_BYTES: the writer's
  code and value columns as raw arrays after a JSON line with the CSV's
  SHA-256 (see _write_sidecar).  It is read when that hash matches and it
  checks whole (_Sidecar), in _CodedBlocks; each distinct text its rows
  use is parsed with csv.reader.
* the bytes of a file of at least BYTE_PATH_MIN_BYTES with no NUL or lone
  CR byte, and no quote after its header line, in _ByteBlocks: blocks of
  BLOCK_BYTES whole lines are split at LF (CRLF too) and at commas with
  numpy, and equal field texts are grouped by sorting their bytes as
  8-byte words, so each distinct text reaches Python once per file.  Raw
  timestamps seldom repeat, so they are not grouped: those of the shape
  YYYY-MM-DDTHH:MM:SS followed by Z or +-HH:MM are parsed in numpy, and
  only the others reach parse_timestamp, one row at a time.
* csv.reader's rows for any other file, in _RowBlocks of CHUNK_ROWS rows.

All three offer the same values, integers and stamp_cells, so a file gives
the same table and reject counts whichever source reads it.

Each reader fills its per-row columns block by block (_Column), codes in
the smallest unsigned type of their vocabulary so far: from a sidecar,
which gives the row count first, into arrays of their final length; from
the other two sources, into one part per block, joined a column at a time
at the end.  Reading the 485,533 rows of the benchmark's trace_pipeline
trace, read_trace retains 16.6 bytes per row, 14 of them columns and the
rest vocabularies, and peaks at 28.4 bytes per row from the sidecar and
29.1 on the byte path (tracemalloc).

The trace, canonical and events CSVs are written by one byte writer,
_write_csv.  A row is a run of parts: a code into a vocabulary of field
texts, each quoted once by csv.writer with the comma or LF after it, or an
int64 column rendered as decimal in numpy.  Codes may reach their texts
through an index, applied a chunk of rows at a time, so that write_trace
gives a text only to the event slots that have reports.  Each vocabulary
becomes a slab, a byte matrix with one text per row padded with 0xFF, a
byte UTF-8 never holds (see _slabs).  A chunk of CHUNK_ROWS rows takes its
codes' slab rows and its decimals, padded the same way, side by side into
one matrix, and is written with one call less its 0xFF bytes, so the
temporaries are those of one chunk.  The bytes equal csv.writer's output
row by row, except that a field holding a CR is quoted too, so that
csv.reader reads every row back whole (see _csv_fields).

Every output but the sidecar, which is moved into place, is opened by
_overwrite: without O_TRUNC, written over from its start and cut to length
on close.  On ext4, emptying an existing file at open frees its blocks
(slow where discard is on) and makes its close start writeback
(auto_da_alloc); writing in place avoids both.  A run killed mid-write
leaves a damaged file: the new bytes, then the old file's tail when the
old file was longer.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import functools
import hashlib
import itertools
import json
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import Pmf
from .errors import PsSimError
from .table import (
    AggregatedEventTable,
    CanonicalTable,
    ReportTable,
    code_dtype,
    column_dtype,
    mark,
    take,
)
from .types import (
    DAY_BINS,
    TEMPORAL_BINS,
    DayBin,
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


# the timestamps parse_timestamp accepts; every [0-9] is one ASCII digit
_TIMESTAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
    r"(?:[Tt ]([0-9]{2})(?::([0-9]{2})(?::([0-9]{2})(?:\.([0-9]{6}|[0-9]{3}))?)?)?"
    r"(?:[Zz]|([+-])([0-9]{2}):([0-9]{2})(?::([0-9]{2})(?:\.([0-9]{6}))?)?)?)?"
)


def parse_timestamp(text: str) -> dt.datetime:
    """Parse an ISO-8601 timestamp, normalized to UTC.

    After surrounding whitespace is stripped, the text must be, in ASCII
    digits, ``YYYY-MM-DD``, optionally followed by ``T``, ``t`` or a space
    and a time ``HH``, ``HH:MM``, ``HH:MM:SS``, ``HH:MM:SS.fff`` or
    ``HH:MM:SS.ffffff``, which may be followed by ``Z``, ``z``, ``±HH:MM``,
    ``±HH:MM:SS`` or ``±HH:MM:SS.ffffff``.  The date and time must exist
    and an offset must be under 24 hours with minutes and seconds under 60;
    timestamps without one are taken as UTC.  Python 3.10 and 3.11 both
    accept every such text in ``datetime.fromisoformat`` (with Z read as
    +00:00) and give it the same instant.  Raises ValueError otherwise, and
    OverflowError when the instant in UTC is outside datetime's range.
    """
    match = _TIMESTAMP.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not an ISO-8601 timestamp: {text!r}")
    year, month, day, hour, minute, second, fraction, sign, *offset = match.groups()
    numbers = [int(part or 0) for part in (year, month, day, hour, minute, second)]
    stamp = dt.datetime(*numbers, int((fraction or "0").ljust(6, "0")), tzinfo=dt.timezone.utc)
    if sign is None:
        return stamp
    hours, minutes, seconds, micros = (int(part or 0) for part in offset)
    if minutes > 59 or seconds > 59:
        raise ValueError(f"offset out of range: {text!r}")
    delta = dt.timedelta(hours=hours, minutes=minutes, seconds=seconds, microseconds=micros)
    zone = dt.timezone(-delta if sign == "-" else delta)  # ValueError from 24 hours on
    return stamp.replace(tzinfo=zone).astimezone(dt.timezone.utc)


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


@contextlib.contextmanager
def _overwrite(path: Path, mode: str = "wb"):
    """Open ``path`` to be written over from its start, creating it as
    ``open(path, "w")`` does, binary or as UTF-8 text with no newline
    translation.  On exit, after an exception too, a regular file is cut
    at the position reached, so it holds only the new bytes."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        handle = open(fd, mode) if "b" in mode else open(fd, mode, newline="", encoding="utf-8")
    except BaseException:
        os.close(fd)
        raise
    with handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()


CHUNK_ROWS = 1 << 12  # rows per chunk of the writer and per block of the sidecar and csv.reader
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
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)  # 10 .. 10**19
_FILL = b"\xff"  # pads the writer's texts; UTF-8 never holds this byte
_SLAB_WIDTHS = 64 << np.arange(56)  # the widest text of each class of writer slabs
_CHUNK_BYTES = 1 << 20  # the most bytes of a writer chunk, when its rows are wide
_TIME_FIELDS = tuple(f"{b.label}," for b in TEMPORAL_BINS)
_WEEKDAY_LABELS = tuple(DAY_BINS[(i + 1) % 7].label for i in range(7))  # by date.weekday()
# the timestamp shape that _ByteBlock.stamp_cells parses; 0 stands for any digit
_STAMP = np.frombuffer(b"0000-00-00T00:00:00+00:00", dtype=np.uint8)
_STAMP_DIGITS = np.flatnonzero(_STAMP == ord("0"))
_STAMP_MARKS = np.flatnonzero(np.isin(_STAMP, list(b"-T:")))  # the sign is checked apart
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])  # 1-based
_DAYS_BEFORE_MONTH = np.cumsum(_DAYS_IN_MONTH) - _DAYS_IN_MONTH
SIDECAR_VERSION = 1
_CODE_DTYPES = ("|u1", "<u2", "<u4", "<u8")  # of a sidecar's code columns; decimals are "<i8"
_SIDECAR_START = b'{"sha256": "'  # then the sidecar's own SHA-256, 64 hex digits
_HASH_BYTES = 1 << 20  # bytes per read while a sidecar is checked
_UNKNOWN = np.iinfo(np.int64).min  # the value of a key no text was resolved for yet
_DENSE_KEYS = 1 << 24  # lookups over more code combinations group each block's keys


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each text as a field inside a row: quoted where csv.writer quotes it
    (which differs between Python versions), and also where it holds a CR,
    which csv.reader reads as a line end when it is not quoted."""
    rows: list[str] = []
    # csv.writer writes each row with one call and quotes the characters of
    # its line end; the empty second field keeps an empty text unquoted,
    # where a lone empty field would be written as ""
    csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n").writerows(
        (text, "") for text in texts
    )
    return [row[: -len(",\r\n")] for row in rows]


class _Texts(NamedTuple):
    """A part of every row: ``texts[code]`` for the row's code, or
    ``texts[index[code]]`` given an ``index``.  The texts are CSV fields,
    quoted as needed, with the comma or LF after them."""

    texts: Sequence[str]
    codes: np.ndarray
    index: np.ndarray | None = None

    def positions(self, rows: slice) -> np.ndarray:
        """The position in ``texts`` of the text of each row in ``rows``;
        the writers take them a chunk of rows at a time."""
        codes = self.codes[rows]
        return codes if self.index is None else take(self.index, codes)


class _Decimal(NamedTuple):
    """A part of every row: the row's int64 value in decimal, then ``end``."""

    values: np.ndarray
    end: bytes


def _slabs(texts: Sequence[str]) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The texts of a _Texts part as byte slabs: (texts x width) uint8
    matrices, one text per row padded with _FILL, each with the slab row of
    every code, or None when that row is the code itself.

    Texts of up to _SLAB_WIDTHS[0] bytes share one slab, and longer ones
    go to one slab per power-of-two width, so a slab holds at most that
    many bytes per text or twice its texts' bytes.  A slab that lacks some
    texts ends in an all-_FILL row, the row of their codes.
    """
    encoded = [text.encode() for text in texts]
    lengths = list(map(len, encoded))
    width = max(lengths, default=0)
    if width <= _SLAB_WIDTHS[0]:  # the usual case: one slab
        return [(_slab(encoded, width), None)]
    lengths = np.array(lengths)
    width_class = np.searchsorted(_SLAB_WIDTHS, lengths)
    slabs = []
    for k in np.flatnonzero(np.bincount(width_class)).tolist():
        at = np.flatnonzero(width_class == k)
        row = np.full(len(encoded), len(at), dtype=np.intp)
        row[at] = np.arange(len(at))
        chosen = [encoded[i] for i in at.tolist()] + [b""]
        slabs.append((_slab(chosen, int(lengths[at].max())), row))
    return slabs


def _slab(encoded: list[bytes], width: int) -> np.ndarray:
    """The texts as rows of a byte matrix ``width`` wide, each padded with _FILL."""
    slab = b"".join([text.ljust(width, _FILL) for text in encoded])
    return np.frombuffer(slab, dtype=np.uint8).reshape(len(encoded), width)


def _decimal(values: np.ndarray, end: bytes) -> np.ndarray:
    """The decimal text of each value followed by ``end``, right-aligned in
    one row of a byte matrix each, with _FILL before it."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # |INT64_MIN| fits in uint64
    length = np.searchsorted(_POWERS_OF_TEN, magnitude, side="right") + 1  # digits
    digits = int(length.max())
    text = np.empty((len(values), 1 + digits + len(end)), dtype=np.uint8)  # sign, digits, end
    text[:, 0] = ord(_FILL)
    text[:, 1 + digits :] = np.frombuffer(end, dtype=np.uint8)
    ten, zero, fill = np.uint64(10), np.uint64(ord("0")), np.uint64(ord(_FILL))
    for column in range(digits, 0, -1):
        rest = magnitude // ten
        digit = magnitude - rest * ten
        digit += zero
        if column < digits:  # nothing is left of a number's digits; 0 has one
            np.copyto(digit, fill, where=magnitude == 0)
        text[:, column] = digit
        magnitude = rest
    text[negative, digits - length[negative]] = ord("-")
    return text


def _write_csv(
    path: Path, header: Sequence[str], rows: int, parts: Sequence, sidecar: bool = False
) -> None:
    """Write a CSV header, then ``rows`` rows, each the texts of ``parts``
    (_Texts or _Decimal) run together.  With ``sidecar``, a regular file of
    at least BYTE_PATH_MIN_BYTES also gets a sidecar (see _write_sidecar).
    """
    with _overwrite(path) as handle:
        line = ",".join(header).encode() + b"\n"
        handle.write(line)
        digest = None  # of the CSV, when it may get a sidecar
        if sidecar and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            digest = hashlib.sha256(line)
        _write_chunks(handle, rows, parts, digest)
        size = handle.tell()
    if digest is not None and rows and size >= BYTE_PATH_MIN_BYTES:
        _write_sidecar(path, header, rows, parts, digest.hexdigest())


def _write_chunks(handle, rows: int, parts: Sequence, digest) -> None:
    """Write the rows of ``parts`` to ``handle``, and into ``digest`` when
    it is not None.

    Each chunk of CHUNK_ROWS rows, fewer when its rows are wide, is one
    byte matrix: the slab rows of its _Texts codes and its _Decimal texts,
    side by side.  It is written with one call, less its _FILL bytes.  The
    temporaries are those of one chunk and the slabs, and all are gone
    when this returns.
    """
    slabs = [_slabs(part.texts) if isinstance(part, _Texts) else None for part in parts]
    width = sum(  # of a row, at most
        len(part.end) + 20 if of is None else sum(slab.shape[1] for slab, _ in of)
        for part, of in zip(parts, slabs)
    )
    step = max(1, min(CHUNK_ROWS, _CHUNK_BYTES // max(width, 1)))
    for first in range(0, rows, step):
        chunk = slice(first, first + step)
        columns = []
        for part, of in zip(parts, slabs):
            if of is None:
                columns.append(_decimal(part.values[chunk], part.end))
                continue
            codes = part.positions(chunk)
            for slab, row in of:
                columns.append(slab.take(codes if row is None else row.take(codes), axis=0))
        data = np.concatenate(columns, axis=1).tobytes().translate(None, _FILL)
        handle.write(data)
        if digest is not None:
            digest.update(data)


def _sidecar_path(path: Path) -> str:
    return os.fspath(path) + ".cols"


def _write_sidecar(path: Path, header: Sequence[str], rows: int, parts: Sequence, csv_sha256: str):
    """Write ``<path>.cols``: one JSON line, then the code and value columns
    of ``parts`` as _write_csv wrote them to ``path``, part after part.

    The JSON holds SIDECAR_VERSION, the SHA-256 of the CSV, the row count,
    the header and, per part, the dtype of its column and its texts, or
    ``"decimal": true``.  Its first key, "sha256", is the SHA-256 of the
    whole sidecar read with those 64 digits as zeros.  The sidecar is
    written to a temporary file and moved into place; when that fails the
    CSV stands alone.
    """
    target = _sidecar_path(path)
    temporary = f"{target}.{os.getpid()}.tmp"
    described = [
        {
            "dtype": next(d for d in _CODE_DTYPES if np.iinfo(d).max >= len(part.texts) - 1),
            "texts": list(part.texts),
        }
        if isinstance(part, _Texts)
        else {"dtype": "<i8", "decimal": True}
        for part in parts
    ]
    head = {
        "sha256": "0" * 64,
        "version": SIDECAR_VERSION,
        "csv_sha256": csv_sha256,
        "rows": rows,
        "header": list(header),
        "parts": described,
    }
    line = json.dumps(head).encode() + b"\n"
    digest = hashlib.sha256(line)
    try:
        with open(temporary, "wb") as handle:
            handle.write(line)
            for part, about in zip(parts, described):
                dtype = np.dtype(about["dtype"])
                step = _HASH_BYTES // dtype.itemsize
                for first in range(0, rows, step):
                    chunk = slice(first, first + step)
                    chunk = part.positions(chunk) if isinstance(part, _Texts) else part.values[chunk]
                    chunk = np.ascontiguousarray(chunk, dtype=dtype)
                    digest.update(chunk)
                    handle.write(chunk)
            handle.seek(len(_SIDECAR_START))
            handle.write(digest.hexdigest().encode())
        os.replace(temporary, target)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temporary)


def _distinct_dates(ordinals: np.ndarray) -> tuple[list[dt.date], np.ndarray]:
    """The distinct dates of an ordinal column in ascending order, and the
    index of each row's date among them.  Not np.unique: its first call
    imports numpy.ma, about 0.5 MiB, which shows in the peak memory of short
    runs."""
    order = np.argsort(ordinals)
    ordered = ordinals[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    index = np.empty(len(ordinals), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return list(map(dt.date.fromordinal, ordered[new].tolist())), index


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
        out = np.full(n, _MALFORMED, dtype=np.int64)
        out[rows] = value[groups[rows]]
        return out

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

    def stamp_cells(self, name: str) -> np.ndarray:
        """``_stamp_cell`` of one column's field in every row.  Fields of the
        shape YYYY-MM-DDTHH:MM:SS followed by Z or ±HH:MM, with a valid
        date and time, a year in 2..9998 (so no offset moves the instant out
        of datetime's range) and an offset under 24 hours, are parsed here;
        ``_stamp_cell`` decides every other one."""
        starts, ends = self._bounds(name)
        length = ends - starts
        cell = np.full(len(self), _BAD_DATE, dtype=np.int64)
        rows = np.flatnonzero((length == 20) | (length == 25))
        windows = np.lib.stride_tricks.sliding_window_view(self.buf, len(_STAMP))
        text = windows[starts[rows]]  # the pad covers a short last field
        zulu, sign = length[rows] == 20, text[:, 19]
        ok = np.where(zulu, sign == 90, (sign == 43) | (sign == 45))  # Z, or + or -
        text[zulu, 19:] = np.frombuffer(b"+00:00", dtype=np.uint8)  # Z reads as +00:00
        ok &= (text[:, _STAMP_MARKS] == _STAMP[_STAMP_MARKS]).all(axis=1)
        digit = text[:, _STAMP_DIGITS] - np.uint8(48)
        ok &= (digit < 10).all(axis=1)
        pairs = digit[:, ::2].astype(np.int64) * 10 + digit[:, 1::2]  # two-digit numbers
        century, year, month, day, hour, minute, second, offset_hour, offset_minute = (
            np.ascontiguousarray(pairs.T)
        )
        year += century * 100
        leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
        good_month = (month >= 1) & (month <= 12)
        month = np.where(good_month, month, 1)
        ok &= good_month & (year >= 2) & (year <= 9998)
        ok &= (day >= 1) & (day <= _DAYS_IN_MONTH[month] + (leap & (month == 2)))
        ok &= (hour < 24) & (minute < 60) & (second < 60)
        ok &= (offset_hour < 24) & (offset_minute < 60)
        before = year - 1  # date.toordinal(): days since 0001-01-01, plus one
        ordinal = before * 365 + before // 4 - before // 100 + before // 400
        ordinal += _DAYS_BEFORE_MONTH[month] + (leap & (month > 2)) + day
        offset = (offset_hour * 60 + offset_minute) * np.where(text[:, 19] == 45, -1, 1)
        minutes = ordinal * 1440 + hour * 60 + minute - offset  # in UTC
        cell[rows[ok]] = (minutes // 1440 * 8 + (minutes % 1440 // 60 - 3) % 24 // 3)[ok]
        rest = np.ones(len(self), dtype=bool)
        rest[rows[ok]] = False
        rest = np.flatnonzero(rest)
        cell[rest] = [_stamp_cell(text) for text in self._texts([(starts, ends)], rest)]
        return cell


def _byte_path(path: Path) -> bool:
    """Whether a CSV is read by the byte path: it is at least
    BYTE_PATH_MIN_BYTES long (below that csv.reader's rows are faster)
    and holds no NUL or lone CR, and no quote after its header line, so the
    byte path splits it as csv.reader would.  _blocks parses the header
    line with csv.reader, so it may hold quotes that close on it."""
    if os.path.getsize(path) < BYTE_PATH_MIN_BYTES:
        return False
    with open(path, "rb") as handle:
        block = handle.readline()
        if b'"' in block:
            names = next(csv.reader([block.decode("utf-8", "replace")]))
            if any("\n" in name for name in names):
                return False  # a quoted name runs past the header line
            block = block.replace(b'"', b"")
        while block:
            if block.endswith(b"\r"):
                block += handle.read(1)
            if b'"' in block or b"\0" in block:
                return False
            if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
                return False
            block = handle.read(BLOCK_BYTES)
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


def _sha256(path: Path) -> str:
    """The SHA-256 of a file, read in blocks of _HASH_BYTES."""
    digest = hashlib.sha256()
    buffer = bytearray(_HASH_BYTES)
    with open(path, "rb") as handle:
        while read := handle.readinto(buffer):
            digest.update(memoryview(buffer)[:read])
    return digest.hexdigest()


class _Sidecar:
    """The sidecar of a CSV that _write_sidecar wrote, checked whole and
    open for reading its columns.

    Before any row is read, the check covers the version and the JSON
    layout, the CSV's SHA-256, the sidecar's length and its own SHA-256,
    and that every code points into its part's texts.  Each text the rows
    use is then parsed with csv.reader, as the CSV path parses it inside a
    row, which gives the part and field of every column.  Raises ValueError
    (or KeyError, TypeError or AttributeError, from a malformed JSON line)
    when a check fails, OSError when the CSV cannot be read, and csv.Error
    as the CSV path does for a field over the limit.
    """

    def __init__(self, path: Path, handle):
        self.path, self.handle = path, handle
        line = handle.readline()
        head = json.loads(line)
        if not line.startswith(_SIDECAR_START) or head["version"] != SIDECAR_VERSION:
            raise ValueError("not a sidecar of this version")
        self.rows, self.header, parts = head["rows"], head["header"], head["parts"]
        texts = [None if part.get("decimal") is True else part["texts"] for part in parts]
        if not (
            type(self.rows) is int
            and self.rows > 0
            and all(isinstance(name, str) for name in self.header)
            and all(
                part["dtype"] in (("<i8",) if part_texts is None else _CODE_DTYPES)
                for part, part_texts in zip(parts, texts)
            )
        ):
            raise ValueError("malformed sidecar header")
        self.dtypes = [np.dtype(part["dtype"]) for part in parts]
        widths = [dtype.itemsize * self.rows for dtype in self.dtypes]
        self.starts = list(itertools.accumulate(widths[:-1], initial=len(line)))
        if os.fstat(handle.fileno()).st_size != len(line) + sum(widths):
            raise ValueError("sidecar length")
        # first, so that _check raises csv.Error, as the CSV path does, only
        # for the sidecar of this CSV
        if _sha256(path) != head["csv_sha256"]:
            raise ValueError("the CSV changed")
        self._check(handle, line, head, texts)
        self.known: dict[_Lookup, np.ndarray] = {}  # per lookup: value by key

    def _check(self, handle, line: bytes, head: dict, texts: list) -> None:
        """Check the sidecar's own SHA-256 and codes, and parse the texts
        the rows use into self.fields and self.place."""
        digest = hashlib.sha256(_SIDECAR_START + b"0" * 64 + line[len(_SIDECAR_START) + 64 :])
        used = [None if part is None else np.zeros(len(part), dtype=bool) for part in texts]
        for part, dtype, seen in zip(texts, self.dtypes, used):
            step = _HASH_BYTES // dtype.itemsize
            for first in range(0, self.rows, step):
                column = np.empty(min(step, self.rows - first), dtype=dtype)
                handle.readinto(column)
                digest.update(column)
                if part is not None:
                    if int(column.max()) >= len(part):
                        raise ValueError("code out of range")
                    mark(seen, column)
        if digest.hexdigest() != head["sha256"]:
            raise ValueError("sidecar hash")
        if csv.field_size_limit() < 20:  # a decimal field could pass it
            raise ValueError("field size limit below a decimal's width")
        self.fields = []  # per part: by row code, the fields of its text when used
        self.place = []  # per column: its part and field
        for j, (part, seen) in enumerate(zip(texts, used)):
            codes = [] if seen is None else np.flatnonzero(seen).tolist()
            chosen = [part[code] for code in codes]
            # a text with a CR is left to the CSV: files written before a CR
            # was quoted hold it bare, and csv.reader ends a row there
            if not all(
                isinstance(text, str) and text[-1:] in (",", "\n") and "\r" not in text
                for text in chosen
            ):
                raise ValueError("texts are not whole fields")
            # csv.reader reads an empty line as no field, where a row has one
            fields = [f or [""] for f in csv.reader(text[:-1] for text in chosen)]
            width = len(fields[0]) if fields else 1
            if len(fields) != len(chosen) or any(len(f) != width for f in fields):
                raise ValueError("texts are not whole fields")
            by_code = None if seen is None else [None] * len(part)
            for code, field in zip(codes, fields):
                by_code[code] = tuple(field)
            self.fields.append(by_code)
            self.place += [(j, k) for k in range(width)]
        if len(self.place) != len(self.header):
            raise ValueError("parts do not cover the header")

    @classmethod
    def open(cls, path: Path) -> "_Sidecar | None":
        """The valid sidecar of a CSV of at least BYTE_PATH_MIN_BYTES, or
        None; smaller files are never looked up."""
        if os.path.getsize(path) < BYTE_PATH_MIN_BYTES:
            return None
        try:
            handle = open(_sidecar_path(path), "rb")
        except OSError:
            return None
        try:
            return cls(path, handle)
        except (ValueError, KeyError, TypeError, AttributeError, OSError):
            handle.close()
            return None
        except BaseException:
            handle.close()
            raise

    def __enter__(self) -> "_Sidecar":
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()

    def blocks(self, required: Sequence[str]):
        """The rows as _CodedBlocks of CHUNK_ROWS rows.  Raises PsSimError
        when a required column is absent, as the CSV path does."""
        col = _header_columns(self.path, iter([self.header]), required)
        for first in range(0, self.rows, CHUNK_ROWS):
            columns = []
            for start, dtype in zip(self.starts, self.dtypes):
                column = np.empty(min(CHUNK_ROWS, self.rows - first), dtype=dtype)
                self.handle.seek(start + first * dtype.itemsize)
                if self.handle.readinto(column) != column.nbytes:
                    raise PsSimError(f"{_sidecar_path(self.path)}: cut short while read")
                columns.append(column)
            yield _CodedBlock(self, columns, col)


class _CodedBlock:
    """Rows of a CSV read from its sidecar: per part, each row's code into
    the part's texts, or its int64 value for a decimal part.  It has
    _ByteBlock's interface and gives the same values, the texts being the
    fields csv.reader reads from the CSV."""

    def __init__(self, sidecar: _Sidecar, columns: list[np.ndarray], col: dict[str, int]):
        self.sidecar, self.columns, self.col = sidecar, columns, col

    def __len__(self) -> int:
        return len(self.columns[0])

    def _texts(self, places, rows: np.ndarray) -> list:
        texts = []
        for part, field in places:
            codes, fields = self.columns[part][rows].tolist(), self.sidecar.fields[part]
            texts.append(list(map(str, codes)) if fields is None else [fields[c][field] for c in codes])
        return texts[0] if len(places) == 1 else list(zip(*texts))

    def values(self, lookup: _Lookup, keep: np.ndarray | None = None) -> np.ndarray:
        """``lookup``'s value of every row's text; rows outside ``keep`` get
        _MALFORMED and resolve nothing.  Rows are keyed by the codes of the
        parts that hold the lookup's columns, and each new key's text goes
        to ``lookup.of`` once, in the order the kept rows first use it."""
        n = len(self)
        rows = np.arange(n) if keep is None else np.flatnonzero(keep)
        places = [self.sidecar.place[self.col[name]] for name in lookup.names]
        parts = sorted({part for part, _ in places})
        sizes = [0 if self.sidecar.fields[j] is None else len(self.sidecar.fields[j]) for j in parts]
        store = self.sidecar.known.get(lookup)
        if 0 < math.prod(sizes) <= _DENSE_KEYS:  # the codes make one key
            key = np.zeros(n, dtype=np.int64)
            for j, size in zip(parts, sizes):
                key = key * size + self.columns[j]
            if store is None:
                store = np.full(math.prod(sizes), _UNKNOWN, dtype=np.int64)
                if lookup.remember:
                    self.sidecar.known[lookup] = store
        else:  # decimal values, or too many combinations: keys of this block only
            key, first = _groups([self.columns[j].astype(np.uint64) for j in parts])
            store = np.full(len(first), _UNKNOWN, dtype=np.int64)
        kept = key[rows]
        got = store[kept]
        new = got == _UNKNOWN
        if new.any():
            new_rows, new_keys = rows[new], kept[new]
            order = np.argsort(new_keys, kind="stable")
            first_use = np.ones(len(order), dtype=bool)
            first_use[1:] = new_keys[order[1:]] != new_keys[order[:-1]]
            at = np.sort(new_rows[order[first_use]])
            store[key[at]] = [lookup.of(text) for text in self._texts(places, at)]
            got = store[kept]
        value = np.full(n, _MALFORMED, dtype=np.int64)
        value[rows] = got
        return value

    def integers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """One column's int64 values in every row, and a mask that holds
        them all.  The column is a decimal part, as ReportNo, the one
        integer column read, is in every sidecar write_trace writes."""
        column = self.columns[self.sidecar.place[self.col[name]][0]]
        return column.astype(np.int64), np.ones(len(column), dtype=bool)

    def stamp_cells(self, name: str) -> np.ndarray:
        """``_stamp_cell`` of one column's field in every row."""
        return self.values(_Lookup((name,), _stamp_cell, remember=False))


class _RowBlock:
    """Rows that csv.reader read, stored by column: blank lines are no rows,
    and short rows are padded with empty fields to the header's width.  It
    has _ByteBlock's interface and gives the same values."""

    def __init__(self, rows: list[list[str]], col: dict[str, int]):
        width = max(col.values()) + 1
        if min(map(len, rows)) < width:  # a blank line or a short row
            rows = [row + [""] * (width - len(row)) for row in rows if row]
        self.size, self.columns, self.col = len(rows), list(zip(*rows)), col

    def __len__(self) -> int:
        return self.size

    def values(self, lookup: _Lookup, keep: np.ndarray | None = None) -> np.ndarray:
        """``lookup``'s value of every row's text; rows outside ``keep`` get
        _MALFORMED and resolve nothing.  One pass over the rows, which
        resolves each text the lookup does not know, in row order."""
        columns = [self.columns[self.col[name]] for name in lookup.names]
        texts = columns[0] if len(columns) == 1 else zip(*columns)
        # lookup.of's work without a call per text; a lookup that does not
        # remember keeps its texts for this block only
        known = lookup.by_text if lookup.remember else {}
        get, resolve = known.get, lookup.resolve
        value = [
            (got if (got := get(text)) is not None else known.setdefault(text, resolve(text)))
            if kept
            else _MALFORMED
            for text, kept in zip(texts, itertools.repeat(True) if keep is None else keep.tolist())
        ]
        return np.array(value, dtype=np.int64)

    def integers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``int()`` of one column's field in every row, as int64 values and
        a mask of the rows where it parsed and fits in int64."""
        texts = self.columns[self.col[name]]
        try:  # every field parses and fits, as in any file pssim wrote
            return np.array(list(map(int, texts)), dtype=np.int64), np.ones(len(texts), dtype=bool)
        except (ValueError, OverflowError):
            numbers = list(map(_int64, texts))
        ok = np.array([number is not None for number in numbers], dtype=bool)
        return np.array([number or 0 for number in numbers], dtype=np.int64), ok

    def stamp_cells(self, name: str) -> np.ndarray:
        """``_stamp_cell`` of one column's field in every row."""
        return self.values(_Lookup((name,), _stamp_cell, remember=False))


def _row_blocks(path: Path, required: Sequence[str]):
    """The data rows of a CSV that csv.reader reads, as _RowBlocks of the
    rows of up to CHUNK_ROWS lines.  Raises PsSimError when a required
    column is absent."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        col = _header_columns(path, reader, required)
        while rows := list(itertools.islice(reader, CHUNK_ROWS)):
            block = _RowBlock(rows, col)
            if len(block):
                yield block


@contextlib.contextmanager
def _read(path: Path, required: Sequence[str]):
    """The data rows of a CSV as blocks, with their count when it is known
    before they are read, else None: from its sidecar when it has a valid
    one, else from its bytes when _byte_path allows, else from csv.reader's
    rows."""
    sidecar = _Sidecar.open(path)
    if sidecar is not None:
        with sidecar:
            yield sidecar.rows, sidecar.blocks(required)
    elif _byte_path(path):
        yield None, _blocks(path, required)
    else:
        yield None, _row_blocks(path, required)


class _Column:
    """A per-row column of a reader, filled block by block with int64
    values or with codes into a vocabulary that grows as rows are read.

    Codes are held in the smallest unsigned type of the vocabulary so far.
    With the row count known before the first block, the column is one
    array of that length, filled in place and widened over the rows filled
    when the vocabulary outgrows its type; its pages are touched only as
    rows arrive.  Otherwise each block's part is kept and the parts are
    joined once, by ``done``, which drops them.
    """

    def __init__(self, rows: int | None):
        self.rows, self.filled = rows, 0
        self.parts: list[np.ndarray] = []
        self.array: np.ndarray | None = None

    def add(self, values: np.ndarray, size: int | None = None) -> None:
        """Append a block's values, codes below ``size`` or, with no size,
        int64 values."""
        dtype = np.dtype(np.int64) if size is None else np.min_scalar_type(max(size - 1, 0))
        if self.rows is None:
            self.parts.append(values.astype(dtype, copy=False))
            return
        if self.array is None:
            self.array = np.empty(self.rows, dtype=dtype)
        elif dtype.itemsize > self.array.itemsize:
            wider = np.empty(self.rows, dtype=dtype)
            wider[: self.filled] = self.array[: self.filled]
            self.array = wider
        self.array[self.filled : self.filled + len(values)] = values
        self.filled += len(values)

    def done(self) -> np.ndarray:
        """The rows filled as one array, in the type of their last block."""
        if self.rows is None:
            parts, self.parts = self.parts, []
            return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        if self.filled < self.rows:  # rejected rows leave a tail
            return self.array[: self.filled].copy()
        return self.array


def _report_blocks(rows: int | None, blocks, cell: _Lookup, string_columns, vocabs):
    """The block loop of _read_reports, over the blocks _read gives.  Raw
    timestamps are parsed by stamp_cells, not grouped."""
    strings = [
        _Lookup((name,), functools.partial(_intern, vocab=vocab))
        for name, vocab in zip(string_columns, vocabs)
    ]
    bad_cells: dict[int, int] = {}
    blank = [0, 0, 0]
    columns = [_Column(rows) for _ in range(5)]
    for block in blocks:
        if cell.resolve is _stamp_cell:
            cells = block.stamp_cells(cell.names[0])
        else:
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
        columns[0].add(cells >> 3)
        columns[1].add(cells & 7, len(TEMPORAL_BINS))
        for column, code, vocab in zip(columns[2:], codes, vocabs):
            column.add(code[keep], len(vocab))
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
    with _read(path, required) as (rows, blocks):
        columns, bad_cells, blank = _report_blocks(rows, blocks, cell, string_columns, vocabs)
    date, time, source, loc, type_ = (column.done() for column in columns)
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
    # timestamps seldom repeat, so their texts are not kept
    stamps = _Lookup(columns[:1], _stamp_cell, remember=False)
    table, bad_cells, blank = _read_reports(path, columns, stamps, columns[1:])
    rejects = {}
    if bad_cells:
        rejects["bad timestamp"] = bad_cells[_BAD_DATE]
    for field, count in zip(RAW_FIELDS[1:], blank):
        if count:
            rejects[f"missing {field}"] = count
    return table, rejects


def write_canonical(table: CanonicalTable, path: Path) -> None:
    """Write the canonical dataset schema with ISO dates.

    The bytes equal csv.writer's output row by row.  The day column is the
    weekday of the date.  Each distinct date's text is built once.
    """
    dates, date_of = _distinct_dates(table.date)
    days = [f"{date.isoformat()},{_WEEKDAY_LABELS[date.weekday()]}," for date in dates]
    sources, locs = ([f"{field}," for field in _csv_fields(v)] for v in (table.sources, table.locs))
    types = [f"{field}\n" for field in _csv_fields(table.types)]
    _write_csv(
        path,
        CANONICAL_HEADER,
        len(table),
        (
            _Texts(days, date_of),
            _Texts(_TIME_FIELDS, table.time),
            _Texts(sources, table.source),
            _Texts(locs, table.loc),
            _Texts(types, table.type),
        ),
        sidecar=True,
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


def write_trace(table: ReportTable, path: Path) -> None:
    """Write the eight-column trace schema with ISO dates.

    The bytes equal csv.writer's output row by row.  The Day column is the
    weekday of the date.  Only the event slots that have reports get an
    (EventNo, Date, Day, Time) prefix, in slot order, and each distinct
    date's text is built once.
    """
    has_reports = np.zeros(len(table.event_no), dtype=column_dtype(np.bool_, len(table.event_no)))
    mark(has_reports, table.event)
    used = np.flatnonzero(has_reports)
    dates, date_of = _distinct_dates(table.date[used])
    days = [f"{date.isoformat()},{_WEEKDAY_LABELS[date.weekday()]}," for date in dates]
    prefixes = [
        f"{no},{days[d]}{_TIME_FIELDS[t]}"
        for no, d, t in zip(table.event_no[used].tolist(), date_of.tolist(), table.time[used].tolist())
    ]
    prefix_of = np.zeros(len(table.event_no), dtype=code_dtype(len(used), len(table.event_no)))
    prefix_of[used] = np.arange(len(used))
    sources = [f"{field}," for field in _csv_fields(table.sources)]
    types = _csv_fields(table.types)
    _write_csv(
        path,
        TRACE_HEADER,
        len(table),
        (
            _Texts(prefixes, table.event, prefix_of),
            _Decimal(table.report_no, b","),
            _Texts(sources, table.source),
            _Texts([f"{field}," for field in types], table.reported),
            _Texts([f"{field}\n" for field in types], table.occurred),
        ),
        sidecar=True,
    )


def _trace_slots(slots: dict):
    """The check of one distinct (EventNo, Date, Day, Time) text, which
    returns its slot index in ``slots``, or _MALFORMED / _MISMATCH.

    The checks run in the order every trace row has always been checked in:
    date and time bin, then the stated day against the date's weekday, then
    the EventNo.  The returned function parses each distinct Date, Day and
    Time text once.
    """

    @functools.cache
    def date_of(text: str) -> tuple[int, DayBin] | None:
        try:
            date = parse_date(text)
        except PsSimError:
            return None
        return date.toordinal(), weekday_of(date)

    @functools.cache
    def time_of(text: str) -> int | None:
        try:
            return TemporalBin.from_label(text.strip()).index
        except PsSimError:
            return None

    @functools.cache
    def day_of(text: str) -> DayBin | str | None:
        """The stated day, "" when none is stated, None when unknown."""
        stated = text.strip()
        if not stated:
            return ""
        try:
            return DayBin.from_label(stated)
        except PsSimError:
            return None

    def slot_of(prefix: tuple[str, str, str, str]) -> int:
        event_no, date_text, day_text, time_text = prefix
        date, time = date_of(date_text), time_of(time_text)
        if date is None or time is None:
            return _MALFORMED
        day = day_of(day_text)
        if day is None:
            return _MALFORMED
        if day != "" and day is not date[1]:
            return _MISMATCH
        number = _int64(event_no)
        if number is None:
            return _MALFORMED
        return slots.setdefault((number, date[0], time), len(slots))

    return slot_of


def _trace_blocks(rows: int | None, blocks, slots, sources, types):
    """The block loop of read_trace, over the blocks _read gives."""
    prefixes = _Lookup(TRACE_HEADER[:4], _trace_slots(slots))
    source_codes = _Lookup(("SourceId",), functools.partial(_intern, vocab=sources))
    pairs: list[tuple[int, int]] = []  # type codes of each distinct pair

    def pair_of(texts: tuple[str, str]) -> int:
        # reported then occurred, as a row-by-row reading interns them
        pairs.append((_intern(texts[0], types), _intern(texts[1], types)))
        return len(pairs) - 1

    pair_codes = _Lookup(("EventReported", "EventOccurred"), pair_of)
    columns = [_Column(rows) for _ in range(5)]
    malformed = mismatched = 0
    for block in blocks:
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
        taken = np.flatnonzero(keep)[ok]
        columns[0].add(slot[taken], len(slots))
        columns[1].add(number[taken])
        columns[2].add(source[ok], len(sources))
        columns[3].add(pair[ok, 0], len(types))
        columns[4].add(pair[ok, 1], len(types))
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
    with _read(path, TRACE_HEADER) as (rows, blocks):
        columns, malformed, mismatched = _trace_blocks(rows, blocks, slots, sources, types)
    rejects = {}
    if malformed:
        rejects["malformed row"] = malformed
    if mismatched:
        rejects["day/date mismatch"] = mismatched
    event, report_no, source, reported, occurred = (column.done() for column in columns)
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
    with _overwrite(path, "w") as handle:
        handle.write(model_to_json(model))


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
    with _overwrite(_ingest_meta_path(dataset_path), "w") as handle:
        handle.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")


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


def write_events_csv(table: AggregatedEventTable, path: Path) -> None:
    """Write one row per aggregated event, in the table's order.

    The bytes equal csv.writer's output row by row.  Each distinct date's
    text is built once.
    """
    dates, date_of = _distinct_dates(table.date)
    locs = [f"{field}," for field in _csv_fields(table.locs)]
    types = [f"{field}," for field in _csv_fields(table.types)]
    _write_csv(
        path,
        EVENTS_HEADER,
        len(table),
        (
            _Texts([f"{date.isoformat()}," for date in dates], date_of),
            _Texts(_TIME_FIELDS, table.time),
            _Texts(locs, table.loc),
            _Texts(types, table.type),
            _Decimal(table.support, b"\n"),
        ),
    )


def _write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV header and rows with csv.writer."""
    with _overwrite(path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_validation_csv(reports, path: Path) -> None:
    rows = (
        (rep.fold, axis, res.correlation, res.rmse, res.real_n, res.sim_n)
        for rep in reports
        for axis, res in rep.axes.items()
    )
    _write_rows(path, VALIDATION_HEADER, rows)


def write_bench_csv(rows: Iterable[tuple[int, int, float]], path: Path) -> None:
    _write_rows(path, BENCH_HEADER, rows)


def write_plot_data(rows: Iterable[Sequence], path: Path) -> None:
    """Tidy long-format plot data: (plot, series, x, y) per row."""
    _write_rows(path, PLOT_HEADER, rows)
