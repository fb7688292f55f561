"""File formats: raw/canonical report CSVs, trace CSVs, model files, and the
derived CSV outputs (events, validation, bench, plot data).

All CSVs are comma-delimited UTF-8 with a header row and LF line endings.
Trace files use the eight-column report schema with ISO dates on output;
day-first DD/MM/YYYY dates are accepted on ingest only.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import operator
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


CHUNK_ROWS = 1 << 14  # rows per chunk of the streaming readers and writers
_MALFORMED = -1
_MISMATCH = -2
_BAD_DATE = -1
_BAD_TIME = -2
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # EventNo and ReportNo are int64


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row (quoted only if needed)."""
    if not text:
        return ""  # a lone empty field would be written as ""
    buf = io.StringIO()
    _writer(buf).writerow((text,))
    return buf.getvalue()[:-1]


def _intern(raw: str, seen: dict[str, int], vocab: dict[str, int]) -> int:
    """Code of a stripped string field, or _MALFORMED when it is blank."""
    text = raw.strip()
    seen[raw] = code = vocab.setdefault(text, len(vocab)) if text else _MALFORMED
    return code


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


def _chunks(reader):
    """The data rows as iterators of up to CHUNK_ROWS rows each; a
    chunk must be used up before the next one is taken."""
    while True:
        first_line = reader.line_num
        yield itertools.islice(reader, CHUNK_ROWS)
        if reader.line_num == first_line:
            return


def _read_reports(
    path: Path,
    required: Sequence[str],
    cell_columns: Sequence[str],
    string_columns: Sequence[str],
    cell_of,
) -> tuple[CanonicalTable, dict[int, int], list[int]]:
    """Stream a report CSV into a CanonicalTable.

    ``cell_of`` maps the ``cell_columns`` text of a row (one string, or a
    tuple for several columns) to its cell code, date ordinal * 8 +
    time-bin index, or to a negative reject code.  The ``string_columns``
    are sourceId, loc and incidentType; they are stripped, and each
    distinct text is checked once.  Returns the table, the rows rejected
    per negative cell code and, per string column, the rows rejected
    because it is the first blank one.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        col = _header_columns(path, reader, required)
        width = max(col.values()) + 1
        cell_text_of = operator.itemgetter(*(col[c] for c in cell_columns))
        strings_of = operator.itemgetter(*(col[c] for c in string_columns))

        sources: dict[str, int] = {}
        locs: dict[str, int] = {}
        types: dict[str, int] = {}
        seen_sources: dict[str, int] = {}  # field text -> code
        seen_locs: dict[str, int] = {}
        seen_types: dict[str, int] = {}
        bad_cells: dict[int, int] = {}
        blank = [0, 0, 0]
        chunks = []
        for chunk in _chunks(reader):
            cells, codes = [], []
            for row in chunk:
                if len(row) < width:
                    if not row:
                        continue  # blank line
                    row += [""] * (width - len(row))
                cell = cell_of(cell_text_of(row))
                if cell < 0:
                    bad_cells[cell] = bad_cells.get(cell, 0) + 1
                    continue
                src, loc, typ = strings_of(row)
                s = seen_sources.get(src)
                if s is None:
                    s = _intern(src, seen_sources, sources)
                lc = seen_locs.get(loc)
                if lc is None:
                    lc = _intern(loc, seen_locs, locs)
                t = seen_types.get(typ)
                if t is None:
                    t = _intern(typ, seen_types, types)
                if s < 0 or lc < 0 or t < 0:
                    blank[(s, lc, t).index(_MALFORMED)] += 1
                    continue
                cells.append(cell)
                codes.append((s, lc, t))
            chunks.append(
                (np.asarray(cells, dtype=np.int64), np.asarray(codes, dtype=np.int64).reshape(-1, 3))
            )

    cell = np.concatenate([c for c, _ in chunks])
    source, loc, type_ = np.concatenate([k for _, k in chunks]).T
    table = CanonicalTable.from_codes(cell >> 3, cell & 7, source, sources, loc, locs, type_, types)
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
    table, bad_cells, blank = _read_reports(
        path, columns, columns[:1], columns[1:], _stamp_cell
    )
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
    status: dict[tuple[str, str], int] = {}  # (date, time) text -> cell or reject

    def cell_of(texts: tuple[str, str]) -> int:
        cell = status.get(texts)
        if cell is None:
            cell = status[texts] = _canonical_cell(*texts)
        return cell

    table, bad_cells, blank = _read_reports(
        path, CANONICAL_HEADER, ("date", "time"), CANONICAL_HEADER[3:], cell_of
    )
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


def read_trace(path: Path) -> tuple[ReportTable, dict[str, int]]:
    """Read a trace CSV into a ReportTable.

    Dates may be ISO or DD/MM/YYYY; the day label is recomputed from the
    date, and rows whose stated day disagrees are rejected with a counter.
    Columns are found by header name.  Rows are read in chunks of
    CHUNK_ROWS, and each distinct (EventNo, Date, Day, Time) text and
    string field is checked once.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        col = _header_columns(path, reader, TRACE_HEADER)
        prefix_of = operator.itemgetter(*(col[c] for c in TRACE_HEADER[:4]))
        rest_of = operator.itemgetter(*(col[c] for c in TRACE_HEADER[4:]))

        slots: dict[tuple[int, int, int], int] = {}
        status: dict[tuple, int] = {}  # prefix text -> slot or reject
        sources: dict[str, int] = {}
        types: dict[str, int] = {}
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
                    s = _intern(src, seen_sources, sources)
                r = seen_types.get(rep)
                if r is None:
                    r = _intern(rep, seen_types, types)
                o = seen_types.get(occ)
                if o is None:
                    o = _intern(occ, seen_types, types)
                if s < 0 or r < 0 or o < 0:
                    malformed += 1
                    continue
                try:
                    n = int(number)
                except ValueError:
                    malformed += 1
                    continue
                if not _INT64_MIN <= n <= _INT64_MAX:
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

    rejects = {}
    if malformed:
        rejects["malformed row"] = malformed
    if mismatched:
        rejects["day/date mismatch"] = mismatched
    event, report_no, source, reported, occurred = (np.concatenate(c) for c in columns)
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
