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
from .table import ReportTable, dates_of
from .types import (
    TEMPORAL_BINS,
    DayBin,
    Report,
    TemporalBin,
    bin_of_time,
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


@dataclass(frozen=True, slots=True)
class IngestedReport:
    """Canonical form of one real report row after ingestion."""

    date: dt.date
    day: DayBin
    time: TemporalBin
    source_id: str
    loc: str
    incident_type: str


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


def _open_reader(path: Path) -> tuple:
    handle = open(path, newline="", encoding="utf-8")
    return handle, csv.DictReader(handle)


def read_raw_reports(
    path: Path, column_map: Mapping[str, str] | None = None
) -> tuple[list[IngestedReport], dict[str, int]]:
    """Read a raw report CSV; malformed rows are counted per reason, never
    silently dropped.  Raises PsSimError if the header lacks a mapped column.
    """
    colmap = {f: f for f in RAW_FIELDS}
    if column_map:
        colmap.update(column_map)
    handle, reader = _open_reader(path)
    with handle:
        header = reader.fieldnames
        if header is None:
            raise PsSimError(f"{path}: missing header row")
        missing = [colmap[f] for f in RAW_FIELDS if colmap[f] not in header]
        if missing:
            raise PsSimError(f"{path}: header lacks required columns {missing}")

        accepted: list[IngestedReport] = []
        rejects: dict[str, int] = {}

        def reject(reason: str) -> None:
            rejects[reason] = rejects.get(reason, 0) + 1

        for row in reader:
            try:
                stamp = parse_timestamp(row[colmap["timestamp"]] or "")
            except ValueError:
                reject("bad timestamp")
                continue
            source = (row[colmap["sourceId"]] or "").strip()
            loc = (row[colmap["loc"]] or "").strip()
            incident = (row[colmap["incidentType"]] or "").strip()
            if not source:
                reject("missing sourceId")
                continue
            if not loc:
                reject("missing loc")
                continue
            if not incident:
                reject("missing incidentType")
                continue
            date = stamp.date()
            accepted.append(
                IngestedReport(
                    date=date,
                    day=weekday_of(date),
                    time=bin_of_time(stamp.time()),
                    source_id=source,
                    loc=loc,
                    incident_type=incident,
                )
            )
    return accepted, rejects


def _writer(handle):
    return csv.writer(handle, lineterminator="\n")


def write_canonical(reports: Iterable[IngestedReport], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        w = _writer(handle)
        w.writerow(CANONICAL_HEADER)
        for r in reports:
            w.writerow(
                (
                    r.date.isoformat(),
                    r.day.label,
                    r.time.label,
                    r.source_id,
                    r.loc,
                    r.incident_type,
                )
            )


def read_canonical(path: Path) -> tuple[list[IngestedReport], dict[str, int]]:
    """Read a canonical dataset CSV; the day column is recomputed from the
    date so the day==weekday(date) invariant always holds."""
    handle, reader = _open_reader(path)
    with handle:
        if reader.fieldnames is None:
            raise PsSimError(f"{path}: missing header row")
        missing = [c for c in CANONICAL_HEADER if c not in reader.fieldnames]
        if missing:
            raise PsSimError(f"{path}: header lacks required columns {missing}")
        accepted: list[IngestedReport] = []
        rejects: dict[str, int] = {}

        def reject(reason: str) -> None:
            rejects[reason] = rejects.get(reason, 0) + 1

        for row in reader:
            try:
                date = parse_date(row["date"] or "")
            except PsSimError:
                reject("bad date")
                continue
            try:
                time = TemporalBin.from_label((row["time"] or "").strip())
            except PsSimError:
                reject("bad time bin")
                continue
            source = (row["sourceId"] or "").strip()
            loc = (row["loc"] or "").strip()
            incident = (row["incidentType"] or "").strip()
            if not (source and loc and incident):
                reject("missing field")
                continue
            accepted.append(
                IngestedReport(date, weekday_of(date), time, source, loc, incident)
            )
    return accepted, rejects


TRACE_CHUNK_ROWS = 1 << 14
_MALFORMED = -1
_MISMATCH = -2
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # EventNo and ReportNo are int64


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it inside a row (quoted only if needed)."""
    if not text:
        return ""  # a lone empty field would be written as ""
    buf = io.StringIO()
    _writer(buf).writerow((text,))
    return buf.getvalue()[:-1]


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
        for start in range(0, len(table), TRACE_CHUNK_ROWS):
            rows = slice(start, start + TRACE_CHUNK_ROWS)
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


def _intern(raw: str, seen: dict[str, int], vocab: dict[str, int]) -> int:
    """Code of a stripped string field, or _MALFORMED when it is blank."""
    text = raw.strip()
    seen[raw] = code = vocab.setdefault(text, len(vocab)) if text else _MALFORMED
    return code


def read_trace(path: Path) -> tuple[ReportTable, dict[str, int]]:
    """Read a trace CSV into a ReportTable.

    Dates may be ISO or DD/MM/YYYY; the day label is recomputed from the
    date, and rows whose stated day disagrees are rejected with a counter.
    Columns are found by header name.  Rows are read in chunks of
    TRACE_CHUNK_ROWS, and each distinct (EventNo, Date, Day, Time) text and
    string field is checked once.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise PsSimError(f"{path}: missing header row")
        missing = [c for c in TRACE_HEADER if c not in header]
        if missing:
            raise PsSimError(f"{path}: header lacks required columns {missing}")
        col = {name: i for i, name in enumerate(header)}  # last duplicate wins
        width = len(header)
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
        while True:
            first_line = reader.line_num
            event, report_no, source, reported, occurred = [], [], [], [], []
            for row in itertools.islice(reader, TRACE_CHUNK_ROWS):
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
            if reader.line_num == first_line:
                break

    rejects = {}
    if malformed:
        rejects["malformed row"] = malformed
    if mismatched:
        rejects["day/date mismatch"] = mismatched
    event, report_no, source, reported, occurred = (
        np.concatenate(c) if c else np.zeros(0, dtype=np.int64) for c in columns
    )
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
