import datetime as dt
import math
from pathlib import Path

import numpy as np
import pytest

from pssim.distributions import uniform_pmf
from pssim.table import AggregatedEventTable, CanonicalTable, EventTable, ReportTable
from pssim.types import DAY_BINS, TEMPORAL_BINS, Model, SimConfig, TemporalBin

DATA_DIR = Path(__file__).parent / "data"
SAMPLE_CSV = DATA_DIR / "sample_reports.csv"
GOLDEN_TRACE = DATA_DIR / "golden_trace.csv"

DEFAULT_TYPES = ("Jam", "Accident", "Hazard")


def make_config(**overrides) -> SimConfig:
    """A small, valid SimConfig; keyword overrides replace any field of it
    or of its model, ``lambda_e`` gives the model's overall lambda, and
    ``ev_types`` the support of a uniform ``pmf_ev_type``."""
    types = overrides.pop("ev_types", DEFAULT_TYPES)
    if "lambda_e" in overrides:
        overrides["lambda_overall"] = overrides.pop("lambda_e")
    model = dict(
        mlog=math.log(3.0),
        sdlog=0.5,
        lambda_overall=3.0,
        lambda_by_loc={},
        pmf_time=uniform_pmf(TEMPORAL_BINS),
        pmf_day=uniform_pmf(DAY_BINS),
        pmf_ev_type=uniform_pmf(types),
    )
    run = dict(
        tau=7,
        start_date=dt.date(2015, 2, 23),  # a Monday
        pr_lie=0.0,
        n=20,
        seed=42,
        loc="Elm Street",
    )
    for name, value in overrides.items():
        (model if name in model else run)[name] = value
    return SimConfig(model=Model(**model), **run)


@pytest.fixture
def config_factory():
    return make_config


# Encoders from row tuples to the tables every pssim stage takes.  Each
# string field is coded in first-seen order; a row's day is the weekday of
# its date, so the tuples leave it out.


def _codes(rows, width: int, coded: tuple[int, ...]):
    """The columns of ``rows`` as int64 arrays, and per coded column its
    vocabulary; dates and time bins become ordinals and indices."""
    vocabs = [{} for _ in coded]
    encoded = []
    for row in rows:
        row = [
            v.toordinal() if isinstance(v, dt.date) else v.index if isinstance(v, TemporalBin) else v
            for v in row
        ]
        for vocab, k in zip(vocabs, coded):
            row[k] = vocab.setdefault(row[k], len(vocab))
        encoded.append(row)
    columns = np.asarray(encoded, dtype=np.int64).reshape(-1, width).T.copy()
    return columns, vocabs


def canonical_table(rows) -> CanonicalTable:
    """A CanonicalTable of (date, time bin, source, loc, type) rows."""
    (date, time, source, loc, type_), (sources, locs, types) = _codes(rows, 5, (2, 3, 4))
    return CanonicalTable.from_codes(date, time, source, sources, loc, locs, type_, types)


def trace_table(rows) -> ReportTable:
    """A ReportTable of (EventNo, date, time bin, ReportNo, source,
    reported type, occurred type) rows; each distinct (EventNo, date, time
    bin) is one event slot.  Both types share one vocabulary."""
    types: dict[str, int] = {}
    rows = [
        (*row[:5], types.setdefault(row[5], len(types)), types.setdefault(row[6], len(types)))
        for row in rows
    ]
    (no, date, time, report_no, source, reported, occurred), (sources,) = _codes(rows, 7, (4,))
    slots: dict[tuple[int, int, int], int] = {}
    event = [
        slots.setdefault(slot, len(slots))
        for slot in zip(no.tolist(), date.tolist(), time.tolist())
    ]
    return ReportTable.from_codes(
        slots, event, report_no, source, sources, reported, occurred, types
    )


def event_table(rows) -> EventTable:
    """An EventTable of (EventNo, date, time bin, loc, type) rows."""
    (no, date, time, loc, type_), (locs, types) = _codes(rows, 5, (3, 4))
    return EventTable(
        event_no=no, date=date, time=time, type=type_, types=tuple(types),
        loc=loc, locs=tuple(locs),
    )


def aggregated_table(rows) -> AggregatedEventTable:
    """An AggregatedEventTable of (date, time bin, loc, type, support,
    reporters) rows; each reporter becomes one grouped report."""
    rows = list(rows)
    (date, time, loc, type_, support), (locs, types) = _codes((r[:5] for r in rows), 5, (2, 3))
    members = [(i, name) for i, row in enumerate(rows) for name in sorted(row[5])]
    (event, source), (sources,) = _codes(members, 2, (1,))
    return AggregatedEventTable(
        date=date, time=time, loc=loc, locs=tuple(locs), type=type_, types=tuple(types),
        support=support, event=event, source=source, sources=tuple(sources),
    )


def rows_of(table) -> list[tuple]:
    """The rows of a table as tuples in the shapes the encoders above take,
    with dates as dates and time bins as TemporalBins: the inverse of
    canonical_table, trace_table, event_table and aggregated_table.  An
    aggregated event's reporters are a frozenset."""
    dates = [dt.date.fromordinal(d) for d in table.date.tolist()]
    bins = [TEMPORAL_BINS[t] for t in table.time.tolist()]

    def names(codes, vocab):
        return [vocab[c] for c in codes.tolist()]

    if isinstance(table, CanonicalTable):
        return list(zip(
            dates, bins, names(table.source, table.sources), names(table.loc, table.locs),
            names(table.type, table.types),
        ))
    if isinstance(table, ReportTable):
        slots = list(zip(table.event_no.tolist(), dates, bins))
        return [
            (*slots[e], *rest)
            for e, *rest in zip(
                table.event.tolist(), table.report_no.tolist(),
                names(table.source, table.sources), names(table.reported, table.types),
                names(table.occurred, table.types),
            )
        ]
    if isinstance(table, EventTable):
        return list(zip(
            table.event_no.tolist(), dates, bins, names(table.loc, table.locs),
            names(table.type, table.types),
        ))
    reporters = [set() for _ in range(len(table) + 1)]  # the last: dropped events
    for e, name in zip(table.event.tolist(), names(table.source, table.sources)):
        reporters[e].add(name)
    return list(zip(
        dates, bins, names(table.loc, table.locs), names(table.type, table.types),
        table.support.tolist(), map(frozenset, reporters[:-1]),
    ))
