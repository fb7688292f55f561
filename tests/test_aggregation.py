import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_table, trace_table
from pssim.aggregation import aggregate
from pssim.analysis import bin_reports
from pssim.types import TemporalBin, weekday_of
from pssim.validation import histogram


def raw_report(date, time, loc, incident, source):
    """A canonical_table row."""
    return date, time, source, loc, incident


MONDAY = dt.date(2015, 2, 23)


@pytest.mark.parametrize(
    "stage",
    [
        aggregate,
        lambda rows: bin_reports(rows, (MONDAY, 7)),
        lambda rows: histogram(rows, "perUser"),
    ],
    ids=["aggregate", "bin_reports", "histogram"],
)
def test_row_input_is_refused(stage):
    rows = list(canonical_table([raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "a")]))
    with pytest.raises(TypeError, match="CanonicalTable or a ReportTable, not list"):
        stage(rows)


def test_options_are_keyword_only():
    # aggregate(table, 4) once set a partition count; it must not set min_support
    table = canonical_table([raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "a")])
    with pytest.raises(TypeError):
        aggregate(table, 4)


class TestReduceCount:
    """The reduce step: ``aggregate`` counts each key's reports and
    deduplicates their sources."""

    def test_counts_values(self):
        reports = [raw_report(MONDAY, TemporalBin.EM, "x", "Jam", s) for s in "abc"]
        assert [e.support_count for e in aggregate(canonical_table(reports)).events] == [3]
        assert [e.support_count for e in aggregate(canonical_table(reports[:1])).events] == [1]

    def test_duplicate_sources_counted_but_deduplicated(self):
        reports = [raw_report(MONDAY, TemporalBin.EM, "x", "Jam", s) for s in "aab"]
        (ev,) = aggregate(canonical_table(reports)).events
        assert ev.support_count == 3
        assert ev.reporters == frozenset({"a", "b"})


def sequential_oracle(records, default_loc="unspecified"):
    """Naive single-pass dictionary count over a table's rows, independent
    of the pipeline."""
    groups = {}
    for r in records:
        incident = getattr(r, "event_reported", None) or r.incident_type
        loc = getattr(r, "loc", None) or default_loc
        key = (r.date, r.time.index, loc, incident)
        entry = groups.setdefault(key, [0, set()])
        entry[0] += 1
        entry[1].add(r.source_id)
    return {
        key: (count, frozenset(sources))
        for key, (count, sources) in sorted(groups.items())
    }


def event_dict(events):
    """Aggregated events in the form sequential_oracle gives."""
    return {
        (e.key.date, e.key.day_time.index, e.key.loc, e.key.incident_type): (
            e.support_count,
            e.reporters,
        )
        for e in events
    }


def random_records(rng, n):
    """A CanonicalTable of ``n`` random reports."""
    bins = list(TemporalBin)
    out = []
    for i in range(n):
        date = MONDAY + dt.timedelta(days=int(rng.integers(0, 14)))
        out.append(
            raw_report(
                date,
                bins[int(rng.integers(0, 8))],
                f"street-{int(rng.integers(0, 6))}",
                ("Jam", "Accident", "Hazard")[int(rng.integers(0, 3))],
                f"W{int(rng.integers(1, 40)):04d}",
            )
        )
    return canonical_table(out)


class TestAggregate:
    def test_empty_input(self):
        result = aggregate(canonical_table([]))
        assert result.events == ()
        assert result.rejected == 0

    def test_matches_oracle(self):
        import numpy as np

        records = random_records(np.random.default_rng(23), 1000)
        assert event_dict(aggregate(records).events) == sequential_oracle(records)

    def test_conservation_and_sort_order(self):
        import numpy as np

        records = random_records(np.random.default_rng(5), 300)
        result = aggregate(records)
        assert sum(e.support_count for e in result.events) == len(records)
        keys = [e.key.sort_key() for e in result.events]
        assert keys == sorted(keys)

    def test_min_support_drops_small_groups(self):
        records = canonical_table([
            raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "a"),
            raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "b"),
            raw_report(MONDAY, TemporalBin.M, "x", "Jam", "c"),
        ])
        result = aggregate(records, min_support=2)
        assert len(result.events) == 1
        assert result.events[0].support_count == 2

    # a blank ingested type never reaches a table: read_canonical rejects it
    @pytest.mark.parametrize(
        "table", [trace_table([(1, MONDAY, TemporalBin.EM, 1, "a", "", "Jam")])], ids=["trace"]
    )
    def test_blank_type_rejected_for_every_row_class(self, table):
        result = aggregate(table)
        assert result.rejected == 1
        assert len(result.events) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 7),
                st.sampled_from(["a", "b"]),
                st.sampled_from(["Jam", "Accident"]),
                st.integers(1, 9),
            ),
            max_size=60,
        ),
    )
    def test_property_matches_sequential_oracle(self, data):
        bins = list(TemporalBin)
        records = canonical_table([
            raw_report(
                MONDAY + dt.timedelta(days=d),
                bins[b],
                loc,
                incident,
                f"W{uid}",
            )
            for d, b, loc, incident, uid in data
        ])
        assert event_dict(aggregate(records).events) == sequential_oracle(records)


# first seen: Jam, Road, Accident, accident -- lexicographic: Accident, Jam, Road, accident
KEY_ORDER_TYPES = ("Jam", "Road", "Accident", "accident")


def write_key_order_trace(path, rng, rows=400):
    """A trace with day-first dates spanning 26/02/2015 .. 03/03/2015."""
    dates = [dt.date(2015, 2, 26) + dt.timedelta(days=i) for i in range(6)]
    bins = list(TemporalBin)
    records = []
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(
            "EventNo,Date,Day,Time,ReportNo,SourceId,EventReported,EventOccurred\n"
        )
        for i in range(rows):
            date = dates[int(rng.integers(0, len(dates)))]
            time = bins[int(rng.integers(0, 8))]
            # the first rows fix the first-seen type order
            occurred = KEY_ORDER_TYPES[i if i < 4 else int(rng.integers(0, 4))]
            reported = KEY_ORDER_TYPES[int(rng.integers(0, 4))]
            source = f"U{int(rng.integers(1, 30)):03d}"
            handle.write(
                f"{i % 17 + 1},{date:%d/%m/%Y},{weekday_of(date).label},"
                f"{time.label},{i + 1},{source},{reported},{occurred}\n"
            )
            records.append((date, time, source, reported, occurred))
    return records


def dict_oracle(records, use_occurred):
    groups = {}
    for date, time, source, reported, occurred in records:
        key = (date, time.index, "unspecified", occurred if use_occurred else reported)
        entry = groups.setdefault(key, [0, set()])
        entry[0] += 1
        entry[1].add(source)
    return [(key, count, frozenset(s)) for key, (count, s) in sorted(groups.items())]


class TestTraceKeyOrder:
    @pytest.mark.parametrize("key", ["reported", "occurred"])
    def test_library_and_cli_match_dict_oracle(self, tmp_path, key):
        import numpy as np
        from click.testing import CliRunner

        from pssim.cli import main
        from pssim.formats import read_trace

        path = tmp_path / "trace.csv"
        records = write_key_order_trace(path, np.random.default_rng(11))
        oracle = dict_oracle(records, use_occurred=key == "occurred")
        assert {k[0] for k, _, _ in oracle} >= {dt.date(2015, 2, 28), dt.date(2015, 3, 1)}

        table, rejects = read_trace(path)
        assert rejects == {}
        result = aggregate(table, use_occurred=key == "occurred")
        got = [
            (
                (e.key.date, e.key.day_time.index, e.key.loc, e.key.incident_type),
                e.support_count,
                e.reporters,
            )
            for e in result.events
        ]
        assert got == oracle
        assert result.rejected == 0

        out = tmp_path / "events.csv"
        cli = CliRunner().invoke(
            main, ["aggregate", str(path), "--out", str(out), "--key", key],
            catch_exceptions=False,
        )
        assert cli.exit_code == 0, cli.output
        expected = ["date,dayTime,loc,incidentType,supportCount"] + [
            f"{d.isoformat()},{list(TemporalBin)[b].label},"
            f"{loc},{t},{count}"
            for (d, b, loc, t), count, _ in oracle
        ]
        assert out.read_text().splitlines() == expected


class TestColumnarResult:
    def test_rows_are_built_only_on_access(self):
        import numpy as np

        from pssim.table import AggregatedEventTable

        records = random_records(np.random.default_rng(31), 400)
        events = aggregate(records).events
        assert isinstance(events, AggregatedEventTable)
        assert len(events) == len(sequential_oracle(records))
        assert "rows" not in vars(events)
        assert events[0] is events[0]
        assert "rows" in vars(events)

    def test_min_support_keeps_reporters_of_kept_events_only(self):
        import numpy as np

        records = random_records(np.random.default_rng(32), 600)
        oracle = {
            key: value for key, value in sequential_oracle(records).items() if value[0] >= 3
        }
        result = aggregate(records, min_support=3)
        assert event_dict(result.events) == oracle
        assert [e.key.sort_key() for e in result.events] == sorted(
            e.key.sort_key() for e in result.events
        )

    def test_keys_too_wide_for_int64_are_renumbered_in_order(self, monkeypatch):
        import numpy as np

        from pssim import aggregation

        records = random_records(np.random.default_rng(34), 500)
        expected = list(aggregate(records, min_support=2).events)
        # a key space of 64 values forces the renumbering before every fold
        monkeypatch.setattr(aggregation, "_KEY_SPACE", 64)
        assert list(aggregate(records, min_support=2).events) == expected

    def test_memory_per_row_is_bounded(self, tmp_path):
        import gc
        import tracemalloc

        from conftest import make_config
        from pssim.formats import read_trace, write_trace
        from pssim.simulator import simulate

        cfg = make_config(
            n=10_000, tau=21, lambda_e=10.0, pr_lie=0.1, seed=1,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        path = tmp_path / "trace.csv"
        write_trace(simulate(cfg).reports, path)
        table, rejects = read_trace(path)
        aggregate(table)  # lazy imports and caches outside the count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = aggregate(table)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(table)
        assert rejects == {} and 95_000 < n < 110_000
        assert len(result.events) == 21 * 8 * 4
        # measured: 2.1 B/row retained, 34.7 B/row peak
        assert (retained - before) / n <= 30.0
        assert (peak - before) / n <= 80.0
