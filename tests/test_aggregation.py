import datetime as dt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_table, rows_of, trace_table
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
    rows = [raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "a")]
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
        assert aggregate(canonical_table(reports)).events.support.tolist() == [3]
        assert aggregate(canonical_table(reports[:1])).events.support.tolist() == [1]

    def test_duplicate_sources_counted_but_deduplicated(self):
        reports = [raw_report(MONDAY, TemporalBin.EM, "x", "Jam", s) for s in "aab"]
        ((*_, support, reporters),) = rows_of(aggregate(canonical_table(reports)).events)
        assert support == 3
        assert reporters == frozenset({"a", "b"})


def sequential_oracle(records):
    """Naive single-pass dictionary count over canonical_table rows,
    independent of the pipeline."""
    groups = {}
    for date, time, source, loc, incident in records:
        key = (date, time.index, loc, incident)
        entry = groups.setdefault(key, [0, set()])
        entry[0] += 1
        entry[1].add(source)
    return {
        key: (count, frozenset(sources))
        for key, (count, sources) in sorted(groups.items())
    }


def event_dict(events):
    """Aggregated events in the form sequential_oracle gives."""
    return {
        (date, time.index, loc, incident): (support, reporters)
        for date, time, loc, incident, support, reporters in rows_of(events)
    }


def random_records(rng, n):
    """``n`` random canonical_table rows."""
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
    return out


class TestAggregate:
    def test_empty_input(self):
        result = aggregate(canonical_table([]))
        assert rows_of(result.events) == []
        assert result.rejected == 0

    def test_matches_oracle(self):
        import numpy as np

        records = random_records(np.random.default_rng(23), 1000)
        assert event_dict(aggregate(canonical_table(records)).events) == sequential_oracle(records)

    def test_conservation_and_sort_order(self):
        import numpy as np

        records = random_records(np.random.default_rng(5), 300)
        result = aggregate(canonical_table(records))
        assert int(result.events.support.sum()) == len(records)
        keys = [(date, time.index, loc, t) for date, time, loc, t, *_ in rows_of(result.events)]
        assert keys == sorted(keys)

    def test_min_support_drops_small_groups(self):
        records = canonical_table([
            raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "a"),
            raw_report(MONDAY, TemporalBin.EM, "x", "Jam", "b"),
            raw_report(MONDAY, TemporalBin.M, "x", "Jam", "c"),
        ])
        result = aggregate(records, min_support=2)
        assert result.events.support.tolist() == [2]

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
        records = [
            raw_report(
                MONDAY + dt.timedelta(days=d),
                bins[b],
                loc,
                incident,
                f"W{uid}",
            )
            for d, b, loc, incident, uid in data
        ]
        assert event_dict(aggregate(canonical_table(records)).events) == sequential_oracle(records)


@st.composite
def key_spaces(draw, locs):
    """(regime, span, locs, types, rows, seed) of a random table whose packed
    key space, span days x 8 bins x locs x types, is below, equal to or far
    above its row count; only the last passes the renumbering bound."""
    regime = draw(st.sampled_from(["below", "equal", "far above"]))
    nlocs = draw(st.integers(1, locs))
    ntypes = draw(st.integers(1, 3))
    span = draw(st.integers(1000, 5000) if regime == "far above" else st.integers(1, 2))
    space = span * 8 * nlocs * ntypes
    if regime == "below":
        rows = space + draw(st.integers(1, space))
    elif regime == "equal":
        rows = space
    else:
        rows = draw(st.integers(4, 40))
    return regime, span, nlocs, ntypes, rows, draw(st.integers(0, 2**32 - 1))


def spanning_codes(span, nlocs, ntypes, rows, seed):
    """Random day, bin, loc, two type and user codes of ``rows`` reports;
    the first rows take the first and last day and every loc and type."""
    import numpy as np

    rng = np.random.default_rng(seed)
    day, time, loc, reported, occurred = (
        rng.integers(0, size, rows) for size in (span, 8, nlocs, ntypes, ntypes)
    )
    day[:2] = 0, span - 1
    loc[:nlocs] = np.arange(nlocs)
    reported[:ntypes] = np.arange(ntypes)
    return zip(
        day.tolist(), time.tolist(), loc.tolist(), reported.tolist(), occurred.tolist(),
        rng.integers(1, 9, rows).tolist(),
    )


# first seen differs from sorted, so the packed key must go through the ranks
SPACE_LOCS, SPACE_TYPES = ("street-b", "street-a", "street-c"), ("Jam", "Accident", "Hazard")


class TestCountingOverKeySpaces:
    """``aggregate`` against the dict oracles, on key spaces from below the
    report count (counted directly) to far above it (renumbered first)."""

    def counted(self, table, regime, **options):
        import numpy as np

        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            result = aggregate(table, **options)
        assert unique.called == (regime == "far above")
        assert result.rejected == 0
        return result.events

    @settings(max_examples=60, deadline=None)
    @given(case=key_spaces(locs=3), min_support=st.integers(1, 3))
    def test_canonical_tables(self, case, min_support):
        regime, *shape, seed = case
        bins = list(TemporalBin)
        records = [
            raw_report(
                MONDAY + dt.timedelta(days=d), bins[b], SPACE_LOCS[loc], SPACE_TYPES[t], f"W{u}"
            )
            for d, b, loc, t, _, u in spanning_codes(*shape, seed)
        ]
        oracle = {k: v for k, v in sequential_oracle(records).items() if v[0] >= min_support}
        events = self.counted(canonical_table(records), regime, min_support=min_support)
        assert list(event_dict(events).items()) == list(oracle.items())  # in key order

    @pytest.mark.parametrize("key", ["reported", "occurred"])
    @settings(max_examples=40, deadline=None)
    @given(case=key_spaces(locs=1), min_support=st.integers(1, 3))
    def test_trace_tables(self, key, case, min_support):
        regime, *shape, seed = case
        bins = list(TemporalBin)
        rows, records = [], []
        for i, (d, b, _, rep, occ, u) in enumerate(spanning_codes(*shape, seed)):
            date, source = MONDAY + dt.timedelta(days=d), f"U{u}"
            rows.append((i % 5 + 1, date, bins[b], i + 1, source, SPACE_TYPES[rep], SPACE_TYPES[occ]))
            records.append((date, bins[b], source, SPACE_TYPES[rep], SPACE_TYPES[occ]))
        oracle = [
            entry for entry in dict_oracle(records, use_occurred=key == "occurred")
            if entry[1] >= min_support
        ]
        events = self.counted(
            trace_table(rows), regime, min_support=min_support, use_occurred=key == "occurred"
        )
        got = [
            ((date, time.index, loc, incident), support, reporters)
            for date, time, loc, incident, support, reporters in rows_of(events)
        ]
        assert got == oracle


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
            ((date, time.index, loc, incident), support, reporters)
            for date, time, loc, incident, support, reporters in rows_of(result.events)
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
    def test_min_support_keeps_reporters_of_kept_events_only(self):
        import numpy as np

        records = random_records(np.random.default_rng(32), 600)
        oracle = {
            key: value for key, value in sequential_oracle(records).items() if value[0] >= 3
        }
        result = aggregate(canonical_table(records), min_support=3)
        assert event_dict(result.events) == oracle
        keys = [(date, time.index, loc, t) for date, time, loc, t, *_ in rows_of(result.events)]
        assert keys == sorted(keys)

    def test_keys_too_wide_for_int64_are_renumbered_in_order(self, monkeypatch):
        import numpy as np

        from pssim import aggregation

        records = canonical_table(random_records(np.random.default_rng(34), 500))
        expected = rows_of(aggregate(records, min_support=2).events)
        # a bound of 0 values per report renumbers the keys after every fold
        monkeypatch.setattr(aggregation, "DENSE_CELLS_PER_ROW", 0)
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            assert rows_of(aggregate(records, min_support=2).events) == expected
        assert unique.call_count == 3  # after the bin, loc and type folds

    def test_dense_trace_keys_are_counted_without_sorting(self):
        import numpy as np

        from conftest import make_config
        from pssim.simulator import simulate

        cfg = make_config(
            n=2_000, tau=14, lambda_e=10.0, pr_lie=0.1, seed=3,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        table = simulate(cfg).reports
        assert len(table) > 14 * 8 * 4  # the key space
        spies = {
            name: mock.patch.object(np, name, wraps=getattr(np, name))
            for name in ("argsort", "sort", "unique")
        }
        with spies["argsort"] as argsort, spies["sort"] as sort, spies["unique"] as unique:
            result = aggregate(table)
        assert not argsort.called and not sort.called and not unique.called
        assert int(result.events.support.sum()) == len(table)
        assert result.events.event.max() < len(result.events)

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
        # measured: 2.1 B/row retained, 16.7 B/row peak (19.3 when a sort grouped)
        assert (retained - before) / n <= 4.0
        assert (peak - before) / n <= 20.0

    def test_read_and_aggregate_memory_per_row_is_bounded(self, tmp_path):
        # the aggregate command holds the table read_trace returns while it
        # groups it, so the two share one bound
        import gc
        import tracemalloc

        from conftest import make_config
        from pssim import formats
        from pssim.formats import read_trace, write_trace
        from pssim.simulator import simulate

        cfg = make_config(
            n=10_000, tau=21, lambda_e=10.0, pr_lie=0.1, seed=1,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        path = tmp_path / "trace.csv"
        write_trace(simulate(cfg).reports, path)
        block = formats._CodedBlock
        with mock.patch.object(block, "integers", autospec=True, side_effect=block.integers) as spy:
            aggregate(read_trace(path)[0])  # lazy imports and caches outside the count
        assert spy.called  # the rows are read from the sidecar
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table, rejects = read_trace(path)
            result = aggregate(table)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(table)
        assert rejects == {} and 95_000 < n < 110_000
        assert len(result.events) == 21 * 8 * 4
        # measured with 4096-row blocks: 26.5 B/row retained, 47.7 B/row peak,
        # the peak of read_trace, as aggregate peaks lower
        assert (retained - before) / n <= 30.0
        assert (peak - before) / n <= 55.0
