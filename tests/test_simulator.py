import datetime as dt
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_table, make_config
from pssim.distributions import (
    RandomSource,
    lognormal_sample_counts,
    pmf_from_counts,
    pmf_sample_indices,
    rescale,
)
from pssim.errors import PsSimError
from pssim.formats import read_trace, write_trace
from pssim.simulator import (
    assign_event_attributes,
    attribute_reports,
    gen_poisson_events,
    simulate,
)
from pssim.types import DAY_BINS, DayBin, TemporalBin, weekday_of


class TestGenPoissonEvents:
    def test_same_seed_same_count(self):
        cfg = make_config(lambda_e=5.0)
        a = gen_poisson_events(cfg, RandomSource(3))
        b = gen_poisson_events(cfg, RandomSource(3))
        assert a == b

    def test_mean_matches_rate_times_cells(self):
        cfg = make_config(tau=7, lambda_e=25.29)
        counts = [gen_poisson_events(cfg, RandomSource(s)) for s in range(100)]
        target = 8 * 7 * 25.29  # 1416.24
        bound = 3 * math.sqrt(target / 100)
        assert abs(np.mean(counts) - target) <= bound

    def test_degenerate_rate_error_path(self):
        cfg = make_config(tau=1, lambda_e=1e-12)
        with pytest.raises(PsSimError, match="no events generated"):
            gen_poisson_events(cfg, RandomSource(0))


class TestAssignEventAttributes:
    def test_degenerate_day_pmf_forces_the_single_monday(self):
        cfg = make_config(pmf_day=pmf_from_counts({DayBin.MONDAY: 1}))
        events = assign_event_attributes(200, cfg, RandomSource(5))
        assert all(e.date == dt.date(2015, 2, 23) for e in events)
        assert all(e.day is DayBin.MONDAY for e in events)

    def test_window_too_short_for_day_pmf(self):
        # a 3-day window starting Tuesday contains no Monday
        cfg = make_config(
            tau=3,
            start_date=dt.date(2015, 2, 24),
            pmf_day=pmf_from_counts({DayBin.MONDAY: 1}),
        )
        with pytest.raises(PsSimError, match="window too short"):
            assign_event_attributes(10, cfg, RandomSource(0))

    def test_zero_mass_days_missing_from_window_are_fine(self):
        # Monday carries probability 0, so its absence must not raise
        from pssim.distributions import Pmf

        cfg = make_config(
            tau=3,
            start_date=dt.date(2015, 2, 24),
            pmf_day=Pmf((DayBin.MONDAY, DayBin.TUESDAY), (0.0, 1.0)),
        )
        events = assign_event_attributes(50, cfg, RandomSource(1))
        assert all(e.day is DayBin.TUESDAY for e in events)

    def test_time_bin_frequencies_follow_pmf(self):
        weights = {b: w for b, w in zip(TemporalBin, (4, 8, 10, 22, 12, 10, 14, 20))}
        cfg = make_config(pmf_time=pmf_from_counts(weights))
        events = assign_event_attributes(10_000, cfg, RandomSource(9))
        freq = defaultdict(int)
        for e in events:
            freq[e.time] += 1
        for b, p in cfg.pmf_time.as_dict().items():
            assert abs(freq[b] / 10_000 - p) <= 0.02

    def test_day_always_matches_date(self):
        cfg = make_config(tau=10)
        events = assign_event_attributes(500, cfg, RandomSource(2))
        assert all(e.day is weekday_of(e.date) for e in events)

    def test_event_numbering_and_location(self):
        cfg = make_config(loc="Route 9")
        events = assign_event_attributes(25, cfg, RandomSource(1))
        assert [e.event_no for e in events] == list(range(1, 26))
        assert all(e.loc == "Route 9" for e in events)

    def test_dates_uniform_among_matching_weekdays(self):
        # a 14-day window holds two Mondays; each should get half the events
        cfg = make_config(tau=14, pmf_day=pmf_from_counts({DayBin.MONDAY: 1}))
        events = assign_event_attributes(10_000, cfg, RandomSource(3))
        first_monday = dt.date(2015, 2, 23)
        share = sum(1 for e in events if e.date == first_monday) / 10_000
        assert abs(share - 0.5) <= 0.02
        assert {e.date for e in events} == {
            first_monday,
            first_monday + dt.timedelta(days=7),
        }


def reference_dates(count, config, rng):
    """The event dates of assign_event_attributes, drawn from the same
    uniforms by listing the window's dates of each weekday and picking one
    of the sampled weekday's: the reference for its arithmetic placement."""
    dates_by_day = {day: [] for day in DAY_BINS}
    for i in range(config.tau):
        date = config.start_date + dt.timedelta(days=i)
        dates_by_day[weekday_of(date)].append(date.toordinal())
    for day, p in zip(config.pmf_day.support, config.pmf_day.probs):
        if p > 0.0 and not dates_by_day[day]:
            raise PsSimError(
                f"window too short for day pmf: no {day.label} in the "
                f"{config.tau}-day window starting {config.start_date}"
            )
    day_idx = pmf_sample_indices(config.pmf_day, count, rng).tolist()
    pmf_sample_indices(config.pmf_time, count, rng)
    pmf_sample_indices(config.pmf_ev_type, count, rng)
    u_date = rng.generator.random(count).tolist()
    picked = []
    for i, u in zip(day_idx, u_date):
        candidates = dates_by_day[config.pmf_day.support[i]]
        picked.append(candidates[min(int(u * len(candidates)), len(candidates) - 1)])
    return picked


@settings(max_examples=300, deadline=None)
@given(
    st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 12, 31)),
    st.integers(min_value=1, max_value=40),
    st.lists(
        st.tuples(st.sampled_from(DAY_BINS), st.integers(min_value=0, max_value=3)),
        min_size=1,
        max_size=7,
        unique_by=lambda pair: pair[0],
    ).filter(lambda pairs: any(weight for _, weight in pairs)),
    st.integers(min_value=0, max_value=2**32),
)
def test_property_dates_by_arithmetic_equal_the_weekday_lists(start, tau, weights, seed):
    cfg = make_config(start_date=start, tau=tau, pmf_day=pmf_from_counts(dict(weights)))
    try:
        expected = reference_dates(300, cfg, RandomSource(seed))
    except PsSimError as exc:
        with pytest.raises(PsSimError) as raised:
            assign_event_attributes(300, cfg, RandomSource(seed))
        assert str(raised.value) == str(exc)
        return
    events = assign_event_attributes(300, cfg, RandomSource(seed))
    assert events.date.tolist() == expected


def events_of(*types):
    """An EventTable of one Monday event per type."""
    return event_table((1, dt.date(2015, 2, 23), TemporalBin.MD, "Elm Street", t) for t in types)


class TestAttributeReports:
    def test_single_participant_forced_outcome(self):
        reports = attribute_reports(
            events_of("Jam"), [5], 0.0, ("Jam", "Accident"), RandomSource(4)
        )
        assert len(reports) == 5
        assert all(r.source_id == "UID000001" for r in reports)
        assert all(r.event_reported == r.event_occurred == "Jam" for r in reports)
        assert [r.report_no for r in reports] == [1, 2, 3, 4, 5]

    def test_lie_fraction_converges(self):
        quotas = np.full(100, 100, dtype=np.int64)  # 10,000 reports
        events = events_of("Jam", "Accident")
        reports = attribute_reports(
            events, quotas, 0.1, ("Jam", "Accident", "Hazard"), RandomSource(12)
        )
        lies = sum(1 for r in reports if r.event_reported != r.event_occurred)
        assert abs(lies / 10_000 - 0.1) <= 0.009

    def test_certain_lie_never_reports_the_occurred_type(self):
        quotas = np.full(10, 10, dtype=np.int64)
        events = events_of("Jam", "Accident")
        reports = attribute_reports(
            events, quotas, 1.0, ("Jam", "Accident"), RandomSource(1)
        )
        assert np.all(reports.reported != reports.occurred)

    def test_lies_uniform_over_complement(self):
        quotas = np.full(100, 100, dtype=np.int64)
        types = ("Jam", "Accident", "Hazard")
        reports = attribute_reports(
            events_of("Jam"), quotas, 1.0, types, RandomSource(9)
        )
        lied = [types[i] for i in reports.reported.tolist()]
        assert "Jam" not in lied
        assert abs(lied.count("Accident") / 10_000 - 0.5) <= 0.015

    def test_singleton_types_rejected_when_lying(self):
        with pytest.raises(PsSimError, match="two event types"):
            attribute_reports(events_of("Jam"), [3], 0.5, ("Jam",), RandomSource(0))

    def test_quota_conservation(self):
        rng_q = np.random.default_rng(3)
        quotas = rng_q.integers(0, 6, size=40).astype(np.int64)
        quotas[0] = max(quotas[0], 1)
        reports = attribute_reports(
            events_of("Jam"), quotas, 0.0, ("Jam", "Accident"), RandomSource(7)
        )
        assert len(reports) == int(quotas.sum())
        assert reports.sources == tuple(f"UID{i + 1:06d}" for i in range(40))
        per_user = defaultdict(int)
        for r in reports:
            per_user[r.source_id] += 1
        for i, q in enumerate(quotas):
            assert per_user[f"UID{i + 1:06d}"] == q

    def test_empty_pool_rejected(self):
        with pytest.raises(PsSimError, match="no remaining quota"):
            attribute_reports(
                events_of("Jam"), [0, 0], 0.0, ("Jam", "Accident"), RandomSource(0)
            )

    def test_no_events_rejected(self):
        with pytest.raises(PsSimError, match="no events"):
            attribute_reports(events_of(), [3], 0.0, ("Jam", "Accident"), RandomSource(0))

    def test_unknown_event_type_rejected(self):
        with pytest.raises(PsSimError, match="not in the configured type list"):
            attribute_reports(
                events_of("Meteor"),
                [3],
                0.0,
                ("Jam", "Accident"),
                RandomSource(0),
            )


class TestSimulate:
    def test_deterministic_for_fixed_config(self):
        cfg = make_config(pr_lie=0.2, seed=77)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        assert t1.reports == t2.reports
        assert t1.events == t2.events

    def test_referential_integrity_and_ordering(self):
        trace = simulate(make_config(seed=13, pr_lie=0.15, n=50))
        event_nos = {e.event_no for e in trace.events}
        assert [r.report_no for r in trace.reports] == list(
            range(1, len(trace.reports) + 1)
        )
        assert all(r.event_no in event_nos for r in trace.reports)
        assert all(r.day is weekday_of(r.date) for r in trace.reports)

    def test_report_count_equals_quota_sum(self):
        cfg = make_config(seed=21, n=35)
        trace = simulate(cfg)
        params = rescale(cfg.mlog, cfg.sdlog, cfg.tau)
        quotas = lognormal_sample_counts(
            cfg.n, params, RandomSource(cfg.seed).substream("quotas")
        )
        assert len(trace.reports) == int(quotas.sum())

    def test_events_can_collect_mixed_truthful_and_false_reports(self):
        trace = simulate(make_config(seed=3, pr_lie=0.3, n=60, lambda_e=1.0))
        by_event = defaultdict(list)
        for r in trace.reports:
            by_event[r.event_no].append(r)
        assert trace.lie_count > 0
        mixed = [
            rows
            for rows in by_event.values()
            if len(rows) >= 2
            and any(r.event_reported != r.event_occurred for r in rows)
            and any(r.event_reported == r.event_occurred for r in rows)
        ]
        assert mixed, "expected at least one event with both truthful and false reports"
        # every row of one event shares the event's occurred type and slot
        rows = mixed[0]
        assert len({(r.event_occurred, r.date, r.time) for r in rows}) == 1

    def test_marginal_day_frequencies_follow_pmf(self):
        weights = {d: w for d, w in zip(DayBin, (5, 18, 17, 16, 18, 15, 6))}
        cfg = make_config(
            pmf_day=pmf_from_counts(weights), n=400, lambda_e=40.0, seed=31
        )
        trace = simulate(cfg)
        freq = defaultdict(int)
        for e in trace.events:
            freq[e.day] += 1
        total = len(trace.events)
        for d, p in cfg.pmf_day.as_dict().items():
            assert abs(freq[d] / total - p) <= 3 * math.sqrt(p * (1 - p) / total) + 1e-9

    def test_all_quotas_zero_is_an_error(self):
        cfg = make_config(mlog=-12.0, sdlog=0.1, n=3, seed=1)
        with pytest.raises(PsSimError, match="quotas"):
            simulate(cfg)


class TestTraceTables:
    def test_rows_are_built_once_per_table(self):
        trace = simulate(make_config(seed=8, pr_lie=0.2))
        assert "rows" not in vars(trace.reports)
        assert len(trace.reports) > 0 and trace.lie_count >= 0
        assert "rows" not in vars(trace.reports)  # len and lie_count use columns
        first = trace.reports[0]
        assert trace.reports[0] is first
        assert list(trace.reports)[0] is first
        assert trace.events[0] is trace.events[0]

    def test_lie_count_matches_rows(self):
        trace = simulate(make_config(seed=4, pr_lie=0.3, n=60))
        assert trace.lie_count == sum(
            1 for r in trace.reports if r.event_reported != r.event_occurred
        )

    def test_memory_per_report_is_bounded(self):
        import gc
        import tracemalloc

        cfg = make_config(
            n=10_000, tau=100, lambda_e=10.0, pr_lie=0.1, seed=1,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        simulate(make_config(seed=1))  # lazy imports and caches outside the count
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = simulate(cfg)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(trace.reports)
        assert n > 400_000
        # measured: 16.0 B/report retained, 31.0 B/report peak
        assert (retained - before) / n <= 20.0
        assert (peak - before) / n <= 36.0

    @staticmethod
    def measured_trace_read(tmp_path, sidecar: bool):
        """Traced bytes retained and at peak per row by reading a 100k-row
        trace, from its sidecar or (with the sidecar deleted) its bytes."""
        import gc
        import tracemalloc
        from pathlib import Path
        from unittest import mock

        from pssim import formats

        cfg = make_config(
            n=10_000, tau=21, lambda_e=10.0, pr_lie=0.1, seed=1,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        path = tmp_path / "trace.csv"
        write_trace(simulate(cfg).reports, path)
        if not sidecar:
            Path(f"{path}.cols").unlink()
        block = formats._CodedBlock if sidecar else formats._ByteBlock
        with mock.patch.object(block, "integers", autospec=True, side_effect=block.integers) as spy:
            read_trace(path)  # lazy imports and caches outside the count
        assert spy.called  # the rows are read by the path named
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table, rejects = read_trace(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(table)
        assert rejects == {} and 95_000 < n < 110_000
        return (retained - before) / n, (peak - before) / n

    def test_read_trace_memory_per_row_is_bounded(self, tmp_path):
        retained, peak = self.measured_trace_read(tmp_path, sidecar=False)
        # measured with 512 KiB blocks: 23.2 B/row retained, 65.9 B/row peak
        assert retained <= 26.0
        assert peak <= 75.0

    def test_read_trace_memory_per_row_is_bounded_from_sidecar(self, tmp_path):
        retained, peak = self.measured_trace_read(tmp_path, sidecar=True)
        # measured with 4096-row blocks: 24.4 B/row retained, 47.2 B/row peak
        assert retained <= 26.0
        assert peak <= 55.0

    def test_write_trace_memory_is_bounded_per_chunk(self, tmp_path):
        import dataclasses
        import gc
        import tracemalloc

        from pssim import formats

        cfg = make_config(
            n=10_000, tau=21, lambda_e=10.0, pr_lie=0.1, seed=1,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        table = simulate(cfg).reports
        path = tmp_path / "trace.csv"
        write_trace(table, path)  # lazy imports and caches outside the count

        def peak(rows: int) -> int:
            """Peak traced bytes of writing the first ``rows`` reports."""
            head = dataclasses.replace(
                table,
                **{
                    name: getattr(table, name)[:rows]
                    for name in ("event", "report_no", "source", "reported", "occurred")
                },
            )
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                write_trace(head, path)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        n = len(table)
        assert n > 95_000 and n // 4 > 5 * formats.CHUNK_ROWS
        quarter, whole = peak(n // 4), peak(n)
        # measured with 4096-row chunks: 2.4 MB for a quarter and for the
        # whole; 2.2 MB of it is the 10,000 source texts and 1,599 slot
        # prefixes, the rest the slabs and the temporaries of one chunk,
        # which are gone before the sidecar is written
        assert whole <= quarter + 64 * 1024
        assert whole <= 3.0e6

    def test_write_canonical_memory_is_bounded_per_chunk(self, tmp_path):
        import dataclasses
        import gc
        import tracemalloc

        from pssim import formats
        from pssim.table import report_columns

        cfg = make_config(
            n=10_000, tau=21, lambda_e=10.0, pr_lie=0.1, seed=1,
            ev_types=("Jam", "Accident", "RoadClosure", "Hazard"),
        )
        table, _ = report_columns(simulate(cfg).reports)
        table = dataclasses.replace(table, date=table.date.astype(np.int64))  # as ingest gives
        path = tmp_path / "canonical.csv"
        formats.write_canonical(table, path)  # lazy imports and caches outside the count

        def peak(rows: int) -> int:
            """Peak traced bytes of writing the first ``rows`` reports."""
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                formats.write_canonical(table.take(slice(0, rows)), path)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        n = len(table)
        assert n > 95_000 and n // 4 > 5 * formats.CHUNK_ROWS
        quarter, whole = peak(n // 4), peak(n)
        # measured with 4096-row chunks: 2.3 MB for a quarter, 2.4 MB for the
        # whole; beside one chunk's temporaries, each row keeps only its
        # one-byte date code
        assert (whole - quarter) / (n - n // 4) <= 4.0
        assert whole <= 3.0e6
