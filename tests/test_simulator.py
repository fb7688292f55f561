import dataclasses
import datetime as dt
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import event_table, make_config, rows_of
from pssim.distributions import (
    RandomSource,
    lognormal_sample_counts,
    pmf_from_counts,
    pmf_sample_indices,
    rescale,
    uniform_pmf,
)
from pssim.errors import PsSimError
from pssim.formats import read_trace, write_trace
from pssim.simulator import (
    assign_event_attributes,
    attribute_reports,
    gen_poisson_events,
    simulate,
)
from pssim.types import (
    DAY_BINS,
    DEFAULT_LOC,
    TEMPORAL_BINS,
    DayBin,
    Model,
    SimConfig,
    TemporalBin,
    day_index,
    weekday_of,
)


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
        assert set(events.date.tolist()) == {dt.date(2015, 2, 23).toordinal()}

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
        assert set(day_index(events.date).tolist()) == {DayBin.TUESDAY.index}

    @pytest.mark.parametrize("tau", range(1, 7))
    def test_short_windows_draw_the_weekdays_they_hold(self, tau):
        weekdays = pmf_from_counts({d: 1 for d in DAY_BINS[1:6]})  # Monday to Friday
        for k in range(7):
            start = dt.date(2015, 2, 22) + dt.timedelta(days=k)  # Sunday + k
            for pmf_day in (uniform_pmf(DAY_BINS), weekdays):
                cfg = make_config(tau=tau, start_date=start, pmf_day=pmf_day)
                window = {weekday_of(start + dt.timedelta(days=i)) for i in range(tau)}
                held = window & {d for d, p in zip(pmf_day.support, pmf_day.probs) if p}
                if not held:
                    with pytest.raises(PsSimError, match="window too short"):
                        assign_event_attributes(500, cfg, RandomSource(tau))
                    continue
                events = assign_event_attributes(500, cfg, RandomSource(tau))
                offsets = events.date - start.toordinal()
                assert offsets.min() >= 0 and offsets.max() < tau
                assert {DAY_BINS[d] for d in day_index(events.date).tolist()} == held

    def test_short_window_day_frequencies_follow_the_renormalised_pmf(self):
        weights = {d: w for d, w in zip(DayBin, (5, 18, 17, 16, 18, 15, 6))}
        # Tuesday to Thursday
        cfg = make_config(tau=3, start_date=dt.date(2015, 2, 24), pmf_day=pmf_from_counts(weights))
        events = assign_event_attributes(10_000, cfg, RandomSource(6))
        freq = defaultdict(int)
        for d in day_index(events.date).tolist():
            freq[DAY_BINS[d]] += 1
        assert set(freq) == {DayBin.TUESDAY, DayBin.WEDNESDAY, DayBin.THURSDAY}
        for day, count in freq.items():
            assert abs(count / 10_000 - weights[day] / 51) <= 0.02

    def test_time_bin_frequencies_follow_pmf(self):
        weights = {b: w for b, w in zip(TemporalBin, (4, 8, 10, 22, 12, 10, 14, 20))}
        cfg = make_config(pmf_time=pmf_from_counts(weights))
        events = assign_event_attributes(10_000, cfg, RandomSource(9))
        freq = defaultdict(int)
        for t in events.time.tolist():
            freq[TEMPORAL_BINS[t]] += 1
        for b, p in zip(cfg.model.pmf_time.support, cfg.model.pmf_time.probs):
            assert abs(freq[b] / 10_000 - p) <= 0.02

    def test_day_always_matches_date(self):
        # the day is not stored: each date must fall on the weekday drawn for
        # its event, the first draws of the stream
        cfg = make_config(tau=10)
        events = assign_event_attributes(500, cfg, RandomSource(2))
        drawn = pmf_sample_indices(cfg.model.pmf_day, 500, RandomSource(2)).tolist()
        days = [DAY_BINS[d] for d in day_index(events.date).tolist()]
        assert days == [cfg.model.pmf_day.support[i] for i in drawn]

    def test_event_numbering_and_location(self):
        cfg = make_config(loc="Route 9")
        events = assign_event_attributes(25, cfg, RandomSource(1))
        assert [no for no, *_ in rows_of(events)] == list(range(1, 26))
        assert {loc for *_, loc, _ in rows_of(events)} == {"Route 9"}

    def test_dates_uniform_among_matching_weekdays(self):
        # a 14-day window holds two Mondays; each should get half the events
        cfg = make_config(tau=14, pmf_day=pmf_from_counts({DayBin.MONDAY: 1}))
        events = assign_event_attributes(10_000, cfg, RandomSource(3))
        first_monday = dt.date(2015, 2, 23)
        dates = [date for _, date, *_ in rows_of(events)]
        share = dates.count(first_monday) / 10_000
        assert abs(share - 0.5) <= 0.02
        assert set(dates) == {
            first_monday,
            first_monday + dt.timedelta(days=7),
        }


def reference_dates(count, config, rng):
    """The event dates of assign_event_attributes, drawn from the same
    uniforms by listing the window's dates of each weekday and picking one
    of the sampled weekday's: the reference for its arithmetic placement.
    A weekday the window does not hold gets no mass, the rest of the day
    pmf being renormalised, unless the window holds no weekday with mass."""
    dates_by_day = {day: [] for day in DAY_BINS}
    for i in range(config.tau):
        date = config.start_date + dt.timedelta(days=i)
        dates_by_day[weekday_of(date)].append(date.toordinal())
    pmf_day = config.model.pmf_day
    held = [p if dates_by_day[day] else 0.0 for day, p in zip(pmf_day.support, pmf_day.probs)]
    if held != list(pmf_day.probs):
        if not any(held):
            labels = [day.label for day, p in zip(pmf_day.support, pmf_day.probs) if p > 0.0]
            raise PsSimError(
                f"window too short for day pmf: no {' or '.join(labels)} in the "
                f"{config.tau}-day window starting {config.start_date}"
            )
        pmf_day = pmf_from_counts(dict(zip(pmf_day.support, held)))
    day_idx = pmf_sample_indices(pmf_day, count, rng).tolist()
    pmf_sample_indices(config.model.pmf_time, count, rng)
    pmf_sample_indices(config.model.pmf_ev_type, count, rng)
    u_date = rng.generator.random(count).tolist()
    picked = []
    for i, u in zip(day_idx, u_date):
        candidates = dates_by_day[pmf_day.support[i]]
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


def events_of(*types, vocabulary=None):
    """An EventTable of one Monday event per type.  Its type vocabulary is
    the types in first-seen order, or ``vocabulary``, which starts with
    them and may add types no event has."""
    events = event_table((1, dt.date(2015, 2, 23), TemporalBin.MD, "Elm Street", t) for t in types)
    if vocabulary is None:
        return events
    assert vocabulary[: len(events.types)] == events.types
    return dataclasses.replace(events, types=vocabulary)


class TestAttributeReports:
    def test_single_participant_forced_outcome(self):
        reports = attribute_reports(events_of("Jam"), [5], 0.0, RandomSource(4))
        assert len(reports) == 5
        rows = rows_of(reports)
        assert {source for *_, source, _, _ in rows} == {"UID000001"}
        assert all(reported == occurred == "Jam" for *_, reported, occurred in rows)
        assert [report_no for _, _, _, report_no, *_ in rows] == [1, 2, 3, 4, 5]

    def test_lie_fraction_converges(self):
        quotas = np.full(100, 100, dtype=np.int64)  # 10,000 reports
        events = events_of("Jam", "Accident", vocabulary=("Jam", "Accident", "Hazard"))
        reports = attribute_reports(events, quotas, 0.1, RandomSource(12))
        lies = sum(1 for *_, reported, occurred in rows_of(reports) if reported != occurred)
        assert abs(lies / 10_000 - 0.1) <= 0.009

    def test_certain_lie_never_reports_the_occurred_type(self):
        quotas = np.full(10, 10, dtype=np.int64)
        events = events_of("Jam", "Accident")
        reports = attribute_reports(events, quotas, 1.0, RandomSource(1))
        assert np.all(reports.reported != reports.occurred)

    def test_lies_uniform_over_complement(self):
        # the lies cover the whole type vocabulary, also types no event has
        quotas = np.full(100, 100, dtype=np.int64)
        types = ("Jam", "Accident", "Hazard")
        reports = attribute_reports(
            events_of("Jam", vocabulary=types), quotas, 1.0, RandomSource(9)
        )
        assert reports.types == types
        lied = [types[i] for i in reports.reported.tolist()]
        assert "Jam" not in lied
        assert abs(lied.count("Accident") / 10_000 - 0.5) <= 0.015

    def test_singleton_types_rejected_when_lying(self):
        with pytest.raises(PsSimError, match="two event types"):
            attribute_reports(events_of("Jam"), [3], 0.5, RandomSource(0))

    def test_quota_conservation(self):
        rng_q = np.random.default_rng(3)
        quotas = rng_q.integers(0, 6, size=40).astype(np.int64)
        quotas[0] = max(quotas[0], 1)
        reports = attribute_reports(events_of("Jam"), quotas, 0.0, RandomSource(7))
        assert len(reports) == int(quotas.sum())
        assert reports.sources == tuple(f"UID{i + 1:06d}" for i in range(40))
        per_user = defaultdict(int)
        for *_, source, _, _ in rows_of(reports):
            per_user[source] += 1
        for i, q in enumerate(quotas):
            assert per_user[f"UID{i + 1:06d}"] == q

    def test_empty_pool_rejected(self):
        with pytest.raises(PsSimError, match="no remaining quota"):
            attribute_reports(events_of("Jam"), [0, 0], 0.0, RandomSource(0))

    def test_no_events_rejected(self):
        with pytest.raises(PsSimError, match="no events"):
            attribute_reports(events_of(), [3], 0.0, RandomSource(0))


class TestSimulate:
    def test_deterministic_for_fixed_config(self):
        cfg = make_config(pr_lie=0.2, seed=77)
        t1 = simulate(cfg)
        t2 = simulate(cfg)
        assert rows_of(t1.reports) == rows_of(t2.reports)
        assert rows_of(t1.events) == rows_of(t2.events)

    def test_referential_integrity_and_ordering(self):
        trace = simulate(make_config(seed=13, pr_lie=0.15, n=50))
        events = {(no, date, time) for no, date, time, *_ in rows_of(trace.events)}
        reports = rows_of(trace.reports)
        assert [report_no for _, _, _, report_no, *_ in reports] == list(
            range(1, len(trace.reports) + 1)
        )
        assert all((no, date, time) in events for no, date, time, *_ in reports)

    def test_report_count_equals_quota_sum(self):
        cfg = make_config(seed=21, n=35)
        trace = simulate(cfg)
        params = rescale(cfg.model.mlog, cfg.model.sdlog, cfg.tau)
        quotas = lognormal_sample_counts(
            cfg.n, params, RandomSource(cfg.seed).substream("quotas")
        )
        assert len(trace.reports) == int(quotas.sum())

    def test_events_can_collect_mixed_truthful_and_false_reports(self):
        trace = simulate(make_config(seed=3, pr_lie=0.3, n=60, lambda_e=1.0))
        by_event = defaultdict(list)
        for row in rows_of(trace.reports):
            by_event[row[0]].append(row)
        assert trace.lie_count > 0
        mixed = [
            rows
            for rows in by_event.values()
            if len(rows) >= 2
            and any(reported != occurred for *_, reported, occurred in rows)
            and any(reported == occurred for *_, reported, occurred in rows)
        ]
        assert mixed, "expected at least one event with both truthful and false reports"
        # every row of one event shares the event's occurred type and slot
        rows = mixed[0]
        assert len({(occurred, date, time) for _, date, time, *_, occurred in rows}) == 1

    def test_marginal_day_frequencies_follow_pmf(self):
        weights = {d: w for d, w in zip(DayBin, (5, 18, 17, 16, 18, 15, 6))}
        cfg = make_config(
            pmf_day=pmf_from_counts(weights), n=400, lambda_e=40.0, seed=31
        )
        trace = simulate(cfg)
        freq = defaultdict(int)
        for d in day_index(trace.events.date).tolist():
            freq[DAY_BINS[d]] += 1
        total = len(trace.events)
        for d, p in zip(cfg.model.pmf_day.support, cfg.model.pmf_day.probs):
            assert abs(freq[d] / total - p) <= 3 * math.sqrt(p * (1 - p) / total) + 1e-9

    def test_all_quotas_zero_is_an_error(self):
        cfg = make_config(mlog=-12.0, sdlog=0.1, n=3, seed=1)
        with pytest.raises(PsSimError, match="quotas"):
            simulate(cfg)


class TestModelConfig:
    """A fitted model runs as it is, inside a SimConfig of run fields."""

    MODEL = Model(
        mlog=0.9, sdlog=0.4, lambda_overall=5.0, lambda_by_loc={"Elm Street": 2.5, "Route 9": 1.5},
        pmf_day=pmf_from_counts({d: i + 1 for i, d in enumerate(DAY_BINS)}),
        pmf_time=pmf_from_counts({b: 1 for b in TemporalBin}),
        pmf_ev_type=pmf_from_counts({"Jam": 3, "Hazard": 1}),
    )

    def test_a_location_gets_its_fitted_lambda_and_any_other_the_overall(self):
        for loc, lam in (("Elm Street", 2.5), ("Route 9", 1.5), ("Harbor Drive", 5.0), (None, 5.0)):
            config = SimConfig(tau=7, n=10, seed=1, loc=loc, model=self.MODEL)
            assert config.model.lambda_at(config.loc) == lam
            draws = RandomSource(1).substream("events").generator.poisson(lam=lam, size=8 * 7)
            assert gen_poisson_events(config, RandomSource(1).substream("events")) == draws.sum()
            assert simulate(config).events.locs == (loc or DEFAULT_LOC,)

    def test_fitted_model_over_the_run_defaults(self):
        config = SimConfig(tau=14, n=30, seed=3, pr_lie=0.2, loc="Route 9", model=self.MODEL)
        assert config == dataclasses.replace(
            SimConfig(tau=14, n=30, seed=3, pr_lie=0.2, loc="Route 9"), model=self.MODEL
        )
        assert (config.start_date, config.model.lambda_at(config.loc)) == (dt.date(2015, 2, 23), 1.5)
        assert config.model.pmf_ev_type.support == ("Jam", "Hazard")
        assert simulate(config).events.types == ("Jam", "Hazard")

    def test_fields_replace_the_fitted_ones(self):
        model = dataclasses.replace(self.MODEL, lambda_overall=9.0, lambda_by_loc={}, mlog=0.1)
        assert (model.lambda_at("Route 9"), model.mlog, model.sdlog) == (9.0, 0.1, 0.4)
        with pytest.raises(PsSimError, match="sdlog"):
            dataclasses.replace(self.MODEL, sdlog=float("nan"))


class TestTraceTables:
    def test_lie_count_matches_rows(self):
        trace = simulate(make_config(seed=4, pr_lie=0.3, n=60))
        assert trace.lie_count == sum(
            1 for *_, reported, occurred in rows_of(trace.reports) if reported != occurred
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
