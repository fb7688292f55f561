import csv
import dataclasses
import datetime as dt
import hashlib
import math
from collections.abc import Sequence

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_CSV, canonical_table, make_config, rows_of, trace_table
from pssim import analysis
from pssim.analysis import (
    BinnedSeries,
    _user_weekly,
    autocorrelation,
    bin_reports,
    estimate_evtype_pmf,
    estimate_lambda,
    estimate_pmfs,
    filter_outliers,
    mean_weekly,
    qq_against_lognormal,
    weekly_samples_by_location,
)
from pssim.distributions import LogNormalParams, RandomSource, fit_lognormal, pmf_from_counts
from pssim.errors import PsSimError
from pssim.formats import read_raw_reports
from pssim.simulator import simulate
from pssim.types import DayBin, TemporalBin, weekday_of

WINDOW_START = dt.date(2015, 2, 23)
WINDOW = (WINDOW_START, 7)


def ingested(date, time, source="u1", loc="Elm Street", incident="Jam"):
    """A canonical_table row."""
    return date, time, source, loc, incident


def brute_force_tally(path):
    """Independent oracle: parse the sample CSV with the stdlib and tally
    cells, day counts, and per-user weekly counts by hand."""
    cells = {}
    day_counts = [0] * 7  # Sunday-first
    user_weeks = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            text = row["timestamp"]
            if text.endswith("Z"):
                text = text[:-1] + "+00:00"
            stamp = dt.datetime.fromisoformat(text).astimezone(dt.timezone.utc)
            hour = stamp.hour
            if 3 <= hour < 6:
                b = 0
            elif 6 <= hour < 9:
                b = 1
            elif 9 <= hour < 12:
                b = 2
            elif 12 <= hour < 15:
                b = 3
            elif 15 <= hour < 18:
                b = 4
            elif 18 <= hour < 21:
                b = 5
            elif 21 <= hour < 24:
                b = 6
            else:
                b = 7
            offset = (stamp.date() - WINDOW_START).days
            assert 0 <= offset < 7, "sample data must lie inside its week"
            cells[(offset, b)] = cells.get((offset, b), 0) + 1
            day_counts[(stamp.date().weekday() + 1) % 7] += 1
            week = offset // 7
            user = row["sourceId"]
            user_weeks.setdefault(user, {})
            user_weeks[user][week] = user_weeks[user].get(week, 0) + 1
    return cells, day_counts, user_weeks


class TestBinReports:
    def test_single_report_lands_in_its_cell(self):
        monday_4am = ingested(WINDOW_START, TemporalBin.EM)
        binned = bin_reports(canonical_table([monday_4am]), WINDOW)
        assert binned.overall.cells[0] == 1  # day 0, bin EM
        assert binned.overall.cells.sum() == 1
        assert binned.per_location["Elm Street"].cells[0] == 1

    def test_out_of_window_excluded_with_counter(self):
        inside = ingested(WINDOW_START, TemporalBin.MD)
        outside = ingested(WINDOW_START + dt.timedelta(days=30), TemporalBin.MD)
        binned = bin_reports(canonical_table([inside, outside]), WINDOW)
        assert binned.excluded == 1
        assert binned.accepted == 1

    # a blank ingested type never reaches a table: read_canonical rejects it
    @pytest.mark.parametrize(
        "table", [trace_table([(1, WINDOW_START, TemporalBin.MD, 1, "u1", "", "Jam")])],
        ids=["trace"],
    )
    def test_blank_type_is_excluded_for_every_row_class(self, table):
        binned = bin_reports(table, WINDOW)
        assert (binned.accepted, binned.excluded) == (0, 1)

    def test_empty_window_rejected(self):
        with pytest.raises(PsSimError, match="empty window"):
            bin_reports(canonical_table([]), (WINDOW_START, 0))

    def test_conservation(self):
        rng = np.random.default_rng(3)
        bins = list(TemporalBin)
        reports = canonical_table(
            ingested(
                WINDOW_START + dt.timedelta(days=int(rng.integers(0, 12))),
                bins[int(rng.integers(0, 8))],
                source=f"u{rng.integers(0, 9)}",
            )
            for _ in range(400)
        )
        binned = bin_reports(reports, WINDOW)
        assert int(binned.overall.cells.sum()) + binned.excluded == 400

    def test_sample_csv_matches_brute_force_tally(self):
        cells, day_counts, user_weeks = brute_force_tally(SAMPLE_CSV)
        reports, rejects = read_raw_reports(SAMPLE_CSV)
        assert rejects == {}
        binned = bin_reports(reports, WINDOW)
        for offset in range(7):
            for b in range(8):
                assert binned.overall.cells[offset * 8 + b] == cells.get(
                    (offset, b), 0
                )
        assert binned.user_weekly == user_weeks


class TestEstimatePmfs:
    def test_uniform_counts_give_uniform_pmfs(self):
        cells = np.full(7 * 8, 5, dtype=np.int64)
        pmf_day, pmf_time = estimate_pmfs(BinnedSeries("x", WINDOW_START, cells))
        assert all(p == pytest.approx(1 / 7) for p in pmf_day.probs)
        assert all(p == pytest.approx(1 / 8) for p in pmf_time.probs)

    def test_bimodal_time_peaks_preserved(self):
        day_pattern = np.array([2, 3, 4, 20, 5, 6, 7, 18], dtype=np.int64)
        cells = np.tile(day_pattern, 7)
        _, pmf_time = estimate_pmfs(BinnedSeries("x", WINDOW_START, cells))
        probs = dict(zip(pmf_time.support, pmf_time.probs))
        top_two = sorted(probs, key=probs.get)[-2:]
        assert set(top_two) == {TemporalBin.MD, TemporalBin.N}

    def test_sample_csv_day_pmf_matches_hand_tally(self):
        _, day_counts, _ = brute_force_tally(SAMPLE_CSV)
        reports, _ = read_raw_reports(SAMPLE_CSV)
        binned = bin_reports(reports, WINDOW)
        pmf_day, _ = estimate_pmfs(binned.overall)
        expected = pmf_from_counts(
            {day: day_counts[day.index] for day in DayBin}
        )
        assert dict(zip(pmf_day.support, pmf_day.probs)) == pytest.approx(
            dict(zip(expected.support, expected.probs))
        )

    def test_evtype_pmf_sorted_support(self):
        reports = canonical_table(
            ingested(WINDOW_START, TemporalBin.EM, incident=t)
            for t in ("Jam", "Accident", "Jam", "Hazard")
        )
        pmf = estimate_evtype_pmf(reports)
        assert pmf.support == ("Accident", "Hazard", "Jam")
        assert dict(zip(pmf.support, pmf.probs))["Jam"] == 0.5


class TestEstimateLambda:
    def test_constant_cells(self):
        series = BinnedSeries("x", WINDOW_START, np.full(8, 5, dtype=np.int64))
        assert estimate_lambda(series) == 5.0

    def test_simple_mean(self):
        assert estimate_lambda([0, 2, 4]) == 2.0

    def test_empty_cells_rejected(self):
        with pytest.raises(PsSimError):
            estimate_lambda([])

    def test_recovers_poisson_rate(self):
        lam = 6.5
        cells = RandomSource(40).generator.poisson(lam, size=56 * 20)
        series = BinnedSeries("x", WINDOW_START, cells.astype(np.int64))
        bound = 3 * math.sqrt(lam / cells.size)
        assert abs(estimate_lambda(series) - lam) <= bound


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        assert autocorrelation([1.0, 5.0, 2.0, 4.0], 0) == 1.0

    def test_period_eight_structure_peaks_at_lag_eight(self):
        daily = np.array([2, 3, 4, 30, 6, 8, 10, 26], dtype=np.float64)
        rates = np.tile(daily, 7)
        cells = RandomSource(6).generator.poisson(rates)
        acf = [autocorrelation(cells, lag) for lag in range(1, 9)]
        assert acf[7] > 0.6
        assert acf[7] > max(acf[:7])

    def test_iid_noise_is_uncorrelated(self):
        series = RandomSource(8).generator.normal(0, 1, size=10_000)
        for lag in range(1, 9):
            assert abs(autocorrelation(series, lag)) < 0.05

    def test_constant_series_rejected(self):
        with pytest.raises(PsSimError, match="constant series"):
            autocorrelation([3.0] * 20, 1)

    def test_lag_bounds(self):
        with pytest.raises(PsSimError):
            autocorrelation([1.0, 2.0, 3.0], 2)
        with pytest.raises(PsSimError):
            autocorrelation([1.0, 2.0, 3.0], -1)

    def test_affine_invariance(self):
        series = RandomSource(9).generator.normal(5, 2, size=200)
        for a, b in ((2.0, 0.0), (0.5, 10.0), (7.5, -3.0)):
            for lag in (1, 3, 8):
                assert autocorrelation(a * series + b, lag) == pytest.approx(
                    autocorrelation(series, lag), abs=1e-9
                )

    def test_reversal_symmetry(self):
        series = RandomSource(10).generator.normal(0, 1, size=300)
        for lag in (1, 5, 9):
            assert autocorrelation(series[::-1], lag) == pytest.approx(
                autocorrelation(series, lag), abs=1e-9
            )


class TestQq:
    def test_self_fit_is_tight(self):
        params = LogNormalParams(1.2, 0.6)
        samples = RandomSource(14).generator.lognormal(1.2, 0.6, size=10_000)
        qq = qq_against_lognormal(samples, fit_lognormal(samples))
        assert qq.r2 >= 0.99
        assert len(qq.theoretical) == len(qq.empirical) == 10_000
        theo = qq.theoretical.tolist()
        assert theo == sorted(theo)

    def test_uniform_samples_fit_worse(self):
        gen = RandomSource(15).generator
        uniform = gen.random(10_000) + 1e-9
        lognormal = gen.lognormal(0.0, 0.5, size=10_000)
        r2_uniform = qq_against_lognormal(uniform, fit_lognormal(uniform)).r2
        r2_self = qq_against_lognormal(lognormal, fit_lognormal(lognormal)).r2
        assert r2_self >= 0.99
        assert r2_uniform < r2_self - 0.01

    # SHA-256 of the newline-joined float.hex of the theoretical quantiles
    # at the 20,660 plotting positions of the fit_validate export.
    QUANTILE_DIGESTS = {
        (0.0, 1.0): "d1b193e5aa5f29ecf59a6d3f0a58c370f5ba804bb22467120878c1b730a23260",
        (1.3, 0.64): "52ad1531d22015bc86792440b28cfb658df640f4f2a4ef16988e042627c7b5e4",
        (-2.5, 3.0): "c373f9390669d65f7f426990349f8043bb02f43d16be55a8b4a214db02ea4bee",
    }

    @pytest.mark.parametrize("m, s", list(QUANTILE_DIGESTS))
    def test_theoretical_quantiles_are_pinned_bit_for_bit(self, m, s):
        qq = qq_against_lognormal(np.arange(1.0, 20_661), LogNormalParams(m, s))
        text = "\n".join(x.hex() for x in qq.theoretical.tolist())
        assert hashlib.sha256(text.encode()).hexdigest() == self.QUANTILE_DIGESTS[m, s]

    def test_identical_samples_rejected(self):
        with pytest.raises(PsSimError, match="zero variance"):
            qq_against_lognormal([2.0] * 10, LogNormalParams(0.0, 1.0))

    def test_too_few_samples_rejected(self):
        with pytest.raises(PsSimError):
            qq_against_lognormal([1.0, 2.0, 3.0], LogNormalParams(0.0, 1.0))


class TestFilterOutliers:
    def test_equal_counts_keep_everyone(self):
        counts = {f"u{i}": 3.0 for i in range(50)}
        kept, rejected = filter_outliers(counts, 99.5)
        assert kept == counts
        assert rejected == []

    def test_extreme_user_removed(self):
        counts = {f"u{i}": 3.0 for i in range(200)}
        counts["whale"] = 800.0
        kept, rejected = filter_outliers(counts, 99.5)
        assert rejected == ["whale"]
        assert "whale" not in kept

    def test_percentile_just_below_max_removes_exactly_the_max(self):
        counts = {f"u{i}": float(i + 1) for i in range(20)}  # distinct counts
        kept, rejected = filter_outliers(counts, 100.0 - 1e-9)
        assert rejected == ["u19"]
        assert len(kept) == 19

    def test_percentile_bounds(self):
        with pytest.raises(PsSimError):
            filter_outliers({"a": 1.0}, 0.0)
        with pytest.raises(PsSimError):
            filter_outliers({"a": 1.0}, 100.0)


class TestRoundTrip:
    def test_pmfs_estimated_from_trace_match_generating_pmfs(self):
        day_w = {d: w for d, w in zip(DayBin, (5, 18, 17, 16, 18, 15, 6))}
        time_w = {b: w for b, w in zip(TemporalBin, (4, 8, 10, 22, 12, 10, 14, 20))}
        cfg = make_config(
            tau=14,
            n=1200,
            mlog=math.log(12.0),
            lambda_e=50.0,
            seed=77,
            pmf_day=pmf_from_counts(day_w),
            pmf_time=pmf_from_counts(time_w),
        )
        trace = simulate(cfg)
        assert len(trace.reports) >= 15_000
        binned = bin_reports(trace.reports, (cfg.start_date, cfg.tau))
        pmf_day, pmf_time = estimate_pmfs(binned.overall)
        for fitted, true in ((pmf_day, cfg.pmf_day), (pmf_time, cfg.pmf_time)):
            a = np.asarray([dict(zip(fitted.support, fitted.probs))[s] for s in true.support])
            b = np.asarray(true.probs)
            r = np.corrcoef(a, b)[0, 1]
            assert r >= 0.99


# -- row-at-a-time oracles for the columnar counting stages -------------------


def oracle_bin(rows, window):
    """Tally canonical_table rows one at a time, in order, with dicts."""
    start, days = window
    end = start + dt.timedelta(days=days)
    overall = [0] * (8 * days)
    per_loc = {}
    user_weekly = {}
    excluded = accepted = 0
    for date, time, source, loc, _ in rows:
        if not start <= date < end:
            excluded += 1
            continue
        cell = (date - start).days * 8 + time.index
        overall[cell] += 1
        per_loc.setdefault(loc, [0] * (8 * days))[cell] += 1
        weeks = user_weekly.setdefault(source, {})
        week = (date - start).days // 7
        weeks[week] = weeks.get(week, 0) + 1
        accepted += 1
    return overall, per_loc, user_weekly, excluded, accepted


def oracle_evtype_counts(rows):
    counts = {}
    for *_, label in rows:
        counts[label] = counts.get(label, 0) + 1
    return {k: counts[k] for k in sorted(counts)}


def oracle_histogram(rows, axis):
    if axis == "perUser":
        per_user = {}
        for _, _, source, _, _ in rows:
            per_user[source] = per_user.get(source, 0) + 1
        freq = {}
        for c in per_user.values():
            freq[c] = freq.get(c, 0) + 1
        return {c: freq[c] / len(per_user) for c in sorted(freq)}
    support = list(DayBin) if axis == "perDayBin" else list(TemporalBin)
    counts = {s: 0 for s in support}
    for date, time, *_ in rows:
        counts[weekday_of(date) if axis == "perDayBin" else time] += 1
    return {s: counts[s] / len(rows) for s in support}


def shuffled_canonical(seed, n=600):
    """A CanonicalTable of reports over 5 weeks around a 30-day window, in
    random order, so first-seen order differs from sorted order everywhere."""
    rng = np.random.default_rng(seed)
    bins = list(TemporalBin)
    return canonical_table(
        ingested(
            WINDOW_START + dt.timedelta(days=int(rng.integers(-3, 34))),
            bins[int(rng.integers(0, 8))],
            source=f"u{int(rng.integers(0, 40)):02d}",
            loc=("Route 9", "Elm Street", "Harbor Drive")[int(rng.integers(0, 3))],
            incident=("Jam", "Accident", "Hazard", "Closure")[int(rng.integers(0, 4))],
        )
        for _ in range(n)
    )


def simulated_trace(seed):
    return simulate(make_config(n=60, tau=21, lambda_e=4.0, pr_lie=0.3, seed=seed)).reports


ORACLE_WINDOW = (WINDOW_START, 30)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["canonical", "trace"])
class TestColumnarMatchesOracle:
    def inputs(self, kind, seed):
        """A CanonicalTable or a ReportTable, and its rows as canonical_table
        rows for the oracles: a trace report has the default location and
        its reported type."""
        if kind == "canonical":
            table = shuffled_canonical(seed)
            return table, rows_of(table)
        table = simulated_trace(seed)
        return table, [
            (date, time, source, "unspecified", reported)
            for _, date, time, _, source, reported, _ in rows_of(table)
        ]

    def test_bin_reports(self, kind, seed):
        table, rows = self.inputs(kind, seed)
        # the trace spans 21 days from WINDOW_START; cut both of its ends
        window = ORACLE_WINDOW if kind == "canonical" else (WINDOW_START + dt.timedelta(days=5), 10)
        overall, per_loc, user_weekly, excluded, accepted = oracle_bin(rows, window)
        assert excluded > 0 and accepted > 0
        binned = bin_reports(table, window)
        assert binned.overall.cells.tolist() == overall
        assert [(loc, s.cells.tolist()) for loc, s in binned.per_location.items()] == list(
            per_loc.items()
        )
        # dict order is part of the result: users, then weeks, first seen
        assert [(u, list(w.items())) for u, w in binned.user_weekly.items()] == [
            (u, list(w.items())) for u, w in user_weekly.items()
        ]
        assert binned.weekly_samples() == [
            float(c) for w in user_weekly.values() for c in w.values()
        ]
        assert (binned.excluded, binned.accepted) == (excluded, accepted)

    def test_estimate_evtype_pmf(self, kind, seed):
        table, rows = self.inputs(kind, seed)
        assert estimate_evtype_pmf(table) == pmf_from_counts(oracle_evtype_counts(rows))

    @pytest.mark.parametrize("axis", ["perUser", "perDayBin", "perTimeBin"])
    def test_histogram(self, kind, seed, axis):
        from pssim.validation import histogram

        table, rows = self.inputs(kind, seed)
        got = histogram(table, axis)
        assert list(got.items()) == list(oracle_histogram(rows, axis).items())
        if axis == "perUser":
            assert all(type(k) is int for k in got)


def test_canonical_subsets_keep_the_row_order():
    table = shuffled_canonical(4)
    pick = np.random.default_rng(4).permutation(len(table))[:250]
    subset = table.take(pick)
    rows = rows_of(table)
    assert rows_of(subset) == [rows[i] for i in pick.tolist()]
    binned = bin_reports(subset, ORACLE_WINDOW)
    _, _, user_weekly, _, _ = oracle_bin(rows_of(subset), ORACLE_WINDOW)
    assert binned.weekly_samples() == [float(c) for w in user_weekly.values() for c in w.values()]


# -- per-(user, week) pair columns --------------------------------------------


def interleaved_rows():
    """A CanonicalTable of users whose first rows interleave, whose weeks
    appear out of order, and one user who is only seen outside the window."""
    plan = [
        ("u3", 15), ("u1", 2), ("u3", 0), ("u2", 22), ("u1", 29), ("u3", 15),
        ("u1", 9), ("u5", 31), ("u2", 1), ("u1", 2), ("u3", 8), ("u2", 22),
        ("u4", 28), ("u3", 0), ("u5", -1), ("u1", 16), ("u4", 3),
    ]
    return canonical_table(
        ingested(WINDOW_START + dt.timedelta(days=day), TemporalBin.MD, source=user)
        for user, day in plan
    )


def pair_rows(binned):
    """The pair columns as (user, week, count) rows."""
    return [
        (binned.users[u], w, c)
        for u, w, c in zip(
            binned.pair_user.tolist(), binned.pair_week.tolist(), binned.pair_count.tolist()
        )
    ]


@pytest.mark.parametrize("case", ["interleaved", "shuffled-1", "shuffled-2", "subset"])
def test_pair_columns_match_the_oracle(case):
    if case == "interleaved":
        rows = interleaved_rows()
    else:
        rows = shuffled_canonical(int(case[-1]) if case != "subset" else 5)
        if case == "subset":
            rows = rows.take(np.random.default_rng(5).permutation(len(rows))[:200])
    _, _, user_weekly, _, _ = oracle_bin(rows_of(rows), ORACLE_WINDOW)
    binned = bin_reports(rows, ORACLE_WINDOW)
    assert binned.users == list(user_weekly)
    assert pair_rows(binned) == [
        (u, w, c) for u, weeks in user_weekly.items() for w, c in weeks.items()
    ]
    samples = binned.weekly_samples()
    assert all(type(x) is float for x in samples)
    assert [x.hex() for x in samples] == [
        float(c).hex() for weeks in user_weekly.values() for c in weeks.values()
    ]
    # the mean the outlier filter of ingest compares
    assert list(mean_weekly(rows, ORACLE_WINDOW).items()) == [
        (u, sum(weeks.values()) / len(weeks)) for u, weeks in user_weekly.items()
    ]


def test_interleaved_users_keep_their_first_seen_weeks():
    binned = bin_reports(interleaved_rows(), ORACLE_WINDOW)
    assert binned.users == ["u3", "u1", "u2", "u4"]
    assert binned.user_weekly == {
        "u3": {2: 2, 0: 2, 1: 1},
        "u1": {0: 2, 4: 1, 1: 1, 2: 1},
        "u2": {3: 2, 0: 1},
        "u4": {4: 1, 0: 1},
    }


def test_no_reports_in_the_window_give_empty_pairs():
    rows = canonical_table([ingested(WINDOW_START - dt.timedelta(days=1), TemporalBin.MD)])
    binned = bin_reports(rows, ORACLE_WINDOW)
    assert binned.users == [] and binned.user_weekly == {}
    assert binned.weekly_samples() == [] and mean_weekly(rows, ORACLE_WINDOW) == {}


class ManyNames(Sequence):
    """2**62 source names, built on access; a code out of range raises."""

    def __len__(self):
        return 2**62

    def __getitem__(self, code):
        if not 0 <= code < len(self):
            raise IndexError(code)
        return f"s{code}"


def test_user_codes_are_compacted_when_keys_would_overflow():
    # 2**62 source codes times 4 weeks times 5 rows passes int64
    source = np.array([2**61, 5, 2**61, 7, 5], dtype=np.int64)
    week = np.array([3, 0, 1, 3, 0])
    users, pair_user, pair_week, pair_count = _user_weekly(source, week, ManyNames())
    assert users == [f"s{2**61}", "s5", "s7"]
    assert pair_user.tolist() == [0, 0, 1, 2]
    assert pair_week.tolist() == [3, 1, 0, 3]
    assert pair_count.tolist() == [1, 1, 2, 1]


def grouped(source, week, sources, cells_per_row=None):
    """``_user_weekly``'s result, and whether it counted densely; with
    ``cells_per_row``, the dense bound is patched to that value."""
    if cells_per_row is None:
        cells_per_row = analysis.DENSE_CELLS_PER_ROW
    spy = mock.patch.object(analysis, "_first_rows", wraps=analysis._first_rows)
    with spy as first_rows, mock.patch.object(analysis, "DENSE_CELLS_PER_ROW", cells_per_row):
        result = _user_weekly(np.asarray(source), np.asarray(week), sources)
    return result, first_rows.called


def assert_same_grouping(a, b):
    assert a[0] == b[0]
    for x, y in zip(a[1:], b[1:]):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)), min_size=1, max_size=60),
    st.integers(0, 200),
)
def test_dense_and_sorted_grouping_agree(rows, spare_codes):
    source, week = zip(*rows)
    sources = [f"s{code}" for code in range(max(source) + 1 + spare_codes)]
    dense, was_dense = grouped(source, week, sources, cells_per_row=10**9)
    by_sort, was_sorted = grouped(source, week, sources, cells_per_row=0)
    assert was_dense and not was_sorted
    assert_same_grouping(dense, by_sort)


@pytest.mark.parametrize("rows", [1, 40, 1000])
@pytest.mark.parametrize("past_bound", [0, 1])
def test_grouping_at_the_dense_bound(rows, past_bound):
    # one week, so the code space is the vocabulary size
    cells = analysis.DENSE_CELLS_PER_ROW * (rows + 256) + past_bound
    rng = np.random.default_rng(rows)
    source = rng.integers(0, cells, rows)
    source[0] = cells - 1  # the widest code used
    sources = range(cells)
    result, was_dense = grouped(source, np.zeros(rows, dtype=np.int64), sources)
    assert was_dense == (not past_bound)
    assert_same_grouping(result, grouped(source, np.zeros(rows, dtype=np.int64), sources, 0)[0])
    order = list(dict.fromkeys(source.tolist()))
    assert result[0] == order
    assert result[3].tolist() == [int(np.count_nonzero(source == code)) for code in order]


def per_subset_samples(table, window):
    """The reference: bin_reports of each location's reports alone."""
    code_of = {name: code for code, name in enumerate(table.locs)}
    out = {}
    for name in bin_reports(table, window).per_location:
        binned = bin_reports(table.take(table.loc == code_of[name]), window)
        out[name] = [sample.hex() for sample in binned.weekly_samples()]
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_weekly_samples_by_location_equal_the_per_subset_path(seed):
    table = shuffled_canonical(seed)
    samples = weekly_samples_by_location(table, ORACLE_WINDOW)
    hexed = {name: [sample.hex() for sample in values] for name, values in samples.items()}
    assert hexed == per_subset_samples(table, ORACLE_WINDOW)
    assert len(hexed) == 3 and all(hexed.values())


def test_weekly_samples_by_location_on_the_sample_export():
    table, _ = read_raw_reports(SAMPLE_CSV)
    window = (dt.date(2015, 2, 23), 35)
    samples = weekly_samples_by_location(table, window)
    hexed = {name: [sample.hex() for sample in values] for name, values in samples.items()}
    assert hexed == per_subset_samples(table, window)


def test_weekly_samples_by_location_take_the_last_code_of_a_name():
    # two codes name "A": the per-subset path binned only the last one's reports
    from pssim.table import CanonicalTable

    table = CanonicalTable.from_codes(
        np.full(4, WINDOW_START.toordinal()), np.zeros(4), [0, 1, 0, 0], {"u": 0, "v": 1},
        [0, 1, 1, 2], {"A": 0, "A ": 1, "B": 2}, np.zeros(4), {"Jam": 0},
    )
    table = dataclasses.replace(table, locs=("A", "A", "B"))
    samples = weekly_samples_by_location(table, WINDOW)
    assert samples == {"A": [1.0, 1.0], "B": [1.0]}
    assert {name: [x.hex() for x in v] for name, v in samples.items()} == per_subset_samples(
        table, WINDOW
    )
