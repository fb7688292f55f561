import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SAMPLE_CSV, make_config, trace_table
from pssim.analysis import estimate_model, fit_models
from pssim.distributions import RandomSource, pmf_from_counts
from pssim.errors import PsSimError
from pssim.formats import read_raw_reports
from pssim.simulator import simulate
from pssim.types import DayBin, SimConfig, TemporalBin
from pssim.validation import (
    AXES,
    align_histograms,
    compare_axes,
    cross_validate,
    fold_config,
    histogram,
    kfold_split,
    pearson_correlation,
    rmse,
    summarize,
)

MONDAY = dt.date(2015, 2, 23)


def report(source="u1", day_offset=0, time=TemporalBin.MD, no=1):
    """A trace_table row."""
    return 1, MONDAY + dt.timedelta(days=day_offset), time, no, source, "Jam", "Jam"


class TestKfold:
    def test_singleton_folds(self):
        items = [report(no=i) for i in range(10)]
        folds = kfold_split(items, 10, RandomSource(1))
        assert len(folds) == 10
        assert all(len(f) == 1 for f in folds)

    def test_partition_property(self):
        items = list(range(47))
        folds = kfold_split(items, 5, RandomSource(3))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        flat = [x for f in folds for x in f]
        assert sorted(flat) == items
        assert len(set(flat)) == len(items)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 120), k=st.integers(2, 12), seed=st.integers(0, 2**32))
    def test_partition_property_random(self, n, k, seed):
        if k > n:
            return
        items = list(range(n))
        folds = kfold_split(items, k, RandomSource(seed))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(x for f in folds for x in f) == items

    def test_deterministic_per_seed(self):
        items = list(range(30))
        a = kfold_split(items, 4, RandomSource(9))
        b = kfold_split(items, 4, RandomSource(9))
        assert a == b

    def test_bad_k(self):
        with pytest.raises(PsSimError):
            kfold_split([1, 2, 3], 1, RandomSource(0))
        with pytest.raises(PsSimError):
            kfold_split([1, 2, 3], 4, RandomSource(0))


class TestHistogram:
    def test_per_user_fractions(self):
        reports = trace_table(
            [report(source="a", no=i) for i in range(2)]
            + [report(source="b", no=i) for i in range(2)]
            + [report(source="c", no=i) for i in range(5)]
        )
        h = histogram(reports, "perUser")
        assert h == {2: pytest.approx(2 / 3), 5: pytest.approx(1 / 3)}

    def test_indicator_time_histogram(self):
        reports = trace_table(report(time=TemporalBin.MD, no=i) for i in range(9))
        h = histogram(reports, "perTimeBin")
        assert h[TemporalBin.MD] == 1.0
        assert sum(h.values()) == pytest.approx(1.0, abs=1e-9)
        assert len(h) == 8

    def test_day_histogram_sums_to_one(self):
        reports = trace_table(report(day_offset=i % 7, no=i) for i in range(25))
        h = histogram(reports, "perDayBin")
        assert len(h) == 7
        assert sum(h.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_input_rejected(self):
        with pytest.raises(PsSimError):
            histogram(trace_table([]), "perUser")
        with pytest.raises(PsSimError):
            histogram(trace_table([report()]), "perFortnight")

    def test_sample_csv_per_user_histogram_matches_hand_tally(self):
        import csv
        from collections import Counter

        from conftest import SAMPLE_CSV
        from pssim.formats import read_raw_reports

        with open(SAMPLE_CSV, newline="", encoding="utf-8") as handle:
            per_user = Counter(row["sourceId"] for row in csv.DictReader(handle))
        count_freq = Counter(per_user.values())
        users = len(per_user)
        expected = {c: count_freq[c] / users for c in count_freq}

        reports, _ = read_raw_reports(SAMPLE_CSV)
        assert histogram(reports, "perUser") == pytest.approx(expected)

    def test_alignment_zero_fills_union_support(self):
        a = {1: 0.5, 2: 0.5}
        b = {2: 0.25, 4: 0.75}
        va, vb = align_histograms(a, b)
        assert va.tolist() == [0.5, 0.5, 0.0]
        assert vb.tolist() == [0.0, 0.25, 0.75]


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == 1.0
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed_oracle(self):
        assert pearson_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=50)
        for lam, c in ((2.0, 1.0), (0.3, -4.0)):
            assert pearson_correlation(a, lam * a + c) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(PsSimError, match="zero variance"):
            pearson_correlation([1, 1, 1], [1, 2, 3])


class TestRmse:
    def test_identical_vectors(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_closed_form(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5355339059327378)

    def test_symmetry(self):
        a = [1.0, 5.0, 2.0]
        b = [0.0, 4.0, 4.0]
        assert rmse(a, b) == rmse(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(PsSimError):
            rmse([1.0], [1.0, 2.0])


class TestCrossValidate:
    def test_self_consistency_on_simulated_data(self):
        # a trace validated against itself bounds how well real data can do
        day_w = {d: w for d, w in zip(DayBin, (5, 18, 17, 16, 18, 15, 6))}
        time_w = {b: w for b, w in zip(TemporalBin, (4, 8, 10, 22, 12, 10, 14, 20))}
        cfg = make_config(
            n=2500,
            lambda_e=30.0,
            mlog=math.log(12.0),
            sdlog=0.6,
            seed=2024,
            pmf_day=pmf_from_counts(day_w),
            pmf_time=pmf_from_counts(time_w),
            pmf_ev_type=pmf_from_counts({"Jam": 5, "Accident": 3, "Hazard": 2}),
        )
        trace = simulate(cfg)
        results = cross_validate(trace.reports, k=2, seed=99)
        assert len(results) == 2
        for r in results:
            for axis in AXES:
                assert r.axis(axis).correlation >= 0.97

    def test_k_below_two_rejected(self):
        with pytest.raises(PsSimError):
            cross_validate(trace_table([report()]), k=1, seed=0)

    def test_deterministic(self):
        trace = simulate(make_config(n=300, seed=8, lambda_e=10.0))
        a = cross_validate(trace.reports, k=3, seed=5)
        b = cross_validate(trace.reports, k=3, seed=5)
        assert a == b

    def test_summarize_shape(self):
        trace = simulate(make_config(n=300, seed=8, lambda_e=10.0))
        stats = summarize(cross_validate(trace.reports, k=3, seed=5))
        assert set(stats) == set(AXES)
        for axis in AXES:
            assert set(stats[axis]) == {
                "correlation_mean",
                "correlation_std",
                "rmse_mean",
                "rmse_std",
            }


class TestFoldConfig:
    def test_shape_parameters_are_the_fitted_ones(self):
        # validate's per-fold model must be what `pssim fit` gives for the
        # same training rows
        reports, _ = read_raw_reports(SAMPLE_CSV)
        first, last = int(reports.date.min()), int(reports.date.max())
        window = (dt.date.fromordinal(first), last - first + 1)
        held_out = np.arange(len(reports)) % 3 == 0
        train, fold = reports.take(~held_out), reports.take(held_out)
        model = fit_models(train, window, per_location=False)[0]
        config = fold_config(train, fold, window, seed=1)
        assert config.model.sdlog == model.sdlog
        assert config.model.lambda_at(config.loc) == model.lambda_overall
        assert (config.model.pmf_day, config.model.pmf_time, config.model.pmf_ev_type) == (
            model.pmf_day, model.pmf_time, model.pmf_ev_type
        )

    def test_is_the_fitted_model_with_the_anchored_mlog(self):
        reports, _ = read_raw_reports(SAMPLE_CSV)
        first, last = int(reports.date.min()), int(reports.date.max())
        start, days = dt.date.fromordinal(first), last - first + 1
        held_out = np.arange(len(reports)) % 3 == 0
        train, fold = reports.take(~held_out), reports.take(held_out)
        model, _ = estimate_model(train, (start, days))
        users = len(set(fold.source.tolist()))
        # the expected quota of a participant over the window is the fold's
        # mean reports per user
        mlog = math.log(len(fold) / users) - model.sdlog**2 / 2 - math.log(days / 7)
        assert fold_config(train, fold, (start, days), seed=9) == SimConfig(
            tau=days, n=users, seed=9, start_date=start,
            model=dataclasses.replace(model, mlog=mlog),
        )


class TestCompareAxes:
    def test_identical_sets_have_unit_correlation(self):
        trace = simulate(make_config(n=200, seed=4, lambda_e=8.0))
        axes = compare_axes(trace.reports, trace.reports)
        for axis in AXES:
            assert axes[axis].correlation == pytest.approx(1.0)
            assert axes[axis].rmse == 0.0
