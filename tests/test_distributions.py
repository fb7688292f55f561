import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pssim.distributions import (
    LogNormalParams,
    Pmf,
    RandomSource,
    _categorical_indices,
    fit_lognormal,
    lognormal_cdf,
    lognormal_quantile,
    lognormal_sample_counts,
    pmf_from_counts,
    pmf_sample_indices,
    rescale,
    uniform_pmf,
)
from pssim.errors import PsSimError


class TestPmf:
    def test_from_counts_symmetric(self):
        pmf = pmf_from_counts({"Mon": 1, "Tue": 1})
        assert dict(zip(pmf.support, pmf.probs)) == {"Mon": 0.5, "Tue": 0.5}

    def test_from_counts_ratio(self):
        pmf = pmf_from_counts({"Jam": 3, "Accident": 1})
        assert dict(zip(pmf.support, pmf.probs)) == {"Jam": 0.75, "Accident": 0.25}

    def test_empty_and_zero_counts_rejected(self):
        with pytest.raises(PsSimError, match="empty distribution"):
            pmf_from_counts({})
        with pytest.raises(PsSimError, match="empty distribution"):
            pmf_from_counts({"A": 0, "B": 0})

    def test_negative_counts_rejected(self):
        with pytest.raises(PsSimError):
            pmf_from_counts({"A": -1, "B": 2})

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(PsSimError):
            Pmf(("A", "B"), (0.6, 0.6))

    def test_duplicate_support_rejected(self):
        with pytest.raises(PsSimError):
            Pmf(("A", "A"), (0.5, 0.5))

    def test_uniform_pmf_rejects_empty_and_duplicated_supports(self):
        with pytest.raises(PsSimError, match=r"duplicate-free, repeated: \['Jam'\]"):
            uniform_pmf(("Jam", "Accident", "Jam"))
        with pytest.raises(PsSimError, match="empty distribution"):
            uniform_pmf(())

    @pytest.mark.parametrize("size", [1, 3, 4, 7, 8, 13])
    def test_uniform_pmf_equals_uniform_counts_bit_for_bit(self, size):
        support = tuple(f"t{i}" for i in range(size))
        assert uniform_pmf(iter(support)) == pmf_from_counts({t: 1 for t in support})

    def test_randomized_counts_always_normalized(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            size = int(rng.integers(1, 12))
            counts = {f"c{i}": int(rng.integers(0, 1000)) for i in range(size)}
            counts["c0"] = max(counts["c0"], 1)
            pmf = pmf_from_counts(counts)
            assert abs(math.fsum(pmf.probs) - 1.0) <= 1e-9


class TestPmfSampling:
    def test_degenerate_pmf(self):
        pmf = pmf_from_counts({"A": 1})
        assert pmf_sample_indices(pmf, 50, RandomSource(0)).tolist() == [0] * 50

    def test_frequency_converges(self):
        pmf = pmf_from_counts({"A": 1, "B": 1})
        idx = pmf_sample_indices(pmf, 10_000, RandomSource(3))
        freq_a = float((idx == 0).mean())
        assert abs(freq_a - 0.5) <= 0.02  # binomial 3-sigma is ~0.015

    def test_zero_mass_never_sampled(self):
        pmf = Pmf(("A", "B", "C"), (0.5, 0.0, 0.5))
        idx = pmf_sample_indices(pmf, 5_000, RandomSource(8))
        assert not np.any(idx == 1)

    def test_same_seed_same_sequence(self):
        pmf = pmf_from_counts({"A": 2, "B": 5, "C": 3})
        draws1 = pmf_sample_indices(pmf, 100, RandomSource(99))
        draws2 = pmf_sample_indices(pmf, 100, RandomSource(99))
        assert np.array_equal(draws1, draws2)


def searchsorted_indices(cumulative, u):
    """The sampler's reference: binary search, clamped to the last index."""
    return np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)


@st.composite
def cumulatives_and_uniforms(draw):
    """A pmf's cumulative, possibly with zero-probability entries and a last
    entry short of 1, and uniforms that include its entries and their
    neighbouring floats."""
    counts = draw(st.lists(st.integers(0, 3) | st.integers(0, 10**9), min_size=1, max_size=12))
    if not any(counts):
        counts[-1] = 1
    shortfall = draw(st.integers(0, 3))  # ulps of 1 the last entry misses
    cumulative = pmf_from_counts(dict(enumerate(counts))).cumulative() * (1.0 - shortfall * 2**-53)
    edges = [
        x
        for c in cumulative.tolist()
        for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))
        if 0.0 <= x < 1.0
    ]
    u = draw(
        st.lists(st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from(edges), max_size=40)
    )
    return cumulative, np.asarray(u, dtype=np.float64)


class TestCategoricalIndices:
    @settings(max_examples=300, deadline=None)
    @given(cumulatives_and_uniforms())
    def test_equal_to_the_clamped_binary_search(self, case):
        cumulative, u = case
        expected = searchsorted_indices(cumulative, u)
        got = _categorical_indices(cumulative, u)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_boundaries_and_a_rounded_down_last_entry(self):
        cumulative = Pmf(tuple(range(10)), (0.1,) * 10).cumulative()
        assert cumulative[-1] < 1.0  # ten tenths sum to 1 - 2**-53
        u = np.array([0.0, 0.1, np.nextafter(0.1, 0.0), cumulative[-1], np.nextafter(1.0, 0.0)])
        assert _categorical_indices(cumulative, u).tolist() == [0, 1, 0, 9, 9]
        assert np.array_equal(
            _categorical_indices(cumulative, u), searchsorted_indices(cumulative, u)
        )

    def test_pmf_sample_reads_one_uniform(self):
        pmf = pmf_from_counts({"A": 2, "B": 0, "C": 5, "D": 3})
        for seed in range(20):
            u = RandomSource(seed).generator.random(30)
            expected = searchsorted_indices(pmf.cumulative(), u)
            assert np.array_equal(pmf_sample_indices(pmf, 30, RandomSource(seed)), expected)


class TestLogNormal:
    def test_median_is_exp_m(self):
        for m, s in ((0.0, 1.0), (1.3, 0.4), (-2.0, 2.5)):
            assert lognormal_cdf(math.exp(m), LogNormalParams(m, s)) == pytest.approx(
                0.5, abs=1e-12
            )

    def test_support_violation(self):
        with pytest.raises(PsSimError, match="support violation"):
            fit_lognormal([0.0, 1.0])
        with pytest.raises(PsSimError, match="support violation"):
            fit_lognormal([2.0, -1.0])

    def test_quantile_inverts_cdf(self):
        params = LogNormalParams(0.7, 0.9)
        for p in (0.01, 0.3, 0.5, 0.97):
            assert lognormal_cdf(
                lognormal_quantile(p, params), params
            ) == pytest.approx(p, abs=1e-9)

    def test_quantile_levels_must_be_inside_the_unit_interval(self):
        for p in (0.0, 1.0, math.nan):
            with pytest.raises(PsSimError, match="quantile level"):
                lognormal_quantile(p, LogNormalParams(0.0, 1.0))

    def test_scale_must_be_positive(self):
        with pytest.raises(PsSimError):
            LogNormalParams(0.0, 0.0)


class TestQuotaSampling:
    def test_degenerate_scale_gives_exp_m(self):
        quotas = lognormal_sample_counts(
            1, LogNormalParams(math.log(3.0), 1e-9), RandomSource(4)
        )
        assert quotas.tolist() == [3]

    def test_sample_mean_matches_lognormal_mean(self):
        quotas = lognormal_sample_counts(
            10_000, LogNormalParams(math.log(3.0), 0.5), RandomSource(11)
        )
        target = 3.0 * math.exp(0.125)  # e^{M + S^2/2}
        # 3 standard errors of the continuous mean
        assert abs(float(quotas.mean()) - target) <= 0.0544

    def test_quotas_nonnegative_integers(self):
        quotas = lognormal_sample_counts(
            5_000, LogNormalParams(-1.0, 1.0), RandomSource(2)
        )
        assert quotas.dtype == np.int64
        assert int(quotas.min()) >= 0
        assert int(quotas.min()) == 0  # low location parameter yields silent users

    def test_same_seed_same_vector(self):
        p = LogNormalParams(1.0, 0.3)
        a = lognormal_sample_counts(1000, p, RandomSource(5))
        b = lognormal_sample_counts(1000, p, RandomSource(5))
        assert np.array_equal(a, b)


class TestFitLogNormal:
    def test_two_point_log_moments(self):
        params = fit_lognormal([1.0, math.e**2])
        assert params.m == pytest.approx(1.0, abs=1e-12)
        assert params.s == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_identical_samples_rejected(self):
        with pytest.raises(PsSimError, match="zero variance"):
            fit_lognormal([math.e] * 10)

    def test_too_few_or_nonpositive_rejected(self):
        with pytest.raises(PsSimError):
            fit_lognormal([2.0])
        with pytest.raises(PsSimError):
            fit_lognormal([1.0, -2.0, 3.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.5, 1e6), min_size=2, max_size=60).flatmap(
            lambda samples: st.tuples(st.just(samples), st.permutations(samples))
        )
    )
    def test_any_order_of_the_samples_gives_the_same_bits(self, pair):
        samples, permuted = pair
        assume(len(set(samples)) > 1)  # identical samples are rejected
        a, b = fit_lognormal(samples), fit_lognormal(np.asarray(permuted))
        assert (a.m.hex(), a.s.hex()) == (b.m.hex(), b.s.hex())

    def test_estimator_recovers_parameters(self):
        draws = RandomSource(7).generator.lognormal(1.0, 0.5, size=50_000)
        params = fit_lognormal(draws)
        assert abs(params.m - 1.0) <= 0.02
        assert abs(params.s - 0.5) <= 0.02


class TestRescale:
    def test_identity_at_one_week(self):
        params = rescale(1.0986, 0.5, 7)
        assert params.m == 1.0986
        assert params.s == 0.5

    def test_two_weeks_adds_ln_two(self):
        params = rescale(1.0986, 0.5, 14)
        assert params.m == pytest.approx(1.7917471805599453, abs=1e-12)
        assert params.s == 0.5

    def test_expected_count_doubles_with_duration(self):
        week = rescale(0.4, 0.7, 7)
        fortnight = rescale(0.4, 0.7, 14)
        ratio = math.exp(fortnight.m + fortnight.s**2 / 2) / math.exp(
            week.m + week.s**2 / 2
        )
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(PsSimError):
            rescale(0.0, 1.0, 0)


class TestRandomSource:
    def test_generator_is_named_and_pinned(self):
        assert RandomSource(0).generator.bit_generator.__class__.__name__ == "PCG64"

    def test_golden_substream_values(self):
        # frozen draws guard the stream discipline and numpy bit-stream stability
        draws = RandomSource(2025).substream("quotas").generator.random(3)
        assert draws.tolist() == [
            0.7124748767089096,
            0.5716374312290028,
            0.4352381492142753,
        ]

    def test_substreams_are_independent_of_sibling_usage(self):
        a1 = RandomSource(10).substream("alpha").generator.random(5)
        other = RandomSource(10)
        other.substream("beta").generator.random(1000)  # unrelated activity
        a2 = other.substream("alpha").generator.random(5)
        assert np.array_equal(a1, a2)

    def test_distinct_substreams_differ(self):
        a = RandomSource(10).substream("alpha").generator.random(5)
        b = RandomSource(10).substream("beta").generator.random(5)
        assert not np.array_equal(a, b)

    def test_seed_bounds(self):
        with pytest.raises(PsSimError):
            RandomSource(-1)
        with pytest.raises(PsSimError):
            RandomSource(2**64)
