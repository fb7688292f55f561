from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pssim
from conftest import make_config
from pssim import _kernels
from pssim._kernels import assign_participants
from pssim.simulator import simulate


def sequential_oracle(quotas, u):
    """The step-by-step loop the clock sampler replaces: each report goes to
    a participant drawn uniformly (u[t] selects the index) among those with
    quota left, whose quota then drops by one."""
    remaining = np.asarray(quotas, dtype=np.int64).tolist()
    active = [i for i, q in enumerate(remaining) if q > 0]
    out = []
    for x in u.tolist():
        j = min(int(x * len(active)), len(active) - 1)
        pid = active[j]
        out.append(pid)
        remaining[pid] -= 1
        if remaining[pid] == 0:
            active[j] = active[-1]
            active.pop()
    return np.asarray(out, dtype=np.int64)


def oracle_law(quotas):
    """Every sequence the oracle can emit, with its probability: the
    product of 1/|active| over its steps."""
    law = {}

    def walk(remaining, prefix, prob):
        active = [i for i, q in enumerate(remaining) if q > 0]
        if not active:
            law[tuple(prefix)] = prob
            return
        for i in active:
            remaining[i] -= 1
            walk(remaining, prefix + [i], prob / len(active))
            remaining[i] += 1

    walk(list(quotas), [], 1.0)
    return law


def chi_square(sampler, quotas, draws, seed):
    law = oracle_law(quotas)
    assert abs(sum(law.values()) - 1.0) < 1e-12
    rng = np.random.default_rng(seed)
    total = sum(quotas)
    seen = {}
    for _ in range(draws):
        seq = tuple(sampler(np.asarray(quotas, dtype=np.int64), rng.random(total)).tolist())
        seen[seq] = seen.get(seq, 0) + 1
    assert set(seen) <= set(law)
    return sum((seen.get(s, 0) - draws * p) ** 2 / (draws * p) for s, p in law.items()), len(law) - 1


@pytest.mark.parametrize("quotas, draws, seed", [((3, 1, 2, 0, 1), 60_000, 1301), ((2, 2, 1), 50_000, 1302)])
@pytest.mark.parametrize("sampler", [assign_participants, sequential_oracle])
def test_sequence_law_is_the_sequential_loops(sampler, quotas, draws, seed):
    # (3, 1, 2, 0, 1) has 420 sequences, (2, 2, 1) has 30; the bound is the
    # mean plus five standard deviations of a chi-square on that many dof
    stat, dof = chi_square(sampler, quotas, draws, seed)
    assert stat < dof + 5 * np.sqrt(2 * dof)


@settings(max_examples=200, deadline=None)
@given(quotas=st.lists(st.integers(0, 6), min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
def test_property_output_rearranges_the_quotas(quotas, seed):
    quotas = np.asarray(quotas, dtype=np.int64)
    out = assign_participants(quotas, np.random.default_rng(seed).random(int(quotas.sum())))
    assert out.dtype == np.int64
    assert np.array_equal(np.bincount(out, minlength=len(quotas)), quotas)
    assert not np.isin(out, np.flatnonzero(quotas == 0)).any()


def test_python_kernel_conserves_quotas():
    # the sampler and the Python loop kept as its oracle
    rng = np.random.default_rng(0)
    quotas = rng.integers(0, 8, size=50).astype(np.int64)
    u = rng.random(int(quotas.sum()))
    for sampler in (assign_participants, sequential_oracle):
        assert np.array_equal(np.bincount(sampler(quotas, u), minlength=50), quotas)


def test_python_kernel_skips_zero_quota_participants():
    quotas = np.array([0, 3, 0, 2], dtype=np.int64)
    u = np.random.default_rng(1).random(5)
    for sampler in (assign_participants, sequential_oracle):
        assert set(sampler(quotas, u).tolist()) <= {1, 3}


def test_exact_ties_keep_participant_major_order():
    x = 0.5  # participants 0 and 3 share a gap, and u = 0 is a zero gap
    quotas = np.array([2, 1, 0, 2], dtype=np.int64)
    u = np.array([0.0, x, 0.0, 0.0, x])
    for _ in range(20):
        assert assign_participants(quotas, u).tolist() == [0, 1, 3, 0, 3]
        assert assign_participants(quotas, np.zeros(5)).tolist() == [0, 0, 1, 3, 3]


def test_many_exact_ties_give_the_stable_order():
    # numpy sorts 5 clocks by insertion sort, which is stable anyway; tens of
    # thousands of clocks that often tie exactly reach its unstable sorts
    rng = np.random.default_rng(3)
    quotas = rng.integers(0, 40, size=4000)
    u = rng.integers(0, 2, size=int(quotas.sum())) * 0.5  # gaps 0 and ln 2
    assert len(u) >= 50_000
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        out = assign_participants(quotas, u)
    clock = argsort.call_args_list[0].args[0]
    assert argsort.call_count == 2  # the ties sent it to the stable sort
    held = np.flatnonzero(quotas)
    expected = np.repeat(held, quotas[held])[np.argsort(clock, kind="stable")]
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("length", [2, 4])
def test_wrong_uniform_count_raises(length):
    quotas = np.array([1, 0, 2], dtype=np.int64)
    with pytest.raises(ValueError, match="quota units"):
        assign_participants(quotas, np.random.default_rng(2).random(length))


def test_no_quota_gives_no_reports():
    assert assign_participants(np.zeros(3, dtype=np.int64), np.empty(0)).tolist() == []


def test_first_pick_uniform_over_active_not_quota_weighted():
    # participant 0 holds nearly all quota but the first pick is still 50/50
    quotas = np.array([9999, 1], dtype=np.int64)
    rng = np.random.default_rng(7)
    first = [int(assign_participants(quotas, rng.random(10000))[0]) for _ in range(2000)]
    share = np.mean(first)
    assert abs(share - 0.5) < 0.05


def test_simulate_calls_the_kernel_get_backend_names(monkeypatch):
    # perfbench's tracer wraps the function it finds through get_backend
    name, module = _kernels.get_backend("auto")
    original = module.assign_participants
    calls = []

    def spy(quotas, u):
        calls.append(len(u))
        return original(quotas, u)

    monkeypatch.setattr(module, "assign_participants", spy)
    trace = simulate(make_config(seed=3, n=40))
    assert calls == [len(trace.reports)]
    assert name == pssim.KERNEL_BACKEND == "numpy"
