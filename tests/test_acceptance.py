"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with ``pytest tests/test_acceptance.py -v -s``)."""

import csv
import datetime as dt
import math
import time

import numpy as np
from click.testing import CliRunner

from conftest import GOLDEN_TRACE, make_config
from pssim.analysis import autocorrelation, bin_reports, estimate_pmfs, qq_against_lognormal
from pssim.cli import bench_grid, fit_growth_exponents, main
from pssim.distributions import (
    LogNormalParams,
    RandomSource,
    fit_lognormal,
    lognormal_cdf,
    lognormal_sample_counts,
    pmf_from_counts,
    rescale,
)
from pssim.simulator import gen_poisson_events, simulate
from pssim.types import DayBin, TemporalBin, weekday_of
from pssim.validation import histogram, pearson_correlation, rmse

DAY_WEIGHTS = dict(zip(DayBin, (5, 18, 17, 16, 18, 15, 6)))
TIME_WEIGHTS = dict(zip(TemporalBin, (4, 8, 10, 22, 12, 10, 14, 20)))


def report_pass(number: int, text: str) -> None:
    print(f"\ncriterion {number:02d} PASS: {text}")


def test_criterion_01_determinism_and_golden_trace(tmp_path):
    args = [
        "simulate", "--tau", "7", "--n", "25", "--seed", "20150223",
        "--pr-lie", "0.1", "--lambda", "4",
    ]
    runner = CliRunner()
    started = time.perf_counter()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        result = runner.invoke(main, args + ["--out", str(out)], catch_exceptions=False)
        assert result.exit_code == 0
    elapsed = time.perf_counter() - started
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == GOLDEN_TRACE.read_bytes()
    assert elapsed < 1.0
    report_pass(
        1, f"identical traces across runs, golden fixture matched ({elapsed:.2f}s)"
    )


def test_criterion_02_normalization_over_randomized_counts():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(10_000):
        size = int(rng.integers(1, 15))
        counts = {f"c{i}": int(rng.integers(0, 10_000)) for i in range(size)}
        counts["c0"] = max(counts["c0"], 1)
        pmf = pmf_from_counts(counts)
        worst = max(worst, abs(math.fsum(pmf.probs) - 1.0))
    assert worst <= 1e-9
    report_pass(2, f"10,000 randomized pmfs normalized; worst |sum-1| = {worst:.2e}")


def test_criterion_03_lognormal_fit_recovery():
    started = time.perf_counter()
    params = rescale(1.0986, 0.5, 7)
    quotas = lognormal_sample_counts(
        10_000, params, RandomSource(301).substream("quotas")
    )
    fitted = fit_lognormal(quotas[quotas > 0].astype(float))
    elapsed = time.perf_counter() - started
    assert abs(fitted.m - 1.0986) <= 0.03
    assert abs(fitted.s - 0.5) <= 0.03
    assert elapsed < 5.0
    report_pass(
        3,
        f"refit of 10,000 quotas gave m={fitted.m:.4f} s={fitted.s:.4f} "
        f"(targets 1.0986/0.5, tol 0.03; {elapsed:.2f}s)",
    )


def test_criterion_04_poisson_event_count():
    started = time.perf_counter()
    cfg = make_config(tau=7, lambda_e=25.29)
    counts = [gen_poisson_events(cfg, RandomSource(seed)) for seed in range(100)]
    elapsed = time.perf_counter() - started
    mean = float(np.mean(counts))
    target = 8 * 7 * 25.29
    bound = 3 * math.sqrt(target / 100)
    assert abs(mean - target) <= bound
    assert elapsed < 10.0
    report_pass(
        4,
        f"mean event count {mean:.2f} vs {target:.2f} "
        f"(dev {abs(mean - target):.2f} <= {bound:.2f}; {elapsed:.2f}s)",
    )


def test_criterion_05_lie_rate():
    started = time.perf_counter()
    cfg = make_config(
        n=3000, mlog=math.log(16.0), lambda_e=20.0, pr_lie=0.1, seed=505,
        pmf_day=pmf_from_counts(DAY_WEIGHTS), pmf_time=pmf_from_counts(TIME_WEIGHTS),
    )
    trace = simulate(cfg)
    elapsed = time.perf_counter() - started
    assert len(trace.reports) >= 50_000
    fraction = trace.lie_count / len(trace.reports)
    assert abs(fraction - 0.1) <= 0.0041
    assert elapsed < 5.0
    report_pass(
        5,
        f"false fraction {fraction:.4f} over {len(trace.reports)} reports "
        f"(tol 0.0041; {elapsed:.2f}s)",
    )


def test_criterion_06_round_trip_distribution_fidelity():
    cfg = make_config(
        tau=14, n=5000, mlog=math.log(9.0), sdlog=0.5, lambda_e=80.0, seed=606,
        pmf_day=pmf_from_counts(DAY_WEIGHTS), pmf_time=pmf_from_counts(TIME_WEIGHTS),
        pmf_ev_type=pmf_from_counts({"Jam": 5, "Accident": 3, "Hazard": 2}),
    )
    trace = simulate(cfg)
    assert len(trace.reports) >= 100_000

    binned = bin_reports(trace.reports, (cfg.start_date, cfg.tau))
    pmf_day, pmf_time = estimate_pmfs(binned.overall)
    metrics = {}
    for axis, fitted, true in (
        ("day", pmf_day, cfg.model.pmf_day),
        ("time", pmf_time, cfg.model.pmf_time),
    ):
        a = np.asarray([dict(zip(fitted.support, fitted.probs))[s] for s in true.support])
        b = np.asarray(true.probs)
        r = pearson_correlation(a, b)
        err = rmse(a, b)
        assert r >= 0.99, axis
        assert err <= 0.01, axis
        metrics[axis] = (r, err)

    # per-user axis: observed quota histogram against the generating
    # rounded-log-normal law, conditioned on making at least one report
    h = histogram(trace.reports, "perUser")
    law = LogNormalParams(cfg.model.mlog + math.log(cfg.tau / 7.0), cfg.model.sdlog)
    p_zero = lognormal_cdf(0.5, law)
    support = sorted(h)
    theory = np.asarray(
        [
            (lognormal_cdf(j + 0.5, law) - lognormal_cdf(j - 0.5, law)) / (1 - p_zero)
            for j in support
        ]
    )
    observed = np.asarray([h[j] for j in support])
    r_user = pearson_correlation(observed, theory)
    assert r_user >= 0.95
    report_pass(
        6,
        "round trip on a {n}-report trace: day r={dr:.4f}/rmse={de:.4f}, "
        "time r={tr:.4f}/rmse={te:.4f}, per-user r={ur:.4f}".format(
            n=len(trace.reports),
            dr=metrics["day"][0], de=metrics["day"][1],
            tr=metrics["time"][0], te=metrics["time"][1],
            ur=r_user,
        ),
    )


def test_criterion_07_aggregation_oracle_equivalence(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(70)
    bins = list(TemporalBin)
    rows = []
    for _ in range(1000):
        date = dt.date(2015, 2, 23) + dt.timedelta(days=int(rng.integers(0, 14)))
        rows.append(
            (
                date,
                bins[int(rng.integers(0, 8))],
                f"street-{int(rng.integers(0, 5))}",
                ("Jam", "Accident", "Hazard")[int(rng.integers(0, 3))],
                f"W{int(rng.integers(1, 60)):04d}",
            )
        )
    dataset = tmp_path / "records.csv"
    with open(dataset, "w", newline="") as handle:
        w = csv.writer(handle, lineterminator="\n")
        w.writerow(["date", "day", "time", "sourceId", "loc", "incidentType"])
        for date, b, loc, incident, source in rows:
            w.writerow(
                [date.isoformat(), weekday_of(date).label, b.label, source, loc, incident]
            )

    runner = CliRunner()
    outputs = []
    for p in (1, 4, 16):
        out = tmp_path / f"events-{p}.csv"
        result = runner.invoke(
            main,
            ["aggregate", str(dataset), "--out", str(out), "--workers", str(p)],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    oracle = {}
    for date, b, loc, incident, _source in rows:
        key = (date.isoformat(), b.label, loc, incident)
        oracle[key] = oracle.get(key, 0) + 1
    with open(tmp_path / "events-1.csv", newline="") as handle:
        got = {
            (r["date"], r["dayTime"], r["loc"], r["incidentType"]): int(
                r["supportCount"]
            )
            for r in csv.DictReader(handle)
        }
    elapsed = time.perf_counter() - started
    assert got == oracle
    assert elapsed < 1.0
    report_pass(
        7,
        f"P in (1,4,16) byte-identical and equal to the dictionary-count oracle "
        f"({len(oracle)} events; {elapsed:.2f}s)",
    )


def test_criterion_08_acf_periodicity():
    started = time.perf_counter()
    daily = np.array([2, 3, 4, 30, 6, 8, 10, 26], dtype=np.float64)
    cells = RandomSource(6).generator.poisson(np.tile(daily, 7))
    acf = [autocorrelation(cells, lag) for lag in range(1, 9)]
    elapsed = time.perf_counter() - started
    assert acf[7] > 0.6
    assert acf[7] > max(acf[:7])
    assert elapsed < 1.0
    report_pass(
        8,
        f"ACF(8)={acf[7]:.3f} > 0.6 and > max(ACF(1..7))={max(acf[:7]):.3f} "
        f"on a 56-cell daily-period series ({elapsed:.2f}s)",
    )


def test_criterion_09_qq_self_fit():
    started = time.perf_counter()
    samples = RandomSource(90).generator.lognormal(1.2, 0.6, size=10_000)
    qq = qq_against_lognormal(samples, fit_lognormal(samples))
    elapsed = time.perf_counter() - started
    assert qq.r2 >= 0.99
    assert elapsed < 2.0
    report_pass(9, f"Q-Q self-fit r^2 = {qq.r2:.4f} on 10,000 samples ({elapsed:.2f}s)")


def test_criterion_10_scalability_envelope():
    rows = bench_grid(
        range(100, 1001, 100), range(10, 101, 10), seed=1, repeats=1
    )
    assert len(rows) == 100
    largest = next(t for n, m, t in rows if n == 1000 and m == 100)
    smallest = next(t for n, m, t in rows if n == 100 and m == 10)
    assert largest < 10.0
    assert largest > smallest  # coarse monotonicity of cost in workload
    exp_n, exp_m = fit_growth_exponents(rows)
    assert exp_n <= 2.5
    assert exp_m <= 2.5
    report_pass(
        10,
        f"grid completed; (n=1000, m=100) took {largest:.3f}s < 10s; "
        f"growth ~ n^{exp_n:.2f} m^{exp_m:.2f} (each <= 2.5)",
    )
