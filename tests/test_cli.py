import csv
import datetime as dt
import json
import random

import pytest
from click.testing import CliRunner

from conftest import GOLDEN_TRACE, SAMPLE_CSV, rows_of
from pssim.cli import main
from pssim.formats import load_model
from pssim.types import weekday_of

GOLDEN_ARGS = [
    "simulate",
    "--tau", "7",
    "--n", "25",
    "--seed", "20150223",
    "--pr-lie", "0.1",
    "--lambda", "4",
]


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


class TestIngest:
    def test_well_formed_file(self, runner, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "timestamp,sourceId,loc,incidentType\n"
            "2015-02-23T04:00:00Z,u1,Elm Street,Jam\n"
            "2015-02-24T13:00:00Z,u2,Route 9,Accident\n"
            "2015-02-25T22:00:00Z,u3,Elm Street,Jam\n"
        )
        out = tmp_path / "canon.csv"
        result = run_ok(runner, ["ingest", str(raw), "--out", str(out)])
        assert "accepted 3 reports" in result.output
        assert "rejected 0 rows" in result.output

    def test_bad_row_rejected_with_reason(self, runner, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "timestamp,sourceId,loc,incidentType\n"
            "not-a-date,u1,Elm Street,Jam\n"
            "2015-02-23T04:00:00Z,u2,Elm Street,Jam\n"
        )
        out = tmp_path / "canon.csv"
        result = run_ok(runner, ["ingest", str(raw), "--out", str(out)])
        assert "accepted 1 reports" in result.output
        assert "rejected 1 rows: bad timestamp" in result.output

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["ingest", str(tmp_path / "nope.csv"), "--out", "x.csv"]
        )
        assert result.exit_code == 2

    def test_missing_header_exits_2(self, runner, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("a,b\n1,2\n")
        result = runner.invoke(
            main, ["ingest", str(raw), "--out", str(tmp_path / "c.csv")]
        )
        assert result.exit_code == 2

    def test_column_mapping_flag(self, runner, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("when,sourceId,loc,incidentType\n2015-02-23T04:00:00Z,u1,A,Jam\n")
        out = tmp_path / "canon.csv"
        result = run_ok(
            runner, ["ingest", str(raw), "--out", str(out), "--col", "timestamp=when"]
        )
        assert "accepted 1 reports" in result.output

    def test_outlier_pct_100_disables_filtering(self, runner, tmp_path):
        out = tmp_path / "canon.csv"
        result = run_ok(
            runner,
            ["ingest", str(SAMPLE_CSV), "--out", str(out), "--outlier-pct", "100"],
        )
        assert "outlier users removed 0 (0 reports)" in result.output
        assert "accepted 375 reports" in result.output

    def test_sample_dataset_filters_outlier_user(self, runner, tmp_path):
        out = tmp_path / "canon.csv"
        result = run_ok(runner, ["ingest", str(SAMPLE_CSV), "--out", str(out)])
        assert "outlier users removed 1 (60 reports)" in result.output

    def test_ingest_at_realistic_scale(self, runner, tmp_path):
        # ~22,910 users, 71,505 reports, 991 streets: the scale of a one-week
        # city-wide export must ingest without error
        import numpy as np

        rng = np.random.default_rng(99)
        users, reports, streets = 22_910, 71_505, 991
        raw = tmp_path / "big.csv"
        base = dt.datetime(2015, 2, 23, tzinfo=dt.timezone.utc)
        with open(raw, "w", newline="", encoding="utf-8") as handle:
            handle.write("timestamp,sourceId,loc,incidentType\n")
            user_ids = rng.integers(1, users + 1, size=reports)
            user_ids[: users] = np.arange(1, users + 1)  # every user appears
            offsets = rng.integers(0, 7 * 24 * 3600, size=reports)
            locs = rng.integers(0, streets, size=reports)
            kinds = rng.integers(0, 4, size=reports)
            kind_names = ("Jam", "Accident", "RoadClosure", "Hazard")
            for i in range(reports):
                stamp = base + dt.timedelta(seconds=int(offsets[i]))
                handle.write(
                    f"{stamp.isoformat()},u{user_ids[i]},street-{locs[i]},"
                    f"{kind_names[kinds[i]]}\n"
                )
        out = tmp_path / "canon.csv"
        result = run_ok(runner, ["ingest", str(raw), "--out", str(out)])
        assert "rejected 0 rows" in result.output

    @pytest.mark.parametrize("pct", ["50", "80", "97.5"])
    def test_outlier_pct_drops_users_above_their_mean_weekly_percentile(
        self, runner, tmp_path, pct
    ):
        # 40 users over 4 weeks, each reporting in some weeks only, and
        # their first rows interleaved; the oracle counts with dicts
        import numpy as np

        from pssim.analysis import filter_outliers

        rng = np.random.default_rng(int(float(pct) * 10))
        base = dt.datetime(2015, 2, 23, tzinfo=dt.timezone.utc)
        rows, weekly = [], {}
        for _ in range(1500):
            user = f"u{int(rng.integers(0, 40)) ** 2 % 97:02d}"
            seconds = int(rng.integers(0, 28 * 86400))
            if (int(user[1:]) + seconds // (7 * 86400)) % 3 == 0:
                continue  # a week the user is silent in
            rows.append(f"{(base + dt.timedelta(seconds=seconds)).isoformat()},{user},A,Jam")
            weeks = weekly.setdefault(user, {})
            week = seconds // (7 * 86400)
            weeks[week] = weeks.get(week, 0) + 1
        raw = tmp_path / "raw.csv"
        raw.write_text("timestamp,sourceId,loc,incidentType\n" + "\n".join(rows) + "\n")
        mean = {user: sum(weeks.values()) / len(weeks) for user, weeks in weekly.items()}
        _, dropped = filter_outliers(mean, float(pct))
        assert dropped

        out = tmp_path / "canon.csv"
        run_ok(runner, ["ingest", str(raw), "--out", str(out), "--start", "2015-02-23",
                        "--days", "28", "--outlier-pct", pct])
        with open(out, newline="") as handle:
            kept = {row["sourceId"] for row in csv.DictReader(handle)}
        assert kept == set(weekly) - set(dropped)
        meta = json.loads((tmp_path / "canon.csv.meta.json").read_text())
        assert meta["outlier_users_removed"] == len(dropped)
        assert meta["outlier_reports_removed"] == sum(
            sum(weekly[user].values()) for user in dropped
        )


@pytest.fixture(scope="module")
def sample_canonical(tmp_path_factory):
    out = tmp_path_factory.mktemp("canon") / "canonical.csv"
    result = CliRunner().invoke(
        main, ["ingest", str(SAMPLE_CSV), "--out", str(out)], catch_exceptions=False
    )
    assert result.exit_code == 0
    return out


@pytest.mark.parametrize(
    "command, what",
    [("ingest", "ingestion"), ("fit", "fitting"), ("validate", "validation")],
)
def test_every_command_checks_its_window_before_binning(
    runner, tmp_path, monkeypatch, sample_canonical, command, what
):
    from unittest import mock

    for name in ("mean_weekly", "fit_models", "cross_validate"):
        monkeypatch.setattr(f"pssim.cli.{name}", mock.Mock(side_effect=AssertionError))
    source = SAMPLE_CSV if command == "ingest" else sample_canonical
    out = tmp_path / "out"
    base = [command, str(source)] + ([] if command == "validate" else ["--out", str(out)])
    # an inferred span with no report on or after --start names no --days
    result = runner.invoke(main, base + ["--start", "2030-01-01"])
    assert result.exit_code == 3, result.output
    assert result.output == f"error: no reports inside the {what} window\n"
    result = runner.invoke(main, base + ["--days", "3000000"])
    assert result.exit_code == 3, result.output
    assert result.output == (
        "error: --start/--days: the 3000000-day window from 2015-02-23 runs past 9999-12-31\n"
    )
    result = runner.invoke(main, base + ["--days", "0"])
    assert result.exit_code == 2, result.output
    assert "--days must be >= 1, got 0" in result.output
    assert not out.exists()


class TestFit:
    def test_fit_writes_model_with_diagnostics(self, runner, tmp_path, sample_canonical):
        model_path = tmp_path / "model.json"
        result = run_ok(runner, ["fit", str(sample_canonical), "--out", str(model_path)])
        assert "Q-Q log-normal fit r^2" in result.output
        _, meta = load_model(model_path)
        assert meta["window_days"] == 7
        acf = meta["diagnostics"]["acf"]
        assert set(acf) == {"Elm Street", "Route 9", "Harbor Drive"}
        assert all(v is None or len(v) == 8 for v in acf.values())
        # ingestion provenance (incl. the outlier threshold) rides along
        assert meta["ingest"]["outlier_pct"] == 99.5
        assert meta["ingest"]["accepted"] == 315

    def test_fit_plot_data(self, runner, tmp_path, sample_canonical):
        model_path = tmp_path / "model.json"
        plot_path = tmp_path / "plot.csv"
        run_ok(
            runner,
            ["fit", str(sample_canonical), "--out", str(model_path),
             "--plot-data", str(plot_path)],
        )
        with open(plot_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        plots = {r["plot"] for r in rows}
        assert {"participation_hist", "pmf_time", "pmf_day", "qq_participation",
                "acf"} <= plots

    def test_per_location_fit(self, runner, tmp_path, sample_canonical):
        model_path = tmp_path / "model.json"
        run_ok(
            runner,
            ["fit", str(sample_canonical), "--out", str(model_path), "--per-location"],
        )
        per_loc = load_model(model_path)[1]["per_location_participation"]
        assert set(per_loc) == {"Elm Street", "Route 9", "Harbor Drive"}

    @pytest.mark.parametrize("seed", [1, 4])
    def test_fit_does_not_depend_on_the_row_order(self, runner, tmp_path, sample_canonical, seed):
        """A copy of the data with its rows shuffled, and with no sidecar or
        ingest metadata, fits to the same model file apart from meta.ingest."""
        header, *rows = sample_canonical.read_text().splitlines(keepends=True)
        random.Random(seed).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows))
        models = []
        for dataset in (sample_canonical, shuffled):
            out = tmp_path / f"{dataset.stem}.json"
            run_ok(runner, ["fit", str(dataset), "--per-location", "--out", str(out)])
            fitted = json.loads(out.read_text())
            fitted["meta"].pop("ingest", None)
            models.append(fitted)
        assert models[0] == models[1]

    def test_explicit_window_excludes_outside_reports(
        self, runner, tmp_path, sample_canonical
    ):
        model_path = tmp_path / "model.json"
        run_ok(
            runner,
            ["fit", str(sample_canonical), "--out", str(model_path),
             "--start", "2015-02-23", "--days", "3"],
        )
        _, meta = load_model(model_path)
        assert meta["window_days"] == 3
        assert meta["excluded"] > 0
        assert meta["reports"] + meta["excluded"] == 315

    def test_degenerate_single_user_dataset_fails_clearly(self, runner, tmp_path):
        canon = tmp_path / "canon.csv"
        canon.write_text(
            "date,day,time,sourceId,loc,incidentType\n"
            "2015-02-23,Monday,MidDay,u1,A,Jam\n"
        )
        result = runner.invoke(
            main, ["fit", str(canon), "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == 3
        assert "error:" in result.output

    def test_fit_recovers_generating_parameters_from_a_trace(self, runner, tmp_path):
        # full file-format round trip: simulate -> canonical rows -> fit
        import math

        import numpy as np

        from conftest import make_config
        from pssim.distributions import pmf_from_counts
        from pssim.simulator import simulate
        from pssim.types import DayBin, TemporalBin

        day_w = {d: w for d, w in zip(DayBin, (5, 18, 17, 16, 18, 15, 6))}
        time_w = {b: w for b, w in zip(TemporalBin, (4, 8, 10, 22, 12, 10, 14, 20))}
        cfg = make_config(
            n=3000, mlog=math.log(8.0), sdlog=0.5, lambda_e=100.0, seed=404,
            pmf_day=pmf_from_counts(day_w), pmf_time=pmf_from_counts(time_w),
        )
        trace = simulate(cfg)
        canon = tmp_path / "canon.csv"
        with open(canon, "w", newline="", encoding="utf-8") as handle:
            handle.write("date,day,time,sourceId,loc,incidentType\n")
            for _, date, time, _, source, reported, _ in rows_of(trace.reports):
                handle.write(
                    f"{date.isoformat()},{weekday_of(date).label},{time.label},"
                    f"{source},{cfg.loc},{reported}\n"
                )
        model_path = tmp_path / "model.json"
        run_ok(runner, ["fit", str(canon), "--out", str(model_path)])
        model, _ = load_model(model_path)
        # rounding of quotas and dropped silent users shift the fit slightly
        assert abs(model.mlog - cfg.model.mlog) <= 0.05
        assert abs(model.sdlog - cfg.model.sdlog) <= 0.05
        for fitted, true in (
            (model.pmf_day, cfg.model.pmf_day),
            (model.pmf_time, cfg.model.pmf_time),
        ):
            a = np.asarray([dict(zip(fitted.support, fitted.probs))[s] for s in true.support])
            r = np.corrcoef(a, np.asarray(true.probs))[0, 1]
            assert r >= 0.99


    def test_fit_and_validate_read_a_simulated_trace(self, runner, tmp_path):
        from pssim.types import DEFAULT_LOC
        from pssim.validation import AXES

        trace, model_path, folds = (tmp_path / name for name in ("t.csv", "m.json", "f.csv"))
        run_ok(runner, [
            "simulate", "--tau", "14", "--n", "100", "--seed", "5",
            "--ev-types", "Jam,Accident,Hazard", "--out", str(trace),
        ])
        run_ok(runner, ["fit", str(trace), "--out", str(model_path)])
        model, _ = load_model(model_path)
        assert sorted(model.pmf_ev_type.support) == ["Accident", "Hazard", "Jam"]
        assert list(model.lambda_by_loc) == [DEFAULT_LOC]
        run_ok(runner, ["validate", str(trace), "-k", "2", "--out", str(folds)])
        with open(folds, newline="") as handle:
            assert len(list(csv.DictReader(handle))) == 2 * len(AXES)

    def test_fit_counts_the_trace_rows_it_rejects(self, runner, tmp_path):
        trace, model_path = tmp_path / "t.csv", tmp_path / "m.json"
        run_ok(runner, GOLDEN_ARGS + ["--out", str(trace)])
        header, first, *rest = trace.read_text().splitlines()
        fields = first.split(",")
        fields[header.split(",").index("EventReported")] = ""
        trace.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        result = run_ok(runner, ["fit", str(trace), "--out", str(model_path)])
        assert "rejected 1 rows: malformed row" in result.output  # by read_trace
        assert load_model(model_path)[1]["reports"] == len(rest)


class TestSimulate:
    def test_golden_trace_is_stable(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        run_ok(runner, GOLDEN_ARGS + ["--out", str(out)])
        assert out.read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_tau_zero_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--tau", "0", "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 2

    def test_model_error_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--pr-lie", "0.5", "--ev-types", "Jam",
             "--out", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 3
        assert "two event types" in result.output

    @pytest.mark.parametrize(
        "payload", ["[]", '{"version": 1, "participation": "x"}'], ids=["list", "wrong-type"]
    )
    def test_malformed_model_exits_3(self, runner, tmp_path, payload):
        model_path = tmp_path / "model.json"
        model_path.write_text(payload)
        result = runner.invoke(
            main, ["simulate", "--model", str(model_path), "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 3
        assert result.output.startswith(f"error: {model_path}: not a valid model file")
        assert result.output.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--lambda", "nan"],
            ["simulate", "--lambda", "inf"],
            ["simulate", "--mlog", "nan"],
            ["simulate", "--sdlog", "-1"],
            ["bench", "--lambda", "nan"],
            ["simulate", "--ev-types", ","],
            ["simulate", "--pr-lie", "2"],
        ],
        ids=[
            "lambda-nan", "lambda-inf", "mlog-nan", "sdlog-negative", "bench-lambda-nan",
            "ev-types-empty", "pr-lie-above-one",
        ],
    )
    def test_non_finite_parameter_exits_3(self, runner, tmp_path, args):
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "t.csv")])
        assert result.exit_code == 3, result.output
        assert result.output.startswith(f"error: {args[1]}: ")
        assert result.output.count("\n") == 1  # one line, no traceback

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", ["simulate", "validate", "bench"])
    def test_out_of_range_seed_names_its_option_and_exits_3(
        self, runner, tmp_path, monkeypatch, command, seed
    ):
        from unittest import mock

        from pssim import formats

        # validate's dataset is never read: the seed is checked first
        monkeypatch.setattr(formats, "read_header", mock.Mock(side_effect=AssertionError))
        dataset = [str(SAMPLE_CSV)] if command == "validate" else []
        result = runner.invoke(main, [command, *dataset, "--seed", seed, "--out", str(tmp_path / "o.csv")])
        assert result.exit_code == 3, result.output
        assert result.output == "error: --seed: seed must fit in an unsigned 64-bit integer\n"

    def test_window_past_the_last_date_exits_3_before_simulating(self, runner, tmp_path, monkeypatch):
        from unittest import mock

        monkeypatch.setattr("pssim.cli.simulate", mock.Mock(side_effect=AssertionError))
        out = tmp_path / "t.csv"
        args = ["simulate", "--n", "5", "--tau", "7", "--start-date", "9999-12-30", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.output == (
            "error: --start-date/--tau: the 7-day window from 9999-12-30 runs past 9999-12-31\n"
        )
        assert not out.exists()

    def test_no_events_names_the_lambda_and_tau_drawn_with(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--lambda", "1e-9", "--tau", "1", "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 3, result.output
        assert result.output == (
            "error: no events generated at lambda 1e-09 per cell over tau 1 days; "
            "increase lambda or tau\n"
        )

    @pytest.mark.parametrize("loc", [[], ["--loc", "Route 9"]], ids=["no-loc", "loc"])
    @pytest.mark.parametrize("value", ["NaN", "-1.75"])
    def test_bad_per_location_lambda_in_model_exits_3(
        self, runner, tmp_path, sample_canonical, value, loc
    ):
        model_path = tmp_path / "model.json"
        run_ok(runner, ["fit", str(sample_canonical), "--out", str(model_path)])
        text = model_path.read_text()
        assert text.count('"Route 9": 1.75') == 1
        model_path.write_text(text.replace('"Route 9": 1.75', f'"Route 9": {value}'))
        result = runner.invoke(
            main, ["simulate", "--model", str(model_path), *loc, "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 3, result.output
        assert result.output.startswith(f"error: {model_path}: not a valid model file")
        assert "lambda_by_loc['Route 9']" in result.output
        assert result.output.count("\n") == 1

    def test_overrides_replace_fields_of_the_model(self, runner, tmp_path, sample_canonical):
        """--lambda and --sdlog on top of --model run the model with those
        fields replaced; the given lambda holds at --loc too."""
        import dataclasses

        from pssim.formats import write_trace
        from pssim.simulator import simulate
        from pssim.types import SimConfig

        model_path = tmp_path / "model.json"
        run_ok(runner, ["fit", str(sample_canonical), "--out", str(model_path)])
        model, _ = load_model(model_path)
        run = ["--tau", "7", "--n", "50", "--seed", "2"]
        plain, out = tmp_path / "plain.csv", tmp_path / "trace.csv"
        run_ok(runner, ["simulate", "--model", str(model_path), "--loc", "Route 9", *run,
                        "--out", str(plain)])
        run_ok(runner, ["simulate", "--model", str(model_path), "--loc", "Route 9",
                        "--lambda", "2", "--sdlog", "0.7", *run, "--out", str(out)])
        assert model.lambda_at("Route 9") != 2.0 and model.sdlog != 0.7
        for replaced in (
            dataclasses.replace(model, lambda_overall=2.0, lambda_by_loc={}, sdlog=0.7),
            dataclasses.replace(model, lambda_by_loc={**model.lambda_by_loc, "Route 9": 2.0}, sdlog=0.7),
        ):
            config = SimConfig(tau=7, n=50, seed=2, loc="Route 9", model=replaced)
            expected = tmp_path / "expected.csv"
            write_trace(simulate(config).reports, expected)
            assert out.read_bytes() == expected.read_bytes()
        assert out.read_bytes() != plain.read_bytes()

    def test_simulate_from_fitted_model(self, runner, tmp_path, sample_canonical):
        model_path = tmp_path / "model.json"
        run_ok(runner, ["fit", str(sample_canonical), "--out", str(model_path)])
        out = tmp_path / "trace.csv"
        result = run_ok(
            runner,
            ["simulate", "--model", str(model_path), "--tau", "7", "--n", "50",
             "--seed", "5", "--out", str(out)],
        )
        assert "trace ->" in result.output
        header = out.read_text().splitlines()[0]
        assert header == "EventNo,Date,Day,Time,ReportNo,SourceId,EventReported,EventOccurred"

    def test_summary_line(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        result = run_ok(
            runner,
            ["simulate", "--tau", "7", "--n", "30", "--seed", "2", "--pr-lie", "0.2",
             "--out", str(out)],
        )
        assert "| events " in result.output
        assert "| false reports " in result.output

    def test_types_that_need_quoting_round_trip(self, runner, tmp_path):
        import io
        import math

        from pssim.distributions import pmf_from_counts
        from pssim.formats import read_trace, save_model
        from pssim.simulator import simulate
        from pssim.types import DAY_BINS, TEMPORAL_BINS, Model, SimConfig

        types = ("Road, closed", 'say "hi"', " leading", "Jam")
        model = Model(
            mlog=math.log(3.0), sdlog=0.5, lambda_overall=2.0, lambda_by_loc={},
            pmf_day=pmf_from_counts({d: 1 for d in DAY_BINS}),
            pmf_time=pmf_from_counts({b: 1 for b in TEMPORAL_BINS}),
            pmf_ev_type=pmf_from_counts({t: 1 for t in types}),
        )
        model_path = tmp_path / "model.json"
        save_model(model, {}, model_path)
        out = tmp_path / "trace.csv"
        run_ok(
            runner,
            ["simulate", "--model", str(model_path), "--tau", "7", "--n", "30",
             "--seed", "5", "--pr-lie", "0.3", "--out", str(out)],
        )

        trace = simulate(
            SimConfig(
                tau=7, n=30, seed=5, start_date=dt.date(2015, 2, 23), pr_lie=0.3, model=model
            )
        )
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(
            ("EventNo", "Date", "Day", "Time", "ReportNo", "SourceId",
             "EventReported", "EventOccurred")
        )
        for no, date, time, *rest in rows_of(trace.reports):
            writer.writerow((no, date.isoformat(), weekday_of(date).label, time.label, *rest))
        data = out.read_bytes()
        assert data == expected.getvalue().encode("utf-8")
        for quoted in (b'"Road, closed"', b'"say ""hi"""', b", leading"):
            assert quoted in data

        back, rejects = read_trace(out)
        assert rejects == {}
        # the reader strips surrounding whitespace from every field
        assert rows_of(back) == [
            (*row, reported.strip(), occurred.strip())
            for *row, reported, occurred in rows_of(trace.reports)
        ]

    def test_model_run_is_the_model_in_a_sim_config(self, runner, tmp_path, sample_canonical):
        from pssim.formats import write_trace
        from pssim.simulator import simulate
        from pssim.types import SimConfig

        model_path = tmp_path / "model.json"
        run_ok(runner, ["fit", str(sample_canonical), "--per-location", "--out", str(model_path)])
        model, _ = load_model(model_path)
        out, expected = tmp_path / "trace.csv", tmp_path / "expected.csv"
        run_ok(
            runner,
            ["simulate", "--model", str(model_path), "--loc", "Route 9", "--tau", "14",
             "--n", "50", "--seed", "5", "--pr-lie", "0.1", "--out", str(out)],
        )
        config = SimConfig(tau=14, n=50, seed=5, pr_lie=0.1, loc="Route 9", model=model)
        assert config.model.lambda_at(config.loc) == model.lambda_by_loc["Route 9"]
        assert model.lambda_by_loc["Route 9"] != model.lambda_overall
        write_trace(simulate(config).reports, expected)
        assert out.read_bytes() == expected.read_bytes()

    def test_ev_types_with_model_is_usage_error(self, runner, tmp_path, sample_canonical):
        model_path = tmp_path / "model.json"
        run_ok(runner, ["fit", str(sample_canonical), "--out", str(model_path)])
        result = runner.invoke(
            main,
            ["simulate", "--model", str(model_path), "--ev-types", "Jam",
             "--out", str(tmp_path / "t.csv")],
        )
        assert result.exit_code == 2
        assert "--ev-types conflicts with --model" in result.output

    def test_duplicate_types_exit_3(self, runner, tmp_path):
        result = runner.invoke(
            main, ["simulate", "--ev-types", "Jam,Accident,Jam", "--out", str(tmp_path / "t.csv")]
        )
        assert result.exit_code == 3
        assert "duplicate" in result.output
        assert "repeated: ['Jam']" in result.output

    def test_start_date_defaults_to_sim_config(self, runner, tmp_path):
        from pssim.types import SimConfig

        start = SimConfig(tau=7, n=25, seed=1).start_date.isoformat()
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        run_ok(runner, GOLDEN_ARGS + ["--out", str(implicit)])
        run_ok(runner, GOLDEN_ARGS + ["--start-date", start, "--out", str(explicit)])
        assert implicit.read_bytes() == explicit.read_bytes()
        help_text = " ".join(run_ok(runner, ["simulate", "--help"]).output.split())
        assert f"--start-date TEXT First date of the window, YYYY-MM-DD (default {start})" in help_text

    @pytest.mark.parametrize("tau", range(1, 7))
    def test_short_windows_at_every_start_weekday(self, runner, tmp_path, tau):
        """A window shorter than a week draws its events on the weekdays it
        holds, with the default pmfs and with a model whose day pmf gives
        the weekend no mass; it exits 3 only when it holds no weekday with
        mass."""
        import math

        from pssim.distributions import pmf_from_counts
        from pssim.formats import read_trace, save_model
        from pssim.types import DAY_BINS, TEMPORAL_BINS, Model

        weekdays = DAY_BINS[1:6]  # Monday to Friday
        model = Model(
            mlog=math.log(3.0), sdlog=0.5, lambda_overall=2.0, lambda_by_loc={},
            pmf_day=pmf_from_counts({d: int(d in weekdays) for d in DAY_BINS}),
            pmf_time=pmf_from_counts({b: 1 for b in TEMPORAL_BINS}),
            pmf_ev_type=pmf_from_counts({"Jam": 1, "Hazard": 1}),
        )
        model_path, out = tmp_path / "model.json", tmp_path / "trace.csv"
        save_model(model, {}, model_path)
        for k in range(7):
            start = dt.date(2015, 2, 22) + dt.timedelta(days=k)  # Sunday + k
            window = [start + dt.timedelta(days=i) for i in range(tau)]
            args = ["simulate", "--tau", str(tau), "--n", "40", "--seed", str(k),
                    "--start-date", start.isoformat(), "--out", str(out)]
            for extra, with_mass in (([], DAY_BINS), (["--model", str(model_path)], weekdays)):
                result = runner.invoke(main, args + extra)
                if not any(weekday_of(date) in with_mass for date in window):
                    assert result.exit_code == 3, result.output
                    assert "window too short" in result.output
                    continue
                assert result.exit_code == 0, result.output
                reports, _ = read_trace(out)
                assert len(reports) > 0
                dates = {dt.date.fromordinal(d) for d in reports.date.tolist()}
                assert dates <= set(window)
                assert all(weekday_of(date) in with_mass for date in dates)


class TestAggregate:
    def test_partition_counts_do_not_change_output(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        run_ok(runner, ["simulate", "--tau", "7", "--n", "40", "--seed", "3",
                        "--out", str(trace)])
        outputs = []
        for p in (1, 8):
            out = tmp_path / f"events-{p}.csv"
            run_ok(
                runner,
                ["aggregate", str(trace), "--out", str(out), "--workers", str(p)],
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_min_support_drops_singletons(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        run_ok(runner, ["simulate", "--tau", "7", "--n", "40", "--seed", "3",
                        "--out", str(trace)])
        all_out = tmp_path / "all.csv"
        filtered_out = tmp_path / "filtered.csv"
        run_ok(runner, ["aggregate", str(trace), "--out", str(all_out)])
        run_ok(runner, ["aggregate", str(trace), "--out", str(filtered_out),
                        "--min-support", "2"])
        with open(all_out, newline="") as handle:
            all_rows = list(csv.DictReader(handle))
        with open(filtered_out, newline="") as handle:
            filtered_rows = list(csv.DictReader(handle))
        assert any(int(r["supportCount"]) == 1 for r in all_rows)
        assert all(int(r["supportCount"]) >= 2 for r in filtered_rows)
        assert len(filtered_rows) < len(all_rows)

    def test_empty_trace_gives_empty_output(self, runner, tmp_path):
        trace = tmp_path / "empty.csv"
        trace.write_text(
            "EventNo,Date,Day,Time,ReportNo,SourceId,EventReported,EventOccurred\n"
        )
        out = tmp_path / "events.csv"
        result = run_ok(runner, ["aggregate", str(trace), "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text() == "date,dayTime,loc,incidentType,supportCount\n"

    def test_canonical_dataset_accepted(self, runner, tmp_path, sample_canonical):
        out = tmp_path / "events.csv"
        run_ok(runner, ["aggregate", str(sample_canonical), "--out", str(out)])
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["loc"] for r in rows} == {"Elm Street", "Route 9", "Harbor Drive"}

    def test_occurred_key_on_canonical_data_uses_incident_type(
        self, runner, tmp_path, sample_canonical
    ):
        reported = tmp_path / "reported.csv"
        occurred = tmp_path / "occurred.csv"
        run_ok(runner, ["aggregate", str(sample_canonical), "--out", str(reported)])
        result = run_ok(
            runner,
            ["aggregate", str(sample_canonical), "--out", str(occurred),
             "--key", "occurred"],
        )
        assert "rejected 0" in result.output
        # real data has a single incident type per row, so both keys agree
        assert occurred.read_bytes() == reported.read_bytes()

    def test_unknown_schema_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        result = runner.invoke(
            main, ["aggregate", str(bad), "--out", str(tmp_path / "e.csv")]
        )
        assert result.exit_code == 2

    def test_quoted_header_canonical_file(self, runner, tmp_path, sample_canonical):
        # the schema is read from the header as csv.reader parses it
        lines = sample_canonical.read_text().splitlines(keepends=True)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(",".join(f'"{name}"' for name in lines[0].strip().split(",")) + "\n"
                          + "".join(lines[1:]))
        plain_events, quoted_events = tmp_path / "plain.csv", tmp_path / "quoted_events.csv"
        run_ok(runner, ["aggregate", str(sample_canonical), "--out", str(plain_events)])
        run_ok(runner, ["aggregate", str(quoted), "--out", str(quoted_events)])
        assert quoted_events.read_bytes() == plain_events.read_bytes()

    @pytest.mark.parametrize("flag", ["--workers"])
    def test_counts_below_one_rejected(self, runner, tmp_path, sample_canonical, flag):
        out = tmp_path / "events.csv"
        result = runner.invoke(main, ["aggregate", str(sample_canonical), "--out", str(out), flag, "0"])
        assert result.exit_code == 2
        assert f"{flag} must be >= 1, got 0" in result.output

    def test_workers_env_var(self, runner, tmp_path, sample_canonical):
        out = tmp_path / "events.csv"
        result = runner.invoke(
            main,
            ["aggregate", str(sample_canonical), "--out", str(out)],
            env={"PSSIM_WORKERS": "2"},
            catch_exceptions=False,
        )
        assert result.exit_code == 0


class TestValidate:
    def test_two_fold_run_on_sample(self, runner, tmp_path, sample_canonical):
        out = tmp_path / "validation.csv"
        result = run_ok(
            runner,
            ["validate", str(sample_canonical), "-k", "2", "--seed", "3",
             "--out", str(out)],
        )
        assert "Reports per user" in result.output
        assert "Reports per day bin" in result.output
        assert "Reports per time bin" in result.output
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6  # 2 folds x 3 axes

    def test_summary_has_exactly_three_rows(self, runner, sample_canonical):
        result = run_ok(
            runner, ["validate", str(sample_canonical), "-k", "2", "--seed", "3"]
        )
        labels = [
            line
            for line in result.output.splitlines()
            if line.startswith("Reports per ")
        ]
        assert len(labels) == 3

    def test_missing_dataset_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["validate", str(tmp_path / "nope.csv")])
        assert result.exit_code == 2

    def test_window_without_reports_exits_3(self, runner, sample_canonical):
        result = runner.invoke(
            main,
            ["validate", str(sample_canonical), "-k", "3",
             "--start", "2030-01-01", "--days", "7"],
        )
        assert result.exit_code == 3
        assert "error: no reports inside the validation window" in result.output

    def test_plot_data(self, runner, tmp_path, sample_canonical):
        plot = tmp_path / "plot.csv"
        run_ok(
            runner,
            ["validate", str(sample_canonical), "-k", "2", "--seed", "3",
             "--plot-data", str(plot)],
        )
        with open(plot, newline="") as handle:
            rows = list(csv.DictReader(handle))
        series = {r["series"] for r in rows}
        assert series == {"real", "simulated"}
        plots = {r["plot"] for r in rows}
        assert plots == {"fold0_perUser", "fold0_perDayBin", "fold0_perTimeBin"}

    def test_plot_data_reproduces_fold_0_metrics(self, runner, tmp_path, sample_canonical):
        from pssim.types import DayBin, TemporalBin
        from pssim.validation import AXES, align_histograms, pearson_correlation, rmse

        plot, out = tmp_path / "plot.csv", tmp_path / "folds.csv"
        run_ok(
            runner,
            ["validate", str(sample_canonical), "-k", "3", "--seed", "4",
             "--out", str(out), "--plot-data", str(plot)],
        )
        key_of = {
            "fold0_perUser": int,
            "fold0_perDayBin": DayBin.from_label,
            "fold0_perTimeBin": TemporalBin.from_label,
        }
        hists = {}
        with open(plot, newline="") as handle:
            for row in csv.DictReader(handle):
                hist = hists.setdefault((row["plot"], row["series"]), {})
                hist[key_of[row["plot"]](row["x"])] = float(row["y"])
        with open(out, newline="") as handle:
            scored = {r["axis"]: r for r in csv.DictReader(handle) if r["fold"] == "0"}
        for axis in AXES:
            real, sim = align_histograms(
                hists[(f"fold0_{axis}", "real")], hists[(f"fold0_{axis}", "simulated")]
            )
            assert repr(pearson_correlation(real, sim)) == scored[axis]["correlation"]
            assert repr(rmse(real, sim)) == scored[axis]["rmse"]


class TestBench:
    def test_small_grid_completes_with_exponents(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = run_ok(
            runner,
            ["bench", "--n-range", "50:100:50", "--m-range", "7:14:7",
             "--repeats", "1", "--out", str(out)],
        )
        assert "fitted growth" in result.output
        with open(out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 4
        assert set(rows[0]) == {"n", "m", "seconds"}

    def test_bad_range_exits_2(self, runner, tmp_path):
        # a single value is checked as a range, before any SimConfig sees it
        for flag, text in [("--n-range", "100:10"), ("--n-range", "0"), ("--m-range", "-3")]:
            result = runner.invoke(main, ["bench", flag, text, "--out", str(tmp_path / "b.csv")])
            assert result.exit_code == 2, result.output
            assert f"{flag} range must be positive and increasing, got {text!r}" in result.output


def test_cli_import_loads_only_numpy_and_click():
    """`import pssim.cli` is paid by every command; keep it to the runtime
    dependencies and leave thread pools to the code that uses them."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import json, sys; before = set(sys.modules); import pssim.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    loaded = json.loads(done.stdout)
    third_party = {
        name.split(".")[0] for name in loaded
    } - set(sys.stdlib_module_names) - {"pssim"}
    assert third_party == {"numpy", "click"}
    assert "concurrent.futures" not in loaded


def test_commands_build_no_report_rows(runner, tmp_path):
    """Every command runs on the code columns, the tables having no rows;
    ``fit --per-location --plot-data`` runs only here."""
    canon, trace = tmp_path / "canonical.csv", tmp_path / "trace.csv"
    out = str(tmp_path / "out")
    run_ok(runner, ["ingest", str(SAMPLE_CSV), "--out", str(canon)])
    run_ok(runner, ["fit", str(canon), "--out", out, "--per-location", "--plot-data", out + ".plot"])
    run_ok(runner, ["aggregate", str(canon), "--out", out, "--min-support", "2"])
    run_ok(runner, ["validate", str(canon), "-k", "3", "--out", out, "--plot-data", out + ".plot"])
    run_ok(runner, GOLDEN_ARGS + ["--out", str(trace)])
    run_ok(runner, ["aggregate", str(trace), "--out", out, "--key", "occurred"])


def test_aggregate_builds_no_event_rows(runner, tmp_path, sample_canonical):
    """`pssim aggregate` writes the events from the table's columns, the
    tables having no rows; ``--min-support 2 --key occurred`` together runs
    only here."""
    trace, out = tmp_path / "trace.csv", tmp_path / "events.csv"
    run_ok(runner, GOLDEN_ARGS + ["--out", str(trace)])
    for source in (sample_canonical, trace):
        for args in ([], ["--min-support", "2", "--key", "occurred"]):
            result = run_ok(runner, ["aggregate", str(source), "--out", str(out)] + args)
            assert "events from" in result.output
            assert len(out.read_text().splitlines()) > 1


def _variant(value):
    """Another valid value of a model field, of the same type."""
    from collections.abc import Mapping

    from pssim.distributions import Pmf

    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, Mapping):
        return {loc: lam + 2.5 for loc, lam in value.items()}
    if isinstance(value, Pmf):
        return Pmf(value.support, value.probs[1:] + value.probs[:1])
    raise AssertionError(f"no variant for a model field holding {value!r}")


def test_every_model_field_round_trips_and_reaches_the_simulator(runner, tmp_path):
    """Each field of Model, changed alone, survives model_to_json and
    load_model, and changes what simulate --model writes, with or without
    --loc, to what the library writes for the changed model.  A field added
    to Model without codec support fails here."""
    import dataclasses

    from pssim.distributions import pmf_from_counts
    from pssim.formats import save_model, write_trace
    from pssim.simulator import simulate
    from pssim.types import DAY_BINS, TEMPORAL_BINS, Model, SimConfig

    base = Model(
        mlog=0.9, sdlog=0.4, lambda_overall=5.0, lambda_by_loc={"Route 9": 1.5},
        pmf_day=pmf_from_counts({d: i + 1 for i, d in enumerate(DAY_BINS)}),
        pmf_time=pmf_from_counts({b: i + 1 for i, b in enumerate(TEMPORAL_BINS)}),
        pmf_ev_type=pmf_from_counts({"Jam": 3, "Hazard": 1}),
    )

    def run(model, name):
        """The model and meta load_model reads back, and the traces that
        simulate --model writes without and with --loc."""
        path = tmp_path / f"{name}.json"
        save_model(model, {"field": name}, path)
        loaded = load_model(path)
        traces = []
        for i, loc in enumerate(([], ["--loc", "Route 9"])):
            out = tmp_path / f"{name}-{i}.csv"
            run_ok(runner, ["simulate", "--model", str(path), *loc, "--tau", "7", "--n", "40",
                            "--seed", "3", "--out", str(out)])
            expected = tmp_path / "expected.csv"
            config = SimConfig(tau=7, n=40, seed=3, loc=loc[1] if loc else None, model=model)
            write_trace(simulate(config).reports, expected)
            assert out.read_bytes() == expected.read_bytes(), name
            traces.append(out.read_bytes())
        return loaded, traces

    loaded, base_traces = run(base, "base")
    assert loaded == (base, {"field": "base"})
    for name in [field.name for field in dataclasses.fields(Model)]:
        changed = dataclasses.replace(base, **{name: _variant(getattr(base, name))})
        assert changed != base, name
        loaded, traces = run(changed, name)
        assert loaded == (changed, {"field": name}), name
        assert traces != base_traces, name


def test_events_csv_equals_csv_writer_rows(runner, tmp_path):
    """Locations and types that need quoting, and --min-support drops: the
    events file equals csv.writer's rows, written by the command and by the
    library from the table read back."""
    import io
    import math

    from pssim.aggregation import aggregate
    from pssim.distributions import pmf_from_counts
    from pssim.formats import EVENTS_HEADER, read_trace, save_model, write_events_csv
    from pssim.types import DAY_BINS, TEMPORAL_BINS, Model

    types = ("Road, closed", 'say "hi"', "Jam")
    model = Model(
        mlog=math.log(3.0), sdlog=0.5, lambda_overall=2.0, lambda_by_loc={},
        pmf_day=pmf_from_counts({d: 1 for d in DAY_BINS}),
        pmf_time=pmf_from_counts({b: 1 for b in TEMPORAL_BINS}),
        pmf_ev_type=pmf_from_counts({t: 1 for t in types}),
    )
    model_path, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    save_model(model, {}, model_path)
    run_ok(
        runner,
        ["simulate", "--model", str(model_path), "--tau", "7", "--n", "60",
         "--seed", "8", "--pr-lie", "0.3", "--out", str(trace)],
    )
    reports, rejects = read_trace(trace)
    assert rejects == {}
    counts = {}
    for _, date, time, _, _, reported, _ in rows_of(reports):
        key = (date, time.index, reported)
        counts[key] = counts.get(key, 0) + 1
    assert min(counts.values()) == 1 and max(counts.values()) >= 2

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    for (date, t, incident), n in sorted(counts.items()):
        if n >= 2:
            writer.writerow(
                (date.isoformat(), TEMPORAL_BINS[t].label, "Elm, North", incident, n)
            )
    expected = expected.getvalue().encode()
    for quoted in (b'"Elm, North"', b'"Road, closed"', b'"say ""hi"""'):
        assert quoted in expected

    out, library_out = tmp_path / "events.csv", tmp_path / "library.csv"
    run_ok(
        runner,
        ["aggregate", str(trace), "--out", str(out), "--loc", "Elm, North",
         "--min-support", "2"],
    )
    assert out.read_bytes() == expected
    events = aggregate(reports, min_support=2, default_loc="Elm, North").events
    write_events_csv(events, library_out)
    assert library_out.read_bytes() == expected


def test_outputs_do_not_depend_on_sidecars(runner, tmp_path, monkeypatch):
    """Every command gives the same bytes whether its trace or canonical
    input is read from the column sidecar or from the CSV."""
    from unittest import mock

    from pssim import formats

    monkeypatch.setattr(formats, "BYTE_PATH_MIN_BYTES", 0)  # every file gets a sidecar
    canon, trace = tmp_path / "canonical.csv", tmp_path / "trace.csv"
    run_ok(runner, ["ingest", str(SAMPLE_CSV), "--out", str(canon)])
    run_ok(runner, GOLDEN_ARGS + ["--out", str(trace)])
    commands = {
        "model.json": ["fit", str(canon), "--per-location"],
        "events.csv": ["aggregate", str(canon), "--min-support", "2"],
        "folds.csv": ["validate", str(canon), "-k", "3", "--seed", "4"],
        "trace-events.csv": ["aggregate", str(trace), "--key", "occurred"],
    }
    outputs = {}
    for sidecars in (True, False):
        if not sidecars:
            for path in (canon, trace):
                (tmp_path / f"{path.name}.cols").unlink()
        reads = mock.patch.object(
            formats._Sidecar, "values", autospec=True, side_effect=formats._Sidecar.values
        )
        for name, args in commands.items():
            out = tmp_path / f"{sidecars}-{name}"
            with reads as spy:
                run_ok(runner, args + ["--out", str(out)])
            assert spy.called == sidecars, name
            outputs.setdefault(name, []).append(out.read_bytes())
    for name, (with_sidecars, without) in outputs.items():
        assert with_sidecars == without, name


# What ingest -> fit --per-location -> validate -k 3 --seed 4 computed on the
# sample export when it was first recorded, to 12 significant digits: the
# last bits of np.log differ between numpy's AVX-512 and other code paths.
PINNED_MODEL = {
    "mlog": 1.32765292615,
    "sdlog": 0.643908455965,
    "lambda_overall": 5.625,
    "lambda_by_loc": {"Elm Street": 2.67857142857, "Harbor Drive": 1.19642857143, "Route 9": 1.75},
    "per_location_participation": {
        "Elm Street": (0.823535460141, 0.547251782583),
        "Harbor Drive": (0.390440297254, 0.446203155474),
        "Route 9": (0.469527509862, 0.549029598205),
    },
    "pmf_day": (
        0.0761904761905, 0.174603174603, 0.180952380952, 0.155555555556,
        0.203174603175, 0.165079365079, 0.0444444444444,
    ),
    "pmf_time": (
        0.0253968253968, 0.0825396825397, 0.0857142857143, 0.260317460317,
        0.155555555556, 0.0857142857143, 0.126984126984, 0.177777777778,
    ),
    "pmf_event_type": (0.346031746032, 0.139682539683, 0.514285714286),
    "qq_r2": 0.973364699881,
}
PINNED_FOLDS = [  # fold, axis, correlation, rmse, realN, simN
    (0, "perUser", 0.907560885867, 0.0714364445145, 105, 118),
    (0, "perDayBin", 0.834978403444, 0.0363373901173, 105, 118),
    (0, "perTimeBin", 0.779825780325, 0.0440893731898, 105, 118),
    (1, "perUser", 0.877269752148, 0.0765889875627, 105, 103),
    (1, "perDayBin", 0.40514778285, 0.0682093945071, 105, 103),
    (1, "perTimeBin", 0.904103633114, 0.0371930156443, 105, 103),
    (2, "perUser", 0.976955997287, 0.0377039235996, 105, 111),
    (2, "perDayBin", 0.678773496655, 0.0509143397715, 105, 111),
    (2, "perTimeBin", 0.642570021439, 0.0591379542136, 105, 111),
]


def test_fit_and_validate_match_the_pinned_values(runner, tmp_path):
    canon, model = tmp_path / "canonical.csv", tmp_path / "model.json"
    folds = tmp_path / "folds.csv"
    run_ok(runner, ["ingest", str(SAMPLE_CSV), "--out", str(canon)])
    run_ok(runner, ["fit", str(canon), "--per-location", "--out", str(model)])
    run_ok(runner, ["validate", str(canon), "-k", "3", "--seed", "4", "--out", str(folds)])

    def pinned(value):
        return pytest.approx(value, rel=1e-11, abs=1e-15)

    fitted = json.loads(model.read_text())
    per_loc = fitted["meta"]["per_location_participation"]
    assert {
        "mlog": fitted["participation"]["mlog"],
        "sdlog": fitted["participation"]["sdlog"],
        "lambda_overall": fitted["lambda_e"]["overall"],
        "lambda_by_loc": fitted["lambda_e"]["by_location"],
        "per_location_participation": {
            loc: (fit["mlog"], fit["sdlog"]) for loc, fit in per_loc.items()
        },
        "pmf_day": tuple(fitted["pmf_day"]["probs"]),
        "pmf_time": tuple(fitted["pmf_time"]["probs"]),
        "pmf_event_type": tuple(fitted["pmf_event_type"]["probs"]),
        "qq_r2": fitted["meta"]["diagnostics"]["qq_r2"],
    } == {
        key: {k: pinned(v) for k, v in value.items()} if isinstance(value, dict) else pinned(value)
        for key, value in PINNED_MODEL.items()
    }
    with open(folds, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [
        (int(r["fold"]), r["axis"], float(r["correlation"]), float(r["rmse"]),
         int(r["realN"]), int(r["simN"]))
        for r in rows
    ] == [(f, a, pinned(c), pinned(e), n, m) for f, a, c, e, n, m in PINNED_FOLDS]
