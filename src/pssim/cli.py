"""Operator command-line surface.

Subcommands: ingest, fit, simulate, aggregate, validate, bench.  Every
command is deterministic given its inputs and --seed (bench timings aside).
Exit codes: 0 success, 2 input/usage error, 3 runtime model error.
"""

from __future__ import annotations

import contextlib
import dataclasses
import datetime as dt
import functools
import sys
from pathlib import Path

import click
import numpy as np

from . import formats
from .aggregation import aggregate
from .analysis import filter_outliers, fit_models, mean_weekly
from .bench import bench_grid, fit_growth_exponents
from .distributions import check_seed, uniform_pmf
from .errors import PsSimError
from .simulator import simulate
from .table import report_columns
from .types import DEFAULT_LOC, DEFAULT_MODEL, SimConfig, check_window, window_offsets
from .validation import AXES, cross_validate, summarize

#: SimConfig's field defaults, which simulate's help texts name.
_DEFAULT = {field.name: field.default for field in dataclasses.fields(SimConfig)}


def _model_errors_exit_3(fn):
    """Map domain-model failures to exit code 3."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PsSimError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _parse_iso_date(text: str, flag: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise click.UsageError(f"{flag} must be an ISO date (YYYY-MM-DD), got {text!r}")


def _read_window(read, path: Path, start: str | None, days: int | None, what: str):
    """Read ``path`` with ``read`` and keep the reports inside the
    --start/--days window; either end defaults to the span of the reports'
    dates.

    A malformed --start, a --days below 1 and a read error are usage
    errors, found before any report is read.  Returns (reports inside,
    rejects, window, count outside); raises PsSimError when no report is
    inside or the window runs past the last date.
    """
    first = None if start is None else _parse_iso_date(start, "--start")
    if days is not None and days < 1:
        raise click.UsageError(f"--days must be >= 1, got {days}")
    try:
        reports, rejects = read(path)
    except PsSimError as exc:
        raise click.UsageError(str(exc))
    if (first is None or days is None) and not len(reports):
        raise PsSimError(f"no reports in {path}; cannot infer a window")
    first = first or dt.date.fromordinal(int(reports.date.min()))
    if days is None:
        days = int(reports.date.max()) - first.toordinal() + 1
        if days < 1:  # every report is before --start
            raise PsSimError(f"no reports inside the {what} window")
    with _option("--start/--days"):
        check_window(first, days)
    inside = reports.take(window_offsets(reports.date, (first, days))[1])
    if not len(inside):
        raise PsSimError(f"no reports inside the {what} window")
    return inside, rejects, (first, days), len(reports) - len(inside)


@contextlib.contextmanager
def _option(flag: str):
    """Name the option ``flag`` in a PsSimError raised inside: the checks
    of a model, a pmf or a run know only their own field names."""
    try:
        yield
    except PsSimError as exc:
        raise PsSimError(f"{flag}: {exc}") from None


def _override(config, flag: str, **fields):
    """``config`` (a Model or a SimConfig) with ``fields`` replaced from the
    option ``flag``; its own checks reject a bad value."""
    with _option(flag):
        return dataclasses.replace(config, **fields)


def _check_seed(seed: int) -> None:
    """Reject a --seed that cannot be a master seed, before any input is read."""
    with _option("--seed"):
        check_seed(seed)


def _echo_rejects(rejects: dict[str, int]) -> None:
    for reason in sorted(rejects):
        click.echo(f"rejected {rejects[reason]} rows: {reason}")


@click.group()
def main():
    """Participatory-sensing data toolkit: fit behavior models from report
    data, simulate synthetic traces, aggregate reports into events, and
    validate simulated against real data."""


@main.command()
@click.argument(
    "input_csv", type=click.Path(exists=True, dir_okay=False, path_type=Path)
)
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--start", default=None, help="Window start date (default: first date in data).")
@click.option("--days", type=int, default=None, help="Window length in days (default: span of data).")
@click.option(
    "--outlier-pct",
    type=float,
    default=99.5,
    show_default=True,
    help="Drop users above this percentile of mean weekly report count; 100 disables.",
)
@click.option(
    "--col",
    "col_overrides",
    multiple=True,
    metavar="FIELD=NAME",
    help="Map a logical column to a differently named CSV column "
    "(fields: timestamp, sourceId, loc, incidentType).",
)
@_model_errors_exit_3
def ingest(input_csv, out, start, days, outlier_pct, col_overrides):
    """Ingest a raw report CSV into the canonical dataset format.

    The raw schema needs columns timestamp (ISO-8601), sourceId, loc and
    incidentType; unknown columns are ignored and bad rows are counted and
    skipped.
    """
    colmap = {}
    for item in col_overrides:
        field, _, name = item.partition("=")
        if field not in formats.RAW_FIELDS or not name:
            raise click.UsageError(f"--col expects FIELD=NAME with a known field, got {item!r}")
        colmap[field] = name
    if not 0.0 < outlier_pct <= 100.0:
        raise click.UsageError(f"--outlier-pct must be in (0, 100], got {outlier_pct}")

    in_window, rejects, window, excluded = _read_window(
        functools.partial(formats.read_raw_reports, column_map=colmap),
        input_csv, start, days, "ingestion",
    )
    first, ndays = window
    outlier_users: list[str] = []
    if outlier_pct < 100.0:
        _, outlier_users = filter_outliers(mean_weekly(in_window, window), outlier_pct)
    source_code = {name: code for code, name in enumerate(in_window.sources)}
    dropped = [source_code[user] for user in outlier_users]
    kept = in_window.take(~np.isin(in_window.source, dropped))
    removed_reports = len(in_window) - len(kept)
    if not len(kept):
        raise PsSimError("outlier filtering removed every report; raise --outlier-pct")

    formats.write_canonical(kept, out)
    formats.write_ingest_meta(
        out,
        {
            "window_start": first.isoformat(),
            "window_days": ndays,
            "outlier_pct": outlier_pct,
            "outlier_users_removed": len(outlier_users),
            "outlier_reports_removed": removed_reports,
            "out_of_window": excluded,
            "rejects": rejects,
            "accepted": len(kept),
        },
    )
    click.echo(f"accepted {len(kept)} reports -> {out}")
    click.echo(
        f"window {first.isoformat()} +{ndays}d | out-of-window {excluded} | "
        f"outlier users removed {len(outlier_users)} ({removed_reports} reports)"
    )
    _echo_rejects(rejects)
    if not rejects:
        click.echo("rejected 0 rows")


@main.command()
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--start", default=None, help="Window start date (default: inferred).")
@click.option("--days", type=int, default=None, help="Window days (default: inferred).")
@click.option("--per-location", is_flag=True, help="Also fit participation per location.")
@click.option(
    "--plot-data",
    type=click.Path(dir_okay=False, path_type=Path),
    default=None,
    help="Write tidy long-format plot data (histograms, pmfs, Q-Q, ACF).",
)
@_model_errors_exit_3
def fit(dataset, out, start, days, per_location, plot_data):
    """Fit all model parameters from a canonical dataset or a trace and
    write a model file."""
    records, rejects, window, excluded = _read_window(
        _read_dataset, dataset, start, days, "fitting"
    )
    model, meta, samples, qq = fit_models(records, window, per_location, excluded)
    ingest_meta = formats.read_ingest_meta(dataset)
    if ingest_meta is not None:
        meta["ingest"] = ingest_meta
    formats.save_model(model, meta, out)

    click.echo(f"model -> {out}")
    click.echo(
        f"participation mlog={model.mlog:.4f} sdlog={model.sdlog:.4f} "
        f"({len(samples)} user-week samples)"
    )
    click.echo(f"lambda_e overall={model.lambda_overall:.4f} per cell")
    for loc, lam in model.lambda_by_loc.items():
        click.echo(f"  {loc}: {lam:.4f}")
    if qq is not None:
        click.echo(f"Q-Q log-normal fit r^2 = {qq.r2:.4f}")
    acf_table = meta["diagnostics"]["acf"]
    for loc, values in acf_table.items():
        if values is None:
            click.echo(f"ACF {loc}: undefined (constant series)")
        else:
            lags = " ".join(f"{v:+.3f}" for v in values)
            click.echo(f"ACF lags 1..{len(values)} {loc}: {lags}")
    _echo_rejects(rejects)

    if plot_data is not None:
        per_user = np.bincount(records.source)
        counts, users = np.unique(per_user[per_user > 0], return_counts=True)
        rows = [
            ("participation_hist", "users", count, n)
            for count, n in zip(counts.tolist(), users.tolist())
        ]
        for b, p in zip(model.pmf_time.support, model.pmf_time.probs):
            rows.append(("pmf_time", "fit", b.label, p))
        for b, p in zip(model.pmf_day.support, model.pmf_day.probs):
            rows.append(("pmf_day", "fit", b.label, p))
        for label, p in zip(model.pmf_ev_type.support, model.pmf_ev_type.probs):
            rows.append(("pmf_event_type", "fit", label, p))
        if qq is not None:
            for theo, emp in zip(qq.theoretical.tolist(), qq.empirical.tolist()):
                rows.append(("qq_participation", "sample", theo, emp))
        for loc, values in acf_table.items():
            if values is not None:
                for lag, value in enumerate(values, start=1):
                    rows.append(("acf", loc, lag, value))
        formats.write_plot_data(rows, plot_data)
        click.echo(f"plot data -> {plot_data}")


@main.command("simulate")
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None)
@click.option("--tau", type=int, default=7, show_default=True, help="Days to simulate.")
@click.option("--n", "n_participants", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--pr-lie", type=float, default=None, help=f"Probability that a report names a false type (default {_DEFAULT['pr_lie']:g}).")
@click.option("--mlog", type=float, default=None, help=f"Weekly log-location (default {DEFAULT_MODEL.mlog:.4g}, or from --model).")
@click.option("--sdlog", type=float, default=None, help=f"Weekly log-scale (default {DEFAULT_MODEL.sdlog:g}, or from --model).")
@click.option("--lambda", "lambda_e", type=float, default=None, help=f"Events per temporal bin (default {DEFAULT_MODEL.lambda_overall:g}, or from --model).")
@click.option("--ev-types", default=None, help=f"Comma-separated incident types (default {','.join(DEFAULT_MODEL.pmf_ev_type.support)}).")
@click.option("--start-date", default=None, help=f"First date of the window, YYYY-MM-DD (default {_DEFAULT['start_date']}).")
@click.option("--loc", default=None, help="Location label (with --model also selects its lambda).")
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
@_model_errors_exit_3
def simulate_cmd(
    model_path, tau, n_participants, seed, pr_lie, mlog, sdlog, lambda_e,
    ev_types, start_date, loc, out,
):
    """Generate a synthetic trace CSV (EventNo,Date,Day,Time,ReportNo,SourceId,
    EventReported,EventOccurred)."""
    _check_seed(seed)
    if tau < 1:
        raise click.UsageError(f"--tau must be >= 1, got {tau}")
    if n_participants < 1:
        raise click.UsageError(f"--n must be >= 1, got {n_participants}")
    start = _DEFAULT["start_date"]
    if start_date is not None:
        start = _parse_iso_date(start_date, "--start-date")
    if model_path is not None:
        model, _ = formats.load_model(model_path)
        if ev_types is not None:
            raise click.UsageError("--ev-types conflicts with --model (types come from the model)")
    else:
        model = DEFAULT_MODEL
        if ev_types:
            with _option("--ev-types"):
                types = uniform_pmf(t.strip() for t in ev_types.split(",") if t.strip())
            model = dataclasses.replace(model, pmf_ev_type=types)
    if mlog is not None:
        model = _override(model, "--mlog", mlog=mlog)
    if sdlog is not None:
        model = _override(model, "--sdlog", sdlog=sdlog)
    if lambda_e is not None:  # a given --lambda holds at every --loc
        model = _override(model, "--lambda", lambda_overall=lambda_e, lambda_by_loc={})
    with _option("--start-date/--tau"):  # the one field check left: the window's end
        config = SimConfig(
            tau=tau, n=n_participants, seed=seed, start_date=start, loc=loc, model=model
        )
    if pr_lie is not None:
        config = _override(config, "--pr-lie", pr_lie=pr_lie)
    trace = simulate(config)
    formats.write_trace(trace.reports, out)
    click.echo(
        f"trace -> {out} | events {len(trace.events)} | reports {len(trace.reports)} "
        f"| false reports {trace.lie_count}"
    )


def _read_reports_any(path: Path):
    """Read a trace or canonical dataset CSV, detected by its header."""
    header = formats.read_header(path)
    if set(formats.TRACE_HEADER).issubset(header):
        return formats.read_trace(path)
    if set(formats.CANONICAL_HEADER).issubset(header):
        return formats.read_canonical(path)
    raise click.UsageError(
        f"{path}: unrecognized schema; expected a trace or canonical dataset "
        "(run `pssim ingest` on raw data first)"
    )


def _read_dataset(path: Path):
    """Read a trace or canonical dataset CSV as a CanonicalTable and its
    rejects.  A trace is projected by ``report_columns``: each report at
    DEFAULT_LOC with its reported type, which is never blank, as read_trace
    rejects a row with a blank type as malformed."""
    reports, rejects = _read_reports_any(path)
    return report_columns(reports)[0], rejects


@main.command("aggregate")
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
@click.option("--workers", type=int, default=None, help="Accepted for compatibility; has no effect (grouping is one in-process counting pass).")
@click.option("--min-support", type=int, default=1, show_default=True)
@click.option("--loc", default=DEFAULT_LOC, show_default=True, help="Location label for trace rows (traces carry none).")
@click.option("--key", type=click.Choice(["reported", "occurred"]), default="reported", show_default=True, help="Which incident type keys trace rows.")
@_model_errors_exit_3
def aggregate_cmd(input_csv, out, workers, min_support, loc, key):
    """Group reports into events keyed by (date, time bin, loc, type) with
    supporting-report counts."""
    if min_support < 1:
        raise click.UsageError(f"--min-support must be >= 1, got {min_support}")
    if workers is not None and workers < 1:
        raise click.UsageError(f"--workers must be >= 1, got {workers}")

    try:
        records, rejects = _read_reports_any(input_csv)
    except PsSimError as exc:
        raise click.UsageError(str(exc))

    result = aggregate(
        records,
        min_support=min_support,
        default_loc=loc,
        use_occurred=(key == "occurred"),
    )
    formats.write_events_csv(result.events, out)
    total_rejects = result.rejected + sum(rejects.values())
    click.echo(
        f"events -> {out} | {len(result.events)} events from {len(records)} reports "
        f"| rejected {total_rejects}"
    )


@main.command("validate")
@click.argument("dataset", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--folds", "-k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--start", default=None, help="Window start date (default: inferred).")
@click.option("--days", type=int, default=None, help="Window days (default: inferred).")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None, help="Write per-fold metrics CSV.")
@click.option("--plot-data", type=click.Path(dir_okay=False, path_type=Path), default=None, help="Write fold-0 real-vs-simulated histogram data.")
@_model_errors_exit_3
def validate_cmd(dataset, folds, seed, start, days, out, plot_data):
    """Cross-validate simulated traces against a dataset or a trace (k folds)."""
    _check_seed(seed)
    if folds < 2:
        raise click.UsageError(f"--folds must be >= 2, got {folds}")
    records, rejects, window, _ = _read_window(
        _read_dataset, dataset, start, days, "validation"
    )

    results = cross_validate(records, folds, seed, window)
    if out is not None:
        formats.write_validation_csv(results, out)
        click.echo(f"per-fold metrics -> {out}")

    stats = summarize(results)
    click.echo(f"{'Parameter':<22}{'Correlation':<20}RMSE")
    for axis, label in AXES.items():
        s = stats[axis]
        corr = f"{s['correlation_mean']:.4f} ± {s['correlation_std']:.4f}"
        err = f"{s['rmse_mean']:.4f} ± {s['rmse_std']:.4f}"
        click.echo(f"{label:<22}{corr:<20}{err}")
    _echo_rejects(rejects)

    if plot_data is not None:
        rows = []
        for axis, scored in results[0].axes.items():
            for series, hist in (("real", scored.real), ("simulated", scored.sim)):
                for key_, frac in hist.items():
                    x = key_.label if hasattr(key_, "label") else key_
                    rows.append((f"fold0_{axis}", series, x, frac))
        formats.write_plot_data(rows, plot_data)
        click.echo(f"plot data -> {plot_data}")


def _parse_range(text: str, flag: str) -> list[int]:
    parts = text.split(":")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"{flag} expects START:STOP[:STEP], got {text!r}")
    if len(values) == 1:  # one value, checked as the range of it alone
        values *= 2
    if len(values) == 2:
        start, stop = values
        step = max(1, (stop - start) // 9)
    elif len(values) == 3:
        start, stop, step = values
    else:
        raise click.UsageError(f"{flag} expects START:STOP[:STEP], got {text!r}")
    if start < 1 or stop < start or step < 1:
        raise click.UsageError(f"{flag} range must be positive and increasing, got {text!r}")
    return list(range(start, stop + 1, step))


@main.command("bench")
@click.option("--n-range", default="100:1000:100", show_default=True, help="Participant grid START:STOP[:STEP].")
@click.option("--m-range", default="10:100:10", show_default=True, help="Duration grid (days) START:STOP[:STEP].")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--repeats", type=int, default=3, show_default=True, help="Runs per grid point; median is reported.")
@click.option("--lambda", "lambda_e", type=float, default=None, help=f"Events per temporal bin (default {DEFAULT_MODEL.lambda_overall:g}).")
@click.option("--out", required=True, type=click.Path(dir_okay=False, path_type=Path))
@_model_errors_exit_3
def bench_cmd(n_range, m_range, seed, repeats, lambda_e, out):
    """Time trace generation over a grid of participant counts and durations."""
    _check_seed(seed)
    if repeats < 1:
        raise click.UsageError(f"--repeats must be >= 1, got {repeats}")
    n_values = _parse_range(n_range, "--n-range")
    m_values = _parse_range(m_range, "--m-range")

    model = DEFAULT_MODEL
    if lambda_e is not None:
        model = _override(model, "--lambda", lambda_overall=lambda_e)
    rows = bench_grid(n_values, m_values, seed=seed, repeats=repeats, model=model)
    formats.write_bench_csv(rows, out)
    click.echo(f"timings -> {out} | {len(rows)} grid points")
    exponents = fit_growth_exponents(rows)
    if exponents is None:
        click.echo("growth exponents: need at least a 2x2 grid to fit")
    else:
        a, b = exponents
        click.echo(f"fitted growth: time ~ n^{a:.2f} * m^{b:.2f}")


if __name__ == "__main__":
    main()
