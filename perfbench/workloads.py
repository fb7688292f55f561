"""Workloads of the pipeline benchmark: seeded inputs, command plans and
output checks.

Each workload is a closed loop: one client runs its commands back to back
through the CLI.  A pass is a list of rounds; a round is a list of commands
whose outputs are checked together.

* trace_pipeline -- the baseline simulate config (n=10000, tau=100,
  lambda=10, pr_lie=0.1, four types), then aggregate of that trace.
* fit_validate   -- a seeded raw export run through ingest -> fit
  --per-location -> aggregate --min-support 2 -> validate -k 5.
* small_runs     -- many tiny simulate -> aggregate rounds, where per-call
  set-up dominates.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("trace_pipeline", "fit_validate", "small_runs")

START = dt.date(2015, 2, 23)  # a Monday
DAYS = 91
# date.weekday() order, Monday first
WEEKDAY_NAMES = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
TIME_BINS = ("EarlyMorning", "Morning", "Day", "MidDay", "Evening", "LateEvening", "MidNight", "Night")
BIN_START_HOUR = (3, 6, 9, 12, 15, 18, 21, 0)
LOCATIONS = (
    "Elm Street", "Route 9", "Harbor Drive", "Main Street",
    "Bridge Road", "Airport Way", "Mill Lane", "Station Square",
)
TYPES = ("Jam", "Accident", "RoadClosure", "Hazard")
MIN_SUPPORT = 2
AGGREGATE_WORKERS = "2"


@dataclass(frozen=True)
class Sizes:
    trace_n: int
    trace_tau: int
    raw_users: int
    small_rounds: int
    folds: int = 5


SIZES = {
    "full": Sizes(trace_n=10_000, trace_tau=100, raw_users=1_600, small_rounds=400),
    "tiny": Sizes(trace_n=300, trace_tau=14, raw_users=60, small_rounds=4, folds=3),
}


@dataclass(frozen=True)
class Command:
    name: str  # CLI subcommand
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # files whose bytes make up the round digest
    check: Callable[[str], dict]  # printed output -> input sizes learned


Round = tuple[Command, ...]


class CheckFailed(Exception):
    """An output check failed; the message says which."""


# -- seeded raw export --------------------------------------------------------


def write_raw_export(path: Path, seed: int, users: int) -> dict:
    """Write a raw report CSV for fit_validate and return its known counts.

    Users have log-normal weekly participation over 13 weeks; one heavy user
    makes the outlier filter fire.  About 0.5% of rows are malformed, one
    defect each, spread over the reject reasons; about 0.3% fall before the
    window.  Timestamps mix the Z, +00:00 and -05:00 styles.
    """
    rng = np.random.default_rng([seed, 1808])
    weeks = DAYS // 7
    per_week = np.rint(rng.lognormal(math.log(4.0), 0.7, size=(users, weeks))).astype(np.int64)
    per_week[0, :] = 150  # the heavy user
    counts = per_week.sum(axis=1)
    total = int(counts.sum())

    user = np.repeat(np.arange(users), counts)
    week = np.concatenate([np.repeat(np.arange(weeks), row) for row in per_week])
    day_w = np.array([18, 17, 16, 18, 15, 6, 5], dtype=float)  # Monday first
    time_w = np.array([4, 8, 10, 22, 12, 10, 14, 20], dtype=float)
    loc_w = np.array([30, 18, 12, 10, 10, 8, 7, 5], dtype=float)
    day = rng.choice(7, size=total, p=day_w / day_w.sum())
    tbin = rng.choice(8, size=total, p=time_w / time_w.sum())
    minute = rng.integers(0, 180, size=total)
    second = rng.integers(0, 60, size=total)
    loc = rng.choice(len(LOCATIONS), size=total, p=loc_w / loc_w.sum())
    # each location has its own type mix
    type_mix = rng.dirichlet(np.ones(len(TYPES)) * 2.0, size=len(LOCATIONS))
    u_type = rng.random(total)
    incident = (u_type[:, None] > np.cumsum(type_mix[loc], axis=1)[:, :-1]).sum(axis=1)

    day_offset = week * 7 + day
    early = rng.random(total) < 0.003  # before the ingest window
    day_offset = np.where(early, -1 - rng.integers(0, 7, size=total), day_offset)
    hour = np.asarray(BIN_START_HOUR)[tbin] + minute // 60
    seconds = day_offset * 86400 + hour * 3600 + (minute % 60) * 60 + second
    stamps = np.datetime64(START.isoformat() + "T00:00:00") + seconds.astype("timedelta64[s]")
    style = rng.integers(0, 3, size=total)
    utc_text = np.datetime_as_string(stamps, unit="s")
    est_text = np.datetime_as_string(stamps - np.timedelta64(5, "h"), unit="s")

    defect = np.where(rng.random(total) < 0.005, rng.integers(1, 5, size=total), 0)
    defect[user == 0] = 0  # keep the heavy user whole
    order = rng.permutation(total)

    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("timestamp", "sourceId", "loc", "incidentType"))
        for i in order.tolist():
            if style[i] == 0:
                stamp = utc_text[i] + "Z"
            elif style[i] == 1:
                stamp = utc_text[i] + "+00:00"
            else:
                stamp = est_text[i] + "-05:00"
            row = [stamp, f"U{user[i]:05d}", LOCATIONS[loc[i]], TYPES[incident[i]]]
            if defect[i]:
                row[defect[i] - 1] = "not-a-time" if defect[i] == 1 else ""
            writer.writerow(row)
    return {
        "raw_rows": total,
        "malformed_rows": int((defect > 0).sum()),
    }


# -- command plans ------------------------------------------------------------


def trace_round(out: Path, n: int, tau: int, seed: int) -> Round:
    trace, events = str(out / "trace.csv"), str(out / "events.csv")
    simulate = Command(
        "simulate",
        ("simulate", "--n", str(n), "--tau", str(tau), "--lambda", "10",
         "--pr-lie", "0.1", "--seed", str(seed), "--out", trace),
        (trace,),
        lambda stdout: check_trace(trace, stdout),
    )
    aggregate = Command(
        "aggregate",
        ("aggregate", trace, "--out", events, "--workers", AGGREGATE_WORKERS),
        (events,),
        lambda stdout: check_events(events, trace, trace=True, min_support=1),
    )
    return (simulate, aggregate)


def fit_validate_round(out: Path, folds: int, seed: int, inputs: dict) -> Round:
    raw = inputs["raw_path"]
    canon, model = str(out / "canonical.csv"), str(out / "model.json")
    events, folds_csv = str(out / "events.csv"), str(out / "folds.csv")
    ingest = Command(
        "ingest",
        ("ingest", raw, "--out", canon, "--start", START.isoformat(), "--days", str(DAYS)),
        (canon, canon + ".meta.json"),
        lambda stdout: check_ingest(canon, inputs["raw_rows"], inputs["malformed_rows"]),
    )
    fit = Command(
        "fit",
        ("fit", canon, "--out", model, "--per-location"),
        (model,),
        lambda stdout: check_model(model),
    )
    aggregate = Command(
        "aggregate",
        ("aggregate", canon, "--out", events, "--min-support", str(MIN_SUPPORT),
         "--workers", AGGREGATE_WORKERS),
        (events,),
        lambda stdout: check_events(events, canon, trace=False, min_support=MIN_SUPPORT),
    )
    validate = Command(
        "validate",
        ("validate", canon, "-k", str(folds), "--seed", str(seed), "--out", folds_csv),
        (folds_csv,),
        lambda stdout: check_folds(folds_csv, folds),
    )
    return (ingest, fit, aggregate, validate)


def plan(workload: str, sizes: Sizes, seed: int, out: Path, inputs: dict) -> list[Round]:
    """The rounds of one pass; every pass of one seed repeats them exactly."""
    if workload == "trace_pipeline":
        return [trace_round(out, sizes.trace_n, sizes.trace_tau, seed)]
    if workload == "fit_validate":
        return [fit_validate_round(out, sizes.folds, seed, inputs)]
    if workload == "small_runs":
        draw = random.Random(seed)
        return [
            trace_round(out, 50, 7, draw.randrange(1, 2**31))
            for _ in range(sizes.small_rounds)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


# -- output checks ------------------------------------------------------------


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_trace(path: str, stdout: str) -> dict:
    """Header is TRACE_HEADER; ReportNo runs 1..N; Day is the weekday of
    Date; N equals the report count simulate printed."""
    from pssim.formats import TRACE_HEADER

    printed = re.search(r"\breports (\d+)", stdout)
    _require(printed is not None, "simulate printed no report count")
    events = re.search(r"\bevents (\d+)", stdout)
    n = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        _require(tuple(header or ()) == tuple(TRACE_HEADER), f"trace header {header}")
        col = {name: i for i, name in enumerate(header)}
        date_i, day_i, no_i = col["Date"], col["Day"], col["ReportNo"]
        weekday = {}
        for row in reader:
            n += 1
            _require(int(row[no_i]) == n, f"ReportNo {row[no_i]} at row {n}")
            date = row[date_i]
            name = weekday.get(date)
            if name is None:
                name = weekday[date] = WEEKDAY_NAMES[dt.date.fromisoformat(date).weekday()]
            _require(row[day_i] == name, f"Day {row[day_i]} for Date {date}")
    _require(n == int(printed.group(1)), f"trace has {n} rows, simulate printed {printed.group(1)}")
    return {"trace_rows": n, "events": int(events.group(1)) if events else 0}


def _event_key(row: dict, trace: bool) -> tuple:
    if trace:
        return (row["Date"], row["Time"], "unspecified", row["EventReported"])
    return (row["date"], row["time"], row["loc"], row["incidentType"])


def check_events(path: str, source: str, trace: bool, min_support: int) -> dict:
    """supportCount sums to the rows fed in minus min-support drops, and
    every event matches an independent group-by of the input, in key order."""
    groups: dict[tuple, int] = {}
    fed = 0
    with open(source, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = _event_key(row, trace)
            groups[key] = groups.get(key, 0) + 1
            fed += 1
    kept = {k: c for k, c in groups.items() if c >= min_support}
    dropped = fed - sum(kept.values())
    rank = {label: i for i, label in enumerate(TIME_BINS)}
    total = events = 0
    previous = None
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            key = (row["date"], row["dayTime"], row["loc"], row["incidentType"])
            support = int(row["supportCount"])
            _require(kept.get(key) == support, f"event {key} support {support}, expected {kept.get(key)}")
            order = (key[0], rank[key[1]], key[2], key[3])
            _require(previous is None or previous < order, f"event {key} out of key order")
            previous = order
            total += support
            events += 1
    _require(events == len(kept), f"{events} events, expected {len(kept)}")
    _require(total == fed - dropped, f"supportCount sums to {total}, expected {fed - dropped}")
    return {"events_out": events}


def check_ingest(canonical: str, raw_rows: int, malformed_rows: int) -> dict:
    """accepted + outlier-removed + out-of-window + rejects = raw rows."""
    with open(canonical + ".meta.json", encoding="utf-8") as handle:
        meta = json.load(handle)
    rejects = sum(meta["rejects"].values())
    accounted = (
        meta["accepted"] + meta["outlier_reports_removed"] + meta["out_of_window"] + rejects
    )
    _require(accounted == raw_rows, f"ingest accounts for {accounted} of {raw_rows} raw rows")
    _require(rejects == malformed_rows, f"{rejects} rejects, {malformed_rows} rows malformed")
    with open(canonical, newline="", encoding="utf-8") as handle:
        written = sum(1 for _ in handle) - 1
    _require(written == meta["accepted"], f"{written} rows written, meta says {meta['accepted']}")
    _require(meta["outlier_users_removed"] >= 1, "outlier filter did not fire")
    return {"accepted_rows": written}


def check_model(path: str) -> dict:
    """Schema version is MODEL_SCHEMA_VERSION; every pmf sums to 1."""
    from pssim.formats import MODEL_SCHEMA_VERSION

    with open(path, encoding="utf-8") as handle:
        model = json.load(handle)
    _require(model.get("version") == MODEL_SCHEMA_VERSION, f"model version {model.get('version')}")
    pmfs = [k for k in model if k.startswith("pmf_")]
    _require(len(pmfs) >= 3, f"model has pmfs {pmfs}")
    for key in pmfs:
        total = math.fsum(model[key]["probs"])
        _require(abs(total - 1.0) <= 1e-9, f"{key} sums to {total!r}")
    return {}


def check_folds(path: str, k: int) -> dict:
    """k rows per axis, one per (fold, axis), with finite metrics."""
    from pssim.validation import AXES

    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    _require(len(rows) == k * len(AXES), f"{len(rows)} fold rows, expected {k * len(AXES)}")
    seen = {(row["fold"], row["axis"]) for row in rows}
    _require(seen == {(str(f), a) for f in range(k) for a in AXES}, "fold/axis rows incomplete")
    for row in rows:
        for field in ("correlation", "rmse"):
            _require(math.isfinite(float(row[field])), f"fold {row['fold']} {field} {row[field]}")
    return {}

