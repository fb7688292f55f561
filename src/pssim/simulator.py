"""End-to-end trace simulation.

Pipeline: rescale participation parameters to the simulation horizon, draw
per-participant report quotas, draw the event count from per-cell Poisson
rates, assign event attributes by pmf sampling, then attribute every quota
unit to a uniformly chosen event with optional false-report injection.
Quotas are one array, indexed by participant; events and reports are
tables.  An event's date is placed by arithmetic on date ordinals (see
``assign_event_attributes``).  ``default_config`` is the configuration of
``pssim simulate`` without a model and of ``pssim bench``;
``model_config`` is the one mapping of a fitted model to a configuration,
for ``pssim simulate --model`` and each fold of ``pssim validate``.

Stream layout (fixed; golden traces depend on it):

* ``quotas``      one log-normal batch of n draws
* ``events``      8*tau Poisson draws, one per (date, temporal-bin) cell
* ``attributes``  four batches of length = event count, in order:
                  day uniforms, time uniforms, type uniforms, date uniforms
* ``reports``     event-pick integers, participant uniforms, lie-decision
                  uniforms, then replacement-type integers for the liars

Each stage consumes its own substream of the master seed, so adding draws in
one stage never perturbs another.  The participant uniforms are read as
exponential gaps, laid out participant-major: the first quota[0] belong to
participant 0, the next quota[1] to participant 1, and so on.  Participant
p's k-th report fires at the sum of its first k gaps, and reports go to
participants in firing order (see ``_kernels``).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import _kernels
from .distributions import (
    RandomSource,
    lognormal_sample_counts,
    pmf_from_counts,
    pmf_sample_indices,
    rescale,
    uniform_pmf,
)
from .errors import PsSimError
from .table import EventTable, ReportTable, code_dtype, take
from .types import DAY_BINS, TEMPORAL_BINS, SimConfig, day_index

if TYPE_CHECKING:
    from .formats import ModelFile


#: The fields of ``default_config``; the CLI's help texts name them from here.
DEFAULTS = MappingProxyType(
    dict(
        start_date=dt.date(2015, 2, 23),
        pr_lie=0.0,
        lambda_e=10.0,
        mlog=math.log(3.0),
        sdlog=0.5,
        pmf_time=uniform_pmf(TEMPORAL_BINS),
        pmf_day=uniform_pmf(DAY_BINS),
        pmf_ev_type=uniform_pmf(("Jam", "Accident", "RoadClosure", "Hazard")),
    )
)


def default_config(**fields) -> SimConfig:
    """The configuration that ``pssim simulate`` runs without a model and
    ``pssim bench`` times (``DEFAULTS``): a window starting on Monday
    2015-02-23, weekly participation of mlog ln 3 (three reports per
    participant-week on average) and sdlog 0.5, 10 events per temporal bin,
    no false reports, and uniform day, time and type pmfs over four incident
    types.  ``fields`` give tau, n and seed, and replace any other field."""
    return SimConfig(**{**DEFAULTS, **fields})


def model_config(model: ModelFile, loc: str | None = None, **fields) -> SimConfig:
    """The configuration that simulates a fitted model: its mlog, sdlog and
    day, time and type pmfs, and the lambda it fitted at ``loc``, or its
    overall lambda where ``loc`` is None or has none.  A given ``loc`` also
    labels the events.  Every other field is ``default_config``'s;
    ``fields`` give tau, n and seed, and replace any other field.
    """
    fitted = dict(
        mlog=model.mlog, sdlog=model.sdlog,
        lambda_e=model.lambda_by_loc.get(loc, model.lambda_overall),
        pmf_day=model.pmf_day, pmf_time=model.pmf_time, pmf_ev_type=model.pmf_ev_type,
        **({} if loc is None else {"loc": loc}),
    )
    return default_config(**{**fitted, **fields})


@dataclass(frozen=True)
class Trace:
    """Simulator output: report and event tables plus the generating context.

    ``reports`` and ``events`` are columnar tables (see table.py).
    """

    reports: ReportTable
    events: EventTable
    config: SimConfig

    @property
    def lie_count(self) -> int:
        return int(np.count_nonzero(self.reports.reported != self.reports.occurred))


def gen_poisson_events(config: SimConfig, rng: RandomSource) -> int:
    """Total event count: independent Poisson(lambda_e) draws over all
    8*tau (date, temporal-bin) cells, summed."""
    cells = 8 * config.tau
    draws = rng.generator.poisson(lam=config.lambda_e, size=cells)
    total = int(draws.sum())
    if total == 0:
        raise PsSimError("no events generated; increase lambda_e or tau")
    return total


def assign_event_attributes(
    count: int, config: SimConfig, rng: RandomSource
) -> EventTable:
    """Draw day, time, and type for each event from the configured pmfs.

    The date is uniform among window dates whose weekday equals the sampled
    day bin, which keeps every event's day label consistent with its date.
    The window's first date of weekday d is ``start + (d - day(start)) mod
    7``, and it holds ``(tau - that offset + 6) // 7`` dates of weekday d,
    seven days apart.  A window shorter than a week can miss weekdays the
    day pmf gives mass to; the day is then drawn from the pmf renormalised
    over the weekdays the window holds, and a window that holds none of
    them is an error.  A window that holds every weekday with mass draws
    from the pmf as it is.
    """
    if count < 1:
        raise PsSimError(f"event count must be >= 1, got {count}")

    start = config.start_date.toordinal()
    pmf_day = config.pmf_day
    days = np.asarray([day.index for day in pmf_day.support], dtype=np.int64)
    first = (days - day_index(start)) % 7  # days from the start
    sizes = (config.tau - first + 6) // 7
    held = [p if size else 0.0 for p, size in zip(pmf_day.probs, sizes.tolist())]
    if held != list(pmf_day.probs):
        if not any(held):
            missing = " or ".join(d.label for d, p in zip(pmf_day.support, pmf_day.probs) if p)
            raise PsSimError(
                f"window too short for day pmf: no {missing} in the "
                f"{config.tau}-day window starting {config.start_date}"
            )
        pmf_day = pmf_from_counts(dict(zip(pmf_day.support, held)))

    day_idx = pmf_sample_indices(pmf_day, count, rng)
    time_idx = pmf_sample_indices(config.pmf_time, count, rng)
    type_idx = pmf_sample_indices(config.pmf_ev_type, count, rng)
    u_date = rng.generator.random(count)

    cand_sizes = sizes[day_idx]
    date_pick = np.minimum((u_date * cand_sizes).astype(np.int64), cand_sizes - 1)

    bin_index = np.asarray([b.index for b in config.pmf_time.support], dtype=np.int64)
    types = tuple(config.pmf_ev_type.support)
    return EventTable(
        event_no=np.arange(1, count + 1, dtype=np.int64),
        date=start + first[day_idx] + 7 * date_pick,
        time=bin_index[time_idx],
        type=type_idx,
        types=types,
        loc=np.zeros(count, dtype=np.int64),
        locs=(config.loc,),
    )


def attribute_reports(
    events: EventTable,
    quotas: Sequence[int],
    pr_lie: float,
    rng: RandomSource,
) -> ReportTable:
    """Emit exactly sum(quotas) reports, quotas[i] of them by participant i,
    whose id is UID followed by i + 1 in six digits.

    Each report picks an event uniformly at random and a participant
    uniformly among those with quota left, as drawn by the participants'
    exponential clocks.  The occurred type comes from the event; a report
    that lies (with probability ``pr_lie``) gives another type of the
    events' type vocabulary, uniformly.
    """
    quotas = np.asarray(quotas, dtype=np.int64)
    if quotas.ndim != 1 or quotas.size == 0:
        raise PsSimError("quota vector must be non-empty and one-dimensional")
    if np.any(quotas < 0):
        raise PsSimError("quotas must be nonnegative")
    if not len(events):
        raise PsSimError("no events to report")
    total = int(quotas.sum())
    if total < 1:
        raise PsSimError("participants have no remaining quota")
    if pr_lie > 0.0 and len(events.types) < 2:
        raise PsSimError("pr_lie > 0 requires at least two event types")
    type_dtype = code_dtype(len(events.types), total)

    gen = rng.generator
    # the columns are cast to compact codes as soon as they are drawn, which
    # bounds peak memory per report
    event = gen.integers(0, len(events), size=total).astype(code_dtype(len(events), total))
    u_part = gen.random(total)
    source = _kernels.assign_participants(quotas, u_part)  # in code_dtype
    del u_part

    occurred = take(events.type.astype(type_dtype), event)
    reported = occurred.copy()
    lie_mask = gen.random(total) < pr_lie
    n_lies = int(lie_mask.sum())
    if n_lies:
        r = gen.integers(0, len(events.types) - 1, size=n_lies)
        reported[lie_mask] = r + (r >= occurred[lie_mask])

    return ReportTable(
        event_no=events.event_no,
        date=events.date,
        time=events.time,
        event=event,
        report_no=np.arange(1, total + 1, dtype=np.int64),
        source=source,
        sources=tuple(f"UID{i + 1:06d}" for i in range(len(quotas))),
        reported=reported,
        occurred=occurred,
        types=events.types,
    )


def simulate(config: SimConfig) -> Trace:
    """Run the full pipeline; a pure function of (config, seed)."""
    master = RandomSource(config.seed)

    params = rescale(config.mlog, config.sdlog, config.tau)
    quotas = lognormal_sample_counts(config.n, params, master.substream("quotas"))
    if int(quotas.sum()) == 0:
        raise PsSimError(
            "all participant quotas rounded to zero; increase mlog, sdlog, or tau"
        )

    count = gen_poisson_events(config, master.substream("events"))
    events = assign_event_attributes(count, config, master.substream("attributes"))

    reports = attribute_reports(events, quotas, config.pr_lie, master.substream("reports"))
    return Trace(reports=reports, events=events, config=config)
