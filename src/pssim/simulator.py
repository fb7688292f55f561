"""End-to-end trace simulation.

Pipeline: rescale participation parameters to the simulation horizon, draw
per-participant report quotas, draw the event count from per-cell Poisson
rates, assign event attributes by pmf sampling, then attribute every quota
unit to a uniformly chosen event with optional false-report injection.

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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .distributions import (
    RandomSource,
    lognormal_sample_counts,
    pmf_sample_indices,
    rescale,
)
from .errors import PsSimError
from .table import EventTable, ReportTable, code_dtype
from .types import DAY_BINS, SimConfig, weekday_of


@dataclass
class ParticipantPool:
    """Participants with their remaining report quotas."""

    quotas: np.ndarray
    ids: tuple[str, ...]

    @classmethod
    def from_quotas(cls, quotas: Sequence[int]) -> "ParticipantPool":
        q = np.asarray(quotas, dtype=np.int64)
        if q.ndim != 1 or q.size == 0:
            raise PsSimError("quota vector must be non-empty and one-dimensional")
        if np.any(q < 0):
            raise PsSimError("quotas must be nonnegative")
        ids = tuple(f"UID{i + 1:06d}" for i in range(q.size))
        return cls(quotas=q, ids=ids)


@dataclass(frozen=True)
class Trace:
    """Simulator output: report and event tables plus the generating context.

    ``reports`` and ``events`` are columnar tables that also act as
    sequences of Report and Event rows, built on first element access.
    """

    reports: ReportTable
    events: EventTable
    config: SimConfig
    seed: int

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
    """
    if count < 1:
        raise PsSimError(f"event count must be >= 1, got {count}")

    dates_by_day = {day: [] for day in DAY_BINS}
    for d in config.dates:
        dates_by_day[weekday_of(d)].append(d.toordinal())
    for day, p in zip(config.pmf_day.support, config.pmf_day.probs):
        if p > 0.0 and not dates_by_day[day]:
            raise PsSimError(
                f"window too short for day pmf: no {day.label} in the "
                f"{config.tau}-day window starting {config.start_date}"
            )

    day_idx = pmf_sample_indices(config.pmf_day, count, rng)
    time_idx = pmf_sample_indices(config.pmf_time, count, rng)
    type_idx = pmf_sample_indices(config.pmf_ev_type, count, rng)
    u_date = rng.generator.random(count)

    candidates = [dates_by_day[day] for day in config.pmf_day.support]
    sizes = np.asarray([len(c) for c in candidates], dtype=np.int64)
    by_day = np.zeros((len(candidates), int(sizes.max())), dtype=np.int64)
    for i, ordinals in enumerate(candidates):
        by_day[i, : len(ordinals)] = ordinals
    cand_sizes = sizes[day_idx]
    date_pick = np.minimum((u_date * cand_sizes).astype(np.int64), cand_sizes - 1)

    bin_index = np.asarray([b.index for b in config.pmf_time.support], dtype=np.int64)
    types = tuple(config.pmf_ev_type.support)
    return EventTable(
        event_no=np.arange(1, count + 1, dtype=np.int64),
        date=by_day[day_idx, date_pick],
        time=bin_index[time_idx],
        type=type_idx,
        types=types,
        loc=np.zeros(count, dtype=np.int64),
        locs=(config.loc,),
    )


def attribute_reports(
    events: EventTable,
    pool: ParticipantPool,
    pr_lie: float,
    ev_types: Sequence[str],
    rng: RandomSource,
) -> ReportTable:
    """Emit exactly sum(pool.quotas) reports and use up the whole pool.

    Each report picks an event uniformly at random and a participant
    uniformly among those with quota left, as drawn by the participants'
    exponential clocks; the occurred type comes from the event and the
    reported type goes through lie injection.
    """
    if not len(events):
        raise PsSimError("no events to report")
    total = int(pool.quotas.sum())
    if total < 1:
        raise PsSimError("participant pool has no remaining quota")
    if pr_lie > 0.0 and len(ev_types) < 2:
        raise PsSimError("pr_lie > 0 requires at least two event types")

    ev_types = tuple(ev_types)
    type_index = {t: i for i, t in enumerate(ev_types)}
    remap = np.asarray([type_index.get(t, -1) for t in events.types], dtype=np.int64)
    ev_type_idx = remap[events.type]
    if ev_type_idx.min() < 0:
        unknown = events.types[int(events.type[np.argmin(ev_type_idx)])]
        raise PsSimError(f"event type {unknown!r} not in the configured type list")
    type_dtype = code_dtype(len(ev_types), total)

    gen = rng.generator
    # the columns are cast to compact codes as soon as they are drawn, which
    # bounds peak memory per report
    event = gen.integers(0, len(events), size=total).astype(code_dtype(len(events), total))
    u_part = gen.random(total)
    part_idx = _kernels.assign_participants(pool.quotas, u_part)
    del u_part

    occurred = ev_type_idx[event].astype(type_dtype)
    reported = occurred.copy()
    lie_mask = gen.random(total) < pr_lie
    n_lies = int(lie_mask.sum())
    if n_lies:
        r = gen.integers(0, len(ev_types) - 1, size=n_lies)
        reported[lie_mask] = r + (r >= occurred[lie_mask])

    pool.quotas = np.zeros_like(pool.quotas)

    return ReportTable(
        event_no=events.event_no,
        date=events.date,
        time=events.time,
        event=event,
        report_no=np.arange(1, total + 1, dtype=np.int64),
        source=part_idx.astype(code_dtype(len(pool.ids), total)),
        sources=pool.ids,
        reported=reported,
        occurred=occurred,
        types=ev_types,
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

    pool = ParticipantPool.from_quotas(quotas)
    reports = attribute_reports(
        events,
        pool,
        config.pr_lie,
        config.ev_types,
        master.substream("reports"),
    )
    return Trace(reports=reports, events=events, config=config, seed=config.seed)
