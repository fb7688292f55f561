"""Domain vocabulary shared across the package: the calendar bins, their
rules, the fitted model and the simulation config.  Reports and events are
the columnar tables of table.py.

A day is split into eight three-hour temporal bins starting at 3AM; weekdays
form seven day bins ordered Sunday through Saturday.  ``day_index`` and
``time_index`` are the calendar rules: every module that bins a date or an
hour calls them.  Locations are opaque string labels and event types are
strings: the support of the model's type pmf.  ``DEFAULT_LOC`` labels
reports that carry no location.  ``Model`` is the one parameter set, which
a ``SimConfig`` holds beside the run's own fields.
"""

from __future__ import annotations

import datetime as dt
import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .distributions import Pmf, uniform_pmf
from .errors import PsSimError

#: Location label of reports that carry none (simulated traces, bare rows).
DEFAULT_LOC = "unspecified"


class TemporalBin(enum.Enum):
    """Three-hour slot of the day, half-open from its start hour (see
    ``time_index``)."""

    EM = "EarlyMorning"  # 03:00-06:00
    M = "Morning"  # 06:00-09:00
    D = "Day"  # 09:00-12:00
    MD = "MidDay"  # 12:00-15:00
    E = "Evening"  # 15:00-18:00
    LE = "LateEvening"  # 18:00-21:00
    MN = "MidNight"  # 21:00-24:00
    N = "Night"  # wraps the day: 00:00-03:00

    @property
    def label(self) -> str:
        return self.value

    @property
    def index(self) -> int:
        return _TEMPORAL_INDEX[self]

    @classmethod
    def from_label(cls, text: str) -> "TemporalBin":
        """Accept either the short code ("MD") or the long label ("MidDay")."""
        try:
            return _TEMPORAL_LOOKUP[text]
        except KeyError:
            raise PsSimError(f"unknown temporal bin {text!r}") from None


TEMPORAL_BINS: tuple[TemporalBin, ...] = tuple(TemporalBin)
_TEMPORAL_INDEX = {b: i for i, b in enumerate(TEMPORAL_BINS)}
_TEMPORAL_LOOKUP = {b.name: b for b in TEMPORAL_BINS}
_TEMPORAL_LOOKUP.update({b.label: b for b in TEMPORAL_BINS})


class DayBin(enum.Enum):
    """Weekday category, ordered Sunday through Saturday."""

    SUNDAY = "Sunday"
    MONDAY = "Monday"
    TUESDAY = "Tuesday"
    WEDNESDAY = "Wednesday"
    THURSDAY = "Thursday"
    FRIDAY = "Friday"
    SATURDAY = "Saturday"

    @property
    def label(self) -> str:
        return self.value

    @property
    def index(self) -> int:
        return _DAY_INDEX[self]

    @classmethod
    def from_label(cls, text: str) -> "DayBin":
        try:
            return _DAY_LOOKUP[text]
        except KeyError:
            raise PsSimError(f"unknown day bin {text!r}") from None


DAY_BINS: tuple[DayBin, ...] = tuple(DayBin)
_DAY_INDEX = {b: i for i, b in enumerate(DAY_BINS)}
_DAY_LOOKUP = {b.value: b for b in DAY_BINS}
_DAY_LOOKUP.update({b.name: b for b in DAY_BINS})


def day_index(ordinal):
    """DAY_BINS index of the weekday of a date ordinal (``date.toordinal()``),
    for an int or a numpy integer array.  Ordinal 1, 0001-01-01, is a
    Monday and DAY_BINS start on Sunday, so the index is the ordinal mod 7."""
    return ordinal % 7


def time_index(hour):
    """TEMPORAL_BINS index of the three-hour bin holding an hour of the day
    (0..23), for an int or a numpy signed integer array: the bins start at
    3AM."""
    return (hour - 3) % 24 // 3


def weekday_of(date: dt.date) -> DayBin:
    """Return the calendar weekday of ``date`` as a DayBin."""
    return DAY_BINS[day_index(date.toordinal())]


@dataclass(frozen=True, slots=True)
class Model:
    """The fitted parameter set: what ``pssim fit`` writes and the
    simulator runs.

    ``mlog``/``sdlog`` are the weekly log-location and log-scale of the
    participation model; the simulator rescales them to the run's horizon
    before it draws participant quotas.  ``lambda_overall`` is the mean
    event count per temporal-bin cell, and ``lambda_by_loc`` (read-only)
    the same at each location fitted (see ``lambda_at``).  The day and time
    pmfs range over DAY_BINS and TEMPORAL_BINS; the type pmf's support is
    the event-type list.
    """

    mlog: float
    sdlog: float
    lambda_overall: float
    lambda_by_loc: Mapping[str, float]
    pmf_day: Pmf
    pmf_time: Pmf
    pmf_ev_type: Pmf

    def __post_init__(self) -> None:
        object.__setattr__(self, "lambda_by_loc", MappingProxyType(dict(self.lambda_by_loc)))
        if not math.isfinite(self.mlog):
            raise PsSimError(f"mlog must be finite, got {self.mlog}")
        if not (math.isfinite(self.sdlog) and self.sdlog > 0.0):
            raise PsSimError(f"sdlog must be finite and > 0, got {self.sdlog}")
        lambdas = {"lambda_overall": self.lambda_overall}
        lambdas.update((f"lambda_by_loc[{loc!r}]", lam) for loc, lam in self.lambda_by_loc.items())
        for name, lam in lambdas.items():
            if not (math.isfinite(lam) and lam > 0.0):
                raise PsSimError(f"{name} must be finite and > 0, got {lam}")
        for name, pmf, allowed in (
            ("pmf_time", self.pmf_time, set(TEMPORAL_BINS)),
            ("pmf_day", self.pmf_day, set(DAY_BINS)),
        ):
            extra = [s for s in pmf.support if s not in allowed]
            if extra:
                raise PsSimError(f"{name} support has unknown labels: {extra!r}")

    def lambda_at(self, loc: str | None) -> float:
        """Events per temporal-bin cell at ``loc``: the lambda fitted there,
        else the overall lambda, which a run without a location (None)
        takes too."""
        return self.lambda_by_loc.get(loc, self.lambda_overall)


#: The model that ``pssim simulate`` runs without ``--model`` and ``pssim
#: bench`` times: weekly participation of mlog ln 3 (three reports per
#: participant-week on average) and sdlog 0.5, 10 events per temporal bin,
#: and uniform day, time and type pmfs over four incident types.
DEFAULT_MODEL = Model(
    mlog=math.log(3.0), sdlog=0.5, lambda_overall=10.0, lambda_by_loc={},
    pmf_day=uniform_pmf(DAY_BINS), pmf_time=uniform_pmf(TEMPORAL_BINS),
    pmf_ev_type=uniform_pmf(("Jam", "Accident", "RoadClosure", "Hazard")),
)


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One simulation run: ``model`` over the ``tau`` days from
    ``start_date``, with ``n`` participants, a false-report probability
    ``pr_lie`` and a master ``seed``.

    ``loc`` selects the model's lambda (``Model.lambda_at``) and labels the
    events; None, a run without a location, takes the overall lambda and
    labels them DEFAULT_LOC.  The defaults are those of ``pssim simulate``
    without options: a window starting on Monday 2015-02-23, no false
    reports and ``DEFAULT_MODEL``.
    """

    tau: int
    n: int
    seed: int
    start_date: dt.date = dt.date(2015, 2, 23)
    loc: str | None = None
    pr_lie: float = 0.0
    model: Model = DEFAULT_MODEL

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise PsSimError(f"tau must be >= 1, got {self.tau}")
        if self.n < 1:
            raise PsSimError(f"participant count n must be >= 1, got {self.n}")
        if not 0.0 <= self.pr_lie <= 1.0:
            raise PsSimError(f"pr_lie must be in [0, 1], got {self.pr_lie}")
        if self.pr_lie > 0.0 and len(self.model.pmf_ev_type.support) < 2:
            raise PsSimError("pr_lie > 0 requires at least two event types")
        if not 0 <= self.seed < 2**64:
            raise PsSimError("seed must fit in an unsigned 64-bit integer")
