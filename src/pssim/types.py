"""Domain vocabulary shared across the package: bins, reports, events,
aggregated events, config.

A day is split into eight three-hour temporal bins starting at 3AM; weekdays
form seven day bins ordered Sunday through Saturday.  ``day_index`` and
``time_index`` are the calendar rules: every module that bins a date or an
hour calls them.  Locations are opaque string labels and event types are
strings: the support of the configured type pmf.  ``DEFAULT_LOC`` labels
reports that carry no location.
"""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PsSimError

if TYPE_CHECKING:
    from .distributions import Pmf

#: Location label of reports that carry none (simulated traces, bare rows).
DEFAULT_LOC = "unspecified"


class TemporalBin(enum.Enum):
    """Three-hour slot of the day.  Ranges are half-open [start, start+3h)."""

    EM = ("EarlyMorning", 3)
    M = ("Morning", 6)
    D = ("Day", 9)
    MD = ("MidDay", 12)
    E = ("Evening", 15)
    LE = ("LateEvening", 18)
    MN = ("MidNight", 21)
    N = ("Night", 0)  # wraps the day: 00:00-03:00

    @property
    def label(self) -> str:
        return self.value[0]

    @property
    def start_hour(self) -> int:
        return self.value[1]

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
class Report:
    """One user-generated notification row of a simulated trace."""

    event_no: int
    date: dt.date
    day: DayBin
    time: TemporalBin
    report_no: int
    source_id: str
    event_reported: str
    event_occurred: str


@dataclass(frozen=True, slots=True)
class IngestedReport:
    """Canonical form of one real report row after ingestion."""

    date: dt.date
    day: DayBin
    time: TemporalBin
    source_id: str
    loc: str
    incident_type: str


@dataclass(frozen=True, slots=True)
class Event:
    """A published incident; (date, time, loc, incident_type) is its identity."""

    event_no: int
    date: dt.date
    day: DayBin
    time: TemporalBin
    loc: str
    incident_type: str


@dataclass(frozen=True)
class EventKey:
    """Group identity of an aggregated event: the four-tuple that defines it."""

    date: dt.date
    day_time: TemporalBin
    loc: str
    incident_type: str

    def sort_key(self) -> tuple:
        return (self.date, self.day_time.index, self.loc, self.incident_type)


@dataclass(frozen=True)
class AggregatedEvent:
    """One group of reports: its key, its report count and its reporters."""

    key: EventKey
    support_count: int
    reporters: frozenset[str]


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full parameter set driving one simulation run.

    ``mlog``/``sdlog`` are the weekly log-location and log-scale of the
    participation model; they get rescaled to the ``tau``-day horizon before
    participant quotas are drawn.  ``lambda_e`` is the mean event count per
    temporal-bin cell.  The day and time pmfs range over DAY_BINS and
    TEMPORAL_BINS; the type pmf's support is the event-type list.
    """

    tau: int
    start_date: dt.date
    pr_lie: float
    n: int
    lambda_e: float
    mlog: float
    sdlog: float
    pmf_time: "Pmf"
    pmf_day: "Pmf"
    pmf_ev_type: "Pmf"
    seed: int
    loc: str = DEFAULT_LOC

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise PsSimError(f"tau must be >= 1, got {self.tau}")
        if self.n < 1:
            raise PsSimError(f"participant count n must be >= 1, got {self.n}")
        if not 0.0 <= self.pr_lie <= 1.0:
            raise PsSimError(f"pr_lie must be in [0, 1], got {self.pr_lie}")
        if self.pr_lie > 0.0 and len(self.pmf_ev_type.support) < 2:
            raise PsSimError("pr_lie > 0 requires at least two event types")
        if self.lambda_e <= 0.0:
            raise PsSimError(f"lambda_e must be > 0, got {self.lambda_e}")
        if self.sdlog <= 0.0:
            raise PsSimError(f"sdlog must be > 0, got {self.sdlog}")
        if not 0 <= self.seed < 2**64:
            raise PsSimError("seed must fit in an unsigned 64-bit integer")
        for name, pmf, allowed in (
            ("pmf_time", self.pmf_time, set(TEMPORAL_BINS)),
            ("pmf_day", self.pmf_day, set(DAY_BINS)),
        ):
            extra = [s for s in pmf.support if s not in allowed]
            if extra:
                raise PsSimError(f"{name} support has unknown labels: {extra!r}")
