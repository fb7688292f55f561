"""Domain vocabulary shared across the package: bins, reports, events, config.

A day is split into eight three-hour temporal bins starting at 3AM; weekdays
form seven day bins ordered Sunday through Saturday.  Locations are opaque
string labels and event types are strings drawn from a configured list.
"""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import PsSimError

if TYPE_CHECKING:
    from .distributions import Pmf


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


def weekday_of(date: dt.date) -> DayBin:
    """Return the calendar weekday of ``date`` as a DayBin."""
    # date.weekday() is Monday=0..Sunday=6; DayBin is Sunday=0..Saturday=6.
    return DAY_BINS[(date.weekday() + 1) % 7]


def bin_of_time(clock_time: dt.time) -> TemporalBin:
    """Return the unique temporal bin whose three-hour range contains the time."""
    return TEMPORAL_BINS[((clock_time.hour - 3) % 24) // 3]


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


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Full parameter set driving one simulation run.

    ``mlog``/``sdlog`` are the weekly log-location and log-scale of the
    participation model; they get rescaled to the ``tau``-day horizon before
    participant quotas are drawn.  ``lambda_e`` is the mean event count per
    temporal-bin cell.  All three pmfs must be normalized and their supports
    drawn from the matching bin/type vocabularies.
    """

    tau: int
    start_date: dt.date
    ev_types: tuple[str, ...]
    pr_lie: float
    n: int
    lambda_e: float
    mlog: float
    sdlog: float
    pmf_time: "Pmf"
    pmf_day: "Pmf"
    pmf_ev_type: "Pmf"
    seed: int
    loc: str = "unspecified"

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise PsSimError(f"tau must be >= 1, got {self.tau}")
        if self.n < 1:
            raise PsSimError(f"participant count n must be >= 1, got {self.n}")
        if not self.ev_types:
            raise PsSimError("event type list must be non-empty")
        if len(set(self.ev_types)) != len(self.ev_types):
            raise PsSimError("event type list contains duplicates")
        if not 0.0 <= self.pr_lie <= 1.0:
            raise PsSimError(f"pr_lie must be in [0, 1], got {self.pr_lie}")
        if self.pr_lie > 0.0 and len(self.ev_types) < 2:
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
            ("pmf_ev_type", self.pmf_ev_type, set(self.ev_types)),
        ):
            extra = [s for s in pmf.support if s not in allowed]
            if extra:
                raise PsSimError(f"{name} support has unknown labels: {extra!r}")

    @property
    def dates(self) -> tuple[dt.date, ...]:
        """All calendar dates of the tau-day simulation window."""
        return tuple(
            self.start_date + dt.timedelta(days=i) for i in range(self.tau)
        )
