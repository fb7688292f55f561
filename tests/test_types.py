import datetime as dt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from pssim.errors import PsSimError
from pssim.types import (
    DAY_BINS,
    TEMPORAL_BINS,
    DayBin,
    TemporalBin,
    bin_of_time,
    day_index,
    time_index,
    weekday_of,
)

from conftest import make_config


class TestTemporalBin:
    def test_eight_members_in_listed_order(self):
        assert [b.name for b in TEMPORAL_BINS] == [
            "EM", "M", "D", "MD", "E", "LE", "MN", "N",
        ]

    def test_bins_partition_the_day(self):
        # exhaustive sweep: every minute of the day lands in exactly one bin
        per_bin = {b: 0 for b in TEMPORAL_BINS}
        for minute in range(24 * 60):
            per_bin[bin_of_time(dt.time(minute // 60, minute % 60))] += 1
        assert all(count == 180 for count in per_bin.values())

    def test_boundaries_belong_to_the_later_bin(self):
        assert bin_of_time(dt.time(3, 0)) is TemporalBin.EM
        assert bin_of_time(dt.time(2, 59)) is TemporalBin.N
        assert bin_of_time(dt.time(6, 0)) is TemporalBin.M

    def test_examples(self):
        assert bin_of_time(dt.time(3, 0)) is TemporalBin.EM
        assert bin_of_time(dt.time(12, 30)) is TemporalBin.MD
        assert bin_of_time(dt.time(0, 10)) is TemporalBin.N

    def test_each_bin_covers_its_three_hours(self):
        for b in TEMPORAL_BINS:
            for offset in range(3):
                hour = (b.start_hour + offset) % 24
                assert bin_of_time(dt.time(hour, 0)) is b
                assert bin_of_time(dt.time(hour, 59)) is b

    def test_label_lookup(self):
        assert TemporalBin.from_label("MD") is TemporalBin.MD
        assert TemporalBin.from_label("MidDay") is TemporalBin.MD
        with pytest.raises(PsSimError):
            TemporalBin.from_label("Noonish")


class TestDayBin:
    def test_seven_members_sunday_first(self):
        assert [b.label for b in DAY_BINS] == [
            "Sunday", "Monday", "Tuesday", "Wednesday",
            "Thursday", "Friday", "Saturday",
        ]

    def test_weekday_of_known_dates(self):
        # 2016-01-09 is a Saturday on any calendar, despite the ambiguous
        # day-first sample row that labels it Thursday.
        assert weekday_of(dt.date(2016, 1, 9)) is DayBin.SATURDAY
        assert weekday_of(dt.date(2015, 2, 23)) is DayBin.MONDAY

    @given(
        st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2200, 1, 1)),
        st.integers(min_value=-50, max_value=50),
    )
    def test_weekday_is_seven_periodic(self, date, weeks):
        assert weekday_of(date + dt.timedelta(days=7 * weeks)) is weekday_of(date)

    def test_index_matches_calendar_order(self):
        monday = dt.date(2015, 2, 23)
        for offset in range(7):
            day = weekday_of(monday + dt.timedelta(days=offset))
            assert day.index == (offset + 1) % 7


class TestCalendarRules:
    def test_day_index_matches_the_standard_library(self):
        monday_first = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
        first, last = dt.date(1900, 1, 1).toordinal(), dt.date(2100, 12, 31).toordinal()
        ordinals = np.arange(first, last + 1)
        expected = [monday_first[dt.date.fromordinal(o).weekday()] for o in ordinals.tolist()]
        assert [DAY_BINS[i].label for i in day_index(ordinals).tolist()] == expected
        assert [DAY_BINS[day_index(o)].label for o in ordinals.tolist()] == expected

    def test_time_index_matches_the_bins_start_hours(self):
        indices = time_index(np.arange(24)).tolist()
        for hour in range(24):
            assert time_index(hour) == indices[hour]
            start = TEMPORAL_BINS[indices[hour]].start_hour
            assert (hour - start) % 24 < 3


class TestSimConfig:
    def test_valid_config_builds(self):
        cfg = make_config()
        assert (cfg.tau, cfg.start_date) == (7, dt.date(2015, 2, 23))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"tau": 0},
            {"pr_lie": -0.1},
            {"pr_lie": 1.5},
            {"lambda_e": 0.0},
            {"sdlog": 0.0},
            {"ev_types": ()},
            {"ev_types": ("Jam", "Jam")},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_invalid_fields_rejected(self, overrides):
        with pytest.raises(PsSimError):
            make_config(**overrides)

    def test_lying_needs_two_event_types(self):
        with pytest.raises(PsSimError, match="two event types"):
            make_config(ev_types=("Jam",), pr_lie=0.5)
