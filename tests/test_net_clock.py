"""Tests for repro.inet.clock."""

import datetime

import pytest

from repro.inet.clock import (
    SECONDS_PER_DAY,
    SimulatedClock,
    date_to_epoch,
    days_in_year,
    epoch_to_date,
    year_bounds,
)


class TestDateConversions:
    def test_epoch_of_unix_origin(self):
        assert date_to_epoch(1970, 1, 1) == 0.0

    def test_round_trip(self):
        ts = date_to_epoch(2021, 4, 15)
        assert epoch_to_date(ts) == datetime.date(2021, 4, 15)

    def test_mid_day_timestamp_maps_to_same_date(self):
        ts = date_to_epoch(2020, 6, 1) + 12 * 3600
        assert epoch_to_date(ts) == datetime.date(2020, 6, 1)

    def test_year_bounds_cover_whole_year(self):
        start, end = year_bounds(2019)
        assert epoch_to_date(start) == datetime.date(2019, 1, 1)
        assert epoch_to_date(end - 1) == datetime.date(2019, 12, 31)

    def test_year_bounds_length_matches_days_in_year(self):
        start, end = year_bounds(2020)
        assert (end - start) / SECONDS_PER_DAY == days_in_year(2020)

    def test_leap_year_has_366_days(self):
        assert days_in_year(2020) == 366
        assert days_in_year(2019) == 365


class TestSimulatedClock:
    def test_default_start_is_april_2021(self):
        clock = SimulatedClock()
        assert clock.date() == datetime.date(2021, 4, 1)

    def test_advance_accumulates(self):
        clock = SimulatedClock(now=0.0)
        clock.advance(10.0)
        clock.advance(5.5)
        assert clock.now == 15.5

    def test_advance_returns_new_time(self):
        clock = SimulatedClock(now=100.0)
        assert clock.advance(1.0) == 101.0

    def test_negative_advance_rejected(self):
        clock = SimulatedClock(now=0.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_set_forward(self):
        clock = SimulatedClock(now=0.0)
        clock.set(500.0)
        assert clock.now == 500.0

    def test_set_backwards_rejected(self):
        clock = SimulatedClock(now=100.0)
        with pytest.raises(ValueError):
            clock.set(99.0)

    def test_date_tracks_advances(self):
        clock = SimulatedClock(now=date_to_epoch(2020, 1, 1))
        clock.advance(3 * SECONDS_PER_DAY)
        assert clock.date() == datetime.date(2020, 1, 4)
