"""Unit tests for time constants and helpers."""

import pytest

from repro.core import (
    DAY,
    HOUR,
    MINUTE,
    PAPER_EPOCH,
    TWITTER_LAUNCH,
    WEEK,
    YEAR,
    format_duration,
    isoformat,
    timestamp,
    to_datetime,
)


class TestConstants:
    def test_units_compose(self):
        assert HOUR == 60 * MINUTE
        assert DAY == 24 * HOUR
        assert WEEK == 7 * DAY
        assert YEAR == 365.25 * DAY

    def test_paper_epoch_after_twitter_launch(self):
        assert PAPER_EPOCH > TWITTER_LAUNCH

    def test_paper_epoch_is_march_2014(self):
        assert isoformat(PAPER_EPOCH) == "2014-03-01T00:00:00Z"


class TestTimestamp:
    def test_roundtrip_through_datetime(self):
        ts = timestamp(2014, 3, 15, 12, 30, 45)
        dt = to_datetime(ts)
        assert (dt.year, dt.month, dt.day) == (2014, 3, 15)
        assert (dt.hour, dt.minute, dt.second) == (12, 30, 45)


class TestFormatDuration:
    @pytest.mark.parametrize("seconds,expected", [
        (0.0, "0.0s"),
        (42.0, "42.0s"),
        (90.0, "1.5m"),
        (2 * HOUR, "2.0h"),
        (27 * DAY, "27.0d"),
    ])
    def test_units(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)
