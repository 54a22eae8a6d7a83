"""Unit tests for the simulated clock."""

import pytest

from repro.core import ClockError, PAPER_EPOCH, SimClock, Stopwatch


class TestSimClock:
    def test_starts_at_paper_epoch_by_default(self):
        assert SimClock().now() == PAPER_EPOCH

    def test_custom_start(self):
        assert SimClock(123.0).now() == 123.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            SimClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimClock(100.0)
        assert clock.advance(5.5) == 105.5
        assert clock.now() == 105.5

    def test_advance_zero_is_noop(self):
        clock = SimClock(100.0)
        clock.advance(0.0)
        assert clock.now() == 100.0

    def test_advance_negative_rejected(self):
        clock = SimClock(100.0)
        with pytest.raises(ClockError):
            clock.advance(-0.1)

    def test_advance_to_absolute(self):
        clock = SimClock(100.0)
        clock.advance_to(250.0)
        assert clock.now() == 250.0

    def test_advance_to_same_instant_is_noop(self):
        clock = SimClock(100.0)
        clock.advance_to(100.0)
        assert clock.now() == 100.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(100.0)
        with pytest.raises(ClockError):
            clock.advance_to(99.9)

    def test_elapsed_since(self):
        clock = SimClock(100.0)
        clock.advance(30.0)
        assert clock.elapsed_since(100.0) == 30.0


class TestStopwatch:
    def test_measures_elapsed_simulated_time(self):
        clock = SimClock(0.0)
        watch = Stopwatch(clock)
        clock.advance(42.0)
        assert watch.elapsed() == 42.0
