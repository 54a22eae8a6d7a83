"""Unit tests for growth-series construction."""

import numpy as np
import pytest

from repro.core import ConfigurationError, DAY, PAPER_EPOCH
from hypothesis import given, settings, strategies as st

from repro.growth import (
    GrowthSeries,
    RollingSeries,
    RollingSeriesBlock,
    interval_arrivals,
    series_from_observations,
)


class TestGrowthSeries:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GrowthSeries(start_time=0.0, arrivals=())
        with pytest.raises(ConfigurationError):
            GrowthSeries(start_time=0.0, arrivals=(1, -1))

    def test_day_start(self):
        series = GrowthSeries(start_time=100.0, arrivals=(1, 2, 3))
        assert series.day_start(0) == 100.0
        assert series.day_start(2) == 100.0 + 2 * DAY
        with pytest.raises(ConfigurationError):
            series.day_start(3)

    def test_total_and_len(self):
        series = GrowthSeries(start_time=0.0, arrivals=(5, 7))
        assert len(series) == 2
        assert series.total() == 12


class TestFromObservations:
    def test_deltas(self):
        series = series_from_observations(
            [(0.0, 100), (DAY, 130), (2 * DAY, 130), (3 * DAY, 190)])
        assert series.arrivals == (30, 0, 60)
        assert series.start_time == 0.0

    def test_needs_two_readings(self):
        with pytest.raises(ConfigurationError):
            series_from_observations([(0.0, 10)])

    def test_chronological_required(self):
        with pytest.raises(ConfigurationError):
            series_from_observations([(DAY, 10), (0.0, 20)])
        with pytest.raises(ConfigurationError):
            series_from_observations([(0.0, 10), (0.0, 20)])

    def test_decreasing_counts_clip_to_zero_by_default(self):
        series = series_from_observations(
            [(0.0, 100), (DAY, 90), (2 * DAY, 150)])
        assert series.arrivals == (0, 60)

    def test_strict_mode_rejects_decreases(self):
        with pytest.raises(ConfigurationError):
            series_from_observations(
                [(0.0, 100), (DAY, 90)], clip_negative=False)

    def test_gap_spreads_arrivals_remainder_first(self):
        series = series_from_observations(
            [(0.0, 100), (3 * DAY + 600.0, 111), (4 * DAY, 111)])
        assert series.arrivals == (4, 4, 3, 0)


class TestIntervalArrivals:
    def test_one_day(self):
        assert interval_arrivals(0.0, 100, DAY, 130) == [30]

    def test_sub_day_gap_counts_as_one_day(self):
        assert interval_arrivals(0.0, 100, 0.3 * DAY, 130) == [30]

    def test_decrease_clips_or_raises(self):
        assert interval_arrivals(0.0, 100, 2 * DAY, 90) == [0, 0]
        with pytest.raises(ConfigurationError):
            interval_arrivals(0.0, 100, DAY, 90, clip_negative=False)


class TestRollingSeries:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.floats(60.0, 4.4 * DAY), st.integers(-50, 5000)),
        min_size=1, max_size=40),
        max_readings=st.integers(2, 12))
    def test_equals_a_rebuild_of_the_held_readings(self, steps,
                                                   max_readings):
        rolling = RollingSeries(max_readings)
        t, count = PAPER_EPOCH, 1000
        readings = [(t, count)]
        rolling.append(t, count)
        for gap, change in steps:
            t, count = t + gap, max(0, count + change)
            readings.append((t, count))
            rolling.append(t, count)
            held = readings[-max_readings:]
            assert list(rolling.readings) == held
            rebuilt = series_from_observations(held)
            assert rolling.start_time == rebuilt.start_time
            assert tuple(rolling.arrivals) == rebuilt.arrivals
            assert len(rolling) == len(rebuilt)
            assert rolling.ordered == sorted(rebuilt.arrivals)
            assert all(rolling.is_day_start(rebuilt.day_start(day))
                       for day in range(len(rebuilt)))
            assert not rolling.is_day_start(rebuilt.day_start(0) + 1.0)
            assert not rolling.is_day_start(
                rebuilt.start_time + len(rebuilt) * DAY)

    def test_rejects_a_reading_out_of_order_unchanged(self):
        rolling = RollingSeries(4)
        rolling.append(0.0, 100)
        rolling.append(DAY, 150)
        for stale in (DAY, 0.5 * DAY):
            with pytest.raises(ConfigurationError):
                rolling.append(stale, 200)
        assert list(rolling.readings) == [(0.0, 100), (DAY, 150)]
        assert list(rolling.arrivals) == [50]

    def test_needs_two_readings(self):
        with pytest.raises(ConfigurationError):
            RollingSeries(1)


#: One page: per row of four, ``None`` (no reading) or (seconds since
#: that row's previous reading, count change); ``shared`` pages read
#: every row at one instant.
_BLOCK_PAGE = st.tuples(
    st.booleans(),
    st.lists(st.one_of(st.none(), st.tuples(
        st.one_of(st.floats(0.6 * DAY, 1.4 * DAY),
                  st.floats(1.5 * DAY, 4.4 * DAY),
                  st.floats(60.0, 0.49 * DAY)),
        st.one_of(st.integers(80, 120), st.integers(-300, -1),
                  st.integers(2_000, 20_000), st.just(0)))),
        min_size=4, max_size=4))


class TestRollingSeriesBlock:
    """Rows of a block equal one :class:`RollingSeries` each, and their
    extremes and medians are those of its arrivals."""

    @settings(max_examples=100, deadline=None)
    @given(pages=st.lists(_BLOCK_PAGE, min_size=1, max_size=40),
           max_readings=st.integers(2, 12))
    def test_rows_equal_rolling_series(self, pages, max_readings):
        block = RollingSeriesBlock(max_readings)
        block.add_rows(1)
        block.add_rows(3)  # rows grow past their first allocation
        rolling = [RollingSeries(max_readings) for __ in range(4)]
        clocks = [PAPER_EPOCH] * 4
        counts = [1_000] * 4
        for shared, steps in pages:
            read = [row for row, step in enumerate(steps) if step is not None]
            if not read:
                continue
            page_t = max(clocks[row] for row in read) + steps[read[0]][0]
            for row in read:
                gap, change = steps[row]
                clocks[row] = page_t if shared else clocks[row] + gap
                counts[row] = max(0, counts[row] + change)
                rolling[row].append(clocks[row], counts[row])
            rows = np.array(read, dtype=np.int64)
            block.append_page(rows, np.array([clocks[row] for row in read]),
                              np.array([counts[row] for row in read]))
            assert block.held(rows).tolist() == [
                len(rolling[row].readings) for row in read]
            for row in read:
                series = block.series(row)
                assert list(series.readings) == list(rolling[row].readings)
                assert series.arrivals == rolling[row].arrivals
            ready = rows[block.held(rows) >= 2]
            if len(ready):
                top, low = block.extremes(ready)
                assert top.tolist() == [max(rolling[row].arrivals)
                                        for row in ready.tolist()]
                assert low.tolist() == [min(rolling[row].arrivals)
                                        for row in ready.tolist()]
                top, twice_median = block.peaks(ready)
                for row, peak, twice in zip(ready.tolist(), top.tolist(),
                                            twice_median.tolist()):
                    ordered = rolling[row].ordered
                    middle = len(ordered) // 2
                    assert peak == ordered[-1]
                    assert twice == (ordered[middle - 1] + ordered[middle]
                                     if len(ordered) % 2
                                     == 0 else 2 * ordered[middle])

    def test_needs_two_readings(self):
        with pytest.raises(ConfigurationError):
            RollingSeriesBlock(1)
