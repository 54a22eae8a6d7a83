"""Unit tests for growth-series construction."""

import numpy as np
import pytest

from repro.core import ConfigurationError, DAY, PAPER_EPOCH
from hypothesis import given, settings, strategies as st

from repro.growth import (
    GrowthSeries,
    RollingSeriesBlock,
    series_from_observations,
)

from ..obs.bridge_oracle import rebuild_arrivals


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
        assert all(series.is_day_start(series.day_start(day))
                   for day in range(3))
        assert not series.is_day_start(100.0 + 1.0)
        assert not series.is_day_start(100.0 - DAY)
        assert not series.is_day_start(100.0 + 3 * DAY)

    def test_total_and_len(self):
        series = GrowthSeries(start_time=0.0, arrivals=(5, 7))
        assert len(series) == 2
        assert series.total() == 12


#: One reading after another: (seconds since the previous reading, a
#: daily, multi-day or sub-day gap; count change, organic, a decrease,
#: a burst or none).
_STEP = st.tuples(
    st.one_of(st.floats(0.6 * DAY, 1.4 * DAY),
              st.floats(1.5 * DAY, 4.4 * DAY),
              st.floats(60.0, 0.49 * DAY)),
    st.one_of(st.integers(80, 120), st.integers(-300, -1),
              st.integers(2_000, 20_000), st.just(0)))


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

    def test_gap_spreads_arrivals_remainder_first(self):
        series = series_from_observations(
            [(0.0, 100), (3 * DAY + 600.0, 111), (4 * DAY, 111)])
        assert series.arrivals == (4, 4, 3, 0)

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=40))
    def test_equals_the_oracle(self, steps):
        """Sub-day gaps, multi-day gaps and decreases, day for day as
        the spelled-out interval loop of the bridge's oracle."""
        t, count = PAPER_EPOCH, 1000
        readings = [(t, count)]
        for gap, change in steps:
            t, count = t + gap, max(0, count + change)
            readings.append((t, count))
        series = series_from_observations(readings)
        assert series.start_time == PAPER_EPOCH
        assert series.arrivals == tuple(rebuild_arrivals(readings))


class TestIntervalArrivals:
    """One interval's days, as the series of its two readings."""

    @staticmethod
    def days(gap, before, after):
        return list(series_from_observations(
            [(0.0, before), (gap, after)]).arrivals)

    def test_one_day(self):
        assert self.days(DAY, 100, 130) == [30]

    def test_sub_day_gap_counts_as_one_day(self):
        assert self.days(0.3 * DAY, 100, 130) == [30]

    def test_multi_day_decrease_clips_to_zero(self):
        assert self.days(2 * DAY, 100, 90) == [0, 0]


#: One page: per row of four, ``None`` (no reading) or a :data:`_STEP`;
#: ``shared`` pages read every row at one instant.
_BLOCK_PAGE = st.tuples(
    st.booleans(),
    st.lists(st.one_of(st.none(), _STEP), min_size=4, max_size=4))


class TestRollingSeriesBlock:
    """Each row's days, extremes and median are those the oracle
    rebuilds from the row's latest ``max_readings`` readings."""

    @settings(max_examples=100, deadline=None)
    @given(pages=st.lists(_BLOCK_PAGE, min_size=1, max_size=40),
           max_readings=st.integers(2, 12))
    def test_rows_equal_the_oracle(self, pages, max_readings):
        block = RollingSeriesBlock(max_readings)
        block.add_rows(1)
        block.add_rows(3)  # rows grow past their first allocation
        readings = [[] for __ in range(4)]
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
                readings[row].append((clocks[row], counts[row]))
            rows = np.array(read, dtype=np.int64)
            block.append_page(rows, np.array([clocks[row] for row in read]),
                              np.array([counts[row] for row in read]))
            held = {row: readings[row][-max_readings:] for row in read}
            assert block.held(rows).tolist() == [
                len(held[row]) for row in read]
            assert block.latest(rows).tolist() == [
                held[row][-1][0] for row in read]
            ready = rows[block.held(rows) >= 2]
            if not len(ready):
                continue
            days = {row: rebuild_arrivals(held[row])
                    for row in ready.tolist()}
            for row in ready.tolist():
                series = block.growth(row)
                assert series.start_time == held[row][0][0]
                assert list(series.arrivals) == days[row]
            top, low = block.extremes(ready)
            assert top.tolist() == [max(days[row]) for row in ready.tolist()]
            assert low.tolist() == [min(days[row]) for row in ready.tolist()]
            top, twice_median = block.peaks(ready)
            for row, peak, twice in zip(ready.tolist(), top.tolist(),
                                        twice_median.tolist()):
                assert peak == max(days[row])
                assert twice == 2 * np.median(days[row])

    def test_needs_two_readings(self):
        with pytest.raises(ConfigurationError):
            RollingSeriesBlock(1)
