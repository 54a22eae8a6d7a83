"""Unit tests for the burst detector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConfigurationError
from repro.growth import BurstDetector, GrowthSeries


def series(values):
    return GrowthSeries(start_time=0.0, arrivals=tuple(values))


class TestBurstDetector:
    def test_flat_series_no_bursts(self):
        detector = BurstDetector()
        assert detector.detect(series([100] * 20)) == []

    def test_noisy_series_no_false_positives(self):
        values = [95, 103, 99, 108, 92, 101, 97, 104, 100, 96,
                  105, 98, 102, 94, 107]
        assert BurstDetector().detect(series(values)) == []

    def test_single_burst_detected(self):
        values = [100] * 10 + [5100] + [100] * 10
        events = BurstDetector().detect(series(values))
        assert len(events) == 1
        event = events[0]
        assert event.day == 10
        assert event.arrivals == 5100
        assert event.excess == pytest.approx(5000.0)
        assert event.z_score > 6.0

    def test_two_bursts_sorted_by_strength(self):
        values = [100] * 8 + [2100] + [100] * 8 + [9100] + [100] * 8
        events = BurstDetector().detect(series(values))
        assert [event.arrivals for event in events] == [9100, 2100]

    def test_min_excess_guards_small_accounts(self):
        # 10 -> 40 is six "sigma" on a quiet account but only 30 heads.
        values = [10] * 12 + [40] + [10] * 12
        assert BurstDetector(min_excess=50).detect(series(values)) == []
        assert BurstDetector(min_excess=10).detect(series(values)) != []

    def test_zero_variance_baseline_fallback(self):
        values = [0] * 12 + [800] + [0] * 12
        events = BurstDetector().detect(series(values))
        assert len(events) == 1

    def test_needs_history(self):
        with pytest.raises(ConfigurationError):
            BurstDetector().detect(series([1, 2, 3]))

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BurstDetector(threshold=0.0)
        with pytest.raises(ConfigurationError):
            BurstDetector(min_excess=-1)

    def test_baseline_robust_to_the_burst_itself(self):
        """The burst must not drag its own baseline up (median, not mean)."""
        detector = BurstDetector()
        clean = detector.baseline(series([100] * 20))
        with_burst = detector.baseline(series([100] * 19 + [100_000]))
        assert with_burst[0] == clean[0] == 100.0


def numpy_baseline(values):
    """The median/MAD baseline as ``np.median`` over float64 computes it."""
    array = np.asarray(values, dtype=np.float64)
    median = float(np.median(array))
    mad = float(np.median(np.abs(array - median)))
    scale = 1.4826 * mad
    if scale <= 0.0:
        scale = max(1.0, np.sqrt(max(median, 1.0)))
    return median, scale


class TestExactBaseline:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 300),
                              st.integers(0, 2**40)),
                    min_size=1, max_size=300))
    def test_equals_numpy_median_bit_for_bit(self, values):
        ours = BurstDetector().baseline(series(values))
        theirs = numpy_baseline(values)
        assert [x.hex() for x in map(float, ours)] \
            == [x.hex() for x in map(float, theirs)]

    @pytest.mark.parametrize("values", [
        [7], [3, 4], [5, 1, 4], [1, 2, 3, 4], [0, 0, 0, 9, 9, 9],
        [100] * 19 + [100_000], [0, 1] * 50 + [3]])
    def test_odd_and_even_lengths(self, values):
        assert BurstDetector().baseline(series(values)) \
            == numpy_baseline(values)


def full_detection(values, threshold, min_excess):
    """Every burst day through the full median/MAD computation, strongest
    first: no early exit of any kind."""
    median, scale = numpy_baseline(values)
    events = [(day, count, median, (count - median) / scale)
              for day, count in enumerate(values)
              if (count - median) / scale >= threshold
              and count - median >= min_excess]
    return sorted(events, key=lambda event: event[3], reverse=True)


class TestShortCircuit:
    """``detect`` skips the MAD when no day clears ``min_excess``; its
    answer must be the full computation's."""

    @staticmethod
    def check(values, threshold, min_excess):
        detector = BurstDetector(threshold=threshold, min_excess=min_excess)
        events = detector.detect(series(values))
        assert [(event.day, event.arrivals, event.baseline, event.z_score)
                for event in events] \
            == full_detection(values, threshold, min_excess)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.integers(0, 300),
                                     st.integers(0, 20_000)),
                           min_size=4, max_size=40),
           threshold=st.sampled_from([0.5, 3.0, 6.0]),
           excess=st.one_of(st.just(0), st.integers(0, 20_000),
                            st.sampled_from(["tie", "tie-1", "tie+1"])))
    def test_equals_the_full_computation(self, values, threshold, excess):
        if isinstance(excess, str):
            # Put min_excess exactly at (or one off) the largest day's
            # excess over the median: the short-circuit's boundary.
            top = max(values) - float(np.median(values))
            excess = max(0, int(top) + {"tie": 0, "tie-1": -1,
                                        "tie+1": 1}[excess])
        self.check(values, threshold, excess)

    @pytest.mark.parametrize("values,min_excess", [
        ([10, 10, 10, 510], 500),       # the largest day ties min_excess
        ([10, 10, 10, 509], 500),       # one short: skipped
        ([0, 0, 0, 0], 0),              # min_excess 0 never skips
        ([0, 0, 1, 1], 0),
        ([100, 100, 600, 600], 500),    # even length, median between
        ([7, 3, 5, 4], 1),
    ])
    def test_length_four_and_the_threshold_ties(self, values, min_excess):
        self.check(values, 1.0, min_excess)
