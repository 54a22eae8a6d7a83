"""Growth-burst detection.

A purchased follower block is delivered in hours (see
``repro.twitter.generator.make_target_spec``'s burst segments), so on a
daily-arrival series it shows up as one or two days whose counts sit
far outside the account's organic baseline.  The detector uses the
standard robust recipe — median/MAD z-scores — so a burst cannot mask
itself by inflating the mean, and a slowly growing account (organic
acceleration) is not flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.errors import ConfigurationError
from .series import GrowthSeries

#: Consistency constant turning a MAD into a Gaussian-comparable sigma.
_MAD_TO_SIGMA = 1.4826


def _twice_median(ordered: Sequence[int]) -> int:
    """Twice the median of a non-empty sorted integer sequence."""
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return 2 * ordered[middle]
    return ordered[middle - 1] + ordered[middle]


@dataclass(frozen=True)
class BurstEvent:
    """One anomalous-growth day."""

    day: int
    start_time: float
    arrivals: int
    baseline: float
    z_score: float

    @property
    def excess(self) -> float:
        """Arrivals above the organic baseline."""
        return max(0.0, self.arrivals - self.baseline)


class BurstDetector:
    """Robust z-score detector over daily arrival counts.

    Parameters
    ----------
    threshold:
        Minimum robust z-score for a day to count as a burst.  The
        default 6.0 is deliberately conservative: organic day-to-day
        noise in the synthetic workloads (and, per the 2012 reporting,
        in real accounts) stays well under 4 sigma.
    min_excess:
        Minimum absolute arrivals above baseline — guards against tiny
        accounts where a handful of followers is "six sigma".
    """

    def __init__(self, threshold: float = 6.0, min_excess: int = 50) -> None:
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0: {threshold!r}")
        if min_excess < 0:
            raise ConfigurationError(
                f"min_excess must be >= 0: {min_excess!r}")
        self._threshold = threshold
        self._min_excess = min_excess

    def baseline(self, series: GrowthSeries) -> Tuple[float, float]:
        """Robust (location, scale) of the organic arrival rate."""
        ordered = sorted(series.arrivals)
        return self._baseline(ordered, _twice_median(ordered))

    @staticmethod
    def _baseline(ordered: Sequence[int],
                  twice_median: int) -> Tuple[float, float]:
        # Median and MAD, exact: the arrivals are integers, so twice
        # the median and four times the MAD are integers too, and
        # halving/quartering them is exact in float64 — bit for bit
        # what np.median over the float64 array returns.
        mad = _twice_median(sorted(
            [abs(2 * value - twice_median) for value in ordered])) / 4
        median = twice_median / 2
        scale = _MAD_TO_SIGMA * mad
        if scale <= 0.0:
            # A perfectly steady trickle: fall back to a Poisson-ish
            # scale so a genuine burst still stands out.
            scale = max(1.0, math.sqrt(max(median, 1.0)))
        return median, scale

    def detect(self, series: GrowthSeries) -> List[BurstEvent]:
        """Return all burst days, strongest first.

        Whether a day bursts is monotone in its count, so when the
        largest day does not burst no day does and the scan is skipped;
        when it does not even clear ``min_excess`` over the median, the
        MAD is never computed.
        """
        if len(series) < 4:
            raise ConfigurationError(
                "burst detection needs at least 4 days of history")
        ordered = sorted(series.arrivals)
        twice_median = _twice_median(ordered)
        if not self.may_burst(ordered[-1], twice_median):
            return []
        median, scale = self._baseline(ordered, twice_median)
        if not self._is_burst(ordered[-1], median, scale):
            return []
        events = [
            BurstEvent(day=day, start_time=series.day_start(day),
                       arrivals=count, baseline=median,
                       z_score=(count - median) / scale)
            for day, count in enumerate(series.arrivals)
            if self._is_burst(count, median, scale)]
        return sorted(events, key=lambda event: event.z_score, reverse=True)

    def may_burst(self, top, twice_median):
        """Whether a series whose largest day is ``top`` and whose
        median is ``twice_median / 2`` can hold a burst day.

        A burst day clears ``min_excess`` over the median, so a series
        whose largest day does not has none (:meth:`detect` returns
        before the MAD).  Element-wise over arrays, so a caller
        holding many series decides for all of them at once.
        """
        return top - twice_median / 2 >= self._min_excess

    def _is_burst(self, count: int, median: float, scale: float) -> bool:
        return ((count - median) / scale >= self._threshold
                and count - median >= self._min_excess)
