"""Follower-growth time series.

The paper's introduction recounts the episode that ignited the whole
fake-follower debate: during the 2012 US campaign "the Twitter account
of challenger Romney experienced a sudden jump in the number of
followers, the great majority of them has been later claimed to be
fake".  That jump is a *growth anomaly* — a day (or hour) where the
arrival rate departs wildly from the account's organic baseline.

This module extracts daily-arrival series from what an analyst
realistically has: a sequence of *dated follower-count observations*,
which a real monitor collects by polling ``users/show`` once a day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.timeutil import DAY


@dataclass(frozen=True)
class GrowthSeries:
    """Daily follower arrivals for one account.

    ``start_time`` is the instant day 0 begins; ``arrivals[i]`` counts
    followers gained during day ``i``.
    """

    start_time: float
    arrivals: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.arrivals:
            raise ConfigurationError("a growth series needs >= 1 day")
        if any(value < 0 for value in self.arrivals):
            raise ConfigurationError("daily arrivals must be non-negative")

    def __len__(self) -> int:
        return len(self.arrivals)

    def day_start(self, day: int) -> float:
        """Epoch-seconds start of day ``day``."""
        if not 0 <= day < len(self.arrivals):
            raise ConfigurationError(
                f"day must be in [0, {len(self.arrivals)}): {day!r}")
        return self.start_time + day * DAY

    def total(self) -> int:
        """Total arrivals over the observed window."""
        return sum(self.arrivals)

    def is_day_start(self, instant: float) -> bool:
        """Whether ``instant`` is exactly the start of one of the days."""
        day = round((instant - self.start_time) / DAY)
        return (0 <= day < len(self.arrivals)
                and self.start_time + day * DAY == instant)


def series_from_observations(
        observations: Sequence[Tuple[float, int]]) -> GrowthSeries:
    """Build a growth series from dated follower-count readings.

    ``observations`` are ``(timestamp, followers_count)`` pairs, at
    least two, in chronological order, nominally one day apart (the
    cadence of the paper's own Section IV-B snapshots).  Readings that
    are not exactly a day apart are accepted — real monitors jitter —
    and a reading delayed past its slot (an outage, a rate-limit storm)
    is *gap-normalised*: the interval's arrivals are distributed evenly
    across the ``round(gap / DAY)`` days it actually spans instead of
    being piled into a single day.  Without this, a two-day gap makes
    one day appear to have twice the organic rate — a deterministic
    false burst.  The split is exact and deterministic: ``divmod``
    spreads the count, with the remainder going to the earliest days.

    A follower *counter* conflates arrivals with departures: a day of
    net churn shows a decrease, recorded as zero arrivals.  The series
    is the one-row case of :class:`RollingSeriesBlock`'s intervals.
    """
    if len(observations) < 2:
        raise ConfigurationError("need at least two observations")
    times = np.array([t for t, __ in observations], dtype=np.float64)
    if not (times[1:] > times[:-1]).all():
        raise ConfigurationError("observations must be strictly chronological")
    counts = np.array([count for __, count in observations], dtype=np.int64)
    return _series(observations[0][0],
                   *_intervals(times[None], counts[None]))


#: Sorts after every daily count: pads a row of days past its last.
_PAD = np.iinfo(np.int64).max


def _intervals(times: np.ndarray, counts: np.ndarray,
               held: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
    """The interval rule: each row's consecutive readings as intervals.

    ``times`` and ``counts`` hold one row of readings each, oldest
    first.  Returns each interval's arrivals (a decrease counts as none)
    and the days it spans, ``round(gap / DAY)`` and at least one; with
    ``held``, intervals past a row's ``held[i]`` readings span 0 days.
    """
    delta = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
    gaps = np.maximum(
        np.rint((times[:, 1:] - times[:, :-1]) / DAY), 1).astype(np.int64)
    if held is not None:
        gaps[np.arange(1, times.shape[1]) >= held[:, None]] = 0
    return delta, gaps


def _days(delta: np.ndarray,
          gaps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(arrivals, days)``: intervals spread into each row's days.

    Row ``i`` of ``arrivals`` holds its ``days[i]`` days in order, each
    interval split by ``divmod`` over its days with the remainder on the
    earliest, then :data:`_PAD` up to the longest row.
    """
    days = gaps.sum(axis=1)
    if (gaps <= 1).all():
        return np.where(gaps > 0, delta, _PAD), days
    spans = gaps.ravel()
    base, remainder = np.divmod(delta.ravel(), np.maximum(spans, 1))
    total = int(spans.sum())
    # Each day's offset within its interval and within its row.
    ends = np.cumsum(spans)
    within = np.arange(total) - np.repeat(ends - spans, spans)
    row_ends = np.cumsum(days)
    column = np.arange(total) - np.repeat(row_ends - days, days)
    arrivals = np.full((len(days), int(days.max())), _PAD, dtype=np.int64)
    arrivals[np.repeat(np.arange(len(days)), days), column] = \
        np.repeat(base, spans) + (within < np.repeat(remainder, spans))
    return arrivals, days


def _series(start_time: float, delta: np.ndarray,
            gaps: np.ndarray) -> GrowthSeries:
    """The :class:`GrowthSeries` of one row's intervals."""
    arrivals, __ = _days(delta, gaps)
    return GrowthSeries(start_time=start_time,
                        arrivals=tuple(arrivals[0].tolist()))


class RollingSeriesBlock:
    """The latest ``max_readings`` follower-count readings of many accounts.

    Row ``i`` holds one account's readings, oldest first from column 0,
    and nothing else: its daily arrivals are those of its consecutive
    readings, by the interval rule that :func:`series_from_observations`
    applies to one row.  :meth:`append_page` adds one reading to each of
    many rows with array operations; :meth:`extremes` and :meth:`peaks`
    answer, for many rows at once, what a burst detector's first test
    reads (the largest day, the smallest, and twice the median) without
    building any per-account series; :meth:`growth` builds one row's
    :class:`GrowthSeries` for exact per-account work.  Columns double
    as the rows' history grows, up to ``max_readings``, and rows double
    as accounts are added, so the arrays hold what the rows hold.
    """

    def __init__(self, max_readings: int) -> None:
        if max_readings < 2:
            raise ConfigurationError(
                f"max_readings must be >= 2: {max_readings!r}")
        self.max_readings = max_readings
        self._times = np.zeros((0, 0), dtype=np.float64)
        self._counts = np.zeros((0, 0), dtype=np.int64)
        #: Readings each row holds (rows past ``_rows`` are unused).
        self._held = np.zeros(0, dtype=np.int64)
        self._rows = 0

    def add_rows(self, count: int) -> int:
        """Add ``count`` empty rows; returns the first one's index."""
        first = self._rows
        self._rows += count
        if self._rows > len(self._held):
            size = max(self._rows, 2 * len(self._held))
            self._times = self._grown(self._times, size, self._times.shape[1])
            self._counts = self._grown(self._counts, size,
                                       self._counts.shape[1])
            held = np.zeros(size, dtype=np.int64)
            held[:first] = self._held[:first]
            self._held = held
        return first

    @staticmethod
    def _grown(array: np.ndarray, rows: int, columns: int) -> np.ndarray:
        grown = np.zeros((rows, columns), dtype=array.dtype)
        grown[:array.shape[0], :array.shape[1]] = array
        return grown

    def held(self, rows: np.ndarray) -> np.ndarray:
        """Readings each of ``rows`` holds."""
        return self._held[rows]

    def latest(self, rows: np.ndarray) -> np.ndarray:
        """Each row's latest reading instant (rows must hold one)."""
        return self._times[rows, self._held[rows] - 1]

    def append_page(self, rows: np.ndarray, instants: np.ndarray,
                    counts: np.ndarray) -> None:
        """Add ``counts[i]`` as row ``rows[i]``'s reading at ``instants[i]``.

        ``rows`` must be distinct and each reading after its row's
        latest; callers check (this changes state without checking).
        A full row drops its oldest reading.
        """
        held = self._held[rows]
        full = held == self.max_readings
        if full.any():
            rolled = rows[full]
            for array in (self._times, self._counts):
                array[rolled, :-1] = array[rolled, 1:]
            held = held - full
        width = int(held.max(initial=0)) + 1
        if width > self._times.shape[1]:
            columns = min(self.max_readings,
                          max(width, 2 * self._times.shape[1], 8))
            self._times = self._grown(self._times, len(self._held), columns)
            self._counts = self._grown(self._counts, len(self._held),
                                       columns)
        self._times[rows, held] = instants
        self._counts[rows, held] = counts
        self._held[rows] = held + 1

    def _intervals(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's held intervals: arrivals and days spanned
        (0 days past its last)."""
        held = self._held[rows]
        width = int(held.max())
        return _intervals(self._times[rows, :width],
                          self._counts[rows, :width], held)

    def extremes(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(top, low)``: each row's largest and smallest daily arrivals.

        Read off the intervals without spreading them into days: an
        interval's days hold its ``divmod`` base, and base + 1 when
        there is a remainder.  Each row must hold two readings.
        """
        delta, gaps = self._intervals(rows)
        base, remainder = np.divmod(delta, np.maximum(gaps, 1))
        spanned = gaps > 0
        return (np.where(spanned, base + (remainder > 0), -1).max(axis=1),
                np.where(spanned, base, _PAD).min(axis=1))

    def peaks(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(top, twice_median)`` of each row's daily arrivals.

        ``top`` is the largest day and ``twice_median`` twice the
        median, both exact integers, as ``max(ordered)`` and
        ``ordered[m - 1] + ordered[m]`` (or ``2 * ordered[m]``) of the
        row's sorted days.  Each row must hold two readings.  The rows'
        days are laid out in one matrix, padded past each row's last
        day, and sorted along the rows.
        """
        arrivals, days = _days(*self._intervals(rows))
        arrivals.sort(axis=1)
        picked = np.arange(len(rows))
        return arrivals[picked, days - 1], \
            arrivals[picked, (days - 1) // 2] + arrivals[picked, days // 2]

    def growth(self, row: int) -> GrowthSeries:
        """Row ``row``'s daily arrivals; it must hold two readings."""
        held = int(self._held[row])
        return _series(float(self._times[row, 0]),
                       *_intervals(self._times[row:row + 1, :held],
                                   self._counts[row:row + 1, :held]))
