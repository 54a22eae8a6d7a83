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

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Sequence, Tuple

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


def series_from_observations(
        observations: Sequence[Tuple[float, int]],
        *, clip_negative: bool = True) -> GrowthSeries:
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
    net churn shows a decrease.  With ``clip_negative`` (the default,
    what a real monitor must do) such intervals are recorded as zero
    arrivals; pass ``clip_negative=False`` to insist on a
    churn-free series and get an error instead.
    """
    if len(observations) < 2:
        raise ConfigurationError("need at least two observations")
    times = [t for t, __ in observations]
    if times != sorted(times) or len(set(times)) != len(times):
        raise ConfigurationError("observations must be strictly chronological")
    deltas: List[int] = []
    for (before_t, before), (after_t, after) in zip(
            observations, observations[1:]):
        deltas.extend(interval_arrivals(before_t, before, after_t, after,
                                        clip_negative=clip_negative))
    return GrowthSeries(start_time=times[0], arrivals=tuple(deltas))


def interval_arrivals(before_t: float, before: int, after_t: float,
                      after: int, *, clip_negative: bool = True) -> List[int]:
    """The daily arrivals between two consecutive follower-count readings.

    The single gap-normalisation step behind
    :func:`series_from_observations` and the live detector bridge: a
    decrease is clipped to zero arrivals (or rejected without
    ``clip_negative``), and the interval's arrivals are split over the
    ``round(gap / DAY)`` days it spans (at least one), the ``divmod``
    remainder going to the earliest days.
    """
    if after < before:
        if not clip_negative:
            raise ConfigurationError(
                "follower counts decreased (churn); pass "
                "clip_negative=True to record such days as zero")
        delta = 0
    else:
        delta = after - before
    gap_days = max(1, int(round((after_t - before_t) / DAY)))
    base, remainder = divmod(delta, gap_days)
    return [base + 1] * remainder + [base] * (gap_days - remainder)


class RollingSeries:
    """The daily series of the latest ``max_readings`` readings, kept live.

    A live monitor appends one follower-count reading at a time; this
    keeps :func:`series_from_observations` of the held readings up to
    date without rebuilding it.  Each new reading extends the arrivals
    by its interval's days (:func:`interval_arrivals`); once the window
    is full, the oldest reading rolls off and takes its interval's days
    with it.  ``ordered`` holds the same arrivals sorted, for the
    detector's median.
    """

    def __init__(self, max_readings: int) -> None:
        if max_readings < 2:
            raise ConfigurationError(
                f"max_readings must be >= 2: {max_readings!r}")
        self.readings: Deque[Tuple[float, int]] = deque(maxlen=max_readings)
        self.arrivals: List[int] = []
        self.ordered: List[int] = []
        #: Days each held interval contributed, oldest first.
        self._spans: List[int] = []

    def __len__(self) -> int:
        return len(self.arrivals)

    @property
    def start_time(self) -> float:
        """The instant day 0 begins: the oldest held reading's time."""
        return self.readings[0][0]

    def append(self, t: float, count: int) -> None:
        """Add a reading, strictly later than the latest held one.

        Raises :class:`ConfigurationError`, changing nothing, for a
        reading at or before the latest one.
        """
        readings = self.readings
        if readings:
            last_t, last = readings[-1]
            if not t > last_t:
                raise ConfigurationError(
                    f"reading at {t!r} is not after the previous "
                    f"reading at {last_t!r}")
            days = interval_arrivals(last_t, last, t, count)
            if len(readings) == readings.maxlen:
                rolled = self._spans.pop(0)
                for value in self.arrivals[:rolled]:
                    del self.ordered[bisect_left(self.ordered, value)]
                del self.arrivals[:rolled]
            self._spans.append(len(days))
            self.arrivals.extend(days)
            for value in days:
                insort(self.ordered, value)
        readings.append((t, count))

    def is_day_start(self, instant: float) -> bool:
        """Whether ``instant`` is exactly the start of a held day."""
        start = self.start_time
        day = round((instant - start) / DAY)
        return 0 <= day < len(self.arrivals) and start + day * DAY == instant


#: Sorts after every daily count: pads a row of days past its last.
_PAD = np.iinfo(np.int64).max


def _spread(delta: np.ndarray, gaps: np.ndarray,
            days: np.ndarray) -> np.ndarray:
    """Interval arrivals ``delta`` spread over their ``gaps`` days.

    Row ``i`` of the result holds its intervals' days in order, each
    as :func:`interval_arrivals` splits it (the remainder on the
    earliest days), then :data:`_PAD` up to the longest row.
    """
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
    return arrivals


class RollingSeriesBlock:
    """The :class:`RollingSeries` of many accounts, held as arrays.

    Row ``i`` holds one account's latest ``max_readings`` readings,
    oldest first from column 0, and nothing else: its daily arrivals
    are those of its consecutive readings (:func:`interval_arrivals`).
    :meth:`append_page` adds one reading to each of many rows with
    array operations; :meth:`extremes` and :meth:`peaks` answer, for
    many rows at once, what a burst detector's first test reads (the
    largest day, the smallest, and twice the median) without building
    any per-account series; :meth:`series` builds one row's
    :class:`RollingSeries` for exact per-account work.  Columns double
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

        The same readings as one :meth:`RollingSeries.append` per row.
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
        """Each row's held intervals: arrivals and days spanned, as
        :func:`interval_arrivals` counts them (0 days past its last)."""
        held = self._held[rows]
        width = int(held.max())
        times = self._times[rows, :width]
        counts = self._counts[rows, :width]
        delta = np.maximum(counts[:, 1:] - counts[:, :-1], 0)
        gaps = np.maximum(
            np.rint((times[:, 1:] - times[:, :-1]) / DAY), 1).astype(np.int64)
        gaps[np.arange(1, width) >= held[:, None]] = 0
        return delta, gaps

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
        row's :class:`RollingSeries`.  Each row must hold two readings.
        The rows' days are laid out in one matrix, padded past each
        row's last day, and sorted along the rows.
        """
        delta, gaps = self._intervals(rows)
        days = gaps.sum(axis=1)
        if (gaps <= 1).all():
            arrivals = np.where(gaps > 0, delta, _PAD)
        else:
            arrivals = _spread(delta, gaps, days)
        arrivals.sort(axis=1)
        picked = np.arange(len(rows))
        return arrivals[picked, days - 1], \
            arrivals[picked, (days - 1) // 2] + arrivals[picked, days // 2]

    def series(self, row: int) -> RollingSeries:
        """Row ``row``'s readings as a :class:`RollingSeries`."""
        series = RollingSeries(self.max_readings)
        held = int(self._held[row])
        for t, count in zip(self._times[row, :held].tolist(),
                            self._counts[row, :held].tolist()):
            series.append(t, count)
        return series
