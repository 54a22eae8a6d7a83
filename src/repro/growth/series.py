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
