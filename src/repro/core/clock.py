"""Deterministic simulated clock.

Every timing result in the paper (Table II response times, the 27-day
Obama crawl) is bound by Twitter's API rate limits rather than by CPU
time, so the whole reproduction runs against a virtual clock that only
moves when a component explicitly advances it — typically the rate
limiter sleeping until a request budget refills.
"""

from __future__ import annotations

from .errors import ClockError
from .timeutil import PAPER_EPOCH, isoformat


class SimClock:
    """A monotonically non-decreasing virtual clock.

    Parameters
    ----------
    start:
        Initial simulated time, in epoch seconds.  Defaults to the
        paper's observation window (March 2014).
    """

    def __init__(self, start: float = PAPER_EPOCH) -> None:
        if start < 0:
            raise ClockError(f"clock cannot start before the epoch: {start!r}")
        self._now = float(start)

    def now(self) -> float:
        """Return the current simulated time in epoch seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ClockError(f"cannot advance by a negative amount: {seconds!r}")
        self._now += seconds
        return self._now

    def advance_to(self, moment: float) -> float:
        """Move the clock forward to an absolute instant.

        Raises :class:`ClockError` if ``moment`` lies in the simulated past;
        a no-op if it equals the current time.
        """
        if moment < self._now:
            raise ClockError(
                f"cannot move clock backwards: now={self._now!r}, target={moment!r}"
            )
        self._now = float(moment)
        return self._now

    def elapsed_since(self, moment: float) -> float:
        """Return seconds elapsed between ``moment`` and now."""
        return self._now - moment

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={isoformat(self._now)})"


class Stopwatch:
    """Measure a span of simulated time against a :class:`SimClock`.

    Used by the response-time experiment (Table II) to time each
    analytics engine's first-analysis latency.
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._started_at: float = clock.now()

    def elapsed(self) -> float:
        """Return simulated seconds since the stopwatch was created."""
        return self._clock.elapsed_since(self._started_at)
