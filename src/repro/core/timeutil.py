"""Time constants and helpers for the simulated world.

Simulated time is a plain ``float`` of seconds since the Unix epoch.  The
simulation epoch defaults to the paper's observation period (early 2014),
so generated accounts have plausible creation dates relative to Twitter's
2006 launch.
"""

from __future__ import annotations

import datetime as _dt

SECOND = 1.0
MINUTE = 60.0
HOUR = 60 * MINUTE
DAY = 24 * HOUR
WEEK = 7 * DAY
#: Average Gregorian year, adequate for account-age arithmetic.
YEAR = 365.25 * DAY

#: Twitter's public launch (2006-07-15); no account may predate it.
TWITTER_LAUNCH = _dt.datetime(2006, 7, 15, tzinfo=_dt.timezone.utc).timestamp()

#: Default "now" of the simulation: the paper's observation window
#: (the technical report is dated March 2014).
PAPER_EPOCH = _dt.datetime(2014, 3, 1, tzinfo=_dt.timezone.utc).timestamp()


def timestamp(year: int, month: int = 1, day: int = 1,
              hour: int = 0, minute: int = 0, second: int = 0) -> float:
    """Return the epoch-seconds timestamp of a UTC calendar date."""
    moment = _dt.datetime(year, month, day, hour, minute, second,
                          tzinfo=_dt.timezone.utc)
    return moment.timestamp()


def to_datetime(ts: float) -> _dt.datetime:
    """Convert epoch seconds to an aware UTC ``datetime``."""
    return _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc)


def isoformat(ts: float) -> str:
    """Render epoch seconds as an ISO-8601 UTC string (second precision)."""
    return to_datetime(ts).strftime("%Y-%m-%dT%H:%M:%SZ")


def format_duration(seconds: float) -> str:
    """Render a duration in a compact human unit (``27.3d``, ``4.0h`` ...).

    Used by the acquisition-time experiment to report crawl durations the
    way the paper does ("a total time of around 27 days").
    """
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds!r}")
    if seconds < MINUTE:
        return f"{seconds:.1f}s"
    if seconds < HOUR:
        return f"{seconds / MINUTE:.1f}m"
    if seconds < DAY:
        return f"{seconds / HOUR:.1f}h"
    return f"{seconds / DAY:.1f}d"
