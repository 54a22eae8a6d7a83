"""Reference oracle for the detector bridge: rebuild on every reading.

Production keeps each handle's readings as a row of arrays
(``repro.growth.series.RollingSeriesBlock``), lays out a row's daily
arrivals only when the row needs the exact detector, takes the median
over the integer arrivals exactly, and prunes its reported burst days
in place.  This oracle evaluates the way the bridge is specified: on
every reading it rebuilds the series from the whole held history with
a spelled-out gap-normalisation loop, runs the median/MAD detector with
``np.median`` over the float64 arrivals, and prunes the reported days
by intersecting with the set of every held day start.  It also feeds
each handle's follower-count window stream one reading at a time and
closes every stream on each tick, as the bridge once did; production
keeps those panes as arrays and builds a stream only when it is read.
Tests feed both the same readings and check the alert logs, return
values and streams match.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Set, Tuple

import numpy as np

from repro.core import DAY
from repro.obs.live import AlertLog, WindowSpec, WindowStream

_MAD_TO_SIGMA = 1.4826


def rebuild_arrivals(readings) -> List[int]:
    """Daily arrivals of consecutive readings, gap-normalised."""
    arrivals: List[int] = []
    for (before_t, before), (after_t, after) in zip(readings, readings[1:]):
        delta = max(0, after - before)
        gap_days = max(1, int(round((after_t - before_t) / DAY)))
        base, remainder = divmod(delta, gap_days)
        arrivals.extend(base + (1 if day < remainder else 0)
                        for day in range(gap_days))
    return arrivals


def baseline(arrivals) -> Tuple[float, float]:
    """Median/MAD location and scale through ``np.median``."""
    values = np.asarray(arrivals, dtype=np.float64)
    median = float(np.median(values))
    mad = float(np.median(np.abs(values - median)))
    scale = _MAD_TO_SIGMA * mad
    if scale <= 0.0:
        scale = max(1.0, np.sqrt(max(median, 1.0)))
    return median, scale


def detect(start: float, arrivals, threshold: float,
           min_excess: int) -> List[dict]:
    """Burst days of one series, strongest first, as plain dicts."""
    median, scale = baseline(arrivals)
    events = []
    for day, count in enumerate(arrivals):
        z_score = (count - median) / scale
        if z_score >= threshold and count - median >= min_excess:
            events.append({"day": day, "start_time": start + day * DAY,
                           "arrivals": count, "baseline": median,
                           "z_score": z_score,
                           "excess": max(0.0, count - median)})
    return sorted(events, key=lambda event: event["z_score"], reverse=True)


class OracleBridge:
    """The bridge's fire/resolve rules over from-scratch evaluation."""

    def __init__(self, alerts: AlertLog, *, threshold: float = 6.0,
                 min_excess: int = 50, min_history: int = 8,
                 max_history: int = 256, origin: float = 0.0) -> None:
        self.alerts = alerts
        self.spec = WindowSpec(width=DAY, origin=origin)
        #: Each handle's follower-count stream, fed reading by reading.
        self.streams: Dict[str, WindowStream] = {}
        self.threshold = threshold
        self.min_excess = min_excess
        self.min_history = min_history
        self.max_history = max_history
        self.readings: Dict[str, Deque[Tuple[float, int]]] = {}
        self.reported: Dict[str, Set[float]] = {}

    def close_until(self, t: float) -> None:
        """A tick: close every stream's panes ending at or before ``t``."""
        for stream in self.streams.values():
            stream.close_until(t)

    def observe(self, handle: str, t: float, followers_count: int) -> bool:
        """Record one reading; returns whether a new alert fired."""
        history = self.readings.setdefault(
            handle, deque(maxlen=self.max_history))
        reported = self.reported.setdefault(handle, set())
        history.append((t, int(followers_count)))
        stream = self.streams.get(handle)
        if stream is None:
            stream = self.streams[handle] = WindowStream(
                f"followers:{handle}", self.spec)
        stream.observe(t, float(followers_count))
        if len(history) < self.min_history:
            return False
        readings = list(history)
        start = readings[0][0]
        arrivals = rebuild_arrivals(readings)
        bursts = detect(start, arrivals, self.threshold, self.min_excess)
        burst_starts = {event["start_time"] for event in bursts}
        reported &= {start + day * DAY for day in range(len(arrivals))} \
            | burst_starts
        fresh = [event for event in bursts
                 if event["start_time"] not in reported]
        name = f"burst:{handle}"
        if fresh:
            strongest = fresh[0]
            reported.update(event["start_time"] for event in fresh)
            self.alerts.fire(
                t, name, severity="page", day=strongest["day"],
                arrivals=strongest["arrivals"],
                baseline=strongest["baseline"],
                z_score=strongest["z_score"], excess=strongest["excess"])
            return True
        latest = len(arrivals) - 1
        if self.alerts.is_active(name) \
                and start + latest * DAY not in burst_starts:
            self.alerts.resolve(t, name, day=latest)
        return False
