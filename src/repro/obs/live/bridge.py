"""Detector bridge: follower-count streams into burst alerts.

The :class:`~repro.growth.detector.BurstDetector` was built for
post-campaign analysis (hand it a finished series, read the verdict).
A live monitor wants the same robust statistics evaluated *as each
daily reading lands*, with findings surfacing through the same alert
pipeline as SLO burn-rate pages.  The bridge keeps every handle's
bounded reading history as one row of a
:class:`~repro.growth.series.RollingSeriesBlock`, and every handle's
follower-count window panes as one row of a
:class:`~repro.obs.live.windows.PaneBlock`, so a page of readings is a
few array operations.  Detection runs on every reading:

* a **new** burst day (one not previously reported for the handle)
  fires ``burst:<handle>``;
* a subsequent burst-free day resolves it — the account has returned
  to its organic baseline.

A handle's series can only burst once its largest day clears the
detector's ``min_excess`` over its median; the bridge decides that for
a whole page at once, and only handles that clear it, or that have
reported days, run the exact per-handle detector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

import numpy as np

from ...core.errors import ConfigurationError
from ...core.timeutil import DAY
from .slo import AlertLog
from .windows import PaneBlock, WindowSpec, WindowStream

if TYPE_CHECKING:  # pragma: no cover
    from ...growth.detector import BurstDetector

# repro.growth sits above the API client, which itself imports
# repro.obs — so the bridge resolves the detector machinery lazily
# (first use) rather than at import time.


class DetectorBridge:
    """Feeds follower-count readings through burst detection into alerts.

    Parameters
    ----------
    alerts:
        The shared :class:`AlertLog` fire/resolve transitions land in.
        The ``burst:<handle>`` alerts in it are the bridge's own.
    detector:
        The :class:`BurstDetector` to run (default thresholds when
        omitted).  Threshold configuration flows straight through —
        a stricter detector simply fires fewer alerts.
    min_history:
        Observations required before detection runs.  N readings yield
        N-1 daily arrivals and the detector needs >= 4 days, so the
        floor is 5; more history stabilises the baseline.
    max_history:
        Bounded per-handle memory: older readings roll off, exactly as
        a windowed monitor forgets the distant past.
    origin:
        Anchor for the per-handle follower window streams' panes
        (normally the fleet's start instant).
    """

    def __init__(self, alerts: AlertLog,
                 detector: Optional["BurstDetector"] = None, *,
                 min_history: int = 8, max_history: int = 256,
                 origin: float = 0.0) -> None:
        if min_history < 5:
            raise ConfigurationError(
                f"min_history must be >= 5 (N readings give N-1 daily "
                f"arrivals; the detector needs 4): {min_history!r}")
        if max_history < min_history:
            raise ConfigurationError(
                f"max_history must be >= min_history: {max_history!r}")
        from ...growth.series import RollingSeriesBlock
        if detector is None:
            from ...growth.detector import BurstDetector
            detector = BurstDetector()
        self._alerts = alerts
        self._detector = detector
        self._min_history = min_history
        #: Row of each handle in both blocks, in first-reading order.
        self._rows: Dict[str, int] = {}
        self._series = RollingSeriesBlock(max_history)
        self._panes = PaneBlock(WindowSpec(width=DAY, origin=origin))
        #: Reported burst days of the rows that ever fired, while they
        #: have some or their alert is active.
        self._reported: Dict[int, Set[float]] = {}

    @property
    def detector(self) -> "BurstDetector":
        """The detector instance evaluating each handle's series."""
        return self._detector

    def stream(self, handle: str) -> Optional[WindowStream]:
        """The follower-count window stream of ``handle``, if any.

        Built from the handle's panes on each call: a snapshot, which
        later readings do not reach.
        """
        row = self._rows.get(handle)
        return None if row is None else self._panes.stream(
            row, f"followers:{handle}")

    def streams(self) -> Dict[str, WindowStream]:
        """Every per-handle follower stream, keyed by handle."""
        return {handle: self._panes.stream(row, f"followers:{handle}")
                for handle, row in self._rows.items()}

    def close_until(self, t: float) -> None:
        """Close every follower stream's panes ending at or before ``t``."""
        self._panes.close_until(t)

    def observe(self, handle: str, t: float, followers_count: int) -> bool:
        """Record one daily reading; returns whether a new alert fired.

        The one-reading case of :meth:`observe_page`.
        """
        return self.observe_page(t, (handle,), (followers_count,))[0]

    def observe_page(self, t, handles: Sequence[str],
                     counts: Sequence[int]) -> List[bool]:
        """Record ``counts[i]`` as ``handles[i]``'s reading at ``t``.

        ``t`` is one instant, or one per reading.  A page has the
        outcome of one :meth:`observe` per reading, in order; returns
        whether each reading fired a new alert.  Readings must be
        strictly chronological per handle: if any is at or before its
        handle's previous reading, or names a handle an earlier reading
        of the page named, :class:`ConfigurationError` is raised before
        any reading is recorded.  Detection runs once a handle has
        ``min_history`` readings.
        """
        if len(handles) != len(counts):
            raise ConfigurationError(
                f"{len(handles)} handles but {len(counts)} counts")
        instants = np.asarray(t, dtype=np.float64)
        if not instants.ndim:
            instants = np.full(len(handles), instants)
        index = self._rows
        rows = np.array([index.get(handle, -1) for handle in handles],
                        dtype=np.int64)
        self._check(instants, handles, rows)
        fresh = np.flatnonzero(rows < 0)
        if len(fresh):
            first = self._series.add_rows(len(fresh))
            self._panes.add_rows(len(fresh))
            rows[fresh] = np.arange(first, first + len(fresh))
            index.update(zip([handles[at] for at in fresh.tolist()],
                             rows[fresh].tolist()))
        self._series.append_page(rows, instants,
                                 np.asarray(counts).astype(np.int64))
        self._panes.observe(rows, instants,
                            np.asarray(counts, dtype=np.float64))
        fired = [False] * len(handles)
        for at in self._exact(rows).tolist():
            fired[at] = self._evaluate(int(rows[at]), handles[at],
                                       float(instants[at]))
        return fired

    def _exact(self, rows: np.ndarray) -> np.ndarray:
        """Positions, in page order, of the readings whose handle needs
        the exact detector: it has ``min_history`` readings and either
        reported days or a largest day ``min_excess`` over its median.
        """
        ready = np.flatnonzero(self._series.held(rows) >= self._min_history)
        if not len(ready):
            return ready
        # The median is at least the smallest day: a handle whose
        # largest day is not min_excess over its smallest has no burst,
        # and only the others need their days sorted.
        may_burst = self._detector.may_burst
        top, low = self._series.extremes(rows[ready])
        exact = ready[may_burst(top, 2 * low)]
        if len(exact):
            exact = exact[may_burst(*self._series.peaks(rows[exact]))]
        if self._reported:
            exact = np.union1d(exact, ready[np.isin(
                rows[ready], list(self._reported))])
        return exact

    def _check(self, instants: np.ndarray, handles: Sequence[str],
               rows: np.ndarray) -> None:
        """Raise for the first reading not after its handle's previous."""
        known = np.flatnonzero(rows >= 0)
        stale = known[~(instants[known] > self._series.latest(rows[known]))]
        first = int(stale[0]) if len(stale) else len(handles)
        if len(set(handles)) < len(handles):
            seen: Dict[str, float] = {}
            for at, handle in enumerate(handles[:first]):
                if handle in seen:
                    raise ConfigurationError(
                        f"reading of {handle!r} at {float(instants[at])!r} "
                        f"is not after the previous reading at "
                        f"{seen[handle]!r}")
                seen[handle] = float(instants[at])
        if len(stale):
            last_t = float(self._series.latest(rows[first:first + 1])[0])
            raise ConfigurationError(
                f"reading of {handles[first]!r} at "
                f"{float(instants[first])!r} is not after the previous "
                f"reading at {last_t!r}")

    def _evaluate(self, row: int, handle: str, now: float) -> bool:
        """The exact detector over one handle's series, and its alerts."""
        series = self._series.growth(row)
        bursts = self._detector.detect(series)
        alert = f"burst:{handle}"
        reported = self._reported.get(row, set())
        if not (bursts or reported or self._alerts.is_active(alert)):
            return False  # nothing to fire, forget or resolve
        burst_starts = {event.start_time for event in bursts}
        # History rolls off the front; forget reported days with it so
        # the set stays bounded too.
        reported.difference_update([
            instant for instant in reported
            if instant not in burst_starts
            and not series.is_day_start(instant)])
        fresh = [event for event in bursts
                 if event.start_time not in reported]
        if fresh:
            strongest = fresh[0]  # detect() sorts strongest first
            reported.update(event.start_time for event in fresh)
            self._reported[row] = reported
            self._alerts.fire(
                now, alert, severity="page",
                day=strongest.day, arrivals=strongest.arrivals,
                baseline=strongest.baseline, z_score=strongest.z_score,
                excess=strongest.excess)
            return True
        # The latest completed day is burst-free: the spike is over.
        latest = len(series) - 1
        if self._alerts.is_active(alert) \
                and series.day_start(latest) not in burst_starts:
            self._alerts.resolve(now, alert, day=latest)
        if not (reported or self._alerts.is_active(alert)):
            self._reported.pop(row, None)
        return False
