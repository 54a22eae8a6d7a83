"""Detector bridge: follower-count streams into burst alerts.

The :class:`~repro.growth.detector.BurstDetector` was built for
post-campaign analysis (hand it a finished series, read the verdict).
A live monitor wants the same robust statistics evaluated *as each
daily reading lands*, with findings surfacing through the same alert
pipeline as SLO burn-rate pages.  The bridge keeps a bounded per-handle
observation history and its daily arrival series
(:class:`~repro.growth.series.RollingSeries`, extended as each reading
lands rather than rebuilt), mirrors each reading into a follower-count
:class:`~repro.obs.live.windows.GaugeStream`-style window stream, and
re-runs the detector on every reading:

* a **new** burst day (one not previously reported for the handle)
  fires ``burst:<handle>``;
* a subsequent burst-free day resolves it — the account has returned
  to its organic baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ...core.errors import ConfigurationError
from ...core.timeutil import DAY
from .slo import AlertLog
from .windows import WindowSpec, WindowStream

if TYPE_CHECKING:  # pragma: no cover
    from ...growth.detector import BurstDetector

# repro.growth sits above the API client, which itself imports
# repro.obs — so the bridge resolves the detector machinery lazily
# (first use) rather than at import time.


class _Track:
    """One handle's live state: its series, alerted days and stream."""

    __slots__ = ("series", "reported", "stream", "alert")

    def __init__(self, handle: str, series, stream: WindowStream) -> None:
        #: The handle's :class:`~repro.growth.series.RollingSeries`.
        self.series = series
        #: Start instants of the burst days already alerted on.
        self.reported: Set[float] = set()
        self.stream = stream
        self.alert = f"burst:{handle}"


class DetectorBridge:
    """Feeds follower-count readings through burst detection into alerts.

    Parameters
    ----------
    alerts:
        The shared :class:`AlertLog` fire/resolve transitions land in.
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
        if detector is None:
            from ...growth.detector import BurstDetector
            detector = BurstDetector()
        self._alerts = alerts
        self._detector = detector
        self._min_history = min_history
        self._max_history = max_history
        self._origin = origin
        self._tracks: Dict[str, _Track] = {}

    @property
    def detector(self) -> "BurstDetector":
        """The detector instance evaluating each handle's series."""
        return self._detector

    def stream(self, handle: str) -> Optional[WindowStream]:
        """The follower-count window stream of ``handle``, if any."""
        track = self._tracks.get(handle)
        return None if track is None else track.stream

    def streams(self) -> Dict[str, WindowStream]:
        """Every per-handle follower stream, keyed by handle."""
        return {handle: track.stream
                for handle, track in self._tracks.items()}

    def observe(self, handle: str, t: float, followers_count: int) -> bool:
        """Record one daily reading; returns whether a new alert fired.

        The one-reading case of :meth:`observe_page`.
        """
        return self.observe_page(t, (handle,), (followers_count,))[0]

    def observe_page(self, t: float, handles: Sequence[str],
                     counts: Sequence[int]) -> List[bool]:
        """Record ``counts[i]`` as ``handles[i]``'s reading at ``t``.

        One page of readings taken at one instant, handled in order
        exactly as one :meth:`observe` each; returns whether each
        reading fired a new alert.  Readings must be strictly
        chronological per handle: if any is at or before its handle's
        previous reading (a handle named twice in the page included),
        :class:`ConfigurationError` is raised before any reading is
        recorded.  Detection runs once a handle has ``min_history``
        readings.
        """
        if len(handles) != len(counts):
            raise ConfigurationError(
                f"{len(handles)} handles but {len(counts)} counts")
        tracks = self._tracks
        seen: Set[str] = set()
        for handle in handles:
            track = tracks.get(handle)
            last_t = t if handle in seen else (
                None if track is None else track.series.readings[-1][0])
            if last_t is not None and not t > last_t:
                raise ConfigurationError(
                    f"reading of {handle!r} at {t!r} is not after the "
                    f"previous reading at {last_t!r}")
            seen.add(handle)
        fired = []
        for handle, count in zip(handles, counts):
            track = tracks.get(handle)
            if track is None:
                from ...growth.series import RollingSeries
                track = tracks[handle] = _Track(
                    handle, RollingSeries(self._max_history),
                    WindowStream(f"followers:{handle}", WindowSpec(
                        width=DAY, origin=self._origin)))
            series = track.series
            series.append(t, int(count))
            track.stream.observe(t, float(count))
            fired.append(len(series.readings) >= self._min_history
                         and self._evaluate(track, t))
        return fired

    def _evaluate(self, track: _Track, now: float) -> bool:
        series = track.series
        start = series.start_time
        bursts = self._detector.detect_arrivals(start, series.arrivals,
                                                series.ordered)
        reported = track.reported
        if not (bursts or reported or self._alerts.is_active(track.alert)):
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
            self._alerts.fire(
                now, track.alert, severity="page",
                day=strongest.day, arrivals=strongest.arrivals,
                baseline=strongest.baseline, z_score=strongest.z_score,
                excess=strongest.excess)
            return True
        # The latest completed day is burst-free: the spike is over.
        latest = len(series) - 1
        if self._alerts.is_active(track.alert) \
                and start + latest * DAY not in burst_starts:
            self._alerts.resolve(now, track.alert, day=latest)
        return False
