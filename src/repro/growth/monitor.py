"""An API-driven growth monitor.

Ties the series/detector machinery to the simulated API the way a real
watchdog service would: poll ``users/show`` once per simulated day,
build the observation series, and raise findings.  One such monitor
pointed at @MittRomney in August 2012 is effectively how the episode in
the paper's introduction was noticed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..api.client import TwitterApiClient
from ..core.clock import SimClock
from ..core.errors import ConfigurationError, RetryableApiError
from ..core.timeutil import DAY
from ..obs.runtime import get_observability
from ..twitter.population import SyntheticWorld
from .detector import BurstDetector, BurstEvent
from .series import GrowthSeries, series_from_observations


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of a monitoring campaign over one account."""

    handle: str
    series: GrowthSeries
    bursts: Tuple[BurstEvent, ...]
    purchased_estimate: int

    @property
    def suspicious(self) -> bool:
        """Whether any burst was detected."""
        return bool(self.bursts)


class GrowthMonitor:
    """Daily follower-count poller with burst detection.

    The monitor is deliberately cheap: one ``users/show`` call per day
    (charged against ``users/lookup``'s 12/min budget), no follower
    crawling at all — anomaly detection needs only the counter.
    """

    def __init__(self, world: SyntheticWorld, clock: SimClock,
                 detector: BurstDetector = None, *,
                 faults=None, retry=None) -> None:
        self._client = TwitterApiClient(world, clock, faults=faults,
                                        retry=retry)
        self._clock = clock
        self._detector = detector if detector is not None else BurstDetector()
        self._user_ids: Dict[str, int] = {}

    @property
    def client(self) -> TwitterApiClient:
        """The monitor's API client (exposes its call log)."""
        return self._client

    def poll(self, handle: str) -> Tuple[float, int]:
        """One follower-count reading at the current simulated instant.

        When a live-telemetry plane is attached to the active
        observability context, the reading also feeds the detector
        bridge (``repro.obs.live``), which turns the stream of counter
        reads into daily arrival series and ``burst:<handle>`` alerts.
        Raises whatever the API raises (e.g. an injected fault), so a
        caller running under a fault plan can count failed polls.
        """
        now, count = self._show(handle)
        live = get_observability().live
        if live is not None:
            live.observe_followers(handle, now, count)
        return now, count

    def _show(self, handle: str) -> Tuple[float, int]:
        """One ``users/show`` reading, noting the handle's user id."""
        now = self._clock.now()
        user = self._client.users_show(screen_name=handle)
        self._user_ids[handle.lower()] = user.user_id
        return now, user.followers_count

    def poll_fleet(self, handles: Sequence[str]) -> Dict[str, int]:
        """One counter reading for a whole fleet, paged 100 per request.

        A thousand-account fleet polled through :meth:`poll` costs one
        ``users/show`` call per account per tick; this method batches
        resolved accounts through ``users/lookup`` (100 profiles per
        request), a 100x reduction at fleet scale.  Handles not yet
        resolved to a user id fall back to ``users/show`` once, each
        read at its own instant.  Those readings, and then each
        answered page, feed the live detector bridge in one call each
        (:meth:`~repro.obs.live.LiveTelemetry.observe_page`), with the
        same outcome as one :meth:`poll` reading per handle.

        Returns ``{handle: followers_count}`` for every answered
        handle.  Never raises for injected API faults: a fault on a
        lookup page silently loses that *page's* readings (and an
        unresolved handle's ``users/show`` fault loses that handle's),
        so the blast radius of a failed batched poll is the page, not
        the fleet — callers under a fault plan count the absences.
        """
        now = self._clock.now()
        live = get_observability().live
        counts: Dict[str, int] = {}
        handle_of = {}
        pending: List[int] = []
        shown: List[Tuple[str, float, int]] = []
        for handle in handles:
            user_id = self._user_ids.get(handle.lower())
            if user_id is None:
                try:
                    at, count = self._show(handle)
                except RetryableApiError:
                    continue
                counts[handle] = count
                shown.append((handle, at, count))
                continue
            handle_of[user_id] = handle
            pending.append(user_id)
        if live is not None and shown:
            answered, instants, followers = zip(*shown)
            live.observe_page(instants, answered, followers)
        for start in range(0, len(pending), 100):
            page = pending[start:start + 100]
            try:
                rows = self._client.users_lookup_block(page).rows
            except RetryableApiError:
                continue
            answered = [handle_of[user_id]
                        for user_id in rows["user_id"].tolist()]
            followers = rows["followers_count"].tolist()
            counts.update(zip(answered, followers))
            if live is not None:
                live.observe_page(now, answered, followers)
        return counts

    def observe(self, handle: str, days: int) -> GrowthSeries:
        """Poll the account once per simulated day for ``days`` + 1 readings.

        Each reading goes through :meth:`poll`, so a standalone
        ``observe`` campaign feeds the live detector bridge exactly as
        tick-driven polling does.
        """
        if days < 1:
            raise ConfigurationError(f"days must be >= 1: {days!r}")
        observations: List[Tuple[float, int]] = []
        for __ in range(days + 1):
            day_start, count = self.poll(handle)
            observations.append((day_start, count))
            self._clock.advance_to(day_start + DAY)
        return series_from_observations(observations)

    def watch(self, handle: str, days: int = 30) -> MonitorReport:
        """Observe, detect, and report."""
        series = self.observe(handle, days)
        bursts = tuple(self._detector.detect(series))
        return MonitorReport(
            handle=handle,
            series=series,
            bursts=bursts,
            purchased_estimate=int(round(
                sum(event.excess for event in bursts))),
        )
