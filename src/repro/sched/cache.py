"""Cross-engine acquisition cache for batched audits.

When the batch scheduler audits one target with several engines, every
engine re-fetches largely the same raw material: the target's profile,
the newest pages of its follower id list, sampled follower profiles
and (for the timeline-hungry tools) sampled timelines.  Sharing those
acquisitions across clients is what a real multi-tool operator would
do — and it is free of observable-behaviour changes because the
scheduler pins every audit of a batch to one observation instant
(:attr:`repro.audit.AuditRequest.as_of`), so a cached read returns
byte-identical data to a fresh one.

Profiles are not stored: the cache records the ids the batch paid for,
and a hit is read again from the world at the pinned instant, so the
client consults it for profiles only while an instant is pinned.

The cache is deliberately dumb: exact-key lookups, no TTL, no bound.
It lives for one batch (the scheduler clears it at every ``run()``,
because a new batch pins a new observation epoch and entries from the
previous epoch would be stale).  Cache hits cost the client *nothing*
— no request, no rate-limit tokens, no simulated latency — which is
exactly the point: shared acquisition is how the scheduler beats the
serial baseline's makespan.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..api.endpoints import IdsPage
from ..obs.metrics import CacheInfo
from ..obs.runtime import get_observability
from ..twitter.timeline import TimelineBlock


class AcquisitionCache:
    """Shared raw-acquisition store keyed the way the API pages data.

    Three stores, mirroring the three acquisition shapes of
    :class:`repro.api.client.TwitterApiClient`:

    * **profiles** — the ids already fetched, with an index by
      lowercased screen name (``users/show`` resolves either way); the
      profiles themselves are read again on a hit;
    * **id pages** — by ``(resource, user_id, offset, page_size)``,
      exactly the tuple a paged ``followers/ids`` request names;
    * **timelines** — by ``(user_id, count)``.

    Stored values are immutable (frozen dataclasses, tuples, timeline
    blocks), so handing the same object to several engines is safe.
    Metric series (``acq_cache_events_total``) are created lazily on
    first use so runs that never touch a scheduler export
    byte-identical metrics.
    """

    def __init__(self, name: str = "acquisition") -> None:
        self._name = name
        self._profiles: Set[int] = set()
        self._by_name: Dict[str, int] = {}
        self._pages: Dict[Tuple[str, int, int, int], IdsPage] = {}
        self._timelines: Dict[Tuple[int, int], Tuple] = {}
        #: Lookup hits / misses since construction (all stores pooled).
        self.hits = 0
        self.misses = 0
        self._feature_cache = None
        self._watermarks = None
        obs = get_observability()
        self._registry = obs.registry
        self._hit_counter = None
        self._miss_counter = None
        obs.register_cache(self)

    # -- bookkeeping ----------------------------------------------------------

    def _hit(self, count: int = 1) -> None:
        if not count:
            return
        self.hits += count
        if self._hit_counter is None:
            self._hit_counter = self._registry.counter(
                "acq_cache_events_total",
                help="shared acquisition-cache lookups by outcome",
                cache=self._name, event="hit")
        self._hit_counter.inc(count)

    def _miss(self, count: int = 1) -> None:
        if not count:
            return
        self.misses += count
        if self._miss_counter is None:
            self._miss_counter = self._registry.counter(
                "acq_cache_events_total",
                help="shared acquisition-cache lookups by outcome",
                cache=self._name, event="miss")
        self._miss_counter.inc(count)

    # -- profiles -------------------------------------------------------------

    def fetched_id(self, *, user_id: Optional[int] = None,
                   screen_name: Optional[str] = None) -> Optional[int]:
        """The id of a profile this batch paid for, named by id or
        (case-insensitive) handle; ``None`` on a miss."""
        if screen_name is not None:
            user_id = self._by_name.get(screen_name.lower())
        if user_id is not None and user_id in self._profiles:
            self._hit()
            return user_id
        self._miss()
        return None

    def split_fetched(self, user_ids: Sequence[int]
                      ) -> Tuple[List[int], List[int]]:
        """``user_ids`` as ``(fetched, missing)``, each in input order.

        One hit or miss is counted per id, duplicates included.
        """
        fetched: List[int] = []
        missing: List[int] = []
        profiles = self._profiles
        for uid in user_ids:
            (fetched if uid in profiles else missing).append(uid)
        self._hit(len(fetched))
        self._miss(len(missing))
        return fetched, missing

    def note_fetched(self, user_ids: Iterable[int]) -> None:
        """Record ``users/lookup`` profiles just paid for."""
        self._profiles.update(user_ids)

    def note_shown(self, user_id: int, screen_name: str) -> None:
        """Record a ``users/show`` profile under its id and its handle."""
        self._profiles.add(user_id)
        self._by_name[screen_name.lower()] = user_id

    # -- follower / friend id pages -------------------------------------------

    def get_page(self, resource: str, user_id: int, offset: int,
                 page_size: int) -> Optional[IdsPage]:
        """The cached ids page for this exact request shape, or ``None``."""
        page = self._pages.get((resource, user_id, offset, page_size))
        self._hit() if page is not None else self._miss()
        return page

    def put_page(self, resource: str, user_id: int, offset: int,
                 page_size: int, page: IdsPage) -> None:
        """Store one *complete* ids page (truncated pages are not shared)."""
        self._pages[(resource, user_id, offset, page_size)] = page

    # -- timelines ------------------------------------------------------------

    def get_timeline(self, user_id: int, count: int):
        """The cached timeline for ``(user_id, count)``, or ``None``."""
        timeline = self._timelines.get((user_id, count))
        self._hit() if timeline is not None else self._miss()
        return timeline

    def put_timeline(self, user_id: int, count: int, timeline) -> None:
        """Store one fetched timeline.

        A :class:`~repro.twitter.timeline.TimelineBlock` is already
        immutable and is kept as is — copying it would render every
        tweet; any other sequence is frozen into a tuple.
        """
        if not isinstance(timeline, TimelineBlock):
            timeline = tuple(timeline)
        self._timelines[(user_id, count)] = timeline

    # -- derived caches -------------------------------------------------------

    def feature_cache(self, factory):
        """The batch-shared FC feature cache, built on first request.

        The FC engines hand the cache's class in as ``factory`` (this
        module cannot import :mod:`repro.fc.columnar` without a cycle);
        every engine wired to this acquisition cache then shares one
        instance, so overlapping follower samples across a batch's
        audits reuse each other's feature rows.  Lives and dies with
        the batch: :meth:`clear` empties it along with the raw stores.
        """
        if self._feature_cache is None:
            self._feature_cache = factory(
                name=f"{self._name}-features", max_entries=None)
        return self._feature_cache

    @property
    def watermarks(self):
        """The audit-watermark store riding on this cache, built lazily.

        Watermarks (:class:`repro.sched.incremental.WatermarkStore`)
        are *not* raw acquisitions: they summarise finished audits,
        carry their own observation epoch and TTL, and exist precisely
        to span batches — a delta re-audit extends a watermark captured
        runs ago.  They are therefore exempt from :meth:`clear`, which
        only drops the per-epoch raw stores.  The import is deferred to
        keep this module a leaf for clients.
        """
        if self._watermarks is None:
            from .incremental import WatermarkStore
            self._watermarks = WatermarkStore()
        return self._watermarks

    # -- lifecycle ------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (a new batch pins a new observation epoch)."""
        self._profiles.clear()
        self._by_name.clear()
        self._pages.clear()
        self._timelines.clear()
        if self._feature_cache is not None:
            self._feature_cache.clear()

    def size(self) -> int:
        """Total live entries across all three stores."""
        return len(self._profiles) + len(self._pages) + len(self._timelines)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/entry counts, for batch-report telemetry."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": self.size()}

    def cache_info(self) -> CacheInfo:
        """The uniform snapshot shape shared with the other caches.

        Raw acquisitions are never evicted (the store is unbounded and
        cleared per batch), so ``evictions`` is always zero; the shared
        feature cache registers and reports separately.
        """
        return CacheInfo(name=self._name, hits=self.hits,
                         misses=self.misses, evictions=0, size=self.size())
