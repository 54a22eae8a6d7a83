"""High-level crawling built on the raw API client.

The crawler packages the multi-request acquisition patterns every
engine in the paper uses — "fetch the whole follower list", "fetch the
newest k followers", "look up these profiles", "pull these timelines" —
and the analytic acquisition-time model behind the paper's in-text
claim that crawling Barack Obama's 41 M followers "required a total
time of around 27 days".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.errors import ConfigurationError, RetryableApiError
from ..obs.runtime import get_observability
from ..twitter.columnar.schema import UserRowBlock
from ..twitter.timeline import TimelineBlock
from .client import DEFAULT_REQUEST_LATENCY, TwitterApiClient
from .frame import IdFrame
from .ratelimit import DEFAULT_POLICIES, RateLimitPolicy

#: Tweets per fetched timeline: one full ``statuses/user_timeline``
#: page, the depth every timeline-reading audit pulls per follower.
TIMELINE_PAGE = 200


@dataclass(frozen=True)
class AnchoredHeadWalk:
    """Outcome of an anchored prefix walk over ``followers/ids``.

    Attributes
    ----------
    new_ids:
        The newest-first prefix of the follower list strictly before
        the first re-found anchor id — i.e. the accounts that followed
        since the anchor was captured.
    anchor_index:
        Index into the caller's anchor tuple of the first (newest)
        anchor id re-found, or ``None`` when the walk ended without
        finding any anchor (churned past the anchor depth, budget
        exhausted, or the walk degraded).  A non-zero index means that
        many of the newest baseline followers have unfollowed.
    pages:
        Cursor pages fetched.
    degraded:
        Whether the walk stopped early on an exhausted-retries fault;
        degraded walks must never be trusted for watermark updates.
    """

    new_ids: List[int]
    anchor_index: Optional[int]
    pages: int
    degraded: bool

    @property
    def anchored(self) -> bool:
        """Whether the walk re-found the baseline anchor."""
        return self.anchor_index is not None


class Crawler:
    """Batched data acquisition over a :class:`TwitterApiClient`."""

    def __init__(self, client: TwitterApiClient) -> None:
        self._client = client
        #: Users whose timeline fetch degraded to empty during the most
        #: recent :meth:`fetch_timelines` call (callers fold this into
        #: their completeness fraction).
        self.last_timeline_shortfall = 0
        obs = get_observability()
        self._tracer = obs.tracer
        self._pages = obs.registry.counter(
            "crawler_pages_total",
            help="cursor pages fetched by the batching crawler")

    @property
    def client(self) -> TwitterApiClient:
        """The underlying API client."""
        return self._client

    def fetch_all_follower_ids(self, screen_name: str) -> IdFrame:
        """Fetch the target's complete follower list, newest first.

        This is what distinguishes the FC engine from the commercial
        tools: it pages through *every* cursor instead of stopping at
        the head of the list.
        """
        return self.fetch_newest_follower_ids(screen_name, max_ids=None)

    def fetch_newest_follower_ids(self, screen_name: str,
                                  max_ids: Optional[int]) -> IdFrame:
        """Fetch at most ``max_ids`` follower ids from the head of the list.

        With ``max_ids=None`` the full list is retrieved.  Because the
        service returns followers newest-first, a truncated fetch yields
        exactly the *latest* accounts to have followed — the biased
        sample the paper criticises.

        Ids accumulate into an :class:`IdFrame` (one int64 block per
        page) instead of a Python list, keeping a 10M-follower crawl
        around 80 MB instead of ~360 MB; the frame indexes, iterates
        and samples identically to the list it replaced.
        """
        if max_ids is not None and max_ids < 1:
            raise ConfigurationError(f"max_ids must be >= 1: {max_ids!r}")
        with self._tracer.span("crawl.followers", self._client.clock,
                               target=screen_name) as span:
            ids = IdFrame()
            cursor = -1
            pages = 0
            while True:
                try:
                    page = self._client.followers_ids(
                        screen_name=screen_name, cursor=cursor)
                except RetryableApiError:
                    # Retries are exhausted and the cursor chain is
                    # broken; degrade to whatever was paged in so far
                    # rather than losing the whole crawl.
                    span.set_attribute("degraded", True)
                    break
                pages += 1
                self._pages.inc()
                ids.extend(page.ids)
                if max_ids is not None and len(ids) >= max_ids:
                    ids = ids[:max_ids]
                    break
                if page.next_cursor == 0:
                    break
                cursor = page.next_cursor
            span.set_attribute("pages", pages)
            span.set_attribute("ids", len(ids))
        return ids

    def fetch_head_until(self, screen_name: str,
                         anchor_ids: Sequence[int], *,
                         max_new: int,
                         page_size: Optional[int] = None) -> AnchoredHeadWalk:
        """Walk the newest-first follower list until an anchor re-appears.

        The delta-audit primitive (paper, Section IV-B): because the
        service returns followers newest-first, every follower gained
        since a previous crawl occupies a *prefix* of the list.  The
        walk pages from the head and stops at the first id that belongs
        to ``anchor_ids`` (the newest ids captured by that previous
        crawl) — everything before it is new.  The walk gives up, with
        ``anchor_index=None``, once more than ``max_new`` ids have been
        paged without an anchor hit (the anchor churned out or the
        cursor chain no longer matches) or when the list ends first.
        """
        if max_new < 0:
            raise ConfigurationError(f"max_new must be >= 0: {max_new!r}")
        anchor_of = {int(uid): index for index, uid in enumerate(anchor_ids)}
        with self._tracer.span("crawl.head_walk", self._client.clock,
                               target=screen_name,
                               anchors=len(anchor_of)) as span:
            new_ids: List[int] = []
            cursor = -1
            pages = 0
            degraded = False
            anchor_index: Optional[int] = None
            while True:
                try:
                    page = self._client.followers_ids(
                        screen_name=screen_name, cursor=cursor,
                        count=page_size)
                except RetryableApiError:
                    span.set_attribute("degraded", True)
                    degraded = True
                    break
                pages += 1
                self._pages.inc()
                hit_offset = None
                for offset, uid in enumerate(page.ids):
                    found = anchor_of.get(uid)
                    if found is not None:
                        # Scanning newest-first, the first hit is the
                        # newest surviving anchor; its index counts the
                        # baseline head accounts that unfollowed.
                        hit_offset, anchor_index = offset, found
                        break
                if hit_offset is not None:
                    new_ids.extend(page.ids[:hit_offset])
                    break
                new_ids.extend(page.ids)
                if len(new_ids) > max_new or page.next_cursor == 0:
                    break
                cursor = page.next_cursor
            span.set_attribute("pages", pages)
            span.set_attribute("new_ids", len(new_ids))
            span.set_attribute("anchored", anchor_index is not None)
        return AnchoredHeadWalk(new_ids=new_ids, anchor_index=anchor_index,
                                pages=pages, degraded=degraded)

    def lookup_users_block(self, user_ids: Sequence[int]) -> UserRowBlock:
        """Resolve profiles in ``users/lookup`` batches of 100, as rows.

        Returns one :class:`UserRowBlock` in input order, with
        unresolvable ids omitted, exactly as the endpoint answers.  A
        batch whose retries run out is dropped (the ``crawl.lookup``
        span is marked degraded) and the rest still resolve.  While the
        client has a profile cache, profiles any engine of the batch
        already paid for are read again for free, and only the misses
        are batched and charged; hits and misses are read in one world
        call (:meth:`TwitterApiClient.users_lookup_batches`).
        """
        cache = self._client.profile_cache
        with self._tracer.span("crawl.lookup", self._client.clock,
                               requested=len(user_ids)) as span:
            fetched = None if cache is None else cache.fetched_mask(user_ids)
            block, failures = self._client.users_lookup_batches(
                user_ids, fetched)
            if failures:
                span.set_attribute("degraded", True)
            span.set_attribute("resolved", len(block))
            if cache is not None:
                span.set_attribute("cache_hits", sum(fetched))
        return block

    #: An alias kept only because ``hostbench/layers.py`` wraps this name.
    lookup_users = lookup_users_block

    def fetch_timelines(self, user_ids: Sequence[int],
                        per_user: int = TIMELINE_PAGE
                        ) -> Dict[int, TimelineBlock]:
        """Pull one timeline page per user (up to 200 recent tweets)."""
        with self._tracer.span("crawl.timelines", self._client.clock,
                               users=len(user_ids)) as span:
            timelines: Dict[int, TimelineBlock] = {}
            shortfall = 0
            for uid, timeline in zip(user_ids, self._client.user_timelines(
                    user_ids, count=per_user)):
                if isinstance(timeline, RetryableApiError):
                    # Keep the key so callers can still index by user;
                    # an empty timeline reads as "never tweeted", the
                    # conservative degradation for inactivity rules.
                    timeline = TimelineBlock.empty(uid)
                    shortfall += 1
                timelines[uid] = timeline
            if shortfall:
                span.set_attribute("degraded", True)
                span.set_attribute("shortfall", shortfall)
            self.last_timeline_shortfall = shortfall
        return timelines


# ---------------------------------------------------------------------------
# Analytic acquisition-time model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcquisitionEstimate:
    """Predicted cost of crawling a follower base of a given size."""

    followers: int
    follower_pages: int
    lookup_requests: int
    timeline_requests: int
    seconds: float

    @property
    def days(self) -> float:
        """The predicted crawl time in days."""
        return self.seconds / 86400.0


def _phase_time(requests: int, policy: RateLimitPolicy, latency: float,
                credentials: int) -> float:
    """Completion time of ``requests`` serial calls against one bucket.

    A fresh bucket allows a burst of one window budget; past that the
    sustained rate dominates:  ``T(n) = max(n * L, (n - C) / r + L)``
    with capacity ``C`` and rate ``r`` scaled by the credential count.
    """
    if requests <= 0:
        return 0.0
    capacity = policy.window_budget * credentials
    rate = policy.requests_per_minute * credentials / 60.0
    burst_bound = requests * latency
    rate_bound = max(0.0, requests - capacity) / rate + latency
    return max(burst_bound, rate_bound)


def estimate_acquisition_time(
        followers: int,
        *,
        lookup_all: bool = True,
        timelines_all: bool = False,
        latency: float = DEFAULT_REQUEST_LATENCY,
        credentials: int = 1,
        policies=DEFAULT_POLICIES,
) -> AcquisitionEstimate:
    """Predict the wall time of a full data acquisition.

    ``lookup_all`` resolves every follower's profile (batches of 100 at
    12 requests/min); ``timelines_all`` additionally pulls one timeline
    page per follower.  With the paper's Table I limits and a single
    credential, 41 M followers cost ~5.7 days of ``followers/ids``
    paging plus ~23.7 days of ``users/lookup`` — the "around 27 days"
    the authors report for Obama.
    """
    if followers < 0:
        raise ConfigurationError(f"followers must be >= 0: {followers!r}")
    ids_policy = policies["followers/ids"]
    lookup_policy = policies["users/lookup"]
    timeline_policy = policies["statuses/user_timeline"]

    follower_pages = math.ceil(followers / ids_policy.elements_per_request)
    lookup_requests = (
        math.ceil(followers / lookup_policy.elements_per_request)
        if lookup_all else 0)
    timeline_requests = followers if timelines_all else 0

    seconds = (
        _phase_time(follower_pages, ids_policy, latency, credentials)
        + _phase_time(lookup_requests, lookup_policy, latency, credentials)
        + _phase_time(timeline_requests, timeline_policy, latency, credentials)
    )
    return AcquisitionEstimate(
        followers=followers,
        follower_pages=follower_pages,
        lookup_requests=lookup_requests,
        timeline_requests=timeline_requests,
        seconds=seconds,
    )
