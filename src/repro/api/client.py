"""The simulated Twitter REST client.

Every request (i) waits for the resource's token bucket, (ii) consumes
one request token, (iii) advances the shared simulated clock by the
request latency, and (iv) is recorded in a :class:`CallLog`.  Timing
experiments simply read the clock before and after an engine runs.

Two knobs distinguish the paper's actors:

``credentials``
    independent OAuth tokens rotated through (multiplies rate budgets);
``parallelism``
    concurrent HTTP connections (divides effective per-request latency).

The authors' FC engine runs with one credential and one connection; the
commercial tools run fleets (see ``repro.analytics``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.clock import SimClock
from ..core.errors import (
    ConfigurationError,
    InvalidCursorError,
    RateLimitExceededError,
    RequestTimeoutError,
    RetryableApiError,
    StaleCursorError,
    TransientServerError,
)
from ..faults.injectors import Fault, FaultInjector
from ..faults.plan import FaultPlan
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, RetryState
from ..obs.metrics import LATENCY_BUCKETS, WAIT_BUCKETS
from ..obs.runtime import get_observability, weak_observability
from ..twitter.columnar.schema import UserRowBlock
from ..twitter.population import SyntheticWorld
from ..twitter.timeline import TimelineBlock
from .endpoints import ApiCall, CallLog, IdsPage, UserObject
from .ratelimit import DEFAULT_POLICIES, RateLimiter, RateLimitPolicy

#: Default simulated round-trip latency of one API request, seconds.
#: Calibrated so the FC engine's first-analysis response times land in
#: the 180-220 s band the paper reports (Table II).
DEFAULT_REQUEST_LATENCY = 1.9


class TwitterApiClient:
    """Rate-limited, latency-charging façade over a :class:`SyntheticWorld`."""

    def __init__(
            self,
            world: SyntheticWorld,
            clock: SimClock,
            *,
            credentials: int = 1,
            parallelism: int = 1,
            request_latency: float = DEFAULT_REQUEST_LATENCY,
            policies=DEFAULT_POLICIES,
            faults: Optional[FaultPlan] = None,
            retry: Optional[RetryPolicy] = None,
            acquisition_cache=None,
    ) -> None:
        if parallelism < 1:
            raise ConfigurationError(f"parallelism must be >= 1: {parallelism!r}")
        if request_latency < 0:
            raise ConfigurationError(
                f"request_latency must be non-negative: {request_latency!r}")
        self._world = world
        self._clock = clock
        self._credentials = credentials
        self._policies = policies
        obs = get_observability()
        # Weak: an engine that owns this client is tracked by ``obs``.
        self._obs = weak_observability(obs)
        self._tracer = obs.tracer
        self._registry = obs.registry
        self._limiter = RateLimiter(clock.now(), policies, credentials,
                                    registry=self._registry)
        self._latency = request_latency / parallelism
        self._log = CallLog()
        # Per-resource (requests, items, latency, wait) instrument
        # handles, resolved lazily so the no-op and real paths share one
        # dict lookup per request.
        self._instruments = {}
        # Fault-path telemetry (retry counters, backoff histograms,
        # error counters) is created lazily on first failure, so a
        # fault-free run registers no extra metric series and its
        # exports stay byte-identical to a build without this layer.
        self._retry_instruments = {}
        self._error_counters = {}
        self._injector = (FaultInjector(faults, registry=self._registry)
                          if faults is not None else None)
        retry_policy = retry
        if retry_policy is None and faults is not None:
            retry_policy = DEFAULT_RETRY_POLICY
        self._retry = (RetryState(retry_policy)
                       if retry_policy is not None else None)
        self._faults_seen = 0
        self._retries_total = 0
        # Cross-client acquisition sharing and pinned observation are
        # both scheduler features; with the defaults (no cache, no pin)
        # every path below is byte-identical to the standalone client.
        self._acq_cache = acquisition_cache
        # Hit counters materialise on the first hit only, so runs
        # without a shared cache register no extra metric series.
        self._acq_hit_counters = {}
        self._observe_at: Optional[float] = None
        obs.register_call_log(self._log)

    def reset_budgets(self) -> None:
        """Start from fresh, full rate-limit windows and retry budgets.

        Models an operator rotating to unused credentials (or simply
        waiting out the 15-minute window) between audits; experiment
        runners call this so consecutive audits are timed the way the
        paper timed them — each against fresh budgets.
        """
        self._limiter = RateLimiter(
            self._clock.now(), self._policies, self._credentials,
            registry=self._registry)
        if self._retry is not None:
            self._retry.reset()

    @property
    def clock(self) -> SimClock:
        """The shared simulated clock."""
        return self._clock

    @property
    def acquisition_cache(self):
        """The shared acquisition cache plugged in, or ``None``."""
        return self._acq_cache

    @property
    def observed_at(self) -> Optional[float]:
        """The pinned observation instant, or ``None`` (live clock)."""
        return self._observe_at

    def pin_observation(self, at: Optional[float]) -> None:
        """Freeze (or, with ``None``, unfreeze) the world-read instant.

        While pinned, every world query behind the endpoints — profile
        resolution, follower totals and listings, timelines — sees the
        graph as of ``at``, regardless of how far the clock advances
        while requests wait out rate-limit windows.  The batch
        scheduler pins all requests of one batch to its admission
        epoch, which is what guarantees a batched audit returns the
        same percentages as a serial one.
        """
        if at is not None and at < 0:
            raise ConfigurationError(
                f"observation instant must be >= 0: {at!r}")
        self._observe_at = at

    def _observed(self) -> float:
        """The instant world reads use: the pin, or the live clock."""
        return (self._observe_at if self._observe_at is not None
                else self._clock.now())

    @property
    def call_log(self) -> CallLog:
        """Record of every request issued through this client."""
        return self._log

    @property
    def faults_seen(self) -> int:
        """Fault-injected failures (and truncations) observed so far.

        Counts every injector fire, including failures later recovered
        by retry — engines snapshot it around an analysis to report
        ``errors_seen``.
        """
        return self._faults_seen

    @property
    def retries_total(self) -> int:
        """Retries issued by this client across all resources."""
        return self._retries_total

    def policy(self, resource: str) -> RateLimitPolicy:
        """Expose the active rate-limit policy of a resource."""
        return self._limiter.policy(resource)

    def _resource_instruments(self, resource: str):
        """The (requests, items, latency, wait) handles for a resource."""
        handles = self._instruments.get(resource)
        if handles is None:
            registry = self._registry
            handles = (
                registry.counter(
                    "api_requests_total",
                    help="requests issued, by API resource",
                    resource=resource),
                registry.counter(
                    "api_items_total",
                    help="elements returned, by API resource",
                    resource=resource),
                registry.histogram(
                    "api_request_latency_seconds", LATENCY_BUCKETS,
                    help="request wall time incl. rate-limit wait",
                    resource=resource),
                registry.histogram(
                    "api_ratelimit_wait_seconds", WAIT_BUCKETS,
                    help="seconds spent waiting for the token bucket",
                    resource=resource),
            )
            self._instruments[resource] = handles
        return handles

    def _retry_handles(self, resource: str):
        """The (retries, backoff-wait) handles of one resource (lazy)."""
        handles = self._retry_instruments.get(resource)
        if handles is None:
            handles = (
                self._registry.counter(
                    "api_retries_total",
                    help="request retries after retryable failures",
                    resource=resource),
                self._registry.histogram(
                    "api_backoff_wait_seconds", WAIT_BUCKETS,
                    help="retry backoff charged to the sim clock",
                    resource=resource),
            )
            self._retry_instruments[resource] = handles
        return handles

    def _error_counter(self, resource: str, kind: str):
        """The failed-attempt counter of one (resource, error) pair."""
        counter = self._error_counters.get((resource, kind))
        if counter is None:
            counter = self._registry.counter(
                "api_request_errors_total",
                help="failed request attempts by resource and error kind",
                resource=resource, error=kind)
            self._error_counters[(resource, kind)] = counter
        return counter

    def _raise_fault(self, resource: str, fault: Fault,
                     completed: float, cursor: Optional[int]) -> None:
        """Turn a decided raising fault into its typed exception."""
        spec = fault.spec
        if fault.kind == "transient_503":
            raise TransientServerError(resource)
        if fault.kind == "timeout":
            raise RequestTimeoutError(resource, spec.timeout_seconds)
        if fault.kind == "rate_limit_spike":
            raise RateLimitExceededError(
                resource, spec.retry_after,
                reset_at=completed + spec.retry_after)
        if fault.kind == "stale_cursor":
            raise StaleCursorError(resource, cursor if cursor is not None
                                   else -1)
        raise ConfigurationError(          # pragma: no cover - plan validates
            f"unexpected raising fault kind: {fault.kind!r}")

    def _attempt(self, resource: str, items: int, *,
                 paged: bool, cursor: Optional[int]
                 ) -> Tuple[float, Optional[Fault]]:
        """Charge one request attempt; raise if a fault fires.

        Returns ``(completed_time, fault)``; a returned fault is always
        the non-raising ``truncated_ids_page`` kind, which the caller
        applies to the payload.
        """
        requests, items_counter, latency_hist, wait_hist = \
            self._resource_instruments(resource)
        with self._tracer.span("api.request", self._clock,
                               resource=resource) as span:
            issued = self._clock.now()
            fault = None
            if self._injector is not None:
                fault = self._injector.decide(
                    resource, issued, paged=paged,
                    cursor_positive=cursor is not None and cursor > 0)
            waited = self._limiter.wait_time(resource, issued)
            if waited > 0:
                self._clock.advance(waited)
            # The token is consumed even for a failing request: the
            # request was sent, and the real service bills it.
            self._limiter.consume(resource, self._clock.now())
            if fault is not None and fault.raises:
                if fault.kind == "timeout":
                    self._clock.advance(fault.spec.timeout_seconds)
                else:
                    self._clock.advance(self._latency)
                completed = self._clock.now()
                self._log.record(ApiCall(
                    resource=resource,
                    issued_at=issued,
                    completed_at=completed,
                    waited=waited,
                    items=0,
                    error=fault.kind,
                ))
                self._faults_seen += 1
                self._error_counter(resource, fault.kind).inc()
                span.set_attribute("waited", waited)
                span.set_attribute("error", fault.kind)
                live = self._obs().live
                if live is not None:
                    live.on_request(resource, completed, ok=False)
                self._raise_fault(resource, fault, completed, cursor)
            self._clock.advance(self._latency)
            completed = self._clock.now()
            self._log.record(ApiCall(
                resource=resource,
                issued_at=issued,
                completed_at=completed,
                waited=waited,
                items=items,
            ))
            requests.inc()
            items_counter.inc(items)
            latency_hist.observe(completed - issued)
            wait_hist.observe(waited)
            span.set_attribute("waited", waited)
            span.set_attribute("items", items)
            if fault is not None:
                self._faults_seen += 1
                span.set_attribute("fault", fault.kind)
            live = self._obs().live
            if live is not None:
                live.on_request(resource, completed, ok=True)
        return completed, fault

    def _request(self, resource: str, items: int, *,
                 paged: bool = False, cursor: Optional[int] = None
                 ) -> Tuple[float, Optional[Fault]]:
        """Issue one logical request, retrying retryable failures.

        Backoff waits are charged to the simulated clock; when the
        retry allowance (attempts or per-resource budget) is exhausted
        the last failure propagates to the caller.
        """
        retry_index = 0
        previous_wait = 0.0
        while True:
            try:
                return self._attempt(resource, items,
                                     paged=paged, cursor=cursor)
            except RetryableApiError as error:
                wait = None
                if self._retry is not None:
                    wait = self._retry.next_wait(
                        resource, retry_index, error, previous_wait)
                if wait is None:
                    raise
                retries, backoff_hist = self._retry_handles(resource)
                retries.inc()
                backoff_hist.observe(wait)
                self._retries_total += 1
                live = self._obs().live
                if live is not None:
                    live.note("api.retries", self._clock.now())
                self._clock.advance(wait)
                previous_wait = wait
                retry_index += 1

    def _execute(self, resource: str, items: int) -> float:
        """Charge one request: rate-limit wait + latency.  Returns 'now'."""
        completed, __ = self._request(resource, items)
        return completed

    # -- users ----------------------------------------------------------------

    @property
    def profile_cache(self):
        """The acquisition cache while it may serve profiles, else ``None``.

        A hit is read again from the world at the pinned instant, so an
        unpinned client (an engine used before its scheduler's first
        ``run()``) fetches, charges and records no profile through it.
        """
        return self._acq_cache if self._observe_at is not None else None

    def users_show(self, *, screen_name: Optional[str] = None,
                   user_id: Optional[int] = None) -> UserObject:
        """``GET users/show`` — resolve one profile by handle or id.

        Charged against the ``users/lookup`` budget (the real endpoint
        had a separate but equal-magnitude limit; folding them keeps
        Table I authoritative).
        """
        if (screen_name is None) == (user_id is None):
            raise ConfigurationError(
                "exactly one of screen_name/user_id must be given")
        now = self._observed()
        cache = self.profile_cache
        if cache is not None:
            hit = cache.fetched_id(user_id=user_id, screen_name=screen_name)
            if hit is not None:
                self._acq_hit("users/lookup")
                return UserObject.from_account(
                    self._world.account_by_id(hit, now))
        if screen_name is not None:
            account = self._world.account_by_name(screen_name, now)
        else:
            account = self._world.account_by_id(user_id, now)
        self._execute("users/lookup", 1)
        if cache is not None:
            cache.note_shown(account.user_id, account.screen_name)
        return UserObject.from_account(account)

    def users_lookup_block(self, user_ids: Sequence[int]) -> UserRowBlock:
        """``GET users/lookup`` — up to 100 profiles per request, as rows.

        One charged request; the answer is the world's
        :class:`~repro.twitter.columnar.schema.UserRowBlock` for the
        batch, read at the pinned observation instant or else at the
        request's completion.  Rows follow the input order; unknown ids
        are silently omitted, as the real endpoint does.  The profile
        cache, when one serves, records the ids paid for.
        """
        policy = self._limiter.policy("users/lookup")
        if not 1 <= len(user_ids) <= policy.elements_per_request:
            raise ConfigurationError(
                f"users/lookup takes 1..{policy.elements_per_request} ids, "
                f"got {len(user_ids)}")
        completed = self._execute("users/lookup", len(user_ids))
        now = (self._observe_at if self._observe_at is not None
               else completed)
        block = self._world.user_row_block(user_ids, now)
        cache = self.profile_cache
        if cache is not None:
            cache.note_fetched(block.rows["user_id"].tolist())
        return block

    #: An alias kept only because ``hostbench/layers.py`` wraps this name.
    users_lookup = users_lookup_block

    def cached_profiles(self, user_ids: Sequence[int]) -> UserRowBlock:
        """Rows of profiles the :attr:`profile_cache` has already paid
        for, read again at the pinned instant: no request, no
        rate-limit token, no latency."""
        return self._world.user_row_block(user_ids, self._observe_at)

    # -- follower / friend listings ---------------------------------------------

    def _ids_page(self, resource: str, uid: int, total: int, fetch,
                  cursor: int, count: Optional[int]) -> IdsPage:
        policy = self._limiter.policy(resource)
        page_size = policy.elements_per_request if count is None else count
        if not 1 <= page_size <= policy.elements_per_request:
            raise ConfigurationError(
                f"{resource} count must be 1..{policy.elements_per_request}")
        if cursor == -1:
            offset = 0
        elif cursor > 0:
            offset = cursor
        else:
            raise InvalidCursorError(f"bad cursor: {cursor!r}")
        if self._acq_cache is not None:
            hit = self._acq_cache.get_page(resource, uid, offset, page_size)
            if hit is not None:
                self._acq_hit(resource)
                return hit
        completed, fault = self._request(resource, 0, paged=True,
                                         cursor=cursor)
        now = (self._observe_at if self._observe_at is not None
               else completed)
        # `offset` counts newest-first; chronological positions run the
        # other way.  Twitter returns followers newest-first — the fact
        # the paper establishes in Section IV-B.
        start_newest = min(offset, total)
        stop_newest = min(offset + page_size, total)
        chrono_start = total - stop_newest
        chrono_stop = total - start_newest
        chronological = fetch(chrono_start, chrono_stop, now)
        ids = tuple(int(uid) for uid in reversed(list(chronological)))
        if fault is not None and ids:
            # A truncated page silently drops the tail of the listing
            # while the cursor still advances past the full page — the
            # client cannot tell, so downstream frames come up short.
            keep = max(1, int(len(ids) * (1 - fault.spec.truncate_fraction)))
            ids = ids[:keep]
        next_cursor = stop_newest if stop_newest < total else 0
        previous_cursor = -start_newest if start_newest > 0 else 0
        page = IdsPage(ids=ids, next_cursor=next_cursor,
                       previous_cursor=previous_cursor)
        if self._acq_cache is not None and fault is None:
            # Truncated pages are never shared: the fault is an event of
            # this client's crawl, not a property of the listing.
            self._acq_cache.put_page(resource, uid, offset, page_size, page)
        return page

    def followers_ids(self, *, screen_name: Optional[str] = None,
                      user_id: Optional[int] = None,
                      cursor: int = -1,
                      count: Optional[int] = None) -> IdsPage:
        """``GET followers/ids`` — one page of follower ids, newest first."""
        uid = self._resolve(screen_name, user_id)
        now = self._observed()
        total = self._world.follower_count(uid, now)
        return self._ids_page(
            "followers/ids", uid, total,
            lambda start, stop, at: self._world.follower_ids(uid, start, stop, at),
            cursor, count)

    def friends_ids(self, *, screen_name: Optional[str] = None,
                    user_id: Optional[int] = None,
                    cursor: int = -1,
                    count: Optional[int] = None) -> IdsPage:
        """``GET friends/ids`` — one page of followed-account ids, newest first."""
        uid = self._resolve(screen_name, user_id)
        now = self._observed()
        total = self._world.friend_count(uid, now)
        return self._ids_page(
            "friends/ids", uid, total,
            lambda start, stop, at: self._world.friend_ids(uid, start, stop, at),
            cursor, count)

    def _acq_hit(self, resource: str) -> None:
        counter = self._acq_hit_counters.get(resource)
        if counter is None:
            counter = self._registry.counter(
                "acq_cache_hits_total",
                help="API requests answered by the shared acquisition cache",
                resource=resource)
            self._acq_hit_counters[resource] = counter
        counter.inc()

    def _resolve(self, screen_name: Optional[str], user_id: Optional[int]) -> int:
        if (screen_name is None) == (user_id is None):
            raise ConfigurationError(
                "exactly one of screen_name/user_id must be given")
        if user_id is not None:
            return user_id
        return self._world.account_by_name(screen_name, self._observed()).user_id

    # -- timelines ---------------------------------------------------------------

    def user_timeline(self, user_id: int,
                      count: Optional[int] = None) -> TimelineBlock:
        """``GET statuses/user_timeline`` — recent tweets, newest first.

        At most 200 per request; overall timeline depth is capped at
        3200 by the service (enforced by the world's timeline model).
        The world's :class:`~repro.twitter.timeline.TimelineBlock` is
        passed through unrendered.  The one-id case of
        :meth:`user_timelines`, raising when its retries run out.
        """
        timeline, = self.user_timelines([user_id], count)
        if isinstance(timeline, RetryableApiError):
            raise timeline
        return timeline

    def user_timelines(self, user_ids: Sequence[int],
                       count: Optional[int] = None
                       ) -> List[Union[TimelineBlock, RetryableApiError]]:
        """:meth:`user_timeline` for every id in turn, read in batches.

        Each id is its own request, made in order exactly as a lone
        fetch makes it: acquisition-cache check, charge, retries, live
        hooks.  The world is then read once per observation instant
        (once for a pinned client, once a request for a live one), and
        every fault-free answer enters the acquisition cache, so a
        repeated id is a hit exactly when it would be one fetched
        alone.  An id whose retries ran out gets the
        :class:`RetryableApiError` that ended its request in place of
        a timeline.
        """
        policy = self._limiter.policy("statuses/user_timeline")
        page = policy.elements_per_request if count is None else count
        if not 1 <= page <= policy.elements_per_request:
            raise ConfigurationError(
                f"statuses/user_timeline count must be "
                f"1..{policy.elements_per_request}")
        cache = self._acq_cache
        results: list = [None] * len(user_ids)
        reads: Dict[float, List[int]] = {}     # instant -> indices
        uncached: Dict[int, int] = {}          # id -> index, fault-free

        def settle() -> None:
            for at, indices in reads.items():
                for index, timeline in zip(indices, self._world.timelines(
                        [user_ids[index] for index in indices], page, at)):
                    results[index] = timeline
            for user_id, index in uncached.items():
                cache.put_timeline(user_id, page, results[index])
            reads.clear()
            uncached.clear()

        for index, user_id in enumerate(user_ids):
            if cache is not None:
                if user_id in uncached:
                    settle()
                hit = cache.get_timeline(user_id, page)
                if hit is not None:
                    self._acq_hit("statuses/user_timeline")
                    results[index] = hit
                    continue
            try:
                completed, fault = self._request("statuses/user_timeline",
                                                 page)
            except RetryableApiError as error:
                results[index] = error
                continue
            at = self._observe_at if self._observe_at is not None \
                else completed
            reads.setdefault(at, []).append(index)
            if cache is not None and fault is None:
                uncached[user_id] = index
        settle()
        return results
