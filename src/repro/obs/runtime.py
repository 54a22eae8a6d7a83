"""Process-wide observability switchboard.

Instrumented components (API client, rate limiter, crawler, caches,
engines, experiment runner) ask :func:`get_observability` for the
active context at construction time.  By default that is
:data:`NULL_OBS`, whose tracer and registry are shared no-op singletons
— nothing is allocated or recorded.  The CLI (or a test) activates a
real :class:`Observability` for the duration of a run:

    obs = activate()
    try:
        ...run experiments...
    finally:
        deactivate()

or, equivalently, ``with observed() as obs: ...``.

Keeping the switch process-wide (rather than threading an ``obs``
parameter through every constructor) matches how the engines are
built: :class:`~repro.analytics.base.CommercialAnalytic` constructs its
own client, crawler and cache internally, exactly as the closed
services it models would.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from ..core.clock import SimClock
from .metrics import CacheInfo, MetricsRegistry, NullRegistry, NULL_REGISTRY
from .trace import NullTracer, NULL_TRACER, Tracer


class Observability:
    """One run's worth of telemetry: a registry, a tracer, call logs.

    ``clock`` is the tracer's fallback clock (used for spans whose
    caller has no simulated clock of its own, like the experiment
    runner).  ``call_logs`` collects every
    :class:`~repro.api.endpoints.CallLog` created while active, so
    end-of-run summaries can aggregate API usage across all engines.
    """

    enabled = True

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.registry: MetricsRegistry = MetricsRegistry()
        self.tracer: Tracer = Tracer(clock)
        self.call_logs: List[object] = []
        self.caches: List[object] = []
        self.engines: List[object] = []
        #: The streaming telemetry plane (``repro.obs.live``), or
        #: ``None``.  Hot paths guard with one ``is None`` check, so
        #: runs without live telemetry pay nothing.
        self.live = None
        self._verdict_counters: dict = {}

    def attach_live(self, live) -> object:
        """Install a :class:`~repro.obs.live.LiveTelemetry` plane."""
        self.live = live
        return live

    def detach_live(self) -> None:
        """Remove the streaming telemetry plane."""
        self.live = None

    def register_call_log(self, log: object) -> None:
        """Track one client's call log for end-of-run aggregation."""
        self.call_logs.append(log)

    def register_cache(self, cache: object) -> None:
        """Track one cache (anything with a ``cache_info()`` method)."""
        self.caches.append(cache)

    def register_engine(self, engine: object) -> None:
        """Track one audit engine (anything with an ``info()`` method).

        Engines register at construction so end-of-run summaries can
        render per-engine metadata and verdict breakdowns;
        ``info()`` is only called at render time (it is lazy on some
        engines).  The context keeps its engines alive, so an engine
        (and the API client it owns) refers back to it only through
        :func:`weak_observability`.
        """
        self.engines.append(engine)

    def note_verdicts(self, engine: str, counts) -> None:
        """Count one fresh classification's verdicts per engine.

        Lazily creates ``verdicts_total{engine,verdict}`` counters —
        and only for labels with non-zero tallies — so runs that never
        classify export byte-identical metrics.
        """
        for verdict, count in counts.items():
            if not count:
                continue
            key = (engine, verdict)
            counter = self._verdict_counters.get(key)
            if counter is None:
                counter = self.registry.counter(
                    "verdicts_total",
                    help="verdicts by engine and class",
                    engine=engine, verdict=verdict)
                self._verdict_counters[key] = counter
            counter.inc(count)

    def cache_info(self) -> List[CacheInfo]:
        """Per-cache snapshots, merged by name and sorted.

        Engines that construct one cache per lane report under the
        same name; merging sums their hits/misses/evictions/sizes so
        the stats line shows one row per cache *kind*.
        """
        merged: "dict[str, CacheInfo]" = {}
        for cache in self.caches:
            info = cache.cache_info()
            prior = merged.get(info.name)
            if prior is None:
                merged[info.name] = info
            else:
                merged[info.name] = CacheInfo(
                    name=info.name,
                    hits=prior.hits + info.hits,
                    misses=prior.misses + info.misses,
                    evictions=prior.evictions + info.evictions,
                    size=prior.size + info.size)
        return [merged[name] for name in sorted(merged)]

    def call_log_summary(self) -> dict:
        """Merged per-resource aggregates across every registered log.

        Each value is ``{"calls", "items", "waited", "total_latency"}``
        (see :meth:`~repro.api.endpoints.CallLog.summary`), keyed and
        iterated in sorted resource order.
        """
        merged: dict = {}
        for log in self.call_logs:
            for resource, stats in log.summary().items():
                bucket = merged.setdefault(resource, {})
                for key, value in stats.items():
                    bucket[key] = bucket.get(key, 0) + value
        return {resource: merged[resource] for resource in sorted(merged)}


class NullObservability:
    """The disabled context: shared no-op registry/tracer, no state."""

    enabled = False
    registry: NullRegistry = NULL_REGISTRY
    tracer: NullTracer = NULL_TRACER
    call_logs: List[object] = []
    caches: List[object] = []
    engines: List[object] = []
    live = None

    def attach_live(self, live) -> object:
        """Refuse politely: the disabled context records nothing."""
        return live

    def detach_live(self) -> None:
        """Nothing to detach."""

    def register_call_log(self, log: object) -> None:
        """Ignore the log."""

    def register_cache(self, cache: object) -> None:
        """Ignore the cache."""

    def register_engine(self, engine: object) -> None:
        """Ignore the engine."""

    def note_verdicts(self, engine: str, counts) -> None:
        """Record nothing."""

    def call_log_summary(self) -> dict:
        """Always empty."""
        return {}

    def cache_info(self) -> List[CacheInfo]:
        """Always empty."""
        return []


NULL_OBS = NullObservability()

_current = NULL_OBS


def get_observability():
    """The active observability context (:data:`NULL_OBS` by default)."""
    return _current


def weak_observability(obs) -> Callable[[], object]:
    """A handle on ``obs`` that does not keep it alive.

    Calling the handle returns ``obs``, or :data:`NULL_OBS` once ``obs``
    is gone (nothing recorded into an unreachable context could be read
    anyway).  Objects the context tracks — engines, through
    :meth:`Observability.register_engine` — hold their context this
    way: a strong edge back would close a reference cycle that keeps
    each run's whole world alive until a full garbage collection.
    """
    ref = weakref.ref(obs)

    def context():
        current = ref()
        return NULL_OBS if current is None else current

    return context


def activate(obs: Optional[Observability] = None,
             clock: Optional[SimClock] = None) -> Observability:
    """Install ``obs`` (or a fresh context) as the active one."""
    global _current
    if obs is None:
        obs = Observability(clock)
    _current = obs
    return obs


def deactivate() -> None:
    """Restore the no-op context."""
    global _current
    _current = NULL_OBS


@contextmanager
def observed(obs: Optional[Observability] = None,
             clock: Optional[SimClock] = None) -> Iterator[Observability]:
    """Activate observability for a ``with`` block, then restore.

    Restores whatever context was active before the block, so nested
    use composes.
    """
    global _current
    previous = _current
    active = obs if obs is not None else Observability(clock)
    _current = active
    try:
        yield active
    finally:
        _current = previous
