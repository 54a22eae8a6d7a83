"""The live-telemetry hub: streams + SLOs + alerts behind one tick.

:class:`LiveTelemetry` is the object instrumented components talk to
when streaming telemetry is switched on.  It is attached to the active
:class:`~repro.obs.runtime.Observability` context
(``obs.attach_live(...)``); when detached, every hook in the hot paths
is a single ``is None`` check — the same zero-overhead discipline as
the null registry/tracer.

The tick is the only engine: :meth:`tick` samples every probe-backed
stream, closes elapsed panes, and re-evaluates every SLO rule.  Tick
times are clamped to a high watermark because interleaved schedules
(the batch scheduler's per-slot clocks) report completion instants out
of order; clamping keeps window accounting monotone and deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ...core.errors import ConfigurationError
from .bridge import DetectorBridge
from .slo import AlertLog, SloEvaluator, SloSpec, SloStatus
from .windows import CounterRateStream, GaugeStream, WindowSpec, WindowStream


#: Name prefix of the detector bridge's per-handle follower streams.
_FOLLOWERS = "followers:"


class LiveTelemetry:
    """One run's streaming telemetry plane.

    Holds the window streams (keyed by name), the SLO evaluator, the
    alert log, and an optional detector bridge.  Everything advances on
    :meth:`tick`; event-shaped hooks (:meth:`on_request`,
    :meth:`on_audit`, :meth:`on_batch_run`) feed streams between ticks.
    """

    def __init__(self, *, origin: float = 0.0,
                 pane_width: float = 3600.0) -> None:
        if pane_width <= 0:
            raise ConfigurationError(
                f"pane_width must be > 0: {pane_width!r}")
        self.origin = origin
        self.pane_width = pane_width
        self.alerts = AlertLog()
        self.slos = SloEvaluator(self.alerts)
        self.bridge: Optional[DetectorBridge] = None
        self._streams: Dict[str, WindowStream] = {}
        self._watermark = float("-inf")
        self._ticks = 0

    # -- stream registry ----------------------------------------------------

    def default_spec(self, width: Optional[float] = None) -> WindowSpec:
        """A :class:`WindowSpec` anchored at this plane's origin."""
        return WindowSpec(width=width if width is not None
                          else self.pane_width, origin=self.origin)

    def add_stream(self, stream: WindowStream) -> WindowStream:
        """Register a stream under its name (names must be unique)."""
        if stream.name in self._streams:
            raise ConfigurationError(
                f"duplicate stream name: {stream.name!r}")
        self._streams[stream.name] = stream
        return stream

    def value_stream(self, name: str,
                     width: Optional[float] = None) -> WindowStream:
        """Get or create a plain event stream fed via :meth:`note`."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self.add_stream(
                WindowStream(name, self.default_spec(width)))
        return stream

    def gauge_stream(self, name: str, probe: Callable[[], float],
                     width: Optional[float] = None) -> GaugeStream:
        """Register a probe-sampled level stream (queue depth, counts)."""
        stream = GaugeStream(name, self.default_spec(width), probe)
        self.add_stream(stream)
        return stream

    def counter_stream(self, name: str, probe: Callable[[], float],
                       width: Optional[float] = None) -> CounterRateStream:
        """Register a cumulative-counter delta stream (rates)."""
        stream = CounterRateStream(name, self.default_spec(width), probe)
        self.add_stream(stream)
        return stream

    def stream(self, name: str) -> WindowStream:
        """Look up a registered stream by name."""
        stream = self._streams.get(name)
        if stream is None:
            raise ConfigurationError(f"unknown stream: {name!r}")
        return stream

    def streams(self) -> Dict[str, WindowStream]:
        """Every registered stream, keyed by name."""
        return dict(self._streams)

    def attach_bridge(self, bridge: DetectorBridge) -> DetectorBridge:
        """Install the detector bridge feeding burst alerts."""
        self.bridge = bridge
        return bridge

    def add_slo(self, spec: SloSpec) -> SloStatus:
        """Register one SLO rule (evaluated on every tick)."""
        return self.slos.add(spec)

    # -- time ---------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Ticks processed so far."""
        return self._ticks

    @property
    def watermark(self) -> float:
        """The furthest simulated instant ticked past so far."""
        return self._watermark

    def clamp(self, t: float) -> float:
        """``t`` clamped forward to the tick high watermark."""
        return t if t >= self._watermark else self._watermark

    def tick(self, now: float) -> float:
        """Advance the plane to instant ``now`` (clamped monotone).

        Samples every probe-backed stream, closes elapsed panes of the
        event streams, and re-evaluates the SLO rules.  Returns the
        effective (clamped) tick time.
        """
        now = self.clamp(float(now))
        self._watermark = now
        self._ticks += 1
        for stream in self._streams.values():
            sample = getattr(stream, "sample", None)
            if sample is not None:
                sample(now)
            else:
                stream.close_until(now)
        if self.bridge is not None:
            self.bridge.close_until(now)
        # Resolve only the streams the rules read: no bridge stream a
        # rule does not name is built.
        self.slos.evaluate(now, {name: self.find_stream(name)
                                 for name in self.slos.stream_names()})
        return now

    def find_stream(self, name: str) -> Optional[WindowStream]:
        """The stream called ``name``, or ``None``.

        Registered streams and the bridge's per-handle
        ``followers:<handle>`` streams alike (the bridge's win a name
        clash); a bridge stream is built only when found.
        """
        if self.bridge is not None and name.startswith(_FOLLOWERS):
            stream = self.bridge.stream(name[len(_FOLLOWERS):])
            if stream is not None:
                return stream
        return self._streams.get(name)

    def all_streams(self) -> Dict[str, WindowStream]:
        """Registered streams and every bridge stream, keyed by name."""
        merged = dict(self._streams)
        if self.bridge is not None:
            merged.update(
                (stream.name, stream)
                for stream in self.bridge.streams().values())
        return merged

    # -- event hooks (instrumented components) ------------------------------

    def note(self, name: str, t: float, value: float = 1.0) -> None:
        """Record one event into the named stream (created on demand)."""
        self.value_stream(name).observe(self.clamp(t), value)

    def on_request(self, resource: str, t: float, ok: bool) -> None:
        """API-client hook: one request attempt finished at ``t``."""
        t = self.clamp(t)
        self.value_stream("api.requests").observe(t, 1.0)
        if not ok:
            self.value_stream("api.errors").observe(t, 1.0)

    def on_audit(self, engine: str, t: float, *, cached: bool,
                 completeness: float) -> None:
        """Engine hook: one audit finished on engine ``engine``."""
        t = self.clamp(t)
        self.value_stream(f"audits.{engine}").observe(t, 1.0)
        self.value_stream("audits.completed").observe(t, 1.0)
        if cached:
            self.value_stream("audits.cached").observe(t, 1.0)
        if completeness > 0.0:
            self.value_stream("audits.ok").observe(t, 1.0)

    def on_rules(self, engine: str, t: float, fired: Dict[str, int],
                 sample_size: int) -> None:
        """Provenance hook: one classification's rule-fire tallies.

        Feeds the per-engine drift stream ``rules.<engine>`` with the
        classified sample size, and one ``rules.<engine>.<rule>``
        stream per rule that fired — the fleet dashboard picks them up
        automatically, so a purchased block landing shows up as a
        step-change in which rules fire.
        """
        t = self.clamp(t)
        self.value_stream(f"rules.{engine}").observe(
            t, float(sample_size))
        for rule, count in fired.items():
            if count:
                self.value_stream(f"rules.{engine}.{rule}").observe(
                    t, float(count))

    def on_batch_run(self, epoch: float, makespan: float,
                     executed: int) -> None:
        """Scheduler hook: one batch run finished (admitted at ``epoch``)."""
        t = self.clamp(epoch)
        if executed > 0:
            self.value_stream("sched.batch_audits").observe(
                t, float(executed))
        self.value_stream("sched.batch_runs").observe(t, 1.0)

    def observe_followers(self, handle: str, t: float,
                          followers_count: int) -> bool:
        """Bridge hook: one follower-count reading; True if it paged.

        The one-reading case of :meth:`observe_page`.
        """
        return self.observe_page(t, (handle,), (followers_count,))[0]

    def observe_page(self, t, handles: Sequence[str],
                     counts: Sequence[int]) -> List[bool]:
        """Bridge hook: one page of follower counts, read at ``t``.

        ``counts[i]`` is ``handles[i]``'s reading and ``t`` one instant
        or one per reading, each clamped as :meth:`clamp` does; returns,
        per reading, whether it paged (see
        :meth:`DetectorBridge.observe_page`).
        """
        if self.bridge is None:
            return [False] * len(handles)
        instants = np.asarray(t, dtype=np.float64)
        return self.bridge.observe_page(
            np.where(instants >= self._watermark, instants, self._watermark),
            handles, counts)
