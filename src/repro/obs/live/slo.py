"""SLO specifications, error-budget burn rates, and the alert log.

A service-level objective here is a *good-events over total-events*
ratio target evaluated on window streams (``audit success >= 99 %``,
``poll success >= 99 %``, ``cache hit ratio >= 80 %``).  Alerting uses
the standard dual-window burn-rate recipe: the burn rate is the
observed bad-event ratio divided by the error budget ``1 - objective``
(burn 1.0 = spending the budget exactly on schedule), and an alert
fires only when **both** a fast window (catches the spike quickly) and
a slow window (confirms it is sustained) burn above the threshold —
the fast window alone would page on noise, the slow window alone would
page late.

Everything is driven by simulated time and the deterministic window
streams, so a replayed run produces a byte-identical
:class:`AlertLog`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ...core.errors import ConfigurationError
from .windows import WindowStream

#: Decimal places alert detail floats are rounded to before export —
#: the same canonicalisation discipline as ``repro.obs.perf``.
_ROUND = 6


def _round_value(value: object) -> object:
    """Round floats for stable JSON; leave other scalars alone."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, _ROUND)
    return value


@dataclass(frozen=True)
class AlertEvent:
    """One fire or resolve transition, stamped with simulated time."""

    time: float
    name: str
    kind: str  # "fire" | "resolve"
    severity: str
    details: Tuple[Tuple[str, object], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        """The canonical JSON shape of the event (floats rounded)."""
        return {
            "time": _round_value(float(self.time)),
            "name": self.name,
            "kind": self.kind,
            "severity": self.severity,
            "details": {key: _round_value(value)
                        for key, value in self.details},
        }


class AlertLog:
    """Ordered record of alert fire/resolve events.

    The log is append-only and tracks the active set, so a dashboard
    can render "what is paging right now" while the JSONL export stays
    a faithful, replayable history.
    """

    def __init__(self) -> None:
        self._events: List[AlertEvent] = []
        self._active: Dict[str, AlertEvent] = {}

    def fire(self, time: float, name: str, severity: str = "page",
             **details: object) -> Optional[AlertEvent]:
        """Record a fire transition; no-op if ``name`` is already active."""
        if name in self._active:
            return None
        event = AlertEvent(time=float(time), name=name, kind="fire",
                           severity=severity,
                           details=tuple(sorted(details.items())))
        self._events.append(event)
        self._active[name] = event
        return event

    def resolve(self, time: float, name: str,
                **details: object) -> Optional[AlertEvent]:
        """Record a resolve transition; no-op if ``name`` is not active."""
        fired = self._active.pop(name, None)
        if fired is None:
            return None
        event = AlertEvent(time=float(time), name=name, kind="resolve",
                           severity=fired.severity,
                           details=tuple(sorted(details.items())))
        self._events.append(event)
        return event

    @property
    def events(self) -> Tuple[AlertEvent, ...]:
        """Every transition recorded so far, in order."""
        return tuple(self._events)

    def active(self) -> Tuple[str, ...]:
        """Names of currently firing alerts, sorted."""
        return tuple(sorted(self._active))

    def is_active(self, name: str) -> bool:
        """Whether ``name`` is currently firing."""
        return name in self._active

    def counts(self) -> Tuple[int, int]:
        """``(fired, resolved)`` totals over the log's lifetime."""
        fired = sum(1 for event in self._events if event.kind == "fire")
        return fired, len(self._events) - fired

    def to_jsonl(self) -> str:
        """The log as deterministic JSON lines (sorted keys)."""
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True,
                       separators=(",", ":")) + "\n"
            for event in self._events)

    def write(self, path) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        import pathlib
        pathlib.Path(path).write_text(self.to_jsonl(), encoding="utf-8")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over a pair of window streams.

    ``good_stream``/``total_stream`` name :class:`WindowStream`\\ s
    whose pane sums count good and total events; ``objective`` is the
    target good/total ratio.  ``fast_horizon``/``slow_horizon`` are the
    dual burn-rate windows (seconds) and ``burn_threshold`` the rate at
    which both must burn to page.  ``min_events`` suppresses evaluation
    until the fast window holds enough total events to be meaningful.
    """

    name: str
    good_stream: str
    total_stream: str
    objective: float
    fast_horizon: float
    slow_horizon: float
    burn_threshold: float = 6.0
    min_events: int = 1
    severity: str = "page"

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"objective must be in (0, 1): {self.objective!r}")
        if self.fast_horizon <= 0 or self.slow_horizon < self.fast_horizon:
            raise ConfigurationError(
                "need 0 < fast_horizon <= slow_horizon: "
                f"{self.fast_horizon!r}, {self.slow_horizon!r}")
        if self.burn_threshold <= 0:
            raise ConfigurationError(
                f"burn_threshold must be > 0: {self.burn_threshold!r}")
        if self.min_events < 1:
            raise ConfigurationError(
                f"min_events must be >= 1: {self.min_events!r}")

    @property
    def error_budget(self) -> float:
        """The tolerated bad-event ratio, ``1 - objective``."""
        return 1.0 - self.objective


@dataclass
class SloStatus:
    """The last evaluation of one SLO (what the dashboard shows)."""

    spec: SloSpec
    fast_burn: float = 0.0
    slow_burn: float = 0.0
    fast_ratio: float = 1.0
    events: int = 0
    firing: bool = False


class SloEvaluator:
    """Evaluates a set of :class:`SloSpec` rules against streams.

    On every clock tick the evaluator computes each rule's fast and
    slow burn rates from the streams' trailing aggregates and records
    fire/resolve transitions in the shared :class:`AlertLog`.
    """

    def __init__(self, alerts: AlertLog) -> None:
        self._alerts = alerts
        self._rules: List[SloStatus] = []
        self._names: Dict[str, SloStatus] = {}

    def add(self, spec: SloSpec) -> SloStatus:
        """Register one objective; returns its live status record."""
        if spec.name in self._names:
            raise ConfigurationError(f"duplicate SLO name: {spec.name!r}")
        status = SloStatus(spec=spec)
        self._rules.append(status)
        self._names[spec.name] = status
        return status

    def stream_names(self) -> Set[str]:
        """Every stream a rule reads."""
        return {name for status in self._rules
                for name in (status.spec.good_stream, status.spec.total_stream)}

    def statuses(self) -> Tuple[SloStatus, ...]:
        """Every registered rule's latest status, in registration order."""
        return tuple(self._rules)

    @staticmethod
    def _burn(good: float, total: float, budget: float) -> Tuple[float, float]:
        """``(burn_rate, good_ratio)`` of one window."""
        if total <= 0:
            return 0.0, 1.0
        ratio = good / total
        bad = max(0.0, 1.0 - ratio)
        return bad / budget, ratio

    def evaluate(self, now: float,
                 streams: Mapping[str, WindowStream]) -> None:
        """Re-evaluate every rule at instant ``now``.

        ``streams`` is asked only for the streams the rules name.
        """
        for status in self._rules:
            spec = status.spec
            good = streams.get(spec.good_stream)
            total = streams.get(spec.total_stream)
            if good is None or total is None:
                raise ConfigurationError(
                    f"SLO {spec.name!r} references unknown streams "
                    f"{spec.good_stream!r}/{spec.total_stream!r}")
            fast_total = total.trailing(now, spec.fast_horizon)
            slow_total = total.trailing(now, spec.slow_horizon)
            fast_good = good.trailing(now, spec.fast_horizon)
            slow_good = good.trailing(now, spec.slow_horizon)
            status.events = int(fast_total.sum)
            if fast_total.sum < spec.min_events:
                status.fast_burn, status.fast_ratio = 0.0, 1.0
                status.slow_burn = 0.0
            else:
                status.fast_burn, status.fast_ratio = self._burn(
                    fast_good.sum, fast_total.sum, spec.error_budget)
                status.slow_burn, __ = self._burn(
                    slow_good.sum, slow_total.sum, spec.error_budget)
            should_fire = (status.fast_burn >= spec.burn_threshold
                           and status.slow_burn >= spec.burn_threshold)
            if should_fire and not status.firing:
                status.firing = True
                self._alerts.fire(
                    now, f"slo:{spec.name}", severity=spec.severity,
                    fast_burn=status.fast_burn, slow_burn=status.slow_burn,
                    objective=spec.objective)
            elif status.firing and not should_fire:
                status.firing = False
                self._alerts.resolve(
                    now, f"slo:{spec.name}",
                    fast_burn=status.fast_burn, slow_burn=status.slow_burn)
