"""Shared audit types: the request, the report, the engine contract.

Every fake-follower engine in this reproduction — the three commercial
analytics and the Fake Project classifier — answers an audit request
with the same shape the paper tabulates in Table III: the percentages
of inactive, fake and genuine followers, plus the metadata the timing
experiment (Table II) needs (response time, cache status, sample size).

This module also defines the unified entry point every engine shares:

* :class:`AuditRequest` — what to audit and how (priority, cache
  bypass, pinned observation instant, deterministic sampling index);
* :class:`Auditor` — the structural protocol all engines satisfy
  (``audit`` for a blocking answer, ``begin_audit`` for resumable
  acquisition steps the batch scheduler interleaves);
* :func:`build_engines` — the one factory the experiments, the CLI and
  ``repro.quick_audit`` use instead of hand-rolled engine dicts.

``audit()`` takes an :class:`AuditRequest`, full stop: the legacy
string form ``engine.audit("handle")`` (deprecated through PR 7) has
been removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Mapping, Optional, Protocol, Sequence, Tuple,
                    runtime_checkable)

from .core.errors import ConfigurationError

#: Canonical engine order, matching the paper's table columns.
ENGINE_NAMES: Tuple[str, ...] = (
    "fc", "twitteraudit", "statuspeople", "socialbakers")


@dataclass(frozen=True)
class AuditReport:
    """Result of one fake-follower audit of one target account.

    Percentages are expressed on a 0-100 scale, as in the paper's
    tables, and sum to ~100 — except for an empty sample, whose
    composition is all zero.  ``inactive_pct`` is ``None`` for tools
    that do not report inactivity as a class (Twitteraudit, see Table
    III's footnote).
    """

    tool: str
    target: str
    followers_count: int
    sample_size: int
    fake_pct: float
    genuine_pct: float
    inactive_pct: Optional[float]
    response_seconds: float
    cached: bool
    #: Simulated instant the underlying analysis was computed (for a
    #: cached answer this predates the request, as Twitteraudit's
    #: "evaluated 7 months ago" notes make visible).
    assessed_at: float
    #: Fraction (0-1) of the intended acquisition actually achieved.
    #: 1.0 on a clean run; below 1.0 the engine degraded gracefully
    #: under API failures and the percentages describe a partial
    #: sample; 0.0 means no data could be acquired at all.
    completeness: float = 1.0
    #: Injected API failures observed while producing this result
    #: (including ones recovered by retry).
    errors_seen: int = 0
    details: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.followers_count < 0:
            raise ConfigurationError("followers_count must be >= 0")
        if self.sample_size < 0:
            raise ConfigurationError("sample_size must be >= 0")
        if self.response_seconds < 0:
            raise ConfigurationError("response_seconds must be >= 0")
        if not -1e-9 <= self.completeness <= 1.0 + 1e-9:
            raise ConfigurationError(
                f"completeness must be in [0, 1]: {self.completeness!r}")
        if self.errors_seen < 0:
            raise ConfigurationError("errors_seen must be >= 0")
        parts = [self.fake_pct, self.genuine_pct]
        if self.inactive_pct is not None:
            parts.append(self.inactive_pct)
        for value in parts:
            if not -1e-9 <= value <= 100.0 + 1e-9:
                raise ConfigurationError(
                    f"percentages must be in [0, 100]: {value!r}")
        total = sum(parts)
        if self.sample_size == 0:
            # An empty sample (a fully failed acquisition, or a target
            # without followers) has no composition at all.
            if total != 0.0:
                raise ConfigurationError(
                    f"an empty sample has no composition, got {total!r}%")
            return
        if not 99.0 <= total <= 101.0:
            raise ConfigurationError(
                f"percentages must sum to ~100, got {total!r}")


@dataclass(frozen=True)
class AuditRequest:
    """One audit to perform: the target plus scheduling directives.

    ``engine`` names the engine the request is meant for; ``None``
    means "whichever engine it is handed to" (the batch scheduler fills
    it in).  ``as_of`` pins the simulated observation instant: every
    world read behind the audit sees the social graph frozen at that
    time, which is what makes a batched run's percentages identical to
    a serial run's regardless of when each acquisition step lands on
    the clock.  ``audit_index`` overrides the engine's internal
    per-audit sampling counter so a scheduler can reproduce the exact
    RNG stream of a serial run; leave it ``None`` outside schedulers.

    ``mode`` selects between a ``"full"`` audit (crawl and classify the
    engine's whole sampling frame) and a ``"delta"`` re-audit, which
    walks only the newest head of ``followers/ids`` until it re-finds a
    previously captured watermark anchor and merges the new arrivals'
    verdicts with the watermarked baseline (see
    :mod:`repro.sched.incremental`).  A delta request with no usable
    watermark silently degrades to a full audit.
    """

    target: str
    engine: Optional[str] = None
    force_refresh: bool = False
    priority: int = 0
    as_of: Optional[float] = None
    audit_index: Optional[int] = None
    mode: str = "full"

    def __post_init__(self) -> None:
        if not self.target or not self.target.strip():
            raise ConfigurationError("target must be a non-empty handle")
        if self.audit_index is not None and self.audit_index < 1:
            raise ConfigurationError(
                f"audit_index must be >= 1: {self.audit_index!r}")
        if self.mode not in ("full", "delta"):
            raise ConfigurationError(
                f"mode must be 'full' or 'delta': {self.mode!r}")

    def bound_to(self, engine_name: str, **changes) -> "AuditRequest":
        """A copy bound to one engine (optionally updating fields)."""
        merged = dict(
            target=self.target, engine=engine_name,
            force_refresh=self.force_refresh, priority=self.priority,
            as_of=self.as_of, audit_index=self.audit_index,
            mode=self.mode)
        merged.update(changes)
        return AuditRequest(**merged)


@runtime_checkable
class Auditor(Protocol):
    """Structural contract every fake-follower engine satisfies.

    Engines expose a blocking :meth:`audit` (one call, one report) and
    a resumable :meth:`begin_audit` (a generator that yields between
    acquisition phases and *returns* the report), which is what the
    batch scheduler drives so many audits can interleave across
    simulated rate-limit windows.
    """

    #: Engine identifier used in reports and scheduler lanes.
    name: str
    #: Whether the engine reports "inactive" as a separate class.
    reports_inactive: bool

    def audit(self, request: "AuditRequest") -> AuditReport:
        """Audit one target and return the finished report."""
        ...  # pragma: no cover - protocol signature only

    def begin_audit(self, request: "AuditRequest"):
        """Start a resumable audit; a generator returning the report."""
        ...  # pragma: no cover - protocol signature only


def coerce_request(value: AuditRequest, *, engine_name: str) -> AuditRequest:
    """Validate an ``audit()`` argument and bind it to the engine.

    Only :class:`AuditRequest` is accepted (the legacy string form was
    removed); a request addressed to a *different* engine is rejected
    loudly rather than silently mislabelled.
    """
    if not isinstance(value, AuditRequest):
        raise ConfigurationError(
            f"audit() takes an AuditRequest (the string form was "
            f"removed; wrap the handle in AuditRequest(target=...)): "
            f"{value!r}")
    if value.engine is not None and value.engine != engine_name:
        raise ConfigurationError(
            f"request addressed to engine {value.engine!r} was handed "
            f"to {engine_name!r}")
    if value.engine is None:
        return value.bound_to(engine_name)
    return value


def drain_steps(steps) -> AuditReport:
    """Run a ``begin_audit`` generator to completion, returning its report.

    The blocking ``audit()`` entry point of every engine is exactly
    this: the same resumable step chain the scheduler interleaves, run
    back-to-back on the engine's own clock.
    """
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def build_engines(world, clock, detector=None, seed: int = 5, *,
                  faults=None, retry=None,
                  engines: Optional[Sequence[str]] = None,
                  acquisition_cache=None,
                  sb_daily_quota: Optional[int] = None,
                  sp_config=None,
                  provenance=None) -> Dict[str, "Auditor"]:
    """Build the paper's audit engines over one world and one clock.

    The single factory behind every experiment, the CLI and
    ``repro.quick_audit``.  ``engines`` selects a subset of
    :data:`ENGINE_NAMES` (default: all four); ``faults``/``retry`` make
    every engine's client crawl under the same injected API weather;
    ``acquisition_cache`` plugs a shared :class:`repro.sched`
    follower-page/profile cache into every client; ``sb_daily_quota``
    overrides Socialbakers' free-tier quota (experiment runners lift it
    to ``10**9`` because they do in one session what the authors spread
    over days); ``sp_config`` selects a StatusPeople sampling
    configuration; ``provenance`` hands one
    :class:`repro.obs.provenance.ProvenanceCollector` to every engine
    so fresh classifications record which rules fired (pure
    observation — verdict bytes never change).  Imports are deferred
    so ``repro.audit`` stays a leaf module the engines themselves can
    import.
    """
    from .analytics.socialbakers import SocialbakersFakeFollowerCheck
    from .analytics.statuspeople import StatusPeopleFakers
    from .analytics.twitteraudit import Twitteraudit
    from .fc.engine import FakeClassifierEngine

    names = tuple(engines) if engines is not None else ENGINE_NAMES
    unknown = set(names) - set(ENGINE_NAMES)
    if unknown:
        raise ConfigurationError(
            f"unknown engines: {sorted(unknown)!r}; "
            f"choose from {ENGINE_NAMES}")
    common = dict(faults=faults, retry=retry, seed=seed,
                  provenance=provenance)
    if acquisition_cache is not None:
        common["acquisition_cache"] = acquisition_cache
    sb_kwargs = dict(common)
    if sb_daily_quota is not None:
        sb_kwargs["daily_quota"] = sb_daily_quota
    sp_kwargs = dict(common)
    if sp_config is not None:
        sp_kwargs["config"] = sp_config
    factories = {
        "fc": lambda: FakeClassifierEngine(world, clock, detector, **common),
        "twitteraudit": lambda: Twitteraudit(world, clock, **common),
        "statuspeople": lambda: StatusPeopleFakers(world, clock, **sp_kwargs),
        "socialbakers": lambda: SocialbakersFakeFollowerCheck(
            world, clock, **sb_kwargs),
    }
    return {name: factories[name]() for name in names}
