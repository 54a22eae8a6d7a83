"""Perf baseline store and regression detector.

``repro perf record`` runs the canonical scheduler workload (the
20-account testbed) under observability and writes ``BENCH_perf.json``
— makespan, per-engine phase totals, cache hit ratios, retry/backoff
waits, and the batch's critical path — as a canonical JSON document:
sorted keys, two-space indent, floats rounded to six decimals.  A
fixed seed therefore yields a byte-identical artifact, which is what
lets the file live in git as the repo's recorded perf trajectory.

``repro perf diff <baseline>`` re-runs the workload the baseline
recorded (or loads ``--current``) and compares the flattened documents
leaf by leaf under per-class tolerances.  Any breach makes the CLI
exit non-zero — the CI ``perf-gate`` job is just this command.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError
from .analysis import attribute_all, critical_path, phase_totals
from .metrics import Histogram

#: Format version of ``BENCH_perf.json``.  Bump on shape changes; the
#: differ treats a version mismatch as an automatic breach.  The
#: optional ``wallclock`` and ``delta`` sections are additive —
#: documents with and without them share the schema (see
#: :func:`diff_perf`'s skip rule).
PERF_SCHEMA = 1


def measure_wallclock(fn: Callable[[], object], repeats: int = 5) -> float:
    """Median of ``repeats`` monotonic timings of ``fn()``, in seconds.

    The **wallclock** measurement class: unlike every other number in a
    perf document these are real, machine-local timings — not
    byte-stable, not comparable across hosts, useful only as
    order-of-magnitude regression tripwires under a generous tolerance
    (:attr:`PerfTolerances.wallclock_pct`).  The median of an odd ``k``
    (the upper middle for even ``k``) shrugs off one slow outlier run.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1: {repeats!r}")
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return sorted(timings)[len(timings) // 2]


def _round(value: float) -> float:
    return round(float(value), 6)


def _family_sum(registry, name: str, **match: object) -> float:
    """Sum one family over series whose labels match ``match``.

    Histograms contribute their ``sum``, counters/gauges their value.
    """
    wanted = {key: str(value) for key, value in match.items()}
    total = 0.0
    for series_name, __, labels, instrument in registry.series():
        if series_name != name:
            continue
        label_map = dict(labels)
        if any(label_map.get(key) != value for key, value in wanted.items()):
            continue
        if isinstance(instrument, Histogram):
            total += instrument.sum
        else:
            total += instrument.value  # type: ignore[union-attr]
    return total


def collect_perf(obs, report, workload: Dict[str, object], *,
                 wallclock: Optional[Dict[str, object]] = None,
                 delta: Optional[Dict[str, object]] = None
                 ) -> Dict[str, object]:
    """Assemble the canonical perf document from one observed batch run.

    ``obs`` is the :class:`~repro.obs.runtime.Observability` the run
    executed under, ``report`` the scheduler's
    :class:`~repro.sched.report.BatchReport`, and ``workload`` the
    parameters that produced it (recorded verbatim so ``perf diff``
    can re-run the identical workload later).  ``wallclock`` — when
    provided — is stored as an additional ``wallclock`` section of
    real-time measurements; it is the only part of the document that
    is *not* byte-stable across machines (see
    :func:`measure_wallclock`), and the differ treats its keys as
    optional on either side.  ``delta`` — when provided — is the
    **delta** measurement class (see
    :func:`repro.experiments.perf.measure_delta`): the API-call and
    makespan bills of a watermarked fleet re-audit sweep against a
    full one.  Every number in it comes off the simulated clock, so
    the whole section is deterministic and gates at the counter
    tolerance; its keys are optional on either side like the other
    opt-in classes.
    """
    attributions = attribute_all(obs.tracer)
    totals = phase_totals(attributions)
    registry = obs.registry
    result_hits = _family_sum(registry, "cache_events_total", event="hit")
    result_misses = _family_sum(registry, "cache_events_total", event="miss")
    lookups = result_hits + result_misses
    path = critical_path(obs.tracer)
    doc: Dict[str, object] = {
        "schema": PERF_SCHEMA,
        "workload": dict(workload),
        "makespan_seconds": _round(report.makespan_seconds),
        "audits": len(report.items),
        "errors": len(report.failed),
        "coalesced_hits": report.coalesced_hits,
        "phase_totals_seconds": {
            tool: {phase: _round(seconds)
                   for phase, seconds in buckets.items()}
            for tool, buckets in totals.items()
        },
        "cache": {
            "lookups": int(lookups),
            "hits": int(result_hits),
            "hit_ratio": _round(result_hits / lookups) if lookups else 0.0,
            "acq_cache_hits": int(_family_sum(
                registry, "acq_cache_hits_total")),
        },
        "api": {
            "requests_total": int(_family_sum(
                registry, "api_requests_total")),
            "items_total": int(_family_sum(registry, "api_items_total")),
            "ratelimit_wait_seconds": _round(_family_sum(
                registry, "api_ratelimit_wait_seconds")),
        },
        "faults": {
            "injected_total": int(_family_sum(
                registry, "faults_injected_total")),
            "retries_total": int(_family_sum(registry, "api_retries_total")),
            "backoff_wait_seconds": _round(_family_sum(
                registry, "api_backoff_wait_seconds")),
        },
        "critical_path": {
            "lane": path["lane"],
            "slot": path["slot"],
            "busy_seconds": _round(path["busy_seconds"]),  # type: ignore[arg-type]
            "idle_seconds": _round(path["idle_seconds"]),  # type: ignore[arg-type]
        },
    }
    if wallclock is not None:
        doc["wallclock"] = dict(wallclock)
    if delta is not None:
        doc["delta"] = dict(delta)
    return doc


def render_perf_json(doc: Dict[str, object]) -> str:
    """The canonical byte-stable serialisation of a perf document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_perf_json(doc: Dict[str, object], path) -> "pathlib.Path":
    """Write the canonical serialisation to ``path`` and return it."""
    target = pathlib.Path(path)
    target.write_text(render_perf_json(doc), encoding="utf-8")
    return target


def load_perf_json(path) -> Dict[str, object]:
    """Load a perf document written by :func:`write_perf_json`."""
    source = pathlib.Path(path)
    try:
        doc = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        raise ConfigurationError(
            f"cannot load perf baseline {str(source)!r}: {error}")
    if not isinstance(doc, dict):
        raise ConfigurationError(
            f"perf baseline {str(source)!r} is not a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerfTolerances:
    """Per-class tolerances of the regression gate.

    Timing classes are relative (percent of the baseline value); hit
    ratios compare absolutely.  A baseline value of zero tolerates
    only zero (any appearance of a new cost is a breach).  The
    ``wallclock`` class is deliberately loose: real timings swing with
    machine load, so only order-of-magnitude regressions should trip
    the gate.
    """

    makespan_pct: float = 5.0
    phase_pct: float = 10.0
    counter_pct: float = 10.0
    ratio_abs: float = 0.05
    wallclock_pct: float = 200.0


@dataclass(frozen=True)
class PerfBreach:
    """One tolerance violation found by :func:`diff_perf`."""

    key: str
    baseline: object
    current: object
    reason: str

    def render(self) -> str:
        """One diff line, ``BREACH <key>: <base> -> <cur> (<why>)``."""
        return (f"BREACH {self.key}: {self.baseline!r} -> "
                f"{self.current!r} ({self.reason})")


def _flatten(doc: Dict[str, object], prefix: str = ""
             ) -> Dict[str, object]:
    flat: Dict[str, object] = {}
    for key in sorted(doc):
        dotted = f"{prefix}{key}"
        value = doc[key]
        if isinstance(value, dict):
            flat.update(_flatten(value, dotted + "."))
        else:
            flat[dotted] = value
    return flat


def _tolerance_for(key: str, tolerances: PerfTolerances
                   ) -> Tuple[str, float]:
    """The tolerance class of one flattened key: (kind, limit)."""
    if key.startswith("wallclock."):
        return "pct", tolerances.wallclock_pct
    if key.startswith("delta."):
        # Entirely simulated-clock numbers (even the makespans), so
        # the whole class is deterministic and gates like a counter.
        return "pct", tolerances.counter_pct
    if key.endswith("_ratio"):
        return "abs", tolerances.ratio_abs
    if key == "makespan_seconds":
        return "pct", tolerances.makespan_pct
    if key.startswith("phase_totals_seconds."):
        return "pct", tolerances.phase_pct
    return "pct", tolerances.counter_pct


def diff_perf(baseline: Dict[str, object], current: Dict[str, object],
              tolerances: Optional[PerfTolerances] = None
              ) -> Tuple[List[PerfBreach], int]:
    """Compare two perf documents; return (breaches, leaves compared).

    The ``workload`` and ``schema`` sections must match exactly — a
    diff between different workloads is meaningless, so a mismatch is
    itself a breach.  Every other numeric leaf is compared under its
    tolerance class; non-numeric leaves (critical-path lane names)
    must be equal.  Missing or extra leaves always breach — except
    ``wallclock.*`` and ``delta.*`` leaves, which are opt-in
    measurement classes: a baseline recorded with ``--wallclock`` or
    ``--delta`` must still gate a current document recorded without
    them (and vice versa), so a leaf of either class present on only
    one side is skipped, not breached.
    """
    if tolerances is None:
        tolerances = PerfTolerances()
    base_flat = _flatten(baseline)
    cur_flat = _flatten(current)
    breaches: List[PerfBreach] = []
    compared = 0
    for key in sorted(set(base_flat) | set(cur_flat)):
        optional = key.startswith(("wallclock.", "delta."))
        if key not in cur_flat:
            if optional:
                continue
            breaches.append(PerfBreach(key, base_flat[key], None,
                                       "missing from current"))
            continue
        if key not in base_flat:
            if optional:
                continue
            breaches.append(PerfBreach(key, None, cur_flat[key],
                                       "not in baseline"))
            continue
        base, cur = base_flat[key], cur_flat[key]
        compared += 1
        if key == "schema" or key.startswith("workload."):
            if base != cur:
                breaches.append(PerfBreach(key, base, cur,
                                           "workload/schema mismatch"))
            continue
        if not isinstance(base, (int, float)) \
                or not isinstance(cur, (int, float)) \
                or isinstance(base, bool) or isinstance(cur, bool):
            if base != cur:
                breaches.append(PerfBreach(key, base, cur, "value changed"))
            continue
        kind, limit = _tolerance_for(key, tolerances)
        if kind == "abs":
            if abs(cur - base) > limit:
                breaches.append(PerfBreach(
                    key, base, cur,
                    f"|delta| {abs(cur - base):.4f} > {limit:.4f}"))
            continue
        if base == 0:
            if cur != 0:
                breaches.append(PerfBreach(
                    key, base, cur, "baseline is zero; any change breaches"))
            continue
        delta_pct = 100.0 * (cur - base) / abs(base)
        if abs(delta_pct) > limit:
            breaches.append(PerfBreach(
                key, base, cur,
                f"{delta_pct:+.1f}% outside +/-{limit:g}%"))
    return breaches, compared


def render_perf_diff(breaches: Sequence[PerfBreach], compared: int,
                     baseline_name: str) -> str:
    """Render a diff outcome the way the CLI prints it."""
    head = (f"perf diff vs {baseline_name}: {compared} leaves compared, "
            f"{len(breaches)} breach(es)")
    if not breaches:
        return head + "\nall within tolerance"
    return "\n".join([head] + ["  " + breach.render()
                               for breach in breaches])
