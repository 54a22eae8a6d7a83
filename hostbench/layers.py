"""Outside-in per-layer host-time trace for the host benchmark.

The program is not instrumented for host time, so this module wraps a
fixed list of its public functions and methods (``BOUNDARIES``) for
the duration of one traced phase and restores them afterwards.  Each
wrapped call is a span: its *self time* is its duration minus the time
covered by the spans it called, and it is charged to the span's layer.
A call into a layer that is already the innermost open span is not
split into a new span; its time stays with the enclosing span of the
same layer, which keeps attribution the same and the wrapper cheap on
hot inner calls such as ``FollowerPopulation.size_at``.

Counts are taken at the same boundaries, on the outermost span of a
layer only, so nested same-layer calls are not counted twice.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from contextlib import contextmanager
from time import perf_counter

#: Layers in report order, and the self-time metric each feeds.
LAYER_METRICS = (
    ("twitter", "twitter.self_s"),
    ("api.client", "api.client.self_s"),
    ("api.crawler", "api.crawler.self_s"),
    ("analytics", "analytics.self_s"),
    ("fc.classify", "fc.classify_s"),
    ("fc.train", "fc.train_s"),
    ("sched", "sched.self_s"),
    ("growth", "growth.self_s"),
    ("obs", "obs.live_s"),
)

_WORLD_METHODS = ("timeline", "user_objects", "account_by_id",
                  "account_by_name", "follower_ids", "follower_count")
_CLASSIFY = ("classify_block", "classify_all")

#: ``(layer, module, class or None, names)``: the wrapped boundaries.
#: A ``None`` class means module-level functions, patched in every
#: loaded ``repro`` module that imported them by name.
BOUNDARIES = (
    ("twitter", "repro.twitter.population", "SyntheticWorld", _WORLD_METHODS),
    ("twitter", "repro.twitter.columnar.world", "ColumnarWorld",
     _WORLD_METHODS + ("user_row_block",)),
    ("twitter", "repro.twitter.population", "FollowerPopulation",
     ("size_at",)),
    ("twitter", "repro.twitter.population", "SyntheticWorld", ("add_target",)),
    ("twitter", "repro.twitter.generator", None, ("add_simple_target",)),
    ("api.client", "repro.api.client", "TwitterApiClient",
     ("users_show", "users_lookup", "users_lookup_block", "followers_ids",
      "user_timeline")),
    ("api.crawler", "repro.api.crawler", "Crawler",
     ("fetch_all_follower_ids", "fetch_newest_follower_ids",
      "fetch_head_until", "fetch_timelines", "lookup_users",
      "lookup_users_block")),
    ("analytics", "repro.analytics.statuspeople", "StatusPeopleCriteria",
     _CLASSIFY),
    ("analytics", "repro.analytics.twitteraudit", "TwitterauditCriteria",
     _CLASSIFY),
    ("analytics", "repro.fc.rulesets", "SocialbakersCriteria", _CLASSIFY),
    ("analytics", "repro.analytics.criteria", None, ("build_sample_block",)),
    ("fc.classify", "repro.fc.engine", "DetectorCriteria", ("classify_all",)),
    ("fc.train", "repro.fc.engine", None, ("default_detector",)),
    ("sched", "repro.sched.scheduler", "BatchAuditScheduler", ("run",)),
    ("growth", "repro.growth.monitor", "GrowthMonitor", ("poll_fleet",)),
    ("obs", "repro.obs.live.telemetry", "LiveTelemetry",
     ("tick", "observe_followers", "note", "on_request", "on_audit",
      "on_rules", "on_batch_run")),
    ("obs", "repro.obs.live.dashboard", "FleetDashboard",
     ("snapshot", "render")),
)


class LayerTrace:
    """Self time and counts per layer over one traced phase.

    Use as ``with trace.installed(): with trace.root(): ...``: the
    wrappers exist only inside ``installed()``, and ``root()`` is the
    span whose uncovered remainder becomes ``unattributed``.
    """

    def __init__(self) -> None:
        self.self_s = {layer: 0.0 for layer, __ in LAYER_METRICS}
        self.counts = {}
        self.unattributed_s = 0.0
        self.traced_s = 0.0
        #: Open spans, innermost last: ``[layer, child_seconds]``.
        self._stack = []
        self._patches = []
        self._wrappers = set()
        #: Last (retries, faults) read per API client, for deltas.
        self._client_seen = weakref.WeakKeyDictionary()

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the named counter."""
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def root(self):
        """The root span of the traced phase."""
        frame = ["root", 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield self
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.traced_s += elapsed
            self.unattributed_s += elapsed - frame[1]

    def _wrap(self, layer: str, original, after):
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if after is not None:
                    after(self, args, result)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._wrappers.add(wrapper)
        return wrapper

    # -- installation ---------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every boundary; restore the originals on exit."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        for layer, module_name, class_name, names in BOUNDARIES:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in names:
                    self._patch_function(layer, module, name)
                continue
            owner = getattr(module, class_name)
            for name in names:
                current = getattr(owner, name)
                if current in self._wrappers:
                    continue  # inherited from an already wrapped base
                wrapper = self._wrap(layer, current, _after(layer, name))
                self._patches.append((owner, name, owner.__dict__.get(name)))
                setattr(owner, name, wrapper)

    def _patch_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, _after(layer, name))
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if not loaded_name.startswith("repro"):
                continue
            if getattr(loaded, name, None) is original:
                self._patches.append((loaded, name, original))
                setattr(loaded, name, wrapper)

    def _uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)  # the method was inherited
            else:
                setattr(owner, name, original)
        self._patches.clear()
        self._wrappers.clear()

    # -- report ---------------------------------------------------------------

    def attributed_s(self) -> float:
        """Self time of every layer plus the root's uncovered time."""
        return sum(self.self_s.values()) + self.unattributed_s


# -- counts taken at the boundaries -------------------------------------------

def _result_length(name):
    def after(trace, args, result):
        if result is not None:
            trace.count(name, len(result))
    return after


def _one_profile(trace, args, result):
    if result is not None:
        trace.count("twitter.accounts")


def _request(trace, args, result):
    client = args[0]
    trace.count("api.requests")
    retries, faults = trace._client_seen.get(client, (0, 0))
    trace.count("api.retries", client.retries_total - retries)
    trace.count("api.faults", client.faults_seen - faults)
    trace._client_seen[client] = (client.retries_total, client.faults_seen)


def _sample_length(name):
    def after(trace, args, result):
        if result is not None:
            trace.count(name, len(args[1]))
    return after


def _batch(trace, args, result):
    if result is None:
        return
    trace.count("sched.audits", len(result.items))
    for item in result.items:
        if item.request.mode != "delta":
            continue
        trace.count("sched.delta_requests")
        report = item.report
        merged = report is not None and report.details.get("mode") == "delta"
        replayed = (report is not None
                    and report.assessed_at < item.request.as_of)
        if not (merged or replayed):
            trace.count("sched.delta_fallbacks")
    stats = result.cache_stats
    trace.count("api.acq_hits", stats.get("hits", 0))
    trace.count("api.acq_lookups", stats.get("hits", 0) + stats.get("misses", 0))


def _polls(trace, args, result):
    trace.count("growth.polls", len(args[1]))
    if result is not None:
        trace.count("growth.answered", len(result))


def _observation(trace, args, result):
    trace.count("obs.observations")


_AFTER = {
    "timeline": _result_length("twitter.tweets"),
    "user_objects": _result_length("twitter.accounts"),
    "account_by_id": _one_profile,
    "account_by_name": _one_profile,
    "user_row_block": _result_length("twitter.rows"),
    "users_show": _request,
    "users_lookup": _request,
    "users_lookup_block": _request,
    "followers_ids": _request,
    "user_timeline": _request,
    "classify_all": _sample_length("analytics.rows"),
    "classify_block": _sample_length("analytics.rows"),
    ("fc.classify", "classify_all"): _sample_length("fc.rows"),
    "run": _batch,
    "poll_fleet": _polls,
    "observe_followers": _observation,
    "note": _observation,
    "on_request": _observation,
    "on_audit": _observation,
    "on_rules": _observation,
    "on_batch_run": _observation,
}


def _after(layer: str, name: str):
    """The count hook of one boundary (layer-specific entries first)."""
    return _AFTER.get((layer, name), _AFTER.get(name))
