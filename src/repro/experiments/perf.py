"""The canonical perf workload behind ``repro perf record`` / ``diff``.

One fixed, fully-parameterised batch run over the paper's testbed: all
twenty accounts fanned out to the four engines through the
:class:`~repro.sched.BatchAuditScheduler`, executed under a private
observability context, and condensed into the canonical
``BENCH_perf.json`` document by :func:`repro.obs.perf.collect_perf`.

The workload parameters are recorded *inside* the artifact, so a later
``repro perf diff`` re-runs exactly the workload its baseline measured
— different parameters can never masquerade as a regression (or hide
one).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..audit import AuditRequest
from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..obs.perf import collect_perf
from ..obs.runtime import Observability, observed
from ..sched import BatchAuditScheduler
from .testbed import PAPER_ACCOUNTS, PAPER_ACCOUNTS_BY_HANDLE, build_paper_world

#: Follower ceiling of the default perf workload.  Small enough for a
#: CI gate measured in seconds, large enough that every engine pages,
#: samples and classifies real work.
PERF_MAX_FOLLOWERS = 20_000

#: Shape of the opt-in delta measurement (``--delta``): a small fleet
#: re-audited shortly after its watermarked baseline, with purchases
#: on a sparse subset.  The re-audit gap is deliberately tiny so a
#: full audit samples the same frame the merge reproduces — which is
#: what makes ``verdicts_matching`` a meaningful equality check rather
#: than an age-drift lottery.
DELTA_ACCOUNTS = 12
DELTA_FOLLOWERS = 2_000
DELTA_PURCHASED = 3
DELTA_PURCHASE_QUANTITY = 300
DELTA_PURCHASE_AT_DAYS = 0.05
DELTA_REAUDIT_AT_DAYS = 0.1


def default_workload(*, seed: int = 42,
                     targets: Optional[Sequence[str]] = None,
                     lane_slots: int = 2,
                     max_followers: int = PERF_MAX_FOLLOWERS
                     ) -> Dict[str, object]:
    """The workload descriptor recorded into ``BENCH_perf.json``."""
    if targets is None:
        targets = [account.handle for account in PAPER_ACCOUNTS]
    by_handle = {handle.lower(): account
                 for handle, account in PAPER_ACCOUNTS_BY_HANDLE.items()}
    unknown = [t for t in targets if t.lower() not in by_handle]
    if unknown:
        raise ConfigurationError(
            f"unknown testbed handles: {sorted(unknown)!r}")
    return {
        "seed": int(seed),
        "targets": list(targets),
        "lane_slots": int(lane_slots),
        "max_followers": int(max_followers),
    }


def measure_delta(*, seed: int = 0,
                  accounts: int = DELTA_ACCOUNTS,
                  followers: int = DELTA_FOLLOWERS,
                  purchased: int = DELTA_PURCHASED,
                  quantity: int = DELTA_PURCHASE_QUANTITY
                  ) -> Dict[str, object]:
    """The **delta** measurement class: watermarked re-audit economics.

    Builds a lazy fleet, takes a watermarked full-audit baseline of
    every account, injects purchases on a sparse subset, then re-audits
    the whole fleet twice at the same later instant: once with
    ``mode="delta"`` against the shared watermark store and once with
    full audits.  Records both sweeps' API-call counts and (simulated)
    makespans, the delta outcome tallies from the ``delta_*`` counters,
    and how many accounts' merged verdicts equal the full audit's.
    Every number derives from the simulated clock and fixed seeds, so
    the section is byte-stable and gates at the counter tolerance.
    """
    from ..core.timeutil import DAY
    from ..obs.perf import _family_sum
    from ..sched import WatermarkStore
    from ..twitter import add_simple_target, build_world, fake_purchase_burst
    if accounts < 1 or purchased < 0 or purchased > accounts:
        raise ConfigurationError(
            f"need 0 <= purchased <= accounts >= 1: "
            f"{purchased!r}, {accounts!r}")

    world = build_world(seed=seed)
    handles = [f"delta_{index}" for index in range(accounts)]
    stride = max(1, accounts // max(1, purchased))
    buyers = set(handles[1::stride][:purchased])
    for index, handle in enumerate(handles):
        bursts = (fake_purchase_burst(DELTA_PURCHASE_AT_DAYS, quantity),) \
            if handle in buyers else ()
        add_simple_target(world, handle, followers + 87 * (index % 5),
                          0.30, 0.12, 0.58, post_ref_bursts=bursts)
    t0 = world.ref_time
    t1 = t0 + DELTA_REAUDIT_AT_DAYS * DAY
    store = WatermarkStore()

    def sweep(when: float, mode: str, watermarks):
        with observed() as obs:
            scheduler = BatchAuditScheduler(
                world, SimClock(when), engines=("fc",), seed=seed,
                shared_cache=False, watermarks=watermarks)
            scheduler.submit_batch([
                AuditRequest(target=handle, as_of=when, mode=mode)
                for handle in handles])
            batch = scheduler.run()
        return obs, batch

    sweep(t0, "delta", store)  # cold start: full audits leave watermarks
    obs_delta, batch_delta = sweep(t1, "delta", store)
    obs_full, batch_full = sweep(t1, "full", None)

    def outcome(obs, name, **labels):
        return int(_family_sum(obs.registry, name, **labels))

    delta_calls = outcome(obs_delta, "api_requests_total")
    full_calls = outcome(obs_full, "api_requests_total")
    full_by_target = {item.request.target: item.report
                      for item in batch_full.items}
    matching = 0
    for item in batch_delta.items:
        other = full_by_target.get(item.request.target)
        if item.report is not None and other is not None \
                and item.report.fake_pct == other.fake_pct \
                and item.report.inactive_pct == other.inactive_pct \
                and item.report.sample_size == other.sample_size:
            matching += 1
    delta_makespan = round(batch_delta.makespan_seconds, 6)
    full_makespan = round(batch_full.makespan_seconds, 6)
    return {
        "accounts": int(accounts),
        "followers": int(followers),
        "purchased": int(purchased),
        "purchase_quantity": int(quantity),
        "reaudit_gap_days": DELTA_REAUDIT_AT_DAYS,
        "delta_api_calls": delta_calls,
        "full_api_calls": full_calls,
        "call_reduction": round(full_calls / delta_calls, 6)
        if delta_calls else 0.0,
        "delta_makespan_seconds": delta_makespan,
        "full_makespan_seconds": full_makespan,
        "makespan_speedup": round(full_makespan / delta_makespan, 6)
        if delta_makespan else 0.0,
        "unchanged": outcome(obs_delta, "delta_audits_total",
                             outcome="unchanged"),
        "merged": outcome(obs_delta, "delta_audits_total",
                          outcome="merged"),
        "fallbacks": outcome(obs_delta, "delta_fallbacks_total"),
        "head_pages": outcome(obs_delta, "delta_head_pages_total"),
        "new_followers_classified": outcome(
            obs_delta, "delta_new_followers_total"),
        "verdicts_matching": matching,
    }


def run_perf_workload(workload: Dict[str, object], *,
                      delta: bool = False
                      ) -> Tuple[Dict[str, object], Observability, object]:
    """Execute one workload and return ``(perf_doc, obs, batch_report)``.

    Runs under its own :class:`~repro.obs.runtime.Observability`
    (nesting restores whatever context the caller had), so a recording
    never mixes spans with an outer ``--trace-out`` run.  With
    ``delta=True`` the document gains the opt-in watermarked re-audit
    section from :func:`measure_delta`; everything else in the document
    is unaffected.
    """
    seed = int(workload["seed"])  # type: ignore[arg-type]
    targets = list(workload["targets"])  # type: ignore[call-overload]
    lane_slots = int(workload["lane_slots"])  # type: ignore[arg-type]
    max_followers = int(workload["max_followers"])  # type: ignore[arg-type]
    by_handle = {handle.lower(): account
                 for handle, account in PAPER_ACCOUNTS_BY_HANDLE.items()}
    accounts = [by_handle[target.lower()] for target in targets]
    tiers = tuple(sorted({account.tier for account in accounts}))
    with observed() as obs:
        world = build_paper_world(seed, SimClock().now(), tiers=tiers,
                                  max_followers=max_followers)
        clock = SimClock(world.ref_time)
        scheduler = BatchAuditScheduler(world, clock, seed=seed,
                                        lane_slots=lane_slots)
        scheduler.submit_batch(
            [AuditRequest(target=account.handle) for account in accounts])
        batch = scheduler.run()
    reaudit = measure_delta(seed=seed) if delta else None
    doc = collect_perf(obs, batch, workload, delta=reaudit)
    return doc, obs, batch
