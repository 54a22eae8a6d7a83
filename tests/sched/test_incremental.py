"""Watermarked delta re-audits: edge cases and exactness.

The :class:`~repro.sched.incremental.DeltaAuditor` contract under test:

* cold start, TTL expiry, shrinking counts, a lost anchor, an
  oversized delta and a head walk whose arrivals disagree with the
  counter all degrade to a full audit (and leave a fresh watermark
  behind);
* an unchanged account is answered from the watermark in O(anchor
  depth) API calls with the baseline report *verbatim*;
* a merge over a census frame reproduces a fresh full audit's report
  exactly, and only complete merges may advance the watermark;
* the scheduler routes ``mode="delta"`` requests through the wrapper,
  keeps the watermark store across ``run()`` boundaries, and treats
  the mode as part of the coalescing key.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analytics import DEEP_DIVE_CONFIG
from repro.api.crawler import AnchoredHeadWalk
from repro.audit import AuditRequest, build_engines
from repro.core import DAY, PAPER_EPOCH, YEAR, SimClock
from repro.faults.plan import FaultPlan, InjectorSpec
from repro.obs.provenance import ProvenanceCollector
from repro.sched import (
    BatchAuditScheduler,
    DEFAULT_DELTA_TTL,
    DeltaAuditor,
    WatermarkStore,
)
from repro.twitter import (
    Account,
    Label,
    PostRefBurst,
    SocialGraph,
    add_simple_target,
    build_world,
    fake_purchase_burst,
    populate_graph,
)

T0 = PAPER_EPOCH
HANDLE = "deltacase"


def make_world(seed=23, followers=300, daily=0.0, bursts=()):
    world = build_world(seed=seed, ref_time=T0)
    add_simple_target(world, HANDLE, followers, 0.3, 0.2, 0.5,
                      daily_new_followers=daily, post_ref_bursts=bursts)
    return world


def make_auditor(world, store=None, *, faults=None, sp_config=None,
                 provenance=None, **kwargs):
    engine = build_engines(world, SimClock(T0), seed=5,
                           engines=("statuspeople",),
                           faults=faults, sp_config=sp_config,
                           provenance=provenance)["statuspeople"]
    return DeltaAuditor(engine, store if store is not None
                        else WatermarkStore(), **kwargs)


def delta_request(as_of=T0, **kwargs):
    return AuditRequest(target=HANDLE, as_of=as_of, mode="delta", **kwargs)


def test_cold_start_runs_full_audit_and_leaves_watermark():
    auditor = make_auditor(make_world())
    report = auditor.audit(delta_request())
    assert auditor.fallbacks == {"cold_start": 1}
    assert "mode" not in report.details
    assert len(auditor.store) == 1
    watermark = auditor.store.get("statuspeople", HANDLE)
    assert watermark.followers_count == report.followers_count
    assert watermark.anchor_ids
    assert watermark.as_of == T0
    assert watermark.report == report
    assert sum(watermark.verdict_counts.values()) == report.sample_size


def test_unchanged_account_replays_baseline_in_o_anchor_calls():
    auditor = make_auditor(make_world())
    baseline = auditor.audit(delta_request())
    log = auditor.engine.client.call_log
    before = log.count()
    ids_before = log.count("followers/ids")
    replay = auditor.audit(delta_request(as_of=T0 + DAY))
    # One users/show for the counter (charged to users/lookup), one
    # followers/ids head page — O(anchor depth), independent of the
    # 300-strong base.
    assert log.count() - before == 2
    assert log.count("followers/ids") - ids_before == 1
    assert replay is baseline
    assert auditor.served_unchanged == 1
    assert auditor.fallbacks == {"cold_start": 1}


def test_merge_over_census_frame_matches_fresh_full_audit():
    t1 = T0 + 0.1 * DAY
    make = lambda: make_world(daily=40.0,
                              bursts=(fake_purchase_burst(0.05, 120),))
    auditor = make_auditor(make())
    auditor.audit(delta_request())
    merged = auditor.audit(delta_request(as_of=t1))
    assert merged.details["mode"] == "delta"
    assert merged.details["new_followers"] > 100
    assert auditor.merged == 1

    fresh = build_engines(make(), SimClock(T0), seed=5,
                          engines=("statuspeople",))["statuspeople"]
    full = fresh.audit(AuditRequest(target=HANDLE, as_of=t1))
    assert merged.followers_count == full.followers_count
    assert merged.sample_size == full.sample_size
    assert merged.fake_pct == full.fake_pct
    assert merged.inactive_pct == full.inactive_pct
    assert merged.genuine_pct == full.genuine_pct

    watermark = auditor.store.get("statuspeople", HANDLE)
    assert watermark.followers_count == merged.followers_count
    assert watermark.updated_at == t1
    assert watermark.as_of == T0  # merges never refresh the TTL clock
    assert watermark.report == merged


def test_ttl_expiry_forces_full_refresh():
    auditor = make_auditor(make_world())
    auditor.audit(delta_request())
    stale = T0 + DEFAULT_DELTA_TTL + DAY
    auditor.audit(delta_request(as_of=stale))
    assert auditor.fallbacks == {"cold_start": 1, "ttl_expired": 1}
    assert auditor.store.get("statuspeople", HANDLE).as_of == stale


def test_shrinking_count_invalidates_watermark():
    auditor = make_auditor(make_world())
    auditor.audit(delta_request())
    store = auditor.store
    watermark = store.get("statuspeople", HANDLE)
    store.put(replace(watermark,
                      followers_count=watermark.followers_count + 50))
    auditor.audit(delta_request(as_of=T0 + DAY))
    assert auditor.fallbacks == {"cold_start": 1, "count_shrunk": 1}


def test_churned_anchor_falls_back_and_recaptures():
    auditor = make_auditor(make_world())
    auditor.audit(delta_request())
    store = auditor.store
    watermark = store.get("statuspeople", HANDLE)
    store.put(replace(watermark, anchor_ids=(999_999_001, 999_999_002)))
    report = auditor.audit(delta_request(as_of=T0 + DAY))
    assert auditor.fallbacks == {"cold_start": 1, "anchor_lost": 1}
    assert "mode" not in report.details
    recaptured = store.get("statuspeople", HANDLE)
    assert recaptured.anchor_ids != (999_999_001, 999_999_002)
    assert recaptured.as_of == T0 + DAY


def test_oversized_delta_prefers_full_audit():
    auditor = make_auditor(make_world(daily=40.0), max_delta=10)
    auditor.audit(delta_request())
    auditor.audit(delta_request(as_of=T0 + DAY))  # ~40 new > max_delta
    assert auditor.fallbacks == {"cold_start": 1, "delta_too_large": 1}


def test_delta_cap_is_the_engine_own_sample_size():
    """A Deep Dive StatusPeople samples 33,000 records per audit, so a
    day of ~1,500 arrivals merges instead of falling back at the
    post-API-change default of 700."""
    auditor = make_auditor(make_world(daily=1500.0),
                           sp_config=DEEP_DIVE_CONFIG)
    auditor.audit(delta_request())
    merged = auditor.audit(delta_request(as_of=T0 + DAY))
    assert auditor.fallbacks == {"cold_start": 1}
    assert auditor.merged == 1
    assert merged.details["new_followers"] > 700


def test_delta_census_records_no_provenance():
    """Only full audits record provenance, under their target."""
    collector = ProvenanceCollector()
    auditor = make_auditor(make_world(daily=40.0), provenance=collector)
    auditor.audit(delta_request())
    assert len(collector) == 1
    merged = auditor.audit(delta_request(as_of=T0 + DAY))
    assert merged.details["mode"] == "delta"
    assert auditor.merged == 1
    assert [record.target for record in collector.records] == [HANDLE]


def test_net_growth_hiding_a_counted_departure_falls_back():
    """Arrivals outnumber the counter's growth: a counted follower left.

    The account grows by two on net, but one of the baseline's counted
    followers unfollowed while three new ones arrived.  Merging the
    three arrivals into the baseline counts would keep the departed
    follower's verdict (and count 303 followers of a 302-follower
    account), so the head walk's arrival count must match the counter.
    """
    graph = SocialGraph(seed=3)
    target = Account(user_id=1000, screen_name=HANDLE,
                     created_at=T0 - 4 * YEAR, statuses_count=100,
                     last_tweet_at=T0 - DAY)
    baseline_ids = populate_graph(
        graph, target, [Label.GENUINE] * 200 + [Label.FAKE] * 100,
        seed=4, ref_time=T0)
    auditor = make_auditor(graph)
    auditor.audit(delta_request())
    graph.unfollow(baseline_ids[0], target.user_id)
    populate_graph(graph, target, [Label.FAKE] * 3, seed=5,
                   ref_time=T0 + DAY, follow_window_years=0.5 / 365)

    report = auditor.audit(delta_request(as_of=T0 + 2 * DAY))
    assert auditor.fallbacks == {"cold_start": 1, "count_mismatch": 1}
    assert auditor.merged == 0
    assert "mode" not in report.details
    assert report.followers_count == report.sample_size == 302
    watermark = auditor.store.get("statuspeople", HANDLE)
    assert sum(watermark.verdict_counts.values()) == 302
    assert watermark.as_of == T0 + 2 * DAY


def test_eroding_purchase_falls_back_instead_of_merging():
    """Departures of a bought block reach into the counted base.

    A 120-fake block lands at T0 + 0.05 d and loses 10% a day from
    T0 + 1.05 d.  Against a trickle of 40/day the first day's 12
    departures hide behind net growth (count mismatch); against a
    trickle of 5/day the counter shrinks.  Either way the baseline
    counts still hold the departed fakes, so no merge may happen.
    """
    block = PostRefBurst(0.05, 120, {"fake_classic": 1.0},
                         daily_attrition=0.1)
    for daily, reason in ((40.0, "count_mismatch"), (5.0, "count_shrunk")):
        world = make_world(daily=daily, bursts=(block,))
        auditor = make_auditor(world)
        auditor.audit(delta_request(as_of=T0 + 0.1 * DAY))
        report = auditor.audit(delta_request(as_of=T0 + 1.1 * DAY))
        assert auditor.fallbacks == {"cold_start": 1, reason: 1}, daily
        assert auditor.merged == 0
        assert "mode" not in report.details
        assert report.followers_count == \
            world.population(HANDLE).size_at(T0 + 1.1 * DAY)


def test_degraded_head_walk_is_never_trusted(monkeypatch):
    auditor = make_auditor(make_world(daily=40.0))
    auditor.audit(delta_request())
    monkeypatch.setattr(
        auditor._crawler, "fetch_head_until",
        lambda *args, **kwargs: AnchoredHeadWalk(
            new_ids=[1, 2], anchor_index=None, pages=1, degraded=True))
    auditor.audit(delta_request(as_of=T0 + DAY))
    assert auditor.fallbacks == {"cold_start": 1, "head_walk_fault": 1}


def test_partial_delta_returns_degraded_report_without_watermarking(
        monkeypatch):
    auditor = make_auditor(make_world(daily=40.0))
    auditor.audit(delta_request())
    before = auditor.store.get("statuspeople", HANDLE)
    lookup = auditor._crawler.lookup_users_block
    monkeypatch.setattr(
        auditor._crawler, "lookup_users_block",
        lambda ids: lookup(ids)[:-1])  # one profile lost to a fault
    report = auditor.audit(delta_request(as_of=T0 + DAY))
    assert report.details["mode"] == "delta"
    assert report.completeness < 1.0
    # A fault-truncated delta must never advance the watermark.
    assert auditor.store.get("statuspeople", HANDLE) is before


def test_faulted_counter_read_degrades_to_full_audit():
    plan = FaultPlan(injectors=(InjectorSpec(
        kind="transient_503", probability=1.0,
        resources=("users/lookup",)),), seed=3)
    store = WatermarkStore()
    healthy = make_auditor(make_world(), store)
    healthy.audit(delta_request())
    before = store.get("statuspeople", HANDLE)
    faulted = make_auditor(make_world(), store, faults=plan)
    # Every counter read 503s: the delta path degrades to a full audit,
    # which then meets the same weather and comes back incomplete.
    # What matters is that the watermark survives untouched for the
    # next healthy pass.
    report = faulted.audit(delta_request(as_of=T0 + DAY))
    assert faulted.fallbacks == {"head_walk_fault": 1}
    assert report.completeness < 1.0
    assert store.get("statuspeople", HANDLE) is before
    replay = healthy.audit(delta_request(as_of=T0 + 2 * DAY))
    assert replay is before.report


def test_full_mode_passes_through_but_still_watermarks():
    auditor = make_auditor(make_world())
    report = auditor.audit(AuditRequest(target=HANDLE, as_of=T0))
    assert auditor.fallbacks == {}
    assert auditor.merged == 0
    assert "mode" not in report.details
    assert len(auditor.store) == 1  # the next delta has a baseline


def test_scheduler_routes_delta_and_keeps_watermarks_across_runs():
    world = make_world()
    scheduler = BatchAuditScheduler(world, SimClock(T0),
                                    engines=("statuspeople",), seed=5,
                                    shared_cache=False)
    scheduler.submit(delta_request())
    first = scheduler.run().items[0].report
    assert len(scheduler.watermarks) == 1
    scheduler.submit(delta_request(as_of=T0 + DAY))
    second = scheduler.run().items[0].report
    assert second is first  # served from the surviving watermark


def test_mode_is_part_of_the_coalescing_key():
    world = make_world()
    scheduler = BatchAuditScheduler(world, SimClock(T0),
                                    engines=("statuspeople",), seed=5,
                                    shared_cache=False)
    scheduler.submit(AuditRequest(target=HANDLE, as_of=T0))
    scheduler.submit(delta_request())
    scheduler.submit(delta_request())  # coalesces with the delta one
    batch = scheduler.run()
    assert len(batch.items) == 2
    assert batch.coalesced_hits == 1
    assert sorted(item.request.mode for item in batch.items) == \
        ["delta", "full"]
