"""Differential property suite: row rendering vs object rendering.

The lazy world renders its followers two ways: as a list of user
objects (:meth:`~repro.twitter.SyntheticWorld.user_objects`, the test
oracle) or as one structured-row block
(:meth:`~repro.twitter.SyntheticWorld.user_row_block`, the form every
``users/lookup`` answers).  The contract is that the two are
*indistinguishable* to every consumer:
the rows hold every generated account field exactly, and complete
:class:`~repro.audit.AuditReport` outputs of all four engines — serial
and batch — match exactly (dataclass equality over every field,
including response times and assessed-at instants) whichever form the
engines were handed.  Each engine's verdicts on both forms must also
equal the per-account oracle (``tests/analytics/criteria_oracle.py``).

The object side runs on ``object_lookups(world)`` (see
``tests/conftest.py``), a view of the same world whose ``users/lookup``
packs its rows from ``user_objects`` through
``UserRowBlock.from_users``.

The matrix covers >= 5 seeds x the four target archetypes the paper's
experiments are built from:

* ``organic``   — homogeneous base, no recency gradient;
* ``tilted``    — strong recency gradient (old followers inactive);
* ``purchased`` — a bought fake block spliced into the arrival order;
* ``growing``   — daily post-reference arrivals (snapshot ordering).

Populations are deliberately small: audits dominate runtime.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.api.crawler import TIMELINE_PAGE
from repro.audit import AuditRequest, ENGINE_NAMES, build_engines
from repro.core import PAPER_EPOCH, SimClock
from repro.obs.provenance import ProvenanceCollector, ProvenanceSink, \
    unpack_mask
from repro.sched import BatchAuditScheduler
from repro.twitter import LABELS, Label, add_simple_target, build_world, \
    follower_id
from repro.twitter.streams import composition_rng

from ..analytics import criteria_oracle
from ..conftest import object_lookups

SEEDS = (3, 11, 29, 42, 77)

#: The four target archetypes ("personas" of an audited account).
ARCHETYPES = {
    "organic": dict(tilt=0.0, pieces=1),
    "tilted": dict(tilt=0.7, pieces=4),
    "purchased": dict(fake_burst_fraction=0.5, fake_burst_position=0.95),
    "growing": dict(tilt=0.5, daily_new_followers=30.0),
}

FOLLOWERS = 80

PAIR_PARAMS = [(seed, name) for seed in SEEDS for name in ARCHETYPES]

#: Behaviour-profile columns of a row, by ``BehaviorProfile`` field.
BEHAVIOR_FIELDS = ("tweets_per_day", "retweet_ratio", "link_ratio",
                   "spam_ratio", "mention_ratio", "hashtag_ratio",
                   "duplicate_pool", "api_source_ratio")
PROFILE_FIELDS = ("user_id", "screen_name", "created_at", "name",
                  "description", "location", "url",
                  "default_profile_image", "verified", "followers_count",
                  "friends_count", "statuses_count")


@pytest.fixture(scope="module")
def detector():
    """Train the FC detector once; it is world-independent and the
    matrix would otherwise retrain it for every cell."""
    from repro.fc.engine import default_detector

    return default_detector(seed=5)


@pytest.fixture(scope="module", params=PAIR_PARAMS,
                ids=[f"seed{s}-{a}" for s, a in PAIR_PARAMS])
def world_pair(request):
    """(world, its object-lookup view, target handle) for one cell."""
    seed, archetype = request.param
    world = build_world(seed=seed, ref_time=PAPER_EPOCH)
    add_simple_target(world, "target", FOLLOWERS, 0.3, 0.2, 0.5,
                      **ARCHETYPES[archetype])
    return world, object_lookups(world), "target"


def _assert_row_holds(row, account):
    """Every field of ``account`` is stored exactly in ``row``."""
    for name in PROFILE_FIELDS:
        assert row[name].item() == getattr(account, name), name
    last = row["last_tweet_at"].item()
    if account.last_tweet_at is None:
        assert math.isnan(last)
    else:
        assert last == account.last_tweet_at
    for name in BEHAVIOR_FIELDS:
        assert row[name].item() == getattr(account.behavior, name), name
    assert LABELS[row["label"].item()] == account.true_label


def test_generated_accounts_bit_identical(world_pair):
    """Row blocks hold the generated accounts exactly, and project onto
    the same user objects as the object path."""
    world, __, handle = world_pair
    population = world.population(handle)
    later = PAPER_EPOCH + 3 * 86_400.0
    for now in (PAPER_EPOCH, later):
        size = population.size_at(now)
        ids = [population.follower_id_at(p) for p in range(size)]
        block = world.user_row_block(ids, now)
        assert len(block) == size
        for position, row in enumerate(block.rows):
            _assert_row_holds(row, population.account_at(position, now))
        assert list(block) == world.user_objects(ids, now)


def test_follower_page_cursoring_bit_identical(world_pair):
    """Cursoring ``followers/ids`` yields every id once, newest first."""
    from repro.api import TwitterApiClient

    world, __, handle = world_pair
    size = world.population(handle).size_at(PAPER_EPOCH)
    newest_first = [follower_id(0, position)
                    for position in reversed(range(size))]
    for count in (None, 30):
        client = TwitterApiClient(world, SimClock(PAPER_EPOCH))
        cursor = -1
        pages = []
        while True:
            page = client.followers_ids(
                screen_name=handle, cursor=cursor, count=count)
            pages.append(page)
            if page.next_cursor == 0:
                break
            cursor = page.next_cursor
        assert len(pages) == (1 if count is None else 3)
        assert [uid for page in pages for uid in page.ids] == newest_first


def test_ground_truth_composition_identical(world_pair):
    """``composition`` equals the label column of the same followers."""
    world, __, handle = world_pair
    population = world.population(handle)
    now = PAPER_EPOCH
    size = population.size_at(now)

    def tally(positions):
        block = world.user_row_block(
            [population.follower_id_at(p) for p in positions], now)
        labels = [LABELS[code] for code in block.rows["label"].tolist()]
        return {label: labels.count(label) / len(labels) for label in Label}

    assert population.composition(now) == tally(range(size))
    sampled = composition_rng(world.seed, 9).sample(range(size), 48)
    assert population.composition(now, sample=48, seed=9) == tally(sampled)


def test_serial_audit_reports_bit_identical(world_pair, detector):
    world, objects, handle = world_pair
    row_engines = build_engines(
        world, SimClock(PAPER_EPOCH), detector=detector, seed=5)
    object_engines = build_engines(
        objects, SimClock(PAPER_EPOCH), detector=detector, seed=5)
    assert set(row_engines) == set(ENGINE_NAMES)
    for name in ENGINE_NAMES:
        expected = object_engines[name].audit(AuditRequest(target=handle))
        actual = row_engines[name].audit(AuditRequest(target=handle))
        assert actual == expected, name


def test_batch_audit_digest_bit_identical(world_pair, detector):
    """Interleaved batch lanes without the shared acquisition cache
    classify the world's rows and its view's rows packed from user
    objects; the digests must agree."""
    world, objects, handle = world_pair
    row_report = _run_batch(world, handle, detector, shared_cache=False)
    object_report = _run_batch(objects, handle, detector,
                               shared_cache=False)
    assert row_report.digest() == object_report.digest()
    assert row_report.to_json() == object_report.to_json()


def test_engine_batch_knob_reports_bit_identical(world_pair, detector):
    """Every engine's verdict path equals the per-account oracle.

    The engines classify through one columnar path; on *either* input
    — the object path's user objects or the world's structured row
    block — each engine's verdicts over the whole follower list, its
    chart extras and its provenance masks must equal the oracle's
    one-account-at-a-time reading of the same rules.
    """
    world, __, handle = world_pair
    now = PAPER_EPOCH
    target = world.account_by_name(handle, now).user_id
    size = world.population(handle).size_at(now)
    ids = [int(uid) for uid in world.follower_ids(target, 0, size, now)]
    users = world.user_objects(ids, now)
    timelines = [world.timeline(uid, TIMELINE_PAGE, now) for uid in ids]
    samples = {"object": users, "rows": world.user_row_block(ids, now)}
    engines = build_engines(
        world, SimClock(PAPER_EPOCH), detector=detector, seed=5)
    for name in ENGINE_NAMES:
        engine = engines[name]
        criteria = engine.criteria
        tls = timelines if criteria.needs_timeline else None
        if name == "fc":
            oracle = criteria_oracle.classify_fc(detector, users, tls, now)
        else:
            oracle = criteria_oracle.classify(criteria, users, tls, now)
        for form, sample in samples.items():
            key = (form, name)
            verdicts = engine.classify_sample(sample, tls, now)
            assert verdicts.codes.tolist() == oracle.codes, key
            assert verdicts.extras == oracle.extras, key
            assert engine.last_verdict_counts == oracle.counts(), key
            sink = ProvenanceSink()
            criteria.classify_all(sample, tls, now, sink=sink)
            assert {rule: unpack_mask(bits, len(ids))
                    for rule, bits in sink.packed().items()} \
                == oracle.fires, key


def test_engine_batch_knob_scheduler_digest_bit_identical(
        world_pair, detector):
    """The serial scheduler's digest is lookup-form invariant too.

    Serial mode runs without the shared acquisition cache; the world's
    lanes classify its rows, its object view's lanes rows packed from
    user objects.
    """
    world, objects, handle = world_pair
    row_report = _run_batch(world, handle, detector, serial=True)
    object_report = _run_batch(objects, handle, detector, serial=True)
    assert row_report.digest() == object_report.digest()
    assert row_report.to_json() == object_report.to_json()


def test_provenance_is_a_pure_observation(world_pair, detector):
    """Provenance on vs off: verdicts byte-identical, only details grows.

    On both lookup forms, every engine's report with a collector
    attached must equal the collector-free report once
    ``details["provenance"]`` is removed — recording rule fires may
    never perturb a verdict.
    """
    world, objects, handle = world_pair
    for base_world in (world, objects):
        baseline = build_engines(
            base_world, SimClock(PAPER_EPOCH), detector=detector, seed=5)
        collector = ProvenanceCollector()
        observed = build_engines(
            base_world, SimClock(PAPER_EPOCH), detector=detector, seed=5,
            provenance=collector)
        for name in ENGINE_NAMES:
            expected = baseline[name].audit(AuditRequest(target=handle))
            actual = observed[name].audit(AuditRequest(target=handle))
            assert "provenance" not in expected.details, name
            details = dict(actual.details)
            assert details.pop("provenance", None) is not None, name
            assert replace(actual, details=details) == expected, name
        assert len(collector.records) == len(ENGINE_NAMES)


def test_provenance_records_path_and_substrate_invariant(
        world_pair, detector):
    """The recorded rule fires are the same bits on either lookup form.

    Row blocks vs user objects: the full :class:`AuditProvenance`
    records — packed bitmaps, verdict codes, aggregated stats — must
    match exactly.
    """
    world, objects, handle = world_pair
    records = {}
    for key, base_world in (("rows", world), ("objects", objects)):
        collector = ProvenanceCollector()
        engines = build_engines(
            base_world, SimClock(PAPER_EPOCH), detector=detector, seed=5,
            provenance=collector)
        for name in ENGINE_NAMES:
            engines[name].audit(AuditRequest(target=handle))
        records[key] = collector.records
    assert len(records["objects"]) == len(ENGINE_NAMES)
    assert records["rows"] == records["objects"]


def test_batch_digest_provenance_invariant(world_pair, detector):
    """The scheduler's batch digest never sees the collector."""
    world, __, handle = world_pair
    baseline = _run_batch(world, handle, detector)
    observed = _run_batch(world, handle, detector,
                          provenance=ProvenanceCollector())
    assert observed.digest() == baseline.digest()
    assert observed.to_json() == baseline.to_json()


def test_explain_labels_agree_with_classify(world_pair):
    """``explain`` must return exactly ``classify``'s label.

    Checked on the user-field-only criteria (StatusPeople,
    Twitteraudit) over every follower in the cell; Socialbakers is
    covered by the oracle, which asserts the same agreement.
    """
    from repro.analytics.statuspeople import StatusPeopleCriteria
    from repro.analytics.twitteraudit import TwitterauditCriteria
    from repro.api.endpoints import UserObject

    world, __, handle = world_pair
    population = world.population(handle)
    now = PAPER_EPOCH
    for criteria in (StatusPeopleCriteria(), TwitterauditCriteria()):
        assert criteria.rule_ids
        for position in range(population.size_at(now)):
            user = UserObject.from_account(
                population.account_at(position, now))
            label, fired = criteria.explain(user, None, now)
            assert label == criteria.classify(user, None, now)
            assert set(fired) <= set(criteria.rule_ids)


def _run_batch(world, handle, detector, provenance=None, serial=False,
               shared_cache=True):
    scheduler = BatchAuditScheduler(
        world, SimClock(PAPER_EPOCH), engines=ENGINE_NAMES,
        detector=detector, seed=5, provenance=provenance, serial=serial,
        shared_cache=shared_cache)
    scheduler.submit_batch([AuditRequest(target=handle)])
    return scheduler.run()
