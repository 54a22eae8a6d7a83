"""Differential property suite: object vs columnar substrate bit-identity.

The columnar substrate's contract is that for every seeded population
it is *indistinguishable* from the object-per-account substrate:
generated accounts, follower-page cursoring through the API client,
and complete :class:`~repro.audit.AuditReport` outputs of all four
engines — serial and batch — must match exactly (dataclass equality
over every field, including response times and assessed-at instants).
Each engine's verdicts on both substrates must also equal the
per-account oracle (``tests/analytics/criteria_oracle.py``).

The matrix covers >= 5 seeds x the four target archetypes the paper's
experiments are built from:

* ``organic``   — homogeneous base, no recency gradient;
* ``tilted``    — strong recency gradient (old followers inactive);
* ``purchased`` — a bought fake block spliced into the arrival order;
* ``growing``   — daily post-reference arrivals (snapshot ordering).

Populations are deliberately small (audits dominate runtime; chunk
geometry is exercised with a chunk size far below the page size, and
exhaustive boundary sweeps live in ``test_columnar_chunks.py``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api.crawler import TIMELINE_PAGE
from repro.audit import AuditRequest, ENGINE_NAMES, build_engines
from repro.core import PAPER_EPOCH, SimClock
from repro.obs.provenance import ProvenanceCollector, ProvenanceSink, \
    unpack_mask
from repro.sched import BatchAuditScheduler
from repro.twitter import add_simple_target, build_world, columnar_twin

from ..analytics import criteria_oracle

SEEDS = (3, 11, 29, 42, 77)

#: The four target archetypes ("personas" of an audited account).
ARCHETYPES = {
    "organic": dict(tilt=0.0, pieces=1),
    "tilted": dict(tilt=0.7, pieces=4),
    "purchased": dict(fake_burst_fraction=0.5, fake_burst_position=0.95),
    "growing": dict(tilt=0.5, daily_new_followers=30.0),
}

FOLLOWERS = 80
CHUNK_SIZE = 23  # far below any page size: every page spans chunks

PAIR_PARAMS = [(seed, name) for seed in SEEDS for name in ARCHETYPES]


@pytest.fixture(scope="module")
def detector():
    """Train the FC detector once; it is world-independent and the
    matrix would otherwise retrain it for every cell."""
    from repro.fc.engine import default_detector

    return default_detector(seed=5)


@pytest.fixture(scope="module", params=PAIR_PARAMS,
                ids=[f"seed{s}-{a}" for s, a in PAIR_PARAMS])
def world_pair(request):
    """(object world, columnar twin, target handle) for one matrix cell."""
    seed, archetype = request.param
    world = build_world(seed=seed, ref_time=PAPER_EPOCH)
    add_simple_target(world, "target", FOLLOWERS, 0.3, 0.2, 0.5,
                      **ARCHETYPES[archetype])
    twin = columnar_twin(world, chunk_size=CHUNK_SIZE)
    return world, twin, "target"


def test_generated_accounts_bit_identical(world_pair):
    world, twin, handle = world_pair
    population = world.population(handle)
    columnar = twin.population(handle)
    now = PAPER_EPOCH
    size = population.size_at(now)
    assert columnar.size_at(now) == size
    boundary = {0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1,
                2 * CHUNK_SIZE, size - 1}
    for position in sorted(p for p in boundary if 0 <= p < size):
        assert population.account_at(position, now) == \
            columnar.account_at(position, now), position
    # A later observation instant (post-reference arrivals, different
    # re-anchoring clamps) must agree too.
    later = PAPER_EPOCH + 3 * 86_400.0
    late_size = population.size_at(later)
    assert columnar.size_at(later) == late_size
    for position in (0, size - 1, late_size - 1):
        assert population.account_at(position, later) == \
            columnar.account_at(position, later), position


def test_follower_page_cursoring_bit_identical(world_pair):
    from repro.api import TwitterApiClient

    world, twin, handle = world_pair
    for count in (None, 30):
        object_client = TwitterApiClient(world, SimClock(PAPER_EPOCH))
        columnar_client = TwitterApiClient(twin, SimClock(PAPER_EPOCH))
        cursor = -1
        pages = 0
        while True:
            a = object_client.followers_ids(
                screen_name=handle, cursor=cursor, count=count)
            b = columnar_client.followers_ids(
                screen_name=handle, cursor=cursor, count=count)
            assert a == b
            pages += 1
            if a.next_cursor == 0:
                break
            cursor = a.next_cursor
        assert pages == (1 if count is None else 3)


def test_ground_truth_composition_identical(world_pair):
    world, twin, handle = world_pair
    now = PAPER_EPOCH
    assert world.population(handle).composition(now) == \
        twin.population(handle).composition(now)
    assert world.population(handle).composition(now, sample=48, seed=9) == \
        twin.population(handle).composition(now, sample=48, seed=9)


def test_serial_audit_reports_bit_identical(world_pair, detector):
    world, twin, handle = world_pair
    object_engines = build_engines(
        world, SimClock(PAPER_EPOCH), detector=detector, seed=5)
    columnar_engines = build_engines(
        twin, SimClock(PAPER_EPOCH), detector=detector, seed=5)
    assert set(object_engines) == set(ENGINE_NAMES)
    for name in ENGINE_NAMES:
        expected = object_engines[name].audit(AuditRequest(target=handle))
        actual = columnar_engines[name].audit(AuditRequest(target=handle))
        assert actual == expected, name


def test_batch_audit_digest_bit_identical(world_pair, detector):
    world, twin, handle = world_pair
    object_report = _run_batch(world, handle, detector)
    columnar_report = _run_batch(twin, handle, detector)
    assert columnar_report.digest() == object_report.digest()
    assert columnar_report.to_json() == object_report.to_json()


def test_engine_batch_knob_reports_bit_identical(world_pair, detector):
    """Every engine's verdict path equals the per-account oracle.

    The engines classify through one columnar path; on *either*
    substrate — user objects from the object world, structured rows
    from the columnar twin — each engine's verdicts over the whole
    follower list, its chart extras and its provenance masks must equal
    the oracle's one-account-at-a-time reading of the same rules.
    """
    world, twin, handle = world_pair
    now = PAPER_EPOCH
    target = world.account_by_name(handle, now).user_id
    size = world.population(handle).size_at(now)
    ids = [int(uid) for uid in world.follower_ids(target, 0, size, now)]
    users = world.user_objects(ids, now)
    timelines = [world.timeline(uid, TIMELINE_PAGE, now) for uid in ids]
    samples = {"object": users, "columnar": twin.user_row_block(ids, now)}
    for substrate, base_world in (("object", world), ("columnar", twin)):
        engines = build_engines(
            base_world, SimClock(PAPER_EPOCH), detector=detector, seed=5)
        for name in ENGINE_NAMES:
            engine = engines[name]
            criteria = engine.criteria
            tls = timelines if criteria.needs_timeline else None
            if name == "fc":
                oracle = criteria_oracle.classify_fc(detector, users, tls, now)
            else:
                oracle = criteria_oracle.classify(criteria, users, tls, now)
            key = (substrate, name)
            sample = samples[substrate]
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
    """The serial scheduler's digest is substrate-invariant too.

    Serial mode runs without the shared acquisition cache, so the
    columnar twin's lanes classify structured row blocks while the
    object world's classify user objects.
    """
    world, twin, handle = world_pair
    object_report = _run_batch(world, handle, detector, serial=True)
    columnar_report = _run_batch(twin, handle, detector, serial=True)
    assert columnar_report.digest() == object_report.digest()
    assert columnar_report.to_json() == object_report.to_json()


def test_provenance_is_a_pure_observation(world_pair, detector):
    """Provenance on vs off: verdicts byte-identical, only details grows.

    On both substrates, every engine's report with a collector attached
    must equal the collector-free report once ``details["provenance"]``
    is removed — recording rule fires may never perturb a verdict.
    """
    world, twin, handle = world_pair
    for base_world in (world, twin):
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
    """The recorded rule fires are the same bits on every substrate.

    Object world vs columnar twin: the full :class:`AuditProvenance`
    records — packed bitmaps, verdict codes, aggregated stats — must
    match exactly.
    """
    world, twin, handle = world_pair
    records = {}
    for key, base_world in (("object", world), ("twin", twin)):
        collector = ProvenanceCollector()
        engines = build_engines(
            base_world, SimClock(PAPER_EPOCH), detector=detector, seed=5,
            provenance=collector)
        for name in ENGINE_NAMES:
            engines[name].audit(AuditRequest(target=handle))
        records[key] = collector.records
    assert len(records["object"]) == len(ENGINE_NAMES)
    assert records["twin"] == records["object"]


def test_batch_digest_provenance_invariant(world_pair, detector):
    """The scheduler's batch digest never sees the collector."""
    __, twin, handle = world_pair
    baseline = _run_batch(twin, handle, detector)
    observed = _run_batch(twin, handle, detector,
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


def _run_batch(world, handle, detector, provenance=None, serial=False):
    scheduler = BatchAuditScheduler(
        world, SimClock(PAPER_EPOCH), engines=ENGINE_NAMES,
        detector=detector, seed=5, provenance=provenance, serial=serial)
    scheduler.submit_batch([AuditRequest(target=handle)])
    return scheduler.run()
