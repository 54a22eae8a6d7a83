"""The FC prediction path against its per-row oracles.

Production extracts features column by column and descends the trees
level-wise over the whole matrix.  These tests hold that path to the
per-row oracles (``feature_oracle``: one feature call per account;
``tree_oracle.descend``: recursive walk per row) bit for bit -- same
feature matrices, same leaves, same forest probabilities -- over several
generated worlds and both canonical feature sets, and check the
:class:`FeatureCache` (LRU, ``cache_info``) and the engine's report
digests.
"""

import json

import numpy as np
import pytest

from repro.api.columns import SampleBlock
from repro.audit import AuditRequest
from repro.core import ConfigurationError, PAPER_EPOCH, SimClock
from repro.core.errors import TrainingError
from repro.fc import (
    BatchClassifier,
    FakeClassifierEngine,
    FeatureCache,
    FULL_FEATURE_SET,
    PROFILE_FEATURE_SET,
    RandomForest,
    batch_classifier,
    build_gold_standard,
    train_detector,
)
from repro.fc.engine import DetectorCriteria
from repro.fc.training import TrainedDetector
from repro.fc.tree import DecisionTree
from repro.obs import Observability, observed
from repro.obs.provenance import ProvenanceSink
from repro.serde import audit_report_to_dict
from repro.twitter import add_simple_target, build_world
from repro.twitter.columnar import schema

from ..conftest import object_lookups
from . import feature_oracle, tree_oracle


def report_digest(report):
    """The canonical JSON bytes of one audit report."""
    return json.dumps(audit_report_to_dict(report), sort_keys=True)


@pytest.mark.parametrize("seed", [3, 17, 92])
@pytest.mark.parametrize("feature_set",
                         [PROFILE_FEATURE_SET, FULL_FEATURE_SET],
                         ids=["profile", "full"])
class TestExtractionParity:
    def test_matrix_is_bitwise_identical(self, seed, feature_set):
        gold = build_gold_standard(n_fake=150, n_genuine=150,
                                   seed=seed, timeline_depth=25)
        users, timelines, now = gold.users(), gold.timelines(), gold.now
        matrix = feature_set.extract_matrix(users, timelines, now)
        oracle = feature_oracle.extract_matrix(
            feature_set, users, timelines, now)
        # array_equal, not allclose: the contract is bit identity.
        assert np.array_equal(matrix, oracle)
        assert matrix.dtype == np.float64

    def test_verdicts_and_probabilities_match(self, seed, feature_set):
        gold = build_gold_standard(n_fake=150, n_genuine=150,
                                   seed=seed, timeline_depth=25)
        detector = train_detector(gold, feature_set=feature_set, seed=0)
        classifier = batch_classifier(detector)
        users, timelines, now = gold.users(), gold.timelines(), gold.now
        X = feature_oracle.extract_matrix(feature_set, users, timelines, now)
        expected = tree_oracle.predict(detector.model, X)
        assert np.array_equal(detector.predict(users, timelines, now),
                              expected)
        assert np.array_equal(classifier.predict(users, timelines, now),
                              expected)
        expected = tree_oracle.predict_proba(detector.model, X)
        assert np.array_equal(
            detector.predict_proba(users, timelines, now), expected)
        assert np.array_equal(
            classifier.predict_proba(users, timelines, now), expected)


class TestExtractionEdgeCases:
    def test_empty_user_list_gives_empty_matrix(self):
        matrix = PROFILE_FEATURE_SET.extract_matrix([], None, PAPER_EPOCH)
        assert matrix.shape == (0, len(PROFILE_FEATURE_SET.features))

    def test_length_mismatch_is_rejected(self):
        gold = build_gold_standard(n_fake=5, n_genuine=5, seed=1)
        with pytest.raises(ConfigurationError, match="length mismatch"):
            PROFILE_FEATURE_SET.extract_matrix(
                gold.users(), [None], gold.now)

    def test_class_b_without_timelines_is_rejected(self):
        gold = build_gold_standard(n_fake=5, n_genuine=5, seed=1)
        with pytest.raises(ConfigurationError, match="cost class B"):
            FULL_FEATURE_SET.extract_matrix(gold.users(), None, gold.now)


class TestFlatInference:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 6))
        y = (X[:, 0] + 0.5 * X[:, 3] > 0).astype(np.int64)
        return X, y

    def test_flat_tree_matches_recursive_descent(self, data):
        X, y = data
        tree = DecisionTree(max_depth=6, seed=3).fit(X, y)
        assert np.array_equal(tree.predict(X), tree_oracle.predict(tree, X))
        assert np.array_equal(tree.predict_proba(X),
                              tree_oracle.predict_proba(tree, X))

    def test_flat_forest_matches_bagged_mean(self, data):
        X, y = data
        forest = RandomForest(n_trees=9, max_depth=5, seed=11).fit(X, y)
        assert np.array_equal(forest.predict_proba(X),
                              tree_oracle.predict_proba(forest, X))
        assert np.array_equal(forest.predict(X),
                              tree_oracle.predict(forest, X))

    def test_unfitted_models_are_rejected(self):
        for model, kind in ((DecisionTree(), "tree"),
                            (RandomForest(), "forest")):
            unfitted = TrainedDetector("unfitted", PROFILE_FEATURE_SET, model)
            with pytest.raises(TrainingError, match=f"{kind} is not fitted"):
                batch_classifier(unfitted)


class TestFeatureCache:
    def test_hit_returns_the_stored_row(self):
        cache = FeatureCache()
        row = np.arange(3.0)
        cache.put(1, PAPER_EPOCH, "abc", row)
        assert cache.get(1, PAPER_EPOCH, "abc") is row
        assert (cache.hits, cache.misses) == (1, 0)

    def test_key_includes_epoch_and_fingerprint(self):
        cache = FeatureCache()
        cache.put(1, PAPER_EPOCH, "abc", np.arange(3.0))
        assert cache.get(1, PAPER_EPOCH + 1.0, "abc") is None
        assert cache.get(1, PAPER_EPOCH, "xyz") is None
        assert cache.misses == 2

    def test_lru_eviction_honours_recency(self):
        cache = FeatureCache(max_entries=2)
        cache.put(1, 0.0, "f", np.zeros(1))
        cache.put(2, 0.0, "f", np.zeros(1))
        cache.get(1, 0.0, "f")  # refresh 1; 2 is now the LRU entry
        cache.put(3, 0.0, "f", np.zeros(1))
        assert cache.get(2, 0.0, "f") is None
        assert cache.get(1, 0.0, "f") is not None
        assert cache.evictions == 1

    def test_cache_info_snapshot(self):
        cache = FeatureCache(name="probe")
        cache.put(1, 0.0, "f", np.zeros(1))
        cache.get(1, 0.0, "f")
        cache.get(2, 0.0, "f")
        info = cache.cache_info()
        assert (info.name, info.hits, info.misses,
                info.evictions, info.size) == ("probe", 1, 1, 0, 1)

    def test_hit_counter_registers_lazily(self):
        with observed() as obs:
            cache = FeatureCache(name="lazy")
            cache.put(1, 0.0, "f", np.zeros(1))
            cache.get(2, 0.0, "f")  # miss: still no series
            families = [name for name, _k, _h in obs.registry.families()]
            assert "fc_feature_cache_hits_total" not in families
            cache.get(1, 0.0, "f")
            families = [name for name, _k, _h in obs.registry.families()]
            assert "fc_feature_cache_hits_total" in families

    def test_rejects_non_positive_bounds(self):
        with pytest.raises(ConfigurationError, match="max_entries"):
            FeatureCache(max_entries=0)

    def test_cached_predictions_stay_identical(self):
        gold = build_gold_standard(n_fake=120, n_genuine=120, seed=5)
        detector = train_detector(gold, seed=0)
        cold = batch_classifier(detector)
        warm = batch_classifier(detector, feature_cache=FeatureCache())
        users, now = gold.users(), gold.now
        expected = cold.predict(users, None, now)
        first = warm.predict(users, None, now)
        second = warm.predict(users, None, now)
        assert np.array_equal(expected, first)
        assert np.array_equal(expected, second)
        cache = warm.feature_cache
        assert cache.hits == len(users)
        assert cache.misses == len(users)


def per_row_matrix(feature_set, cache, view, now):
    """The census matrix as the per-row cache protocol builds it.

    One ``get`` per row, the misses extracted from a selection, one
    read-only copy ``put`` per miss in row order, then a stack.
    """
    fingerprint = feature_set.fingerprint()
    user_ids = view.user_ids
    rows = [cache.get(user_id, now, fingerprint) for user_id in user_ids]
    missing = [index for index, row in enumerate(rows) if row is None]
    if missing:
        fresh = feature_set.extract_block(view.take(missing), now)
        for position, index in enumerate(missing):
            row = fresh[position].copy()
            row.flags.writeable = False
            cache.put(user_ids[index], now, fingerprint, row)
            rows[index] = row
    return np.vstack(rows)


class TestCensusMatrix:
    """``BatchClassifier.matrix`` through a shared feature cache."""

    @pytest.fixture(scope="class")
    def census(self, small_world):
        return follower_sample(small_world, "smalltown", 60)[1]

    #: All miss, all hit, then a mix with a repeated hit (25) and a
    #: repeated miss (45) in one census.
    VIEWS = (list(range(30)), list(range(30)),
             list(range(20, 50)) + [25, 45, 45])

    @pytest.mark.parametrize("max_entries", [None, 40, 7])
    def test_matches_extraction_and_per_row_protocol(self, census, detector,
                                                     max_entries):
        feature_set = detector.feature_set
        reference = FeatureCache(max_entries=max_entries)
        root = SampleBlock(census)
        with observed() as obs:
            shared = FeatureCache(name="shared", max_entries=max_entries)
            classifier = batch_classifier(detector, feature_cache=shared)
            for indices in self.VIEWS:
                view = root.take(indices)
                matrix = classifier.matrix(view, PAPER_EPOCH)
                assert np.array_equal(
                    matrix, feature_set.extract_block(view, PAPER_EPOCH))
                assert np.array_equal(matrix, per_row_matrix(
                    feature_set, reference, view, PAPER_EPOCH))
                assert matrix.flags.writeable
                assert (shared.hits, shared.misses, shared.evictions,
                        shared.size()) == (
                    reference.hits, reference.misses, reference.evictions,
                    reference.size())
                assert list(shared._entries) == list(reference._entries)
            hits = obs.registry.value("fc_feature_cache_hits_total",
                                      cache="shared")
        assert hits == shared.hits > 0
        if max_entries == 7:
            assert shared.evictions > 0
        for row in shared._entries.values():
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0

    def test_empty_view(self, census, detector):
        classifier = batch_classifier(detector, feature_cache=FeatureCache())
        matrix = classifier.matrix(SampleBlock(census).take([]), PAPER_EPOCH)
        assert matrix.shape == (0, len(detector.feature_set.features))


def build_engine(world, detector, *, cache=None):
    return FakeClassifierEngine(
        world, SimClock(PAPER_EPOCH), detector, sample_size=2000,
        seed=5, acquisition_cache=cache)


class TestEngineParity:
    @pytest.mark.parametrize("seed", [11, 29, 53])
    def test_report_digests_are_byte_identical(self, seed, detector):
        """User-object lookups vs row blocks: identical report bytes."""
        world = build_world(seed=seed, ref_time=PAPER_EPOCH)
        add_simple_target(world, "probe", 6_000, 0.3, 0.2, 0.5)
        request = AuditRequest(target="probe")
        on_objects = build_engine(object_lookups(world), detector).audit(
            request)
        on_columns = build_engine(world, detector).audit(request)
        assert report_digest(on_objects) == report_digest(on_columns)

    def test_auto_engine_activates_the_fast_path(self, small_world,
                                                 detector):
        engine = build_engine(small_world, detector)
        engine.audit(AuditRequest(target="smalltown"))
        classifier = engine.criteria.classifier
        assert isinstance(classifier, BatchClassifier)
        assert classifier.feature_cache.size() > 0

    def test_invalid_batch_mode_is_rejected(self, small_world, detector):
        """The classification-path knob is gone: passing it fails loudly."""
        with pytest.raises(TypeError, match="batch"):
            FakeClassifierEngine(small_world, SimClock(PAPER_EPOCH),
                                 detector, batch="auto")

    def test_unsupported_model_is_rejected(self, detector):
        odd = TrainedDetector(detector.name, detector.feature_set, object())
        with pytest.raises(ConfigurationError, match="columnar"):
            batch_classifier(odd)

    def test_batch_spans_are_recorded(self, small_world, detector):
        with observed(Observability(SimClock(PAPER_EPOCH))) as obs:
            build_engine(small_world, detector).audit(
                AuditRequest(target="smalltown"))
            names = {span.name for span in obs.tracer.spans()}
        assert "fc.batch_extract" in names
        assert "fc.batch_infer" in names

    def test_acquisition_cache_shares_the_feature_cache(self, small_world,
                                                        detector):
        # Sharing rides on the scheduler's pinned observation epoch:
        # both audits must extract features "as of" the same instant
        # for the (account_id, as_of, fingerprint) keys to collide.
        from repro.sched.cache import AcquisitionCache
        acq = AcquisitionCache()
        engine_a = build_engine(small_world, detector, cache=acq)
        engine_b = build_engine(small_world, detector, cache=acq)
        pinned = AuditRequest(target="smalltown", as_of=PAPER_EPOCH)
        engine_a.audit(pinned)
        shared = acq.feature_cache(FeatureCache)
        seeded = shared.size()
        assert seeded > 0
        engine_b.audit(pinned)
        assert shared.hits > 0  # engine_b reused engine_a's rows
        acq.clear()
        assert shared.size() == 0


def follower_sample(world, handle, size):
    """The object list and the row block of one target's first followers."""
    target = world.account_by_name(handle, PAPER_EPOCH)
    ids = [int(uid) for uid in
           world.follower_ids(target.user_id, 0, size, PAPER_EPOCH)]
    return (world.user_objects(ids, PAPER_EPOCH),
            world.user_row_block(ids, PAPER_EPOCH))


class TestRowBlockClassification:
    """``DetectorCriteria.classify_all`` reads a row block's fields."""

    @pytest.fixture(scope="class")
    def sample(self, small_world):
        return follower_sample(small_world, "smalltown", 3_000)

    def test_row_block_builds_no_user_objects(self, sample, detector,
                                              monkeypatch):
        objects, rows = sample
        expected = DetectorCriteria(detector).classify_all(
            objects, None, PAPER_EPOCH)

        def refuse(row):
            raise AssertionError("a UserObject was built from a row")

        monkeypatch.setattr(schema, "user_object_from_row", refuse)
        criteria = DetectorCriteria(detector)
        for __ in range(2):  # cold, then served from the feature cache
            verdicts = criteria.classify_all(rows, None, PAPER_EPOCH)
            assert verdicts.codes.tolist() == expected.codes.tolist()

    def test_both_shapes_classify_identically(self, sample, detector):
        """Same verdicts, provenance masks and feature-cache traffic."""
        outcomes = []
        for users in sample:
            criteria = DetectorCriteria(detector)
            runs = []
            for __ in range(2):
                sink = ProvenanceSink()
                verdicts = criteria.classify_all(users, None, PAPER_EPOCH,
                                                 sink=sink)
                runs.append((verdicts.codes.tolist(), sink.packed()))
            cache = criteria.classifier.feature_cache
            outcomes.append((runs, cache.hits, cache.misses, cache.size()))
        assert outcomes[0] == outcomes[1]
        (first, __), __ = outcomes[0][0]
        assert {0, 1, 2} <= set(first)
        assert outcomes[0][1] == outcomes[0][2] == first.count(0) \
            + first.count(2)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_timeline_length_mismatch_is_rejected(self, sample, detector,
                                                  extra):
        objects, rows = sample
        timelines = [[] for __ in range(len(objects) + extra)]
        for users in (objects, rows):
            with pytest.raises(ConfigurationError, match="length mismatch"):
                DetectorCriteria(detector).classify_all(
                    users, timelines, PAPER_EPOCH)

    def test_class_b_needs_every_timeline(self, gold):
        detector = train_detector(
            build_gold_standard(n_fake=40, n_genuine=40, seed=2,
                                timeline_depth=5),
            feature_set=FULL_FEATURE_SET, n_trees=3)
        users = gold.users()[:4]
        timelines = [[], None, [], []]
        with pytest.raises(ConfigurationError, match="cost class B"):
            DetectorCriteria(detector).classify_all(
                users, timelines, gold.now)
