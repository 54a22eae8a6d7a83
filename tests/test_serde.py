"""Unit tests for JSON serialization of worlds, reports and datasets."""

import pytest

from repro.audit import AuditRequest
from repro.core import ConfigurationError, DAY, PAPER_EPOCH, SimClock
from repro.fc import build_gold_standard
from repro.serde import (
    audit_report_from_dict,
    audit_report_to_dict,
    gold_standard_from_dict,
    gold_standard_to_dict,
    load_json,
    save_json,
    target_spec_from_dict,
    target_spec_to_dict,
    world_from_dict,
    world_to_dict,
)
from repro.twitter import (
    PostRefBurst,
    add_simple_target,
    build_world,
    fake_purchase_burst,
    make_target_spec,
)


class TestAuditReportRoundTrip:
    @pytest.fixture(scope="class")
    def report(self, small_world, detector):
        from repro.fc import FakeClassifierEngine
        engine = FakeClassifierEngine(
            small_world, SimClock(PAPER_EPOCH), detector, sample_size=300)
        return engine.audit(AuditRequest(target="smalltown"))

    def test_round_trip_preserves_fields(self, report):
        rebuilt = audit_report_from_dict(audit_report_to_dict(report))
        assert rebuilt.tool == report.tool
        assert rebuilt.target == report.target
        assert rebuilt.fake_pct == report.fake_pct
        assert rebuilt.inactive_pct == report.inactive_pct
        assert rebuilt.response_seconds == report.response_seconds
        assert rebuilt.cached == report.cached

    def test_details_survive_with_string_keys(self, report):
        payload = audit_report_to_dict(report)
        rebuilt = audit_report_from_dict(payload)
        assert rebuilt.details["population"] == 12_000

    def test_wrong_kind_rejected(self, report):
        payload = audit_report_to_dict(report)
        payload["kind"] = "world"
        with pytest.raises(ConfigurationError):
            audit_report_from_dict(payload)

    def test_wrong_version_rejected(self, report):
        payload = audit_report_to_dict(report)
        payload["format_version"] = 999
        with pytest.raises(ConfigurationError):
            audit_report_from_dict(payload)

    def test_json_round_trip_through_disk(self, report, tmp_path):
        path = tmp_path / "report.json"
        save_json(audit_report_to_dict(report), path)
        rebuilt = audit_report_from_dict(load_json(path))
        assert rebuilt.fake_pct == report.fake_pct

    def test_empty_sample_with_a_composition_refused(self, report):
        payload = audit_report_to_dict(report)
        payload["sample_size"] = 0
        with pytest.raises(ConfigurationError):
            audit_report_from_dict(payload)


class TestTargetSpecRoundTrip:
    def test_round_trip(self):
        spec = make_target_spec(
            "roundtrip", 20_000, 0.3, 0.2, 0.5,
            fake_burst_fraction=0.5, tilt=0.4, daily_new_followers=33.0)
        rebuilt = target_spec_from_dict(target_spec_to_dict(spec))
        assert rebuilt == spec

    def test_property_round_trip_for_arbitrary_specs(self):
        from hypothesis import given, settings, strategies as st

        @given(
            followers=st.integers(min_value=1, max_value=100_000),
            inactive=st.floats(min_value=0.0, max_value=1.0),
            fake=st.floats(min_value=0.0, max_value=1.0),
            genuine=st.floats(min_value=0.05, max_value=1.0),
            tilt=st.floats(min_value=0.0, max_value=0.9),
            burst=st.floats(min_value=0.0, max_value=1.0),
            position=st.floats(min_value=0.0, max_value=1.0),
            trickle=st.floats(min_value=0.0, max_value=500.0),
        )
        @settings(max_examples=40, deadline=None)
        def check(followers, inactive, fake, genuine, tilt, burst,
                  position, trickle):
            spec = make_target_spec(
                "arbitrary", followers, inactive, fake, genuine,
                tilt=tilt, fake_burst_fraction=burst,
                fake_burst_position=position,
                daily_new_followers=trickle)
            rebuilt = target_spec_from_dict(target_spec_to_dict(spec))
            assert rebuilt == spec

        check()

    def test_purchased_blocks_survive(self):
        spec = make_target_spec(
            "buyer", 1000, 0.3, 0.2, 0.5, daily_new_followers=10.0,
            post_ref_bursts=(
                fake_purchase_burst(2.0, 500),
                PostRefBurst(4.5, 300, {"fake_classic": 1.0},
                             delivery_per_hour=40, daily_attrition=0.05)))
        rebuilt = target_spec_from_dict(target_spec_to_dict(spec))
        assert rebuilt == spec

    def test_payload_without_bursts_loads_as_no_purchases(self):
        spec = make_target_spec("plain", 1000, 0.3, 0.2, 0.5)
        payload = target_spec_to_dict(spec)
        del payload["post_ref_bursts"]
        assert target_spec_from_dict(payload).post_ref_bursts == ()


class TestWorldRoundTrip:
    def test_world_regenerates_identically(self):
        world = build_world(seed=123)
        add_simple_target(world, "alpha", 9000, 0.4, 0.1, 0.5,
                          daily_new_followers=20)
        add_simple_target(world, "beta", 4000, 0.1, 0.3, 0.6,
                          fake_burst_fraction=0.8)
        rebuilt = world_from_dict(world_to_dict(world))

        assert rebuilt.seed == world.seed
        assert rebuilt.ref_time == world.ref_time
        for handle in ("alpha", "beta"):
            original = world.population(handle)
            regenerated = rebuilt.population(handle)
            assert regenerated.size_at(PAPER_EPOCH) == \
                original.size_at(PAPER_EPOCH)
            for position in (0, 17, 3999):
                assert regenerated.account_at(position, PAPER_EPOCH) == \
                    original.account_at(position, PAPER_EPOCH)

    def test_bought_followers_regenerate(self):
        world = build_world(seed=9)
        add_simple_target(world, "buyer", 1000, 0.3, 0.2, 0.5,
                          daily_new_followers=10.0,
                          post_ref_bursts=(fake_purchase_burst(2.0, 500),))
        rebuilt = world_from_dict(world_to_dict(world))
        later = PAPER_EPOCH + 3 * DAY
        assert world.population("buyer").size_at(later) == 1530
        assert rebuilt.population("buyer").size_at(later) == 1530

    def test_world_json_file_round_trip(self, tmp_path):
        world = build_world(seed=5)
        add_simple_target(world, "gamma", 1000, 0.2, 0.2, 0.6)
        path = tmp_path / "world.json"
        save_json(world_to_dict(world), path)
        rebuilt = world_from_dict(load_json(path))
        assert rebuilt.population("gamma").size_at(PAPER_EPOCH) == 1000


class TestGoldStandardRoundTrip:
    def test_round_trip_preserves_everything(self):
        gold = build_gold_standard(n_fake=15, n_genuine=15,
                                   n_inactive=10, seed=8)
        rebuilt = gold_standard_from_dict(gold_standard_to_dict(gold))
        assert len(rebuilt) == len(gold)
        assert rebuilt.now == gold.now
        assert rebuilt.three_way_labels() == gold.three_way_labels()
        assert list(rebuilt.users()) == list(gold.users())
        assert rebuilt.timelines() == gold.timelines()
        assert gold_standard_to_dict(rebuilt) == gold_standard_to_dict(gold)

    def test_rebuilt_gold_trains_identical_detector(self):
        from repro.fc import PROFILE_FEATURE_SET
        gold = build_gold_standard(n_fake=40, n_genuine=40, seed=9)
        rebuilt = gold_standard_from_dict(gold_standard_to_dict(gold))
        import numpy as np
        assert np.array_equal(
            gold.design_matrix(PROFILE_FEATURE_SET),
            rebuilt.design_matrix(PROFILE_FEATURE_SET))
