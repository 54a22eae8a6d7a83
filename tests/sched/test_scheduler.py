"""The batch scheduler's core guarantees.

Determinism (same seed, same batch, byte-identical report — with and
without injected API faults), result equality with the serial
baseline, fairness ordering, and graceful handling of per-item
failures.
"""

import pytest

from repro.audit import AuditRequest
from repro.core import ConfigurationError, PAPER_EPOCH, SimClock
from repro.faults import named_plan
from repro.sched import BatchAuditScheduler, BatchItem
from repro.sched.scheduler import BatchAuditScheduler as _Scheduler

from .conftest import TARGETS

COMMERCIAL = ("twitteraudit", "statuspeople", "socialbakers")


def run_batch(batch_world, *, serial=False, faults=None, lane_slots=2,
              engines=COMMERCIAL, detector=None, targets=TARGETS, seed=5):
    world = batch_world()
    scheduler = BatchAuditScheduler(
        world, SimClock(PAPER_EPOCH), engines=engines, detector=detector,
        lane_slots=lane_slots, seed=seed, faults=faults, serial=serial)
    scheduler.submit_batch([AuditRequest(target=t) for t in targets])
    return scheduler.run()


class TestDeterminism:
    def test_same_seed_identical_report(self, batch_world):
        first = run_batch(batch_world)
        second = run_batch(batch_world)
        assert first.to_json() == second.to_json()
        assert first.digest() == second.digest()

    def test_same_seed_identical_under_bursty_faults(self, batch_world):
        first = run_batch(batch_world, faults=named_plan("bursty", seed=7))
        second = run_batch(batch_world, faults=named_plan("bursty", seed=7))
        assert first.digest() == second.digest()

    def test_different_seed_differs(self, batch_world):
        assert (run_batch(batch_world, seed=5).digest()
                != run_batch(batch_world, seed=6).digest())


class TestSerialEquality:
    @pytest.fixture(scope="class")
    def pair(self, batch_world):
        return (run_batch(batch_world, serial=True),
                run_batch(batch_world, serial=False))

    def test_batch_beats_serial_makespan(self, pair):
        serial, batch = pair
        assert serial.serial and not batch.serial
        assert batch.makespan_seconds < serial.makespan_seconds

    def test_percentages_identical_to_serial(self, pair):
        serial, batch = pair
        for target in TARGETS:
            serial_reports = serial.reports_for(target)
            batch_reports = batch.reports_for(target)
            assert set(serial_reports) == set(batch_reports) == set(COMMERCIAL)
            for lane in COMMERCIAL:
                a, b = serial_reports[lane], batch_reports[lane]
                assert (a.fake_pct, a.genuine_pct, a.inactive_pct) == \
                    (b.fake_pct, b.genuine_pct, b.inactive_pct), (target, lane)
                assert a.sample_size == b.sample_size

    def test_shared_cache_only_in_batch_mode(self, pair):
        serial, batch = pair
        assert serial.cache_stats == {}
        assert batch.cache_stats["hits"] > 0


class TestScheduling:
    def test_batch_prefills_the_engine_result_cache(self, batch_world):
        scheduler = BatchAuditScheduler(
            batch_world(), SimClock(PAPER_EPOCH), engines=("statuspeople",),
            lane_slots=1)
        scheduler.submit("alpha")
        scheduler.run()
        engine = scheduler.engine("statuspeople")
        assert engine.audit(AuditRequest(target="alpha")).cached

    def test_caller_clock_advances_by_makespan(self, batch_world):
        clock = SimClock(PAPER_EPOCH)
        scheduler = BatchAuditScheduler(
            batch_world(), clock, engines=("statuspeople",), lane_slots=2)
        scheduler.submit_batch(list(TARGETS))
        report = scheduler.run()
        assert clock.now() == pytest.approx(
            PAPER_EPOCH + report.makespan_seconds)

    def test_unbound_request_fans_out_to_every_lane(self, batch_world):
        scheduler = BatchAuditScheduler(
            batch_world(), SimClock(PAPER_EPOCH), engines=COMMERCIAL)
        items = scheduler.submit(AuditRequest(target="alpha"))
        assert [item.lane for item in items] == list(COMMERCIAL)
        assert scheduler.pending_count() == len(COMMERCIAL)

    def test_bound_request_lands_on_one_lane(self, batch_world):
        scheduler = BatchAuditScheduler(
            batch_world(), SimClock(PAPER_EPOCH), engines=COMMERCIAL)
        items = scheduler.submit(
            AuditRequest(target="alpha", engine="statuspeople"))
        assert [item.lane for item in items] == ["statuspeople"]

    def test_lane_missing_for_bound_engine_rejected(self, batch_world):
        scheduler = BatchAuditScheduler(
            batch_world(), SimClock(PAPER_EPOCH), engines=("statuspeople",))
        with pytest.raises(ConfigurationError):
            scheduler.submit(AuditRequest(target="alpha", engine="fc"))

    def test_unknown_engine_rejected(self, batch_world):
        with pytest.raises(ConfigurationError):
            BatchAuditScheduler(batch_world(), SimClock(PAPER_EPOCH),
                                engines=("klout",))

    def test_invalid_lane_slots_rejected(self, batch_world):
        with pytest.raises(ConfigurationError):
            BatchAuditScheduler(batch_world(), SimClock(PAPER_EPOCH),
                                lane_slots=0)

    def test_failed_item_does_not_sink_the_batch(self, batch_world):
        scheduler = BatchAuditScheduler(
            batch_world(), SimClock(PAPER_EPOCH), engines=("socialbakers",),
            lane_slots=1, sb_daily_quota=2)
        scheduler.submit_batch(list(TARGETS))
        report = scheduler.run()
        assert len(report.completed) == 2
        assert len(report.failed) == 1
        assert "QuotaExceededError" in report.failed[0].error

    def test_missing_target_reported_as_item_error(self, batch_world):
        scheduler = BatchAuditScheduler(
            batch_world(), SimClock(PAPER_EPOCH), engines=("statuspeople",))
        scheduler.submit_batch(["alpha", "nobody_here"])
        report = scheduler.run()
        assert len(report.completed) == 1
        failed = report.failed
        assert len(failed) == 1
        assert failed[0].request.target == "nobody_here"


class TestFairness:
    @staticmethod
    def item(seq, target, priority=0):
        return BatchItem(
            request=AuditRequest(target=target, priority=priority,
                                 engine="statuspeople"),
            seq=seq, lane="statuspeople")

    def test_round_robin_across_targets(self):
        items = [self.item(0, "a"), self.item(1, "a"),
                 self.item(2, "b"), self.item(3, "c")]
        ordered = _Scheduler._fair_order(items)
        assert [i.request.target for i in ordered] == ["a", "b", "c", "a"]

    def test_priority_beats_admission_order(self):
        items = [self.item(0, "a"), self.item(1, "b", priority=3),
                 self.item(2, "c")]
        ordered = _Scheduler._fair_order(items)
        assert [i.request.target for i in ordered] == ["b", "a", "c"]

    def test_ordering_is_deterministic(self):
        items = [self.item(0, "a"), self.item(1, "b", priority=1),
                 self.item(2, "a", priority=1), self.item(3, "b")]
        once = _Scheduler._fair_order(list(items))
        again = _Scheduler._fair_order(list(items))
        assert [i.seq for i in once] == [i.seq for i in again] == [1, 2, 0, 3]
