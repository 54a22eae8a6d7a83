"""Determinism and safety properties of the fault/retry layer.

The contract under test (see ``docs/faults.md``): same seed + same
:class:`FaultPlan` + same request sequence ⇒ byte-identical
:class:`CallLog` records and byte-identical audit results; retries
never exceed the per-resource budget; backoff waits within one logical
request are monotone non-decreasing.
"""

import json

from repro.audit import AuditRequest
from repro.analytics import Twitteraudit
from repro.api import TwitterApiClient
from repro.core import PAPER_EPOCH, SimClock
from repro.core.errors import RetryableApiError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InjectorSpec,
    RetryPolicy,
    named_plan,
)
from repro.serde import audit_report_to_dict

HANDLE = "smalltown"


def drive(client: TwitterApiClient) -> None:
    """A fixed request sequence: profile, pages, lookups, a timeline."""
    try:
        client.users_show(screen_name=HANDLE)
    except RetryableApiError:
        pass
    ids = []
    cursor = -1
    for __ in range(4):
        try:
            page = client.followers_ids(screen_name=HANDLE, cursor=cursor)
        except RetryableApiError:
            break
        ids.extend(page.ids)
        if page.next_cursor == 0:
            break
        cursor = page.next_cursor
    for start in range(0, min(len(ids), 300), 100):
        try:
            client.users_lookup_block(ids[start:start + 100])
        except RetryableApiError:
            pass
    if ids:
        try:
            client.user_timeline(ids[0], count=50)
        except RetryableApiError:
            pass


class TestDeterminism:
    def make_client(self, world, plan):
        return TwitterApiClient(world, SimClock(PAPER_EPOCH), faults=plan)

    def test_same_seed_same_plan_identical_call_log(self, small_world):
        plan = named_plan("bursty", seed=21).scaled(2.0)
        logs = []
        for __ in range(2):
            client = self.make_client(small_world, plan)
            drive(client)
            logs.append(client.call_log.calls())
        assert logs[0] == logs[1]
        # Byte-identical, not merely equal.
        assert repr(logs[0]) == repr(logs[1])
        # The sequence is non-trivial: the plan actually injected faults.
        assert any(not call.ok for call in logs[0])

    def test_different_fault_seed_changes_the_weather(self):
        plan = FaultPlan(seed=1, injectors=(
            InjectorSpec("transient_503", 0.5),))

        def decisions(p):
            injector = FaultInjector(p)
            return [injector.decide("r", float(t)) is not None
                    for t in range(200)]

        assert decisions(plan) == decisions(plan)
        assert decisions(plan) != decisions(plan.with_seed(2))

    def test_same_seed_identical_audit_result_bytes(self, small_world):
        plan = named_plan("truncation", seed=5)
        payloads = []
        for __ in range(2):
            engine = Twitteraudit(small_world, SimClock(PAPER_EPOCH),
                                  seed=3, faults=plan)
            report = engine.audit(AuditRequest(target=HANDLE))
            payloads.append(json.dumps(audit_report_to_dict(report),
                                       sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_faults_off_injects_nothing(self, small_world):
        client = self.make_client(small_world, None)
        drive(client)
        assert client.faults_seen == 0
        assert client.retries_total == 0
        assert all(call.ok for call in client.call_log.calls())


class TestRetrySafety:
    def always_failing_client(self, world, budget: int, max_attempts: int):
        plan = FaultPlan(seed=1, injectors=(
            InjectorSpec("transient_503", 1.0),))
        policy = RetryPolicy(budget_per_resource=budget,
                             max_attempts=max_attempts, jitter=0.25)
        return TwitterApiClient(world, SimClock(PAPER_EPOCH),
                                faults=plan, retry=policy)

    def test_retries_never_exceed_budget(self, small_world):
        client = self.always_failing_client(small_world, budget=5,
                                            max_attempts=4)
        for __ in range(3):
            try:
                client.users_show(screen_name=HANDLE)
            except RetryableApiError:
                pass
        # Request 1: 3 retries (max_attempts), request 2: the 2 budget
        # retries left, request 3: none — the budget is a hard cap.
        assert client.retries_total == 5
        assert client.call_log.failures() == 8

    def test_budget_refills_on_reset(self, small_world):
        client = self.always_failing_client(small_world, budget=3,
                                            max_attempts=4)
        try:
            client.users_show(screen_name=HANDLE)
        except RetryableApiError:
            pass
        assert client.retries_total == 3
        client.reset_budgets()
        try:
            client.users_show(screen_name=HANDLE)
        except RetryableApiError:
            pass
        assert client.retries_total == 6

    def test_backoff_waits_monotone_within_request(self, small_world):
        """Clock gaps between an attempt's failures never shrink."""
        client = self.always_failing_client(small_world, budget=10,
                                            max_attempts=6)
        try:
            client.users_show(screen_name=HANDLE)
        except RetryableApiError:
            pass
        failures = [call for call in client.call_log.calls()
                    if not call.ok]
        assert len(failures) == 6  # 1 try + 5 retries
        gaps = [
            round(nxt.issued_at - prev.completed_at, 9)
            for prev, nxt in zip(failures, failures[1:])
        ]
        assert all(gap > 0 for gap in gaps)
        assert gaps == sorted(gaps)
