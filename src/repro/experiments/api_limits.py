"""Experiment E1 — Table I: Twitter API types and call limits.

Regenerates the paper's Table I from the simulator's active policies,
and *verifies* each row empirically: a client that bursts through two
full windows of requests must observe a sustained throughput equal to
the published requests-per-minute figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..api.client import TwitterApiClient
from ..api.ratelimit import DEFAULT_POLICIES, TABLE_I, RateLimitPolicy
from ..core.clock import SimClock
from ..core.timeutil import MINUTE, PAPER_EPOCH
from ..twitter.generator import add_simple_target, build_world
from .report import TextTable


@dataclass(frozen=True)
class RateLimitMeasurement:
    """Published vs observed limits for one API resource."""

    policy: RateLimitPolicy
    burst_requests: int
    burst_seconds: float
    steady_requests: int
    steady_seconds: float

    @property
    def sustained_per_minute(self) -> float:
        """Observed post-burst request rate, requests/minute.

        The first window's budget is served as a burst; only the
        refill-paced tail measures the sustained limit.
        """
        if self.steady_seconds == 0:
            return float("inf")
        return self.steady_requests / (self.steady_seconds / MINUTE)


def measure_rate_limit(resource: str, *, windows: float = 2.0,
                       seed: int = 11) -> RateLimitMeasurement:
    """Drive one endpoint through ``windows`` budgets and time it.

    Latency is set to zero so the measurement isolates the limiter: the
    observed sustained rate converges to the policy's requests/minute as
    the burst allowance amortises.
    """
    policy = DEFAULT_POLICIES[resource]
    world = build_world(seed=seed)
    add_simple_target(world, "probe", 30_000, 0.3, 0.1, 0.6)
    clock = SimClock(PAPER_EPOCH)
    client = TwitterApiClient(world, clock, request_latency=0.0)
    target = world.account_by_name("probe", clock.now())
    follower = world.population("probe").follower_id_at(0)

    def issue() -> None:
        if resource == "followers/ids":
            client.followers_ids(user_id=target.user_id,
                                 count=policy.elements_per_request)
        elif resource == "friends/ids":
            client.friends_ids(user_id=follower,
                               count=policy.elements_per_request)
        elif resource == "users/lookup":
            client.users_lookup_block([follower])
        elif resource == "statuses/user_timeline":
            client.user_timeline(follower, count=1)
        else:
            raise ValueError(f"unknown resource: {resource!r}")

    burst = int(policy.window_budget)
    steady = max(1, int(policy.window_budget * (windows - 1.0)))
    start = clock.now()
    for __ in range(burst):
        issue()
    burst_end = clock.now()
    for __ in range(steady):
        issue()
    steady_end = clock.now()
    return RateLimitMeasurement(
        policy=policy,
        burst_requests=burst,
        burst_seconds=burst_end - start,
        steady_requests=steady,
        steady_seconds=steady_end - burst_end,
    )


def run_table1(windows: float = 2.0) -> Tuple[List[RateLimitMeasurement], str]:
    """Measure all four endpoints and render the paper's Table I."""
    measurements = [
        measure_rate_limit(policy.resource, windows=windows)
        for policy in TABLE_I
    ]
    table = TextTable(
        ["API type", "elem. x request", "max requests x min.",
         "observed req/min"],
        title="Table I: Twitter APIs, type and limitations to API calls",
    )
    for m in measurements:
        table.add_row(
            f"GET {m.policy.resource}",
            m.policy.elements_per_request,
            f"{m.policy.requests_per_minute:g}",
            f"{m.sustained_per_minute:.2f}",
        )
    return measurements, table.render()
