"""Event-driven live simulation over the materialised graph.

The lazy worlds of :mod:`repro.twitter.population` bake a follower
base's entire history into a static arrival schedule, purchases
included: a seller's staged delivery and post-purchase attrition are
part of a :class:`~repro.twitter.population.PostRefBurst`.  What a
schedule cannot express is *random* dynamics: accounts that keep
tweeting and audiences whose members unfollow at random.  This module
adds a classic discrete-event simulation on top of
:class:`~repro.twitter.graph.SocialGraph` for those:

* an event queue driving the shared :class:`SimClock`;
* recurring **processes** (organic follower growth, audience churn,
  the target's own tweeting);
* one-shot scheduled actions.

Because the graph implements the same ``World`` interface, every
engine, crawler and monitor in the library runs against a live
simulation unchanged — audits can be interleaved with the events that
change their answers.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Mapping, Optional

from ..core.clock import SimClock
from ..core.errors import ConfigurationError
from ..core.ids import IdGenerator
from ..core.rng import make_rng, poisson, weighted_choice
from ..core.timeutil import DAY
from .graph import SocialGraph
from .personas import PERSONAS

Action = Callable[["LiveSimulation"], None]


@dataclass(order=True)
class _Scheduled:
    time: float
    seq: int
    action: Action = field(compare=False)


class LiveSimulation:
    """A discrete-event simulation bound to one graph and one clock.

    Events fire in timestamp order (FIFO among equal timestamps); the
    clock never runs ahead of the events already executed, so any audit
    issued between ``run_until`` calls observes a consistent world.
    """

    def __init__(self, graph: SocialGraph, clock: SimClock,
                 seed: int = 0) -> None:
        self._graph = graph
        self._clock = clock
        self._queue: List[_Scheduled] = []
        self._sequence = itertools.count()
        self._ids = IdGenerator(worker=3)
        self._seed = seed
        self._executed = 0

    @property
    def graph(self) -> SocialGraph:
        """The mutable graph the simulation drives."""
        return self._graph

    @property
    def clock(self) -> SimClock:
        """The simulation's clock (shared with any observer)."""
        return self._clock

    @property
    def executed_events(self) -> int:
        """Events executed since construction."""
        return self._executed

    def now(self) -> float:
        """Current simulated time."""
        return self._clock.now()

    def rng(self, *path: object) -> random.Random:
        """A deterministic child RNG for a named component."""
        return make_rng(self._seed, "live", *path)

    def mint_user_id(self, created_at: float) -> int:
        """A fresh, time-ordered id for a newly created account."""
        return self._ids.next_id(created_at)

    def schedule(self, at: float, action: Action) -> None:
        """Schedule a one-shot action at absolute simulated time ``at``."""
        if at < self._clock.now():
            raise ConfigurationError(
                f"cannot schedule into the past: {at!r} < {self._clock.now()!r}")
        heapq.heappush(
            self._queue, _Scheduled(at, next(self._sequence), action))

    def schedule_in(self, delay: float, action: Action) -> None:
        """Schedule a one-shot action ``delay`` seconds from now."""
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0: {delay!r}")
        self.schedule(self._clock.now() + delay, action)

    def add_process(self, process: "Process") -> None:
        """Attach a recurring process; it begins firing immediately."""
        process.start(self)

    def run_until(self, until: float) -> int:
        """Execute every event with ``time <= until``; returns the count.

        The clock ends exactly at ``until`` even if the queue empties
        earlier, so callers can interleave audits at precise instants.
        """
        if until < self._clock.now():
            raise ConfigurationError(
                f"cannot run backwards: {until!r} < {self._clock.now()!r}")
        executed = 0
        while self._queue and self._queue[0].time <= until:
            event = heapq.heappop(self._queue)
            self._clock.advance_to(event.time)
            event.action(self)
            executed += 1
        self._clock.advance_to(until)
        self._executed += executed
        return executed

    def run_for(self, duration: float) -> int:
        """Convenience: ``run_until(now + duration)``."""
        return self.run_until(self._clock.now() + duration)

    def pending_events(self) -> int:
        """Events still queued."""
        return len(self._queue)


class Process:
    """A recurring event source.

    Subclasses implement :meth:`fire` (the effect) and
    :meth:`interarrival` (seconds until the next firing).  ``start``
    schedules the first firing one interarrival from now.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._rng: Optional[random.Random] = None
        self._simulation: Optional[LiveSimulation] = None

    def start(self, simulation: LiveSimulation) -> None:
        """Bind to a simulation and schedule the first firing."""
        self._rng = simulation.rng("process", self.name)
        self._simulation = simulation
        self._schedule_next(simulation)

    def _schedule_next(self, simulation: LiveSimulation) -> None:
        delay = self.interarrival(self._rng)
        simulation.schedule_in(delay, self._fire_and_reschedule)

    def _fire_and_reschedule(self, simulation: LiveSimulation) -> None:
        self.fire(simulation, self._rng)
        self._schedule_next(simulation)

    # -- subclass hooks -----------------------------------------------------

    def interarrival(self, rng: random.Random) -> float:
        """Seconds until the next firing."""
        raise NotImplementedError

    def fire(self, simulation: LiveSimulation, rng: random.Random) -> None:
        """Execute one firing's effect on the world."""
        raise NotImplementedError


class OrganicGrowthProcess(Process):
    """Poisson arrivals of new organic followers for one target.

    Each arrival mints an account from ``personas`` (a persona-name
    weight map; default: the natural mix of a public figure's fresh
    audience — mostly active humans, some newbies) and follows the
    target at the arrival instant.
    """

    DEFAULT_MIX: Mapping[str, float] = {
        "genuine_active": 0.7,
        "genuine_newbie": 0.2,
        "genuine_abandoned": 0.05,
        "fake_classic": 0.05,
    }

    def __init__(self, target_id: int, per_day: float,
                 personas: Optional[Mapping[str, float]] = None) -> None:
        super().__init__(f"organic-growth-{target_id}")
        if per_day <= 0:
            raise ConfigurationError(f"per_day must be > 0: {per_day!r}")
        self._target_id = target_id
        self._per_day = per_day
        mix = dict(personas) if personas is not None else dict(self.DEFAULT_MIX)
        unknown = set(mix) - set(PERSONAS)
        if unknown:
            raise ConfigurationError(f"unknown personas: {sorted(unknown)!r}")
        self._personas = mix

    def interarrival(self, rng: random.Random) -> float:
        """Exponential gaps at the configured arrival rate."""
        return rng.expovariate(self._per_day / DAY)

    def fire(self, simulation: LiveSimulation, rng: random.Random) -> None:
        """Mint one follower account and create the follow edge."""
        now = simulation.now()
        names = sorted(self._personas)
        persona = PERSONAS[str(weighted_choice(
            rng, names, [self._personas[name] for name in names]))]
        user_id = simulation.mint_user_id(now)
        # Stylistic handles collide occasionally; draw a new key until
        # unique.  The account exists by the time it follows.
        while True:
            account = persona.sample(rng, user_id, now, latest_created=now)
            if not simulation.graph.has_screen_name(account.screen_name):
                break
        simulation.graph.add_account(account)
        simulation.graph.follow(user_id, self._target_id, now)


class ChurnProcess(Process):
    """Daily unfollow pressure on a target's audience.

    Once per day, a Poisson-distributed number of current followers
    (mean ``daily_fraction`` of the audience) unfollow.  Churn is what
    breaks the "old list is a suffix of the new list" property the
    paper's Section IV-B experiment relies on — the experiment module's
    checker flags exactly that.
    """

    def __init__(self, target_id: int, daily_fraction: float) -> None:
        super().__init__(f"churn-{target_id}")
        if not 0.0 < daily_fraction < 1.0:
            raise ConfigurationError(
                f"daily_fraction must be in (0, 1): {daily_fraction!r}")
        self._target_id = target_id
        self._daily_fraction = daily_fraction

    def interarrival(self, rng: random.Random) -> float:
        """Fires once per day."""
        return DAY

    def fire(self, simulation: LiveSimulation, rng: random.Random) -> None:
        """Unfollow a Poisson-sized batch of current followers."""
        graph = simulation.graph
        now = simulation.now()
        followers = list(graph.follower_ids(
            self._target_id, 0, graph.follower_count(self._target_id, now),
            now))
        if not followers:
            return
        quitters = poisson(rng, self._daily_fraction * len(followers))
        for user_id in rng.sample(followers,
                                  min(quitters, len(followers))):
            graph.unfollow(user_id, self._target_id)


class TweetingProcess(Process):
    """Keeps one account's tweet counters moving.

    Fires at the account's behavioural tweet rate and bumps
    ``statuses_count``/``last_tweet_at`` in the registered snapshot, so
    activity-based rules observe a living account.
    """

    def __init__(self, account_id: int, per_day: Optional[float] = None) -> None:
        super().__init__(f"tweeting-{account_id}")
        if per_day is not None and per_day <= 0:
            raise ConfigurationError(f"per_day must be > 0: {per_day!r}")
        self._account_id = account_id
        self._per_day = per_day

    def _rate(self) -> float:
        if self._per_day is not None:
            return self._per_day
        account = self._simulation.graph.account_by_id(
            self._account_id, self._simulation.now())
        return max(account.behavior.tweets_per_day, 0.01)

    def interarrival(self, rng: random.Random) -> float:
        """Exponential gaps at the account's tweeting rate."""
        return rng.expovariate(self._rate() / DAY)

    def fire(self, simulation: LiveSimulation, rng: random.Random) -> None:
        """Post one status: bump the counters in the snapshot."""
        graph = simulation.graph
        now = simulation.now()
        account = graph.account_by_id(self._account_id, now)
        graph.update_account(replace(
            account,
            statuses_count=account.statuses_count + 1,
            last_tweet_at=now,
        ))

