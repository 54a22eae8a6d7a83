"""StatusPeople "Fakers" (paper, Section II-A).

Launched July 2012 by the UK company StatusPeople, repeatedly cited by
mainstream media.  The paper documents three historical configurations
of its sampling, all of them head-of-list:

* at launch: assess 1000 records across a follower base of up to 100 K;
* after the October 2012 Twitter API change: 700 records across 35 K
  (the configuration active during the paper's experiments — the
  default here);
* the November 2013 "Deep Dive" for mega accounts: 33 K records across
  the first 1.25 M, internal-only.

Classification is by "a number of simple spam criteria": "on a very
basic level spam accounts tend to have few or no followers and few or
no tweets.  But in contrast they tend to follow a lot of other
accounts", with the follower/friend relationship being "the most
meaningful" signal per the founder's interview.  On activity, the
founder defines an active user as "someone who is engaging with the
platform — producing and sharing content", which we encode as a
30-day last-tweet horizon — notably stricter than the 90-day notion
used by Socialbakers and FC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.endpoints import UserObject
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY
from .base import CommercialAnalytic
from .criteria import Criteria, SampleBlock, VerdictArray


@dataclass(frozen=True)
class FakersConfig:
    """One historical sampling configuration of the Fakers app."""

    label: str
    head: int
    sample: int

    def __post_init__(self) -> None:
        if not 0 < self.sample <= self.head:
            raise ConfigurationError(
                f"sample must be in (0, head]: {self.sample!r}")


#: July 2012 launch configuration.
LAUNCH_CONFIG = FakersConfig("launch-2012", head=100_000, sample=1000)
#: Post API-change configuration (18 Oct 2012) — the paper-era default.
DEFAULT_CONFIG = FakersConfig("post-api-change", head=35_000, sample=700)
#: November 2013 "Deep Dive" for the most-followed accounts.
DEEP_DIVE_CONFIG = FakersConfig("deep-dive", head=1_250_000, sample=33_000)

#: Last-tweet age beyond which StatusPeople counts a follower inactive.
SP_INACTIVITY_HORIZON = 30 * DAY


def spam_score(user: UserObject) -> float:
    """StatusPeople's "simple spam criteria", as points.

    Weights are undisclosed; these encode the published statements with
    the follower/friend relationship carrying the most weight.
    """
    score = 0.0
    if user.followers_count <= 25:
        score += 1.0
    if user.statuses_count <= 20:
        score += 1.0
    if user.friends_count >= 150:
        score += 1.0
    if user.friends_followers_ratio() >= 20.0:
        score += 2.0
    return score


def is_spam(user: UserObject, threshold: float = 3.0) -> bool:
    """Fake verdict of the Fakers criteria."""
    return spam_score(user) >= threshold


def is_inactive(user: UserObject, now: float) -> bool:
    """Not "producing and sharing content" within the 30-day horizon."""
    age = user.last_status_age(now)
    return age is None or age > SP_INACTIVITY_HORIZON


class StatusPeopleCriteria(Criteria):
    """The Fakers spam/inactivity rules behind the batch-criteria API.

    The per-account spec delegates to the module-level rule functions;
    the columnar path expresses the same four spam predicates as
    weighted boolean masks.  Point weights are exact multiples of 0.5
    with sums well under 2^53, so the mask-weighted sum is
    bit-identical to the per-account accumulation.
    """

    name = "sp-spam-points"
    needs_timeline = False
    labels = ("fake", "inactive", "good")
    rule_ids = (
        "sp.few_followers",
        "sp.few_tweets",
        "sp.mass_following",
        "sp.ratio_20",
        "sp.inactive_30d",
    )

    def __init__(self, threshold: float = 3.0) -> None:
        self._threshold = threshold

    def classify(self, user: UserObject, timeline, now: float) -> str:
        if is_spam(user, self._threshold):
            return "fake"
        if is_inactive(user, now):
            return "inactive"
        return "good"

    def explain(self, user: UserObject, timeline, now: float):
        fired = []
        if user.followers_count <= 25:
            fired.append("sp.few_followers")
        if user.statuses_count <= 20:
            fired.append("sp.few_tweets")
        if user.friends_count >= 150:
            fired.append("sp.mass_following")
        if user.friends_followers_ratio() >= 20.0:
            fired.append("sp.ratio_20")
        if is_inactive(user, now):
            fired.append("sp.inactive_30d")
        return self.classify(user, timeline, now), tuple(fired)

    def classify_block(self, block: SampleBlock, now: float,
                       sink=None) -> VerdictArray:
        few_followers = block.followers <= 25
        few_tweets = block.statuses <= 20
        mass_following = block.friends >= 150
        ratio_20 = block.ff_ratio >= 20.0
        score = (few_followers * 1.0
                 + few_tweets * 1.0
                 + mass_following * 1.0
                 + ratio_20 * 2.0)
        spam = score >= self._threshold
        # NaN last-status ages compare False against the horizon, so
        # never-tweeted rows need the explicit mask.
        inactive = block.never_tweeted | (
            block.last_status_age(now) > SP_INACTIVITY_HORIZON)
        if sink is not None:
            sink.add("sp.few_followers", few_followers)
            sink.add("sp.few_tweets", few_tweets)
            sink.add("sp.mass_following", mass_following)
            sink.add("sp.ratio_20", ratio_20)
            sink.add("sp.inactive_30d", inactive)
        codes = np.where(spam, 0, np.where(inactive, 1, 2)).astype(np.int64)
        return VerdictArray(labels=self.labels, codes=codes)


class StatusPeopleFakers(CommercialAnalytic):
    """The Fakers app: head-of-list sample, profile-only spam criteria.

    Runs a modest serial crawler (its ~25 s fresh-analysis times in
    Table II are consistent with ~14 sequential API calls).
    """

    name = "statuspeople"
    reports_inactive = True

    def __init__(self, world, clock, *, config: FakersConfig = DEFAULT_CONFIG,
                 **kwargs) -> None:
        kwargs.setdefault("credentials", 4)
        kwargs.setdefault("parallelism", 1)
        super().__init__(world, clock, **kwargs)
        self._config = config
        self._criteria = StatusPeopleCriteria()

    @property
    def config(self) -> FakersConfig:
        """The active sampling configuration."""
        return self._config

    @property
    def sample_size(self) -> int:
        """Records assessed per audit by the active configuration."""
        return self._config.sample

    @property
    def frame_policy(self) -> str:
        """The sampling frame of the active Fakers configuration."""
        return (f"newest {self._config.head} follower ids, "
                f"random sample of {self._config.sample}")

    def _analyze_steps(self, screen_name: str):
        """Head-of-list sample classified by the spam/inactivity rules."""
        target, users, timelines = yield from self._fetch_head_sample(
            screen_name, head=self._config.head)
        counts = self._classify_sample(users, timelines).counts()
        return self._outcome(target.followers_count, counts, {
            "config": self._config.label,
            "head": self._config.head,
            "engine": self.info().as_dict(),
        })
