"""Twitteraudit (paper, Section II-C).

Online since 2012, run by two individuals (@davc and @grossnasty).
"Given each follower of an account, the application computes a score
based on i) the number of its tweets, ii) the date of the last tweet,
and iii) the ratio of followers to friends, taking a random sample of
5K Twitter followers."  How the score combines is undisclosed; the
output charts reveal the three criteria "can sum up to five" real
points per follower.

Distinctive observable behaviours reproduced here:

* it does **not** report inactive followers as a class (Table III's
  footnote) — dormant accounts simply score low and land in "fake";
* it is the only tool that displays the assessment date, which is how
  the paper caught it serving a result "evaluated 7 months ago" in 3
  seconds (Table II, @pinucciotwit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.endpoints import UserObject
from ..core.timeutil import DAY
from .base import AnalysisOutcome, CommercialAnalytic
from .criteria import Criteria, SampleBlock, VerdictArray

#: "taking a random sample of 5K Twitter followers" — one API page,
#: which is necessarily the newest 5000.
TA_SAMPLE = 5000

#: Real-point scale maximum ("a maximum scale of 5").
TA_MAX_POINTS = 5.0


@dataclass(frozen=True)
class RealScore:
    """A follower's "real points" breakdown (the audit's third chart)."""

    tweets_points: float
    recency_points: float
    ratio_points: float

    @property
    def total(self) -> float:
        """Summed real points (0-5)."""
        return self.tweets_points + self.recency_points + self.ratio_points

    @property
    def quality(self) -> float:
        """The 0-1 "quality score" of the audit's second chart."""
        return self.total / TA_MAX_POINTS


def real_score(user: UserObject, now: float) -> RealScore:
    """Score one follower on the three published criteria (max 5).

    The breakpoints are undisclosed; these encode the obvious reading:
    an account that tweets, tweeted recently, and is followed at least
    as much as it follows, earns full points.
    """
    if user.statuses_count >= 50:
        tweets = 1.5
    elif user.statuses_count >= 5:
        tweets = 0.75
    else:
        tweets = 0.0
    age = user.last_status_age(now)
    if age is None:
        recency = 0.0
    elif age <= 30 * DAY:
        recency = 1.5
    elif age <= 180 * DAY:
        recency = 0.75
    else:
        recency = 0.0
    ratio = user.friends_followers_ratio()
    if ratio <= 1.0:
        ratio_points = 2.0
    elif ratio <= 5.0:
        ratio_points = 1.0
    else:
        ratio_points = 0.0
    return RealScore(tweets, recency, ratio_points)


def _ta_fired(user: UserObject, now: float):
    """Deficiency rules of one follower, in registry order."""
    fired = []
    if user.statuses_count < 5:
        fired.append("ta.no_tweets")
    elif user.statuses_count < 50:
        fired.append("ta.few_tweets")
    age = user.last_status_age(now)
    if age is None or age > 30 * DAY:
        fired.append("ta.stale_30d")
    if age is None or age > 180 * DAY:
        fired.append("ta.stale_180d")
    ratio = user.friends_followers_ratio()
    if ratio > 1.0:
        fired.append("ta.ratio_over_1")
    if ratio > 5.0:
        fired.append("ta.ratio_over_5")
    return tuple(fired)


class TwitterauditCriteria(Criteria):
    """The 3-criterion RealScore rules behind the batch-criteria API.

    The verdict array's ``extras`` carry the audit's chart aggregates:
    the 0-5 real-points histogram, the quality decile histogram, and
    the running quality sum (accumulated in user order, as summing
    :func:`real_score` qualities one account at a time would — a NumPy
    pairwise sum would round differently).  All point values are
    multiples of 0.25, so the columnar nested-``where`` scoring is
    bit-identical to :func:`real_score`'s branch ladder.
    """

    name = "ta-real-points"
    needs_timeline = False
    labels = ("fake", "not sure", "real")
    #: Deficiency rules: each names a way a follower *loses* real
    #: points (the audit penalises absences, unlike the spam-points
    #: engines which accumulate positives).
    rule_ids = (
        "ta.no_tweets",
        "ta.few_tweets",
        "ta.stale_30d",
        "ta.stale_180d",
        "ta.ratio_over_1",
        "ta.ratio_over_5",
    )

    def __init__(self, fake_threshold: float = 2.5) -> None:
        self._fake_threshold = fake_threshold

    def classify(self, user: UserObject, timeline, now: float) -> str:
        total = real_score(user, now).total
        if total < self._fake_threshold:
            return "fake"
        if total < self._fake_threshold + 1.0:
            return "not sure"
        return "real"

    def explain(self, user: UserObject, timeline, now: float):
        return self.classify(user, timeline, now), _ta_fired(user, now)

    def classify_block(self, block: SampleBlock, now: float,
                       sink=None) -> VerdictArray:
        statuses = block.statuses
        tweets = np.where(statuses >= 50, 1.5,
                          np.where(statuses >= 5, 0.75, 0.0))
        age = block.last_status_age(now)
        recency = np.where(block.never_tweeted, 0.0,
                           np.where(age <= 30 * DAY, 1.5,
                                    np.where(age <= 180 * DAY, 0.75, 0.0)))
        ratio = block.ff_ratio
        ratio_points = np.where(ratio <= 1.0, 2.0,
                                np.where(ratio <= 5.0, 1.0, 0.0))
        if sink is not None:
            # The deficiency masks restate the scoring breakpoints as
            # booleans; they read the same columns the scores were
            # computed from, never the scores themselves.
            stale = block.never_tweeted | (age > 30 * DAY)
            sink.add("ta.no_tweets", statuses < 5)
            sink.add("ta.few_tweets", (statuses >= 5) & (statuses < 50))
            sink.add("ta.stale_30d", stale)
            sink.add("ta.stale_180d",
                     block.never_tweeted | (age > 180 * DAY))
            sink.add("ta.ratio_over_1", ratio > 1.0)
            sink.add("ta.ratio_over_5", ratio > 5.0)
        # Left-associated like RealScore.total's sum.
        total = (tweets + recency) + ratio_points
        quality = total / TA_MAX_POINTS
        buckets = np.minimum(5, total.astype(np.int64))
        deciles = np.minimum(9, (quality * 10.0).astype(np.int64))
        bucket_counts = np.bincount(buckets, minlength=6)
        decile_counts = np.bincount(deciles, minlength=10)
        # Ordered accumulation on Python floats, matching a
        # ``quality_sum += score.quality`` loop bit for bit.
        quality_sum = 0.0
        for value in quality.tolist():
            quality_sum += value
        threshold = self._fake_threshold
        codes = np.where(total < threshold, 0,
                         np.where(total < threshold + 1.0, 1, 2)
                         ).astype(np.int64)
        return VerdictArray(labels=self.labels, codes=codes, extras={
            "real_points_histogram": {points: int(bucket_counts[points])
                                      for points in range(6)},
            "quality_histogram": {decile: int(decile_counts[decile])
                                  for decile in range(10)},
            "quality_sum": quality_sum,
        })


class Twitteraudit(CommercialAnalytic):
    """The Twitteraudit checker: one 5000-id page, 3-criterion scoring."""

    name = "twitteraudit"
    reports_inactive = False

    def __init__(self, world, clock, *, fake_threshold: float = 2.5,
                 **kwargs) -> None:
        # A small two-worker crawler: 52 requests in ~50 s (Table II).
        kwargs.setdefault("credentials", 8)
        kwargs.setdefault("parallelism", 2)
        super().__init__(world, clock, **kwargs)
        self._fake_threshold = fake_threshold
        self._criteria = TwitterauditCriteria(fake_threshold=fake_threshold)

    @property
    def frame_policy(self) -> str:
        """The sampling frame: the one newest 5000-id page."""
        return f"newest {TA_SAMPLE} followers (one id page)"

    def _analyze_steps(self, screen_name: str):
        """One newest-5000 page, scored on the three public criteria."""
        target, users, __ = yield from self._fetch_head_sample(
            screen_name,
            head=TA_SAMPLE,
            sample=TA_SAMPLE,
            with_timelines=False,
        )
        now = self._analysis_now()
        verdicts = self._classify_sample(users, None, now)
        counts = verdicts.counts()
        total = max(1, len(users))
        fake_pct = round(100.0 * counts["fake"] / total, 1)
        quality_sum = verdicts.extras["quality_sum"]
        return AnalysisOutcome(
            followers_count=target.followers_count,
            sample_size=len(users),
            fake_pct=fake_pct,
            genuine_pct=round(100.0 - fake_pct, 1),
            inactive_pct=None,
            details={
                # Data behind the three charts of a Twitteraudit report
                # (paper, Section II-C): the fake/not-sure/real verdict,
                # the per-follower "quality score", and the per-follower
                # "real points" on the 5-point scale.
                "verdict_counts": counts,
                "quality_histogram": verdicts.extras["quality_histogram"],
                "real_points_histogram":
                    verdicts.extras["real_points_histogram"],
                "mean_quality_score": quality_sum / total,
                "engine": self.info().as_dict(),
            },
        )
