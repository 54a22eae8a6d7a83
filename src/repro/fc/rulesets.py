"""Rule-based baseline detectors from the (pre-2014) grey literature.

The FC methodology ([12], recounted in the paper's Section III) began by
testing the era's published single-rule approaches on a gold standard:

* Camisani-Calzolari's human/bot scoring used for the 2012 US-election
  follower audits [13];
* Socialbakers' Fake Follower Check criteria [14] (also re-used by the
  commercial engine in ``repro.analytics.socialbakers``);
* Stateofsearch.com's "7 signals to recognise Twitterbots" [15].

Their published criteria are qualitative; point weights and thresholds
were never disclosed.  The values below are documented choices that
respect every published statement, and the ablation bench (A3) shows —
as [12] found — that *no* weighting of these rules matches a trained
classifier on the gold standard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..api.endpoints import UserObject
from ..core.errors import ConfigurationError
from ..core.timeutil import DAY
from ..twitter.tweet import Tweet


def _link_fraction(timeline: Sequence[Tweet]) -> float:
    if not timeline:
        return 0.0
    return sum(1 for t in timeline if t.has_link()) / len(timeline)


def _retweet_fraction(timeline: Sequence[Tweet]) -> float:
    if not timeline:
        return 0.0
    return sum(1 for t in timeline if t.is_retweet()) / len(timeline)


def _spam_fraction(timeline: Sequence[Tweet]) -> float:
    if not timeline:
        return 0.0
    return sum(1 for t in timeline if t.contains_spam_phrase()) / len(timeline)


def _has_repeated_tweets(timeline: Sequence[Tweet], more_than: int = 3) -> bool:
    counts = Counter(t.body() for t in timeline)
    return any(count > more_than for count in counts.values())


def _mention_fraction(timeline: Sequence[Tweet]) -> float:
    if not timeline:
        return 0.0
    return sum(1 for t in timeline if t.mentions()) / len(timeline)


@dataclass(frozen=True)
class RuleVerdict:
    """Outcome of one rule set on one account."""

    score: float
    is_fake: bool
    fired: Tuple[str, ...]


class RuleSet:
    """Interface of a rule-based fake detector."""

    name: str = "ruleset"
    needs_timeline: bool = False

    def evaluate(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                 now: float) -> RuleVerdict:
        """Apply the rules to one account; returns the verdict."""
        raise NotImplementedError

    def is_fake(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                now: float) -> bool:
        """Whether the rule set declares the account fake."""
        return self.evaluate(user, timeline, now).is_fake

    def predict(self, users: Sequence[UserObject],
                timelines: Optional[Sequence[Optional[Sequence[Tweet]]]],
                now: float) -> np.ndarray:
        """Vectorised 0/1 (1 = fake) predictions, classifier-compatible."""
        if timelines is None:
            timelines = [None] * len(users)
        if len(timelines) != len(users):
            raise ConfigurationError("users and timelines length mismatch")
        return np.array(
            [1 if self.is_fake(u, t, now) else 0
             for u, t in zip(users, timelines)],
            dtype=np.int64,
        )


class CamisaniCalzolariRules(RuleSet):
    """Human-score rules from the 2012 election-followers analysis [13].

    Each satisfied *human* criterion earns points; accounts scoring
    below ``threshold`` are declared fake.  Criteria relying on data our
    substrate does not model (list membership, geo-enablement,
    punctuation habits) are omitted and the threshold is set against the
    remaining maximum of 12 points.
    """

    name = "camisani-calzolari"
    needs_timeline = True

    def __init__(self, threshold: float = 6.0) -> None:
        self._threshold = threshold

    def evaluate(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                 now: float) -> RuleVerdict:
        timeline = timeline or []
        score = 0.0
        fired: List[str] = []
        checks = (
            ("has_name", 2.0, bool(user.name.strip())),
            ("has_image", 2.0, not user.default_profile_image),
            ("has_address", 1.0, user.has_location()),
            ("has_bio", 2.0, user.has_bio()),
            ("followers_30", 2.0, user.followers_count >= 30),
            ("tweets_50", 2.0, user.statuses_count >= 50),
            ("has_url", 1.0, bool(user.url.strip())),
        )
        for label, points, satisfied in checks:
            if satisfied:
                score += points
                fired.append(label)
        return RuleVerdict(
            score=score, is_fake=score < self._threshold, fired=tuple(fired))


class SocialbakersCriteria(RuleSet):
    """The published Fake Follower Check criteria [14] (paper, Sec. II-B).

    Every criterion is quoted from the methodology page; the point
    weights and the suspicion threshold are the undisclosed part, fixed
    here at documented values.  ``evaluate`` returns the *suspicion*
    verdict; the three-way fake/inactive/genuine decision including the
    two inactivity rules lives in :meth:`classify`.
    """

    name = "socialbakers"
    needs_timeline = True
    #: Batch-criteria protocol: verdict vocabulary of :meth:`classify`
    #: (the engine maps ``genuine`` onto its report's ``good`` class).
    labels = ("fake", "inactive", "genuine")
    #: Stable rule registry: the eight published suspicion criteria
    #: (the ``sb.``-prefixed WEIGHTS keys) plus the two inactivity
    #: rules.  Renaming one breaks goldens — see docs/observability.md.
    rule_ids = (
        "sb.ff_ratio_50",
        "sb.spam_phrases_30pct",
        "sb.repeated_tweets_3x",
        "sb.retweets_90pct",
        "sb.links_90pct",
        "sb.never_tweeted",
        "sb.old_default_image",
        "sb.empty_profile_following_100",
        "sb.under_3_tweets",
        "sb.stale_90d",
    )

    #: (label, points) — one entry per published criterion.
    WEIGHTS = {
        "ff_ratio_50": 3.0,
        "spam_phrases_30pct": 2.0,
        "repeated_tweets_3x": 2.0,
        "retweets_90pct": 1.5,
        "links_90pct": 1.5,
        "never_tweeted": 1.0,
        "old_default_image": 2.0,
        "empty_profile_following_100": 2.0,
    }

    def __init__(self, threshold: float = 3.0) -> None:
        self._threshold = threshold

    def evaluate(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                 now: float) -> RuleVerdict:
        timeline = timeline or []
        fired: List[str] = []
        if user.friends_followers_ratio() >= 50.0:
            fired.append("ff_ratio_50")
        if _spam_fraction(timeline) > 0.30:
            fired.append("spam_phrases_30pct")
        if _has_repeated_tweets(timeline):
            fired.append("repeated_tweets_3x")
        if timeline and _retweet_fraction(timeline) > 0.90:
            fired.append("retweets_90pct")
        if timeline and _link_fraction(timeline) > 0.90:
            fired.append("links_90pct")
        if not user.has_ever_tweeted():
            fired.append("never_tweeted")
        if user.age_at(now) > 60 * DAY and user.default_profile_image:
            fired.append("old_default_image")
        if (not user.has_bio() and not user.has_location()
                and user.friends_count > 100):
            fired.append("empty_profile_following_100")
        score = sum(self.WEIGHTS[label] for label in fired)
        return RuleVerdict(
            score=score, is_fake=score >= self._threshold, fired=tuple(fired))

    # -- the engine's published inactivity rules -------------------------------

    @staticmethod
    def is_inactive(user: UserObject, now: float) -> bool:
        """"less than 3 tweets" or "last tweet more than 90 days old"."""
        if user.statuses_count < 3:
            return True
        age = user.last_status_age(now)
        return age is not None and age > 90 * DAY

    def classify(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                 now: float) -> str:
        """Three-way decision: ``"fake"`` / ``"inactive"`` / ``"genuine"``.

        Per the published flow, only accounts first marked *suspicious*
        are tested against the inactivity rules; accounts that are
        neither suspicious nor (suspicious and) inactive are genuine.
        """
        verdict = self.evaluate(user, timeline, now)
        if not verdict.is_fake:
            return "genuine"
        if self.is_inactive(user, now):
            return "inactive"
        return "fake"

    def explain(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                now: float):
        """Classify one account and name the fired rules (``sb.`` ids).

        Raw predicate firings: the inactivity rules report even on
        non-suspicious accounts (the published flow only *consults*
        them after suspicion; provenance records what held).
        """
        verdict = self.evaluate(user, timeline, now)
        fired = ["sb." + label for label in verdict.fired]
        if user.statuses_count < 3:
            fired.append("sb.under_3_tweets")
        age = user.last_status_age(now)
        if age is not None and age > 90 * DAY:
            fired.append("sb.stale_90d")
        if not verdict.is_fake:
            label = "genuine"
        elif self.is_inactive(user, now):
            label = "inactive"
        else:
            label = "fake"
        return label, tuple(fired)

    # -- the batch-criteria protocol -------------------------------------------

    def classify_all(self, users, timelines, now: float, sink=None):
        """Classify a whole sample: build its block, run the masks."""
        from ..analytics.criteria import build_sample_block  # deferred: cycle

        return self.classify_block(build_sample_block(users, timelines),
                                   now, sink=sink)

    def classify_block(self, block, now: float, sink=None):
        """Columnar three-way classification over a sample block.

        The eight published criteria become weighted boolean masks;
        the timeline fraction columns (read off the timelines' flag
        and body-key columns) replace the five per-rule timeline walks
        of :meth:`evaluate`.  All weights are exact multiples of 0.25
        and skipped rules contribute an exact ``0.0``, so the
        mask-weighted score equals :meth:`evaluate`'s
        ``sum(WEIGHTS[label] for label in fired)`` bit for bit — both
        then compare it against the same ``threshold`` constant.
        """
        from ..analytics.criteria import VerdictArray  # deferred: cycle

        stats = block.timeline_stats()
        weights = self.WEIGHTS
        masks = {
            "ff_ratio_50": block.ff_ratio >= 50.0,
            "spam_phrases_30pct": stats.spam > 0.30,
            "repeated_tweets_3x": stats.duplicate > 0.0,
            "retweets_90pct": stats.nonempty & (stats.retweet > 0.90),
            "links_90pct": stats.nonempty & (stats.link > 0.90),
            "never_tweeted": block.statuses <= 0,
            "old_default_image":
                (block.age_at(now) > 60 * DAY) & block.default_image,
            "empty_profile_following_100":
                ~block.has_bio & ~block.has_location & (block.friends > 100),
        }
        score = (masks["ff_ratio_50"] * weights["ff_ratio_50"]
                 + masks["spam_phrases_30pct"] * weights["spam_phrases_30pct"]
                 + masks["repeated_tweets_3x"] * weights["repeated_tweets_3x"]
                 + masks["retweets_90pct"] * weights["retweets_90pct"]
                 + masks["links_90pct"] * weights["links_90pct"]
                 + masks["never_tweeted"] * weights["never_tweeted"]
                 + masks["old_default_image"] * weights["old_default_image"]
                 + masks["empty_profile_following_100"]
                 * weights["empty_profile_following_100"])
        suspicious = score >= self._threshold
        under_3 = block.statuses < 3
        stale = (~block.never_tweeted
                 & (block.last_status_age(now) > 90 * DAY))
        inactive = under_3 | stale
        if sink is not None:
            for label, mask in masks.items():
                sink.add("sb." + label, mask)
            sink.add("sb.under_3_tweets", under_3)
            sink.add("sb.stale_90d", stale)
        codes = np.where(~suspicious, 2,
                         np.where(inactive, 1, 0)).astype(np.int64)
        return VerdictArray(labels=self.labels, codes=codes)


class StateOfSearchSignals(RuleSet):
    """"How to recognize Twitterbots: 7 signals to look out for" [15].

    An account showing at least ``min_signals`` of the seven published
    bot signals is declared fake.
    """

    name = "stateofsearch"
    needs_timeline = True

    def __init__(self, min_signals: int = 4) -> None:
        if not 1 <= min_signals <= 7:
            raise ConfigurationError(
                f"min_signals must be in [1, 7]: {min_signals!r}")
        self._min_signals = min_signals

    def evaluate(self, user: UserObject, timeline: Optional[Sequence[Tweet]],
                 now: float) -> RuleVerdict:
        timeline = timeline or []
        fired: List[str] = []
        if (user.friends_followers_ratio() >= 10.0
                and user.followers_count < 50):
            fired.append("follows_many_few_followers")
        if user.default_profile_image:
            fired.append("default_image")
        if not user.has_bio():
            fired.append("no_bio")
        if _has_repeated_tweets(timeline, more_than=2):
            fired.append("repeated_tweets")
        if timeline and _link_fraction(timeline) > 0.60:
            fired.append("mostly_links")
        if user.age_at(now) < 60 * DAY and user.friends_count > 300:
            fired.append("young_mass_follower")
        if _mention_fraction(timeline) < 0.05:
            fired.append("never_interacts")
        return RuleVerdict(
            score=float(len(fired)),
            is_fake=len(fired) >= self._min_signals,
            fired=tuple(fired),
        )


#: All baselines, in the order [12] evaluated them.
BASELINE_RULESETS: Tuple[RuleSet, ...] = (
    CamisaniCalzolariRules(),
    SocialbakersCriteria(),
    StateOfSearchSignals(),
)
