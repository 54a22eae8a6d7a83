"""Account model for the simulated Twitter.

An :class:`Account` is a *snapshot* of a user profile at some simulated
instant, carrying exactly the observable fields the real v1.1
``users/lookup`` endpoint exposed (counts, profile metadata, embedded
last status date) plus two simulation-only extras that never cross the
API boundary: the generating :class:`BehaviorProfile` and the ground
truth :class:`Label`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..core.errors import ConfigurationError


class Label(enum.Enum):
    """Ground-truth class of an account, following the paper's taxonomy.

    The paper (and its reference classifier, Section III) partitions a
    follower base into three disjoint classes:

    * ``GENUINE`` — a real, engaged user;
    * ``INACTIVE`` — a real user who never tweeted or whose last tweet is
      older than 90 days;
    * ``FAKE`` — an account created to inflate follower counts.
    """

    GENUINE = "genuine"
    INACTIVE = "inactive"
    FAKE = "fake"


#: Canonical ordering used by reports (matches Table III column order).
LABELS = (Label.INACTIVE, Label.FAKE, Label.GENUINE)

#: Widths of the fixed-width text columns of a structured account row
#: (:mod:`repro.twitter.columnar.schema`).  Generated handles and
#: display names hold at most 15 characters; every persona vocabulary
#: is checked against these widths when the persona is built.
STRING_WIDTHS = {
    "screen_name": 20,
    "name": 24,
    "description": 48,
    "location": 16,
    "url": 40,
}


@dataclass(frozen=True)
class BehaviorProfile:
    """Long-run tweeting behaviour of an account.

    These rates drive the deterministic timeline generator and therefore
    every timeline-derived feature (retweet fraction, link fraction,
    spam-phrase fraction, duplicate tweets) that the Socialbakers
    criteria and the literature feature sets consume.

    Attributes
    ----------
    tweets_per_day:
        Mean tweeting rate while the account is active.
    retweet_ratio:
        Fraction of tweets that are retweets.
    link_ratio:
        Fraction of tweets containing a URL.
    spam_ratio:
        Fraction of tweets containing a known spam phrase
        ("diet", "make money", "work from home", ...).
    mention_ratio:
        Fraction of tweets mentioning another user.
    hashtag_ratio:
        Fraction of tweets carrying at least one hashtag.
    duplicate_pool:
        Size of the template pool the account draws its tweet bodies
        from.  ``0`` means every tweet is unique; a small positive pool
        makes the account repeat identical tweets, which trips
        Socialbakers' "same tweets repeated more than three times" rule.
    api_source_ratio:
        Fraction of tweets posted through an automation API rather than
        an official client — a classic bot signal from the literature.
    """

    tweets_per_day: float = 1.0
    retweet_ratio: float = 0.2
    link_ratio: float = 0.25
    spam_ratio: float = 0.0
    mention_ratio: float = 0.3
    hashtag_ratio: float = 0.2
    duplicate_pool: int = 0
    api_source_ratio: float = 0.05

    def __post_init__(self) -> None:
        for name in ("retweet_ratio", "link_ratio", "spam_ratio",
                     "mention_ratio", "hashtag_ratio", "api_source_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {value!r}")
        if self.tweets_per_day < 0:
            raise ConfigurationError(
                f"tweets_per_day must be non-negative: {self.tweets_per_day!r}"
            )
        if self.duplicate_pool < 0:
            raise ConfigurationError(
                f"duplicate_pool must be non-negative: {self.duplicate_pool!r}"
            )


@dataclass(frozen=True)
class Account:
    """A profile snapshot, as observable through ``users/lookup``.

    ``behavior`` and ``true_label`` are simulation internals: the API
    layer strips them before handing data to any analytics engine (see
    ``repro.api.endpoints.UserObject``).
    """

    user_id: int
    screen_name: str
    created_at: float
    name: str = ""
    description: str = ""
    location: str = ""
    url: str = ""
    default_profile_image: bool = False
    verified: bool = False
    followers_count: int = 0
    friends_count: int = 0
    statuses_count: int = 0
    #: Creation time of the most recent tweet; ``None`` if never tweeted.
    last_tweet_at: Optional[float] = None
    behavior: BehaviorProfile = field(default=BehaviorProfile())
    true_label: Optional[Label] = None

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise ConfigurationError(f"user_id must be non-negative: {self.user_id!r}")
        if not self.screen_name:
            raise ConfigurationError("screen_name must be non-empty")
        for name in ("followers_count", "friends_count", "statuses_count"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.statuses_count == 0 and self.last_tweet_at is not None:
            raise ConfigurationError(
                "an account with zero tweets cannot have a last_tweet_at"
            )
        if self.statuses_count > 0 and self.last_tweet_at is None:
            raise ConfigurationError(
                "an account with tweets must have a last_tweet_at"
            )
        if self.last_tweet_at is not None and self.last_tweet_at < self.created_at:
            raise ConfigurationError("last tweet cannot predate account creation")

    # -- derived observables ------------------------------------------------

    def age_at(self, now: float) -> float:
        """Account age in seconds at simulated instant ``now``."""
        return max(0.0, now - self.created_at)

    def friends_followers_ratio(self) -> float:
        """following/followers ratio, the analytics' favourite signal.

        Returns ``friends_count`` when the account has no followers (the
        convention used by the rule sets: an account following 200 users
        with zero followers is maximally suspicious).
        """
        if self.followers_count == 0:
            return float(self.friends_count)
        return self.friends_count / self.followers_count

    def has_bio(self) -> bool:
        """Whether the profile description is filled in."""
        return bool(self.description.strip())

    def has_location(self) -> bool:
        """Whether the profile location is filled in."""
        return bool(self.location.strip())

    def has_url(self) -> bool:
        """Whether the profile links an external URL."""
        return bool(self.url.strip())

    def has_ever_tweeted(self) -> bool:
        """Whether the account posted at least one status."""
        return self.statuses_count > 0

    def last_tweet_age(self, now: float) -> Optional[float]:
        """Seconds since the last tweet, or ``None`` if never tweeted."""
        if self.last_tweet_at is None:
            return None
        return max(0.0, now - self.last_tweet_at)
