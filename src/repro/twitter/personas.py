"""Persona library: parameterised account archetypes.

Each persona is a generative archetype observed in the fake-follower
literature the paper builds on ([8], [9], [13]-[15]): engaged humans,
abandoned accounts, dormant "egg" fakes, classic purchased followers and
active spam bots.  A persona carries the ground-truth :class:`Label` the
paper's taxonomy assigns to accounts of that kind, and a *column
sampler* that draws a whole batch of account snapshots from the
archetype's distributions at once (see :mod:`repro.twitter.columns`).

The samplers enforce the behavioural definitions exactly: any persona
labelled ``INACTIVE`` produces accounts that never tweeted or whose last
tweet is older than 90 days at observation time, and personas labelled
``GENUINE``/``FAKE`` produce accounts with recent activity — so ground
truth coincides with what a perfect observer applying the paper's
published definitions would conclude.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.timeutil import DAY, TWITTER_LAUNCH, YEAR
from .account import STRING_WIDTHS, Account, Label
from .columns import sample_accounts
from .draws import (
    Draws,
    LogNormalTable,
    Lookup,
    as_int,
    isnan,
    maximum,
    minimum,
    where,
)
from .names import bot_handles, display_names, human_handles

#: The paper's inactivity horizon: last tweet older than 90 days.
INACTIVITY_HORIZON = 90 * DAY

#: Profile bios of human personas (description codes 1..).
BIO_SNIPPETS = (
    "Love music, football and good food.",
    "Proud parent. Opinions are my own.",
    "Journalist and coffee addict.",
    "Engineer by day, guitarist by night.",
    "Living one day at a time.",
    "Photographer. Traveller. Dreamer.",
)

#: Profile locations of human personas (location codes 1..).
LOCATIONS = (
    "Rome, Italy", "Milan", "Pisa", "London", "Paris",
    "New York", "Madrid", "Berlin", "Turin",
)

_HUMAN_TEXT = {
    "descriptions": ("",) + BIO_SNIPPETS,
    "locations": ("",) + LOCATIONS,
    "urls": ("", "http://example.org/{}"),
}

#: Heavy-tailed count distributions of engaged humans.
_STATUSES = LogNormalTable(5.0, 1.0)
_FOLLOWERS = LogNormalTable(4.6, 1.2)
_FRIENDS = LogNormalTable(5.2, 1.0)
#: ``exp(0.3 * years)`` by whole day of account age: an engaged human's
#: tweet count grows with the account (``mean_log = 5 + 0.3 * years``).
_ACTIVITY_GROWTH = Lookup(math.exp(0.3 * day * DAY / YEAR)
                          for day in range(12 * 366))


def created_at(draws: Draws, now: float, min_age: float, max_age: float,
               latest_created: np.ndarray) -> np.ndarray:
    """One draw: creation ``min_age`` to ``max_age`` before now, never
    before Twitter's launch and never after ``latest_created``."""
    created = maximum(TWITTER_LAUNCH, now - draws.uniform(min_age, max_age))
    return minimum(created, latest_created)


def recent_last_tweet(draws: Draws, now: float, created: np.ndarray,
                      max_age: float) -> np.ndarray:
    """One draw: a last tweet within ``max_age`` of now (an *active* account)."""
    return maximum(created, now - draws.uniform(0.0, max_age))


def stale_last_tweet(draws: Draws, now: float, created: np.ndarray,
                     max_age: float) -> np.ndarray:
    """One draw: a last tweet strictly older than the inactivity horizon.

    NaN (never tweeted) where the account is too young to have a tweet
    older than the horizon.
    """
    oldest = now - minimum(max_age, now - created)
    newest = now - INACTIVITY_HORIZON * 1.01
    return where(oldest < newest,
                 oldest + (newest - oldest) * draws.random(), math.nan)


def _code(chosen: np.ndarray, draws: Draws, count: int) -> np.ndarray:
    """One draw: a text code in ``1..count`` where ``chosen``, else 0."""
    return where(chosen, 1 + draws.choice(count), 0)


#: The parameters :meth:`Persona.sample` passes a sampler.
_SAMPLER_ARGS = ("draws", "now", "latest_created")
#: Persona vocabularies and the row column each one's codes fill.
_VOCABULARIES = (("descriptions", "description"), ("locations", "location"),
                 ("urls", "url"))


@dataclass(frozen=True)
class Persona:
    """A named account archetype with its ground-truth label.

    ``sampler(draws, now, latest_created)`` is a *column sampler*: it
    returns the columns of a whole batch of accounts (see
    :mod:`repro.twitter.columns`), drawn only from ``draws``, each
    created no later than its ``latest_created`` (``inf`` where
    uncapped).  A batch of one row hands the sampler Python scalars
    instead of arrays.  Text columns are codes into the persona's
    vocabularies: ``descriptions``, ``locations`` and ``urls`` (a url
    may embed the handle as ``{}``); code 0 is the empty string.
    """

    name: str
    label: Label
    sampler: Callable[[Draws, float, np.ndarray], Dict[str, object]]
    descriptions: Tuple[str, ...] = ("",)
    locations: Tuple[str, ...] = ("",)
    urls: Tuple[str, ...] = ("",)

    def __post_init__(self) -> None:
        for vocabulary, column in _VOCABULARIES:
            texts = getattr(self, vocabulary)
            width = STRING_WIDTHS[column]
            if not texts or texts[0] != "":
                raise ConfigurationError(
                    f"persona {self.name!r}: {vocabulary} must start with ''")
            for text in texts:
                # Only a url embeds the handle; other texts render as is.
                rendered = text.format("x" * STRING_WIDTHS["screen_name"]) \
                    if vocabulary == "urls" else text
                if len(rendered) > width or text.endswith("\x00"):
                    raise ConfigurationError(
                        f"persona {self.name!r}: {text!r} does not fit the "
                        f"{column} column of width {width}")
        try:
            signature = inspect.signature(self.sampler)
        except (TypeError, ValueError):
            return
        try:
            signature.bind(*_SAMPLER_ARGS)
        except TypeError as exc:
            raise ConfigurationError(
                f"persona {self.name!r}: a sampler takes (draws, now, "
                f"latest_created): {exc}") from None

    def sample(self, rng, user_id: int, now: float) -> Account:
        """Draw one account snapshot at ``now`` from a key off ``rng``.

        For callers that need an :class:`Account` outside a follower
        population (the ambient pool): the key is
        ``rng.getrandbits(64)`` and the account comes from the same
        column sampler as every follower, uncapped.
        """
        return sample_accounts([self], [rng.getrandbits(64)], [user_id],
                               now)[0]


# ---------------------------------------------------------------------------
# Genuine personas
# ---------------------------------------------------------------------------

def _sample_genuine_active(draws: Draws, now: float,
                           latest_created: np.ndarray) -> dict:
    """An engaged human: balanced graph counts, steady original tweeting."""
    created = created_at(draws, now, 0.5 * YEAR, 7 * YEAR, latest_created)
    columns = human_handles(draws)
    columns.update(display_names(draws))
    age_days = minimum(as_int((now - created) / DAY),
                       len(_ACTIVITY_GROWTH) - 1)
    columns.update(
        created_at=created,
        tweets_per_day=draws.uniform(0.3, 6.0),
        retweet_ratio=draws.uniform(0.1, 0.4),
        link_ratio=draws.uniform(0.1, 0.4),
        spam_ratio=0.0,
        mention_ratio=draws.uniform(0.2, 0.5),
        hashtag_ratio=draws.uniform(0.1, 0.35),
        duplicate_pool=0,
        # Plenty of real humans schedule posts through third-party
        # clients (Buffer, HootSuite — the paper's own introduction
        # lists them), so source alone must not separate the classes.
        api_source_ratio=draws.uniform(0.0, 0.45),
        statuses_count=draws.lognormal(_STATUSES, 20, 60000,
                                       scale=_ACTIVITY_GROWTH.take(age_days)),
        description=_code(draws.chance(0.85), draws, len(BIO_SNIPPETS)),
        location=_code(draws.chance(0.7), draws, len(LOCATIONS)),
        url=draws.chance(0.25),
        default_profile_image=draws.chance(0.04),
        followers_count=draws.lognormal(_FOLLOWERS, 10, 100000),
        friends_count=draws.lognormal(_FRIENDS, 20, 5000),
        last_tweet_at=recent_last_tweet(draws, now, created, 20 * DAY),
    )
    return columns


def _sample_genuine_newbie(draws: Draws, now: float,
                           latest_created: np.ndarray) -> dict:
    """A recently joined human: thin profile, few tweets, few followers.

    Newbies are the accounts that crude rule sets most often mistake for
    fakes ("few or no followers and few or no tweets").
    """
    created = created_at(draws, now, 5 * DAY, 120 * DAY, latest_created)
    columns = human_handles(draws)
    columns.update(display_names(draws))
    columns.update(
        created_at=created,
        tweets_per_day=draws.uniform(0.1, 1.5),
        retweet_ratio=draws.uniform(0.2, 0.6),
        link_ratio=draws.uniform(0.05, 0.3),
        spam_ratio=0.0,
        mention_ratio=draws.uniform(0.1, 0.4),
        hashtag_ratio=draws.uniform(0.05, 0.3),
        duplicate_pool=0,
        api_source_ratio=draws.uniform(0.0, 0.15),
        description=_code(draws.chance(0.4), draws, len(BIO_SNIPPETS)),
        location=_code(draws.chance(0.35), draws, len(LOCATIONS)),
        default_profile_image=draws.chance(0.35),
        followers_count=draws.integers(0, 40),
        friends_count=draws.integers(10, 250),
        statuses_count=draws.integers(1, 60),
        last_tweet_at=recent_last_tweet(draws, now, created, 15 * DAY),
    )
    return columns


# ---------------------------------------------------------------------------
# Inactive personas
# ---------------------------------------------------------------------------

def _sample_genuine_abandoned(draws: Draws, now: float,
                              latest_created: np.ndarray) -> dict:
    """A real user who tried Twitter and drifted away.

    Either never tweeted, or last tweeted well over 90 days ago.
    """
    created = created_at(draws, now, 1.0 * YEAR, 7 * YEAR, latest_created)
    columns = human_handles(draws)
    columns.update(display_names(draws))
    never_tweeted = draws.chance(0.3)
    last_tweet = where(never_tweeted, math.nan,
                          stale_last_tweet(draws, now, created, 5 * YEAR))
    columns.update(
        created_at=created,
        last_tweet_at=last_tweet,
        statuses_count=where(isnan(last_tweet), 0,
                                draws.integers(1, 300)),
        tweets_per_day=draws.uniform(0.05, 0.8),
        retweet_ratio=draws.uniform(0.1, 0.5),
        link_ratio=draws.uniform(0.05, 0.35),
        spam_ratio=0.0,
        mention_ratio=draws.uniform(0.1, 0.4),
        hashtag_ratio=draws.uniform(0.05, 0.25),
        duplicate_pool=0,
        api_source_ratio=draws.uniform(0.0, 0.05),
        description=_code(draws.chance(0.55), draws, len(BIO_SNIPPETS)),
        location=_code(draws.chance(0.45), draws, len(LOCATIONS)),
        default_profile_image=draws.chance(0.25),
        followers_count=draws.integers(0, 120),
        friends_count=draws.integers(5, 400),
    )
    return columns


def _sample_fake_egg_dormant(draws: Draws, now: float,
                             latest_created: np.ndarray) -> dict:
    """A dormant mass-created fake: default egg avatar, empty profile,
    never tweeted (or one stale tweet), follows hundreds of accounts.

    Behaviourally inactive, so labelled ``INACTIVE`` per the paper's
    definitions — but its *profile* shape is the classic fake signature
    the rule-based tools key on.
    """
    created = created_at(draws, now, 0.5 * YEAR, 3 * YEAR, latest_created)
    columns = bot_handles(draws)
    never_tweeted = draws.chance(0.8)
    last_tweet = where(never_tweeted, math.nan,
                          stale_last_tweet(draws, now, created, 2 * YEAR))
    columns.update(
        created_at=created,
        last_tweet_at=last_tweet,
        statuses_count=where(isnan(last_tweet), 0,
                                draws.integers(1, 5)),
        tweets_per_day=0.01,
        retweet_ratio=0.1,
        link_ratio=draws.uniform(0.5, 1.0),
        spam_ratio=draws.uniform(0.3, 0.9),
        mention_ratio=0.05,
        hashtag_ratio=0.1,
        duplicate_pool=draws.integers(1, 3),
        api_source_ratio=0.9,
        default_profile_image=draws.chance(0.75),
        followers_count=draws.integers(0, 15),
        friends_count=draws.integers(150, 2500),
    )
    return columns


# ---------------------------------------------------------------------------
# Fake personas
# ---------------------------------------------------------------------------

def _sample_fake_classic(draws: Draws, now: float,
                         latest_created: np.ndarray) -> dict:
    """A purchased follower kept minimally alive by its operator.

    A handful of recent low-effort tweets, no real audience, follows a
    lot of accounts (the founder of StatusPeople's "most meaningful"
    signal: "fake accounts tend to follow a lot of people but don't have
    many followers").
    """
    created = created_at(draws, now, 60 * DAY, 2 * YEAR, latest_created)
    columns = bot_handles(draws)
    columns.update(
        created_at=created,
        tweets_per_day=draws.uniform(0.02, 0.3),
        retweet_ratio=draws.uniform(0.3, 0.8),
        link_ratio=draws.uniform(0.3, 0.8),
        spam_ratio=draws.uniform(0.1, 0.5),
        mention_ratio=draws.uniform(0.0, 0.2),
        hashtag_ratio=draws.uniform(0.0, 0.3),
        duplicate_pool=draws.integers(1, 4),
        api_source_ratio=draws.uniform(0.6, 1.0),
        # Named after the first six characters of the handle, or unnamed.
        name_kind=where(draws.chance(0.5), 6, 0),
        default_profile_image=draws.chance(0.6),
        followers_count=draws.integers(0, 30),
        friends_count=draws.integers(200, 3000),
        statuses_count=draws.integers(1, 25),
        last_tweet_at=recent_last_tweet(draws, now, created, 80 * DAY),
    )
    return columns


def _sample_fake_spammer(draws: Draws, now: float,
                         latest_created: np.ndarray) -> dict:
    """An active spam bot: floods links and duplicated promotional tweets.

    Trips Socialbakers' content rules (spam phrases, >90% links or
    retweets, repeated tweets) and the literature's URL-ratio features.
    """
    created = created_at(draws, now, 30 * DAY, 1.5 * YEAR, latest_created)
    columns = bot_handles(draws)
    mostly_retweets = draws.chance(0.3)
    columns.update(
        created_at=created,
        tweets_per_day=draws.uniform(5.0, 60.0),
        retweet_ratio=where(mostly_retweets, 0.95, draws.uniform(0.0, 0.2)),
        link_ratio=where(mostly_retweets, draws.uniform(0.2, 0.5),
                         draws.uniform(0.92, 1.0)),
        spam_ratio=draws.uniform(0.4, 0.95),
        mention_ratio=draws.uniform(0.0, 0.3),
        hashtag_ratio=draws.uniform(0.2, 0.6),
        duplicate_pool=draws.integers(2, 8),
        api_source_ratio=draws.uniform(0.85, 1.0),
        name_kind=8,             # the first eight characters of the handle
        description=where(draws.chance(0.7), 0, 1),
        url=draws.chance(0.4),
        default_profile_image=draws.chance(0.45),
        followers_count=draws.integers(0, 80),
        friends_count=draws.integers(500, 5000),
        statuses_count=draws.integers(200, 20000),
        last_tweet_at=recent_last_tweet(draws, now, created, 3 * DAY),
    )
    return columns


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

GENUINE_ACTIVE = Persona("genuine_active", Label.GENUINE,
                         _sample_genuine_active, **_HUMAN_TEXT)
GENUINE_NEWBIE = Persona("genuine_newbie", Label.GENUINE,
                         _sample_genuine_newbie, **_HUMAN_TEXT)
GENUINE_ABANDONED = Persona("genuine_abandoned", Label.INACTIVE,
                            _sample_genuine_abandoned, **_HUMAN_TEXT)
FAKE_EGG_DORMANT = Persona(
    "fake_egg_dormant", Label.INACTIVE, _sample_fake_egg_dormant)
FAKE_CLASSIC = Persona("fake_classic", Label.FAKE, _sample_fake_classic)
FAKE_SPAMMER = Persona("fake_spammer", Label.FAKE, _sample_fake_spammer,
                       descriptions=("", "Best deals online!"),
                       urls=("", "http://spam.example.com"))

PERSONAS: Dict[str, Persona] = {
    persona.name: persona
    for persona in (
        GENUINE_ACTIVE,
        GENUINE_NEWBIE,
        GENUINE_ABANDONED,
        FAKE_EGG_DORMANT,
        FAKE_CLASSIC,
        FAKE_SPAMMER,
    )
}

#: How a label-level composition translates into concrete personas when a
#: caller specifies only (inactive, fake, genuine) fractions.
DEFAULT_LABEL_MIXES: Dict[Label, Dict[str, float]] = {
    Label.GENUINE: {"genuine_active": 0.85, "genuine_newbie": 0.15},
    Label.INACTIVE: {"genuine_abandoned": 0.7, "fake_egg_dormant": 0.3},
    Label.FAKE: {"fake_classic": 0.6, "fake_spammer": 0.4},
}


def persona_mix_from_labels(
        inactive: float, fake: float, genuine: float,
        label_mixes: Optional[Mapping[Label, Mapping[str, float]]] = None,
) -> Dict[str, float]:
    """Expand an (inactive, fake, genuine) composition into persona weights.

    The three fractions must be non-negative and sum to 1 (within a
    small tolerance, since paper tables carry rounded percentages).
    """
    fractions: Tuple[Tuple[Label, float], ...] = (
        (Label.INACTIVE, inactive), (Label.FAKE, fake), (Label.GENUINE, genuine))
    total = inactive + fake + genuine
    if any(value < 0 for _, value in fractions):
        raise ConfigurationError("label fractions must be non-negative")
    if not 0.98 <= total <= 1.02:
        raise ConfigurationError(f"label fractions must sum to ~1, got {total!r}")
    mixes = label_mixes if label_mixes is not None else DEFAULT_LABEL_MIXES
    weights: Dict[str, float] = {}
    for label, fraction in fractions:
        for persona_name, weight in mixes[label].items():
            if persona_name not in PERSONAS:
                raise ConfigurationError(f"unknown persona: {persona_name!r}")
            weights[persona_name] = weights.get(persona_name, 0.0) + fraction * weight / total
    return {name: weight for name, weight in weights.items() if weight > 0.0}
