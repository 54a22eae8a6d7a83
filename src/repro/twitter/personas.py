"""Persona library: parameterised account archetypes.

Each persona is a generative archetype observed in the fake-follower
literature the paper builds on ([8], [9], [13]-[15]): engaged humans,
abandoned accounts, dormant "egg" fakes, classic purchased followers and
active spam bots.  A persona carries the ground-truth :class:`Label` the
paper's taxonomy assigns to accounts of that kind, and a sampler that
draws a concrete :class:`Account` snapshot from the archetype's
distributions.

The samplers enforce the behavioural definitions exactly: any persona
labelled ``INACTIVE`` produces accounts that never tweeted or whose last
tweet is older than 90 days at observation time, and personas labelled
``GENUINE``/``FAKE`` produce accounts with recent activity — so ground
truth coincides with what a perfect observer applying the paper's
published definitions would conclude.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.rng import bounded_int_lognormal
from ..core.timeutil import DAY, TWITTER_LAUNCH, YEAR
from .account import Account, BehaviorProfile, Label
from .names import bot_screen_name, display_name, human_screen_name

#: The paper's inactivity horizon: last tweet older than 90 days.
INACTIVITY_HORIZON = 90 * DAY

_BIO_SNIPPETS = (
    "Love music, football and good food.",
    "Proud parent. Opinions are my own.",
    "Journalist and coffee addict.",
    "Engineer by day, guitarist by night.",
    "Living one day at a time.",
    "Photographer. Traveller. Dreamer.",
)

_LOCATIONS = (
    "Rome, Italy", "Milan", "Pisa", "London", "Paris",
    "New York", "Madrid", "Berlin", "Turin",
)


def _created_at(rng: random.Random, now: float,
                min_age: float, max_age: float) -> float:
    """Draw a creation time between ``min_age`` and ``max_age`` before now,
    never earlier than Twitter's launch."""
    age = rng.uniform(min_age, max_age)
    return max(TWITTER_LAUNCH, now - age)


def _recent_last_tweet(rng: random.Random, now: float, created_at: float,
                       max_age: float) -> float:
    """Draw a last-tweet time within ``max_age`` of now (an *active* account)."""
    age = rng.uniform(0.0, max_age)
    return max(created_at, now - age)


def _stale_last_tweet(rng: random.Random, now: float, created_at: float,
                      max_age: float) -> Optional[float]:
    """Draw a last-tweet time strictly older than the inactivity horizon.

    Returns ``None`` (never tweeted) when the account is too young to
    have a tweet older than the horizon.
    """
    oldest = now - min(max_age, now - created_at)
    newest = now - INACTIVITY_HORIZON * 1.01
    if oldest >= newest:
        return None
    return rng.uniform(oldest, newest)


def capped_account(latest_created: Optional[float], now: float,
                   **fields) -> Account:
    """Build a sampled :class:`Account`, created no later than ``latest_created``.

    Every sampler returns through here (or applies the same cap), so
    the cap costs no second :class:`Account`.  A sampled creation after
    ``latest_created`` is shifted back onto it, and the last tweet is
    clamped into ``[created, now]``, which keeps the
    never-tweeted/last-tweet structure.  The draws are all made before
    this call, from the uncapped creation time; ``latest_created=None``
    builds the account as sampled.
    """
    created = fields["created_at"]
    if latest_created is not None and created > latest_created:
        shift = created - latest_created
        fields["created_at"] = created - shift
        last = fields.get("last_tweet_at")
        if last is not None:
            fields["last_tweet_at"] = max(created - shift, min(last, now))
    return Account(**fields)


#: The positional arguments :meth:`Persona.sample` passes a sampler.
_SAMPLER_ARGS = ("rng", "user_id", "screen_name", "now", "latest_created")


@dataclass(frozen=True)
class Persona:
    """A named account archetype with its ground-truth label.

    ``sampler(rng, user_id, screen_name, now, latest_created)`` draws
    the account from ``rng`` alone and creates it no later than
    ``latest_created`` when that is given; returning through
    :func:`capped_account` applies the cap.
    """

    name: str
    label: Label
    sampler: Callable[[random.Random, int, str, float, Optional[float]],
                      Account]

    def __post_init__(self) -> None:
        try:
            signature = inspect.signature(self.sampler)
        except (TypeError, ValueError):
            return
        try:
            signature.bind(*_SAMPLER_ARGS)
        except TypeError as exc:
            raise ConfigurationError(
                f"persona {self.name!r}: a sampler takes (rng, user_id, "
                f"screen_name, now, latest_created): {exc}") from None

    def sample(self, rng: random.Random, user_id: int,
               screen_name: str, now: float,
               latest_created: Optional[float] = None) -> Account:
        """Draw a concrete account snapshot at observation time ``now``.

        ``screen_name`` is a fallback handle; samplers normally mint a
        stylistic one from ``rng`` (see :mod:`repro.twitter.names`), so
        handle *shape* is itself a class signal, as it is on the real
        platform.  ``latest_created`` caps the creation time (a
        follower must exist before it follows); the cap changes no draw.
        """
        return self.sampler(rng, user_id, screen_name, now, latest_created)


# ---------------------------------------------------------------------------
# Genuine personas
# ---------------------------------------------------------------------------

def _sample_genuine_active(rng: random.Random, user_id: int,
                           screen_name: str, now: float,
                           latest_created: Optional[float]) -> Account:
    """An engaged human: balanced graph counts, steady original tweeting."""
    created = _created_at(rng, now, 0.5 * YEAR, 7 * YEAR)
    screen_name = human_screen_name(rng)
    behavior = BehaviorProfile(
        tweets_per_day=rng.uniform(0.3, 6.0),
        retweet_ratio=rng.uniform(0.1, 0.4),
        link_ratio=rng.uniform(0.1, 0.4),
        spam_ratio=0.0,
        mention_ratio=rng.uniform(0.2, 0.5),
        hashtag_ratio=rng.uniform(0.1, 0.35),
        duplicate_pool=0,
        # Plenty of real humans schedule posts through third-party
        # clients (Buffer, HootSuite — the paper's own introduction
        # lists them), so source alone must not separate the classes.
        api_source_ratio=rng.uniform(0.0, 0.45),
    )
    years = (now - created) / YEAR
    statuses = bounded_int_lognormal(
        rng, mean_log=5.0 + 0.3 * years, sigma_log=1.0, low=20, high=60000)
    return capped_account(
        latest_created, now,
        user_id=user_id,
        screen_name=screen_name,
        created_at=created,
        name=display_name(rng),
        description=rng.choice(_BIO_SNIPPETS) if rng.random() < 0.85 else "",
        location=rng.choice(_LOCATIONS) if rng.random() < 0.7 else "",
        url="http://example.org/" + screen_name if rng.random() < 0.25 else "",
        default_profile_image=rng.random() < 0.04,
        followers_count=bounded_int_lognormal(rng, 4.6, 1.2, 10, 100000),
        friends_count=bounded_int_lognormal(rng, 5.2, 1.0, 20, 5000),
        statuses_count=statuses,
        last_tweet_at=_recent_last_tweet(rng, now, created, 20 * DAY),
        behavior=behavior,
        true_label=Label.GENUINE,
    )


def _sample_genuine_newbie(rng: random.Random, user_id: int,
                           screen_name: str, now: float,
                           latest_created: Optional[float]) -> Account:
    """A recently joined human: thin profile, few tweets, few followers.

    Newbies are the accounts that crude rule sets most often mistake for
    fakes ("few or no followers and few or no tweets").
    """
    created = _created_at(rng, now, 5 * DAY, 120 * DAY)
    screen_name = human_screen_name(rng)
    behavior = BehaviorProfile(
        tweets_per_day=rng.uniform(0.1, 1.5),
        retweet_ratio=rng.uniform(0.2, 0.6),
        link_ratio=rng.uniform(0.05, 0.3),
        spam_ratio=0.0,
        mention_ratio=rng.uniform(0.1, 0.4),
        hashtag_ratio=rng.uniform(0.05, 0.3),
        duplicate_pool=0,
        api_source_ratio=rng.uniform(0.0, 0.15),
    )
    return capped_account(
        latest_created, now,
        user_id=user_id,
        screen_name=screen_name,
        created_at=created,
        name=display_name(rng),
        description=rng.choice(_BIO_SNIPPETS) if rng.random() < 0.4 else "",
        location=rng.choice(_LOCATIONS) if rng.random() < 0.35 else "",
        url="",
        default_profile_image=rng.random() < 0.35,
        followers_count=rng.randint(0, 40),
        friends_count=rng.randint(10, 250),
        statuses_count=rng.randint(1, 60),
        last_tweet_at=_recent_last_tweet(rng, now, created, 15 * DAY),
        behavior=behavior,
        true_label=Label.GENUINE,
    )


# ---------------------------------------------------------------------------
# Inactive personas
# ---------------------------------------------------------------------------

def _sample_genuine_abandoned(rng: random.Random, user_id: int,
                              screen_name: str, now: float,
                              latest_created: Optional[float]) -> Account:
    """A real user who tried Twitter and drifted away.

    Either never tweeted, or last tweeted well over 90 days ago.
    """
    created = _created_at(rng, now, 1.0 * YEAR, 7 * YEAR)
    screen_name = human_screen_name(rng)
    never_tweeted = rng.random() < 0.3
    last_tweet = None if never_tweeted else _stale_last_tweet(
        rng, now, created, 5 * YEAR)
    statuses = 0 if last_tweet is None else rng.randint(1, 300)
    behavior = BehaviorProfile(
        tweets_per_day=rng.uniform(0.05, 0.8),
        retweet_ratio=rng.uniform(0.1, 0.5),
        link_ratio=rng.uniform(0.05, 0.35),
        spam_ratio=0.0,
        mention_ratio=rng.uniform(0.1, 0.4),
        hashtag_ratio=rng.uniform(0.05, 0.25),
        duplicate_pool=0,
        api_source_ratio=rng.uniform(0.0, 0.05),
    )
    return capped_account(
        latest_created, now,
        user_id=user_id,
        screen_name=screen_name,
        created_at=created,
        name=display_name(rng),
        description=rng.choice(_BIO_SNIPPETS) if rng.random() < 0.55 else "",
        location=rng.choice(_LOCATIONS) if rng.random() < 0.45 else "",
        url="",
        default_profile_image=rng.random() < 0.25,
        followers_count=rng.randint(0, 120),
        friends_count=rng.randint(5, 400),
        statuses_count=statuses,
        last_tweet_at=last_tweet,
        behavior=behavior,
        true_label=Label.INACTIVE,
    )


def _sample_fake_egg_dormant(rng: random.Random, user_id: int,
                             screen_name: str, now: float,
                             latest_created: Optional[float]) -> Account:
    """A dormant mass-created fake: default egg avatar, empty profile,
    never tweeted (or one stale tweet), follows hundreds of accounts.

    Behaviourally inactive, so labelled ``INACTIVE`` per the paper's
    definitions — but its *profile* shape is the classic fake signature
    the rule-based tools key on.
    """
    created = _created_at(rng, now, 0.5 * YEAR, 3 * YEAR)
    screen_name = bot_screen_name(rng)
    never_tweeted = rng.random() < 0.8
    last_tweet = None if never_tweeted else _stale_last_tweet(
        rng, now, created, 2 * YEAR)
    statuses = 0 if last_tweet is None else rng.randint(1, 5)
    behavior = BehaviorProfile(
        tweets_per_day=0.01,
        retweet_ratio=0.1,
        link_ratio=rng.uniform(0.5, 1.0),
        spam_ratio=rng.uniform(0.3, 0.9),
        mention_ratio=0.05,
        hashtag_ratio=0.1,
        duplicate_pool=rng.randint(1, 3),
        api_source_ratio=0.9,
    )
    return capped_account(
        latest_created, now,
        user_id=user_id,
        screen_name=screen_name,
        created_at=created,
        name="",
        description="",
        location="",
        url="",
        default_profile_image=rng.random() < 0.75,
        followers_count=rng.randint(0, 15),
        friends_count=rng.randint(150, 2500),
        statuses_count=statuses,
        last_tweet_at=last_tweet,
        behavior=behavior,
        true_label=Label.INACTIVE,
    )


# ---------------------------------------------------------------------------
# Fake personas
# ---------------------------------------------------------------------------

def _sample_fake_classic(rng: random.Random, user_id: int,
                         screen_name: str, now: float,
                         latest_created: Optional[float]) -> Account:
    """A purchased follower kept minimally alive by its operator.

    A handful of recent low-effort tweets, no real audience, follows a
    lot of accounts (the founder of StatusPeople's "most meaningful"
    signal: "fake accounts tend to follow a lot of people but don't have
    many followers").
    """
    created = _created_at(rng, now, 60 * DAY, 2 * YEAR)
    screen_name = bot_screen_name(rng)
    behavior = BehaviorProfile(
        tweets_per_day=rng.uniform(0.02, 0.3),
        retweet_ratio=rng.uniform(0.3, 0.8),
        link_ratio=rng.uniform(0.3, 0.8),
        spam_ratio=rng.uniform(0.1, 0.5),
        mention_ratio=rng.uniform(0.0, 0.2),
        hashtag_ratio=rng.uniform(0.0, 0.3),
        duplicate_pool=rng.randint(1, 4),
        api_source_ratio=rng.uniform(0.6, 1.0),
    )
    return capped_account(
        latest_created, now,
        user_id=user_id,
        screen_name=screen_name,
        created_at=created,
        name=screen_name[:6] if rng.random() < 0.5 else "",
        description="",
        location="",
        url="",
        default_profile_image=rng.random() < 0.6,
        followers_count=rng.randint(0, 30),
        friends_count=rng.randint(200, 3000),
        statuses_count=rng.randint(1, 25),
        last_tweet_at=_recent_last_tweet(rng, now, created, 80 * DAY),
        behavior=behavior,
        true_label=Label.FAKE,
    )


def _sample_fake_spammer(rng: random.Random, user_id: int,
                         screen_name: str, now: float,
                         latest_created: Optional[float]) -> Account:
    """An active spam bot: floods links and duplicated promotional tweets.

    Trips Socialbakers' content rules (spam phrases, >90% links or
    retweets, repeated tweets) and the literature's URL-ratio features.
    """
    created = _created_at(rng, now, 30 * DAY, 1.5 * YEAR)
    screen_name = bot_screen_name(rng)
    mostly_retweets = rng.random() < 0.3
    behavior = BehaviorProfile(
        tweets_per_day=rng.uniform(5.0, 60.0),
        retweet_ratio=0.95 if mostly_retweets else rng.uniform(0.0, 0.2),
        link_ratio=rng.uniform(0.2, 0.5) if mostly_retweets else rng.uniform(0.92, 1.0),
        spam_ratio=rng.uniform(0.4, 0.95),
        mention_ratio=rng.uniform(0.0, 0.3),
        hashtag_ratio=rng.uniform(0.2, 0.6),
        duplicate_pool=rng.randint(2, 8),
        api_source_ratio=rng.uniform(0.85, 1.0),
    )
    return capped_account(
        latest_created, now,
        user_id=user_id,
        screen_name=screen_name,
        created_at=created,
        name=screen_name[:8],
        description="" if rng.random() < 0.7 else "Best deals online!",
        location="",
        url="http://spam.example.com" if rng.random() < 0.4 else "",
        default_profile_image=rng.random() < 0.45,
        followers_count=rng.randint(0, 80),
        friends_count=rng.randint(500, 5000),
        statuses_count=rng.randint(200, 20000),
        last_tweet_at=_recent_last_tweet(rng, now, created, 3 * DAY),
        behavior=behavior,
        true_label=Label.FAKE,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

GENUINE_ACTIVE = Persona("genuine_active", Label.GENUINE, _sample_genuine_active)
GENUINE_NEWBIE = Persona("genuine_newbie", Label.GENUINE, _sample_genuine_newbie)
GENUINE_ABANDONED = Persona(
    "genuine_abandoned", Label.INACTIVE, _sample_genuine_abandoned)
FAKE_EGG_DORMANT = Persona(
    "fake_egg_dormant", Label.INACTIVE, _sample_fake_egg_dormant)
FAKE_CLASSIC = Persona("fake_classic", Label.FAKE, _sample_fake_classic)
FAKE_SPAMMER = Persona("fake_spammer", Label.FAKE, _sample_fake_spammer)

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
