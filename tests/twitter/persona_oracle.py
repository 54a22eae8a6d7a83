"""Distribution oracle: the scalar persona samplers the column samplers replaced.

Until follower columns, every follower was drawn field by field from a
``random.Random`` by these samplers (with the handle draws of
``repro.twitter.names`` and ``repro.core.rng.bounded_int_lognormal``).
They are kept here, unchanged apart from their imports, as the
reference the column samplers of :mod:`repro.twitter.personas` must
match *in distribution*: ``tests/twitter/test_persona_columns.py``
compares every persona field against them with KS, binomial and
chi-square tests.

``SAMPLERS[name](rng, user_id, screen_name, now, latest_created)``
returns an :class:`~repro.twitter.account.Account`.
"""

from __future__ import annotations

import random
import string
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.core.timeutil import DAY, TWITTER_LAUNCH, YEAR
from repro.twitter.account import Account, BehaviorProfile, Label
from repro.twitter.names import _FIRST_NAMES, _LAST_NAMES, _PROMO_WORDS, \
    _SEPARATORS
from repro.twitter.personas import BIO_SNIPPETS as _BIO_SNIPPETS
from repro.twitter.personas import INACTIVITY_HORIZON
from repro.twitter.personas import LOCATIONS as _LOCATIONS


def bounded_int_lognormal(rng: random.Random, mean_log: float,
                          sigma_log: float, low: int, high: int) -> int:
    """Draw an integer from a log-normal, clamped to ``[low, high]``.

    Social-network count statistics (followers, friends, tweet counts)
    are heavy-tailed; a clamped log-normal is the standard lightweight
    model and matches the qualitative distributions the analytics'
    criteria are written against (e.g. "97% of Twitter accounts have less
    than 5K followers", paper Section II-A).
    """
    if low > high:
        raise ConfigurationError(f"empty range [{low}, {high}]")
    value = int(round(rng.lognormvariate(mean_log, sigma_log)))
    return max(low, min(high, value))


def human_screen_name(rng: random.Random) -> str:
    """A handle a person would pick: name-like, few or no digits."""
    first = rng.choice(_FIRST_NAMES)
    last = rng.choice(_LAST_NAMES)
    separator = rng.choice(_SEPARATORS)
    roll = rng.random()
    if roll < 0.35:
        suffix = ""
    elif roll < 0.70:
        suffix = str(rng.randint(70, 99))       # a birth year
    else:
        suffix = str(rng.randint(1, 999))
    handle = f"{first}{separator}{last}{suffix}"
    return handle[:15]


def bot_screen_name(rng: random.Random) -> str:
    """A machine-minted handle: digit tails, promo words, random runs."""
    style = rng.random()
    if style < 0.4:
        # Promo word plus a long numeric tail.
        word = rng.choice(_PROMO_WORDS)
        tail = "".join(rng.choice(string.digits) for __ in range(rng.randint(4, 7)))
        handle = f"{word}{tail}"
    elif style < 0.7:
        # Name fragment + heavy digits (registration-farm pattern).
        first = rng.choice(_FIRST_NAMES)[:4]
        tail = "".join(rng.choice(string.digits) for __ in range(rng.randint(5, 8)))
        handle = f"{first}{tail}"
    else:
        # Random alphanumeric run.
        handle = "".join(
            rng.choice(string.ascii_lowercase + string.digits)
            for __ in range(rng.randint(8, 14)))
    return handle[:15]


def display_name(rng: random.Random) -> str:
    """A human display name ("Maria Ricci")."""
    return (f"{rng.choice(_FIRST_NAMES).title()} "
            f"{rng.choice(_LAST_NAMES).title()}")


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

    A sampled creation after ``latest_created`` is shifted back onto
    it, and the last tweet is clamped into ``[created, now]``.
    """
    created = fields["created_at"]
    if latest_created is not None and created > latest_created:
        shift = created - latest_created
        fields["created_at"] = created - shift
        last = fields.get("last_tweet_at")
        if last is not None:
            fields["last_tweet_at"] = max(created - shift, min(last, now))
    return Account(**fields)


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


SAMPLERS = {
    "genuine_active": _sample_genuine_active,
    "genuine_newbie": _sample_genuine_newbie,
    "genuine_abandoned": _sample_genuine_abandoned,
    "fake_egg_dormant": _sample_fake_egg_dormant,
    "fake_classic": _sample_fake_classic,
    "fake_spammer": _sample_fake_spammer,
}
