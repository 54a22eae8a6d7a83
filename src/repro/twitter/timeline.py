"""Deterministic, lazily rendered user timelines.

The real ``statuses/user_timeline`` endpoint returns a user's most
recent tweets, newest first, capped at 3200 statuses (paper, Section
IV-B).  Follower populations in this reproduction are generated lazily,
so timelines are synthesised *on request* as a pure function of the
account snapshot and the master seed: fetching the same timeline twice
yields identical tweets.

The engines read tweets only through seven class features (retweet,
link, spam phrase, mention, hashtag, automation source, duplicated
body), so a timeline is generated as a :class:`TimelineBlock` of typed
columns — creation instants, snowflake ids, a per-tweet flag bitset and
an integer body key — drawn from one NumPy stream per account.  Tweet
*text* is rendered from those columns only when a wire
:class:`~repro.twitter.tweet.Tweet` is materialised (by indexing or
iterating the block), and the rendering is built so the
:class:`Tweet` predicates re-detect exactly the stored flags.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator, Optional, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.ids import SNOWFLAKE_EPOCH_MS
from ..core.timeutil import DAY
from .account import Account, BehaviorProfile
from .draws import stream_uniforms
from .streams import timeline_state
from .tweet import HUMAN_SOURCES, SPAM_PHRASES, Tweet

#: The v1.1 API ceiling on retrievable timeline depth.
TIMELINE_CAP = 3200

# -- the flag bitset -----------------------------------------------------------
#
# The low nibble doubles as the *body* bits of a body key: a body's
# link, spam-phrase, mention and hashtag properties are part of its
# text, so they are fixed by the key.  ``MENTION`` in the flag column
# is what ``Tweet.mentions()`` detects, which also counts the
# ``RT @user:`` source of a retweet.

#: The status body contains a URL.
LINK = 1
#: The status body uses a known spam phrase.
SPAM = 2
#: The status mentions another user (its body, or the retweet source).
MENTION = 4
#: The status body carries a hashtag.
HASHTAG = 8
#: The status is a retweet (``RT @user: ...``).
RETWEET = 16
#: The status was posted from an automation client.
AUTOMATION = 32

#: Bits a body key carries (and the only ones the body text encodes).
_BODY_BITS = LINK | SPAM | MENTION | HASHTAG
#: ``1 << i`` for the six flag bits, in bit order.
_BIT_WEIGHTS = np.array([LINK, SPAM, MENTION, HASHTAG, RETWEET, AUTOMATION],
                        dtype=np.uint8)
#: Body key layout: ``salt << 24 | serial << 4 | body bits``.
_SERIAL_SHIFT = 4
_SALT_SHIFT = 24
_SALT_BITS = 39
_MAX_SERIAL = (1 << (_SALT_SHIFT - _SERIAL_SHIFT)) - 1

_ORDINARY_WORDS = (
    "today", "morning", "coffee", "match", "music", "friends", "city",
    "reading", "news", "game", "work", "train", "weekend", "dinner",
    "movie", "travel", "photo", "sun", "rain", "meeting", "concert",
    "book", "team", "goal", "vote", "show", "happy", "tired", "great",
    "finally", "again", "tomorrow", "never", "always", "really",
)

_HASHTAG_WORDS = (
    "news", "follow", "music", "sport", "tv", "italy", "politics",
    "love", "fun", "live", "win", "photo",
)

_SPAM_TAILS = (
    "amazing results guaranteed",
    "you will not believe this",
    "limited offer act now",
    "thousands already joined",
    "see proof inside",
)

_AUTOMATION_SOURCES = ("EasyBotDeck", "AutoTweeterPro", "MassFollowTool")

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finaliser: a fixed, well-spread hash of one integer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def render_body(body_key: int) -> str:
    """The tweet body a body key stands for — a pure function of the key.

    Word choice is a hash of the key; the key's body bits decide the
    spam phrase, hashtag, mention and link; and a trailing ``x<hex>``
    token spells the key itself, so distinct keys always render
    distinct bodies.  No fragment can trip a detector it is not meant
    to: ordinary words hold no spam phrase, and only the flagged
    fragments contain ``#``, ``@`` or a URL.
    """
    word_hash = _mix64(body_key)
    if body_key & SPAM:
        parts = [f"{SPAM_PHRASES[word_hash % len(SPAM_PHRASES)]} "
                 f"{_SPAM_TAILS[(word_hash >> 8) % len(_SPAM_TAILS)]}"]
    else:
        count = 3 + word_hash % 5
        word_hash >>= 3
        words = []
        for __ in range(count):
            words.append(_ORDINARY_WORDS[word_hash % len(_ORDINARY_WORDS)])
            word_hash //= len(_ORDINARY_WORDS)
        parts = [" ".join(words)]
    extra_hash = _mix64(body_key ^ _MASK64)
    if body_key & HASHTAG:
        parts.append("#" + _HASHTAG_WORDS[extra_hash % len(_HASHTAG_WORDS)])
    if body_key & MENTION:
        parts.append(f"@user{1 + (extra_hash >> 8) % 99999}")
    if body_key & LINK:
        parts.append("http://t.co/" + format(extra_hash >> 24, "010x"))
    parts.append("x" + format(body_key, "x"))
    return " ".join(parts)


def render_tweet(user_id: int, tweet_id: int, created_at: float, flags: int,
                 body_key: int) -> Tweet:
    """The wire :class:`Tweet` one row of a generated block stands for.

    The retweet source and the posting client are hashes of the tweet
    id, so rendering needs no random stream.
    """
    tweet_hash = _mix64(tweet_id)
    text = render_body(body_key)
    if flags & RETWEET:
        text = f"RT @user{1 + tweet_hash % 99999}: {text}"
    if flags & AUTOMATION:
        source = _AUTOMATION_SOURCES[(tweet_hash >> 20) % len(_AUTOMATION_SOURCES)]
    else:
        source = HUMAN_SOURCES[(tweet_hash >> 20) % len(HUMAN_SOURCES)]
    return Tweet(tweet_id=tweet_id, user_id=user_id, created_at=created_at,
                 text=text, source=source)


def detect_flags(tweet: Tweet) -> int:
    """A tweet's flag bitset, read off its text by the Tweet predicates."""
    flags = 0
    if tweet.has_link():
        flags |= LINK
    if tweet.contains_spam_phrase():
        flags |= SPAM
    if tweet.mentions():
        flags |= MENTION
    if tweet.hashtags():
        flags |= HASHTAG
    if tweet.is_retweet():
        flags |= RETWEET
    if tweet.source not in HUMAN_SOURCES:
        flags |= AUTOMATION
    return flags


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class TimelineBlock(Sequence):
    """One timeline as typed columns, rendered to tweets on demand.

    Columns, newest tweet first: ``created_at`` (float64),
    ``tweet_id`` (int64), ``flags`` (uint8 bitset of :data:`LINK`,
    :data:`SPAM`, :data:`MENTION`, :data:`HASHTAG`, :data:`RETWEET`,
    :data:`AUTOMATION`) and ``body_key`` (int64).  Within a block two
    rows have equal body keys exactly when their tweets have equal
    :meth:`Tweet.body`.

    The block is an immutable ``Sequence[Tweet]``: ``len()``, indexing,
    slicing (to a sub-block) and iteration behave like a tuple of
    tweets, so scalar consumers are unaffected, while columnar
    consumers read the columns and never pay for text.  Blocks built by
    :meth:`from_tweets` keep the given tweets and return them verbatim.
    """

    __slots__ = ("user_id", "created_at", "tweet_id", "flags", "body_key",
                 "_tweets", "_duplicated")

    def __init__(self, user_id: int, created_at: np.ndarray,
                 tweet_id: np.ndarray, flags: np.ndarray,
                 body_key: np.ndarray, *,
                 tweets: Optional[Tuple[Tweet, ...]] = None,
                 duplicated: Optional[int] = None) -> None:
        if not (len(created_at) == len(tweet_id) == len(flags)
                == len(body_key)):
            raise ConfigurationError("timeline block columns differ in length")
        self.user_id = user_id
        self.created_at = _frozen(np.asarray(created_at, dtype=np.float64))
        self.tweet_id = _frozen(np.asarray(tweet_id, dtype=np.int64))
        self.flags = _frozen(np.asarray(flags, dtype=np.uint8))
        self.body_key = _frozen(np.asarray(body_key, dtype=np.int64))
        self._tweets = tweets
        self._duplicated = duplicated

    @classmethod
    def empty(cls, user_id: int) -> "TimelineBlock":
        """A timeline with no tweets."""
        return cls(user_id, np.empty(0, np.float64), np.empty(0, np.int64),
                   np.empty(0, np.uint8), np.empty(0, np.int64),
                   tweets=(), duplicated=0)

    @classmethod
    def from_tweets(cls, tweets) -> "TimelineBlock":
        """Columns for hand-built tweets, flags detected from their text.

        A :class:`TimelineBlock` is returned unchanged.  Body keys number
        the distinct bodies in order of first appearance.
        """
        if isinstance(tweets, TimelineBlock):
            return tweets
        tweets = tuple(tweets)
        bodies = {}
        keys = [bodies.setdefault(tweet.body(), len(bodies))
                for tweet in tweets]
        return cls(
            tweets[0].user_id if tweets else 0,
            np.array([tweet.created_at for tweet in tweets], dtype=np.float64),
            np.array([tweet.tweet_id for tweet in tweets], dtype=np.int64),
            np.array([detect_flags(tweet) for tweet in tweets], dtype=np.uint8),
            np.array(keys, dtype=np.int64), tweets=tweets)

    # -- columnar reads ---------------------------------------------------------

    @property
    def duplicated(self) -> int:
        """Tweets whose body occurs more than three times in the block.

        Socialbakers' "same tweets repeated more than three times", read
        off the body-key column.
        """
        if self._duplicated is None:
            if len(self.body_key) < 4:
                self._duplicated = 0
            else:
                __, inverse, counts = np.unique(
                    self.body_key, return_inverse=True, return_counts=True)
                self._duplicated = int(np.count_nonzero(counts[inverse] > 3))
        return self._duplicated

    # -- Sequence[Tweet] --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.flags)

    def _render(self, index: int) -> Tweet:
        return render_tweet(self.user_id, int(self.tweet_id[index]),
                            float(self.created_at[index]),
                            int(self.flags[index]), int(self.body_key[index]))

    def tweets(self) -> Tuple[Tweet, ...]:
        """Every tweet of the block, rendered once and then kept."""
        if self._tweets is None:
            self._tweets = tuple(self._render(index)
                                 for index in range(len(self)))
        return self._tweets

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TimelineBlock(
                self.user_id, self.created_at[index], self.tweet_id[index],
                self.flags[index], self.body_key[index],
                tweets=(self._tweets[index] if self._tweets is not None
                        else None))
        if not isinstance(index, (int, np.integer)):
            raise TypeError(f"indices must be integers or slices: {index!r}")
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("TimelineBlock index out of range")
        if self._tweets is not None:
            return self._tweets[index]
        return self._render(int(index))

    def __iter__(self) -> Iterator[Tweet]:
        return iter(self.tweets())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimelineBlock):
            if self._tweets is None and other._tweets is None:
                return (self.user_id == other.user_id
                        and np.array_equal(self.created_at, other.created_at)
                        and np.array_equal(self.tweet_id, other.tweet_id)
                        and np.array_equal(self.flags, other.flags)
                        and np.array_equal(self.body_key, other.body_key))
            return self.tweets() == other.tweets()
        if isinstance(other, (list, tuple)):
            return self.tweets() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tweets())

    def __repr__(self) -> str:
        return f"TimelineBlock(user_id={self.user_id}, len={len(self)})"


def _flag_bits(draws: np.ndarray, behavior: BehaviorProfile) -> np.ndarray:
    """Flag bits from uniform columns ordered like the bits.

    Column ``i`` of ``draws`` is compared with the rate of bit ``1 << i``
    (link, spam, mention, hashtag, retweet, automation — as many as
    there are columns); summing distinct powers of two is or-ing them.
    """
    width = draws.shape[1]
    rates = (behavior.link_ratio, behavior.spam_ratio,
             behavior.mention_ratio, behavior.hashtag_ratio,
             behavior.retweet_ratio, behavior.api_source_ratio)[:width]
    return (draws < rates) @ _BIT_WEIGHTS[:width]


class TimelineGenerator:
    """Synthesise an account's recent timeline from its snapshot.

    Tweet times walk backwards from ``account.last_tweet_at`` with
    exponential inter-tweet gaps whose mean matches the account's
    ``tweets_per_day`` rate, clamped at the account creation time.
    Class flags follow the account's :class:`BehaviorProfile`; accounts
    with a ``duplicate_pool`` draw every body from that many templates,
    whose body flags are drawn once per template.

    All draws are one column of the account's counter-based stream
    (:func:`~repro.twitter.streams.timeline_state`), laid out as the
    body-key salt, four body-flag uniforms per template, then one row
    of seven uniforms per tweet — so a shorter fetch is a prefix of a
    longer one.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def recent_tweets(self, account: Account, count: int) -> TimelineBlock:
        """Return up to ``count`` most recent tweets, newest first.

        ``account`` is an :class:`Account` or anything with its
        ``user_id``, ``created_at``, ``statuses_count``,
        ``last_tweet_at`` and ``behavior`` rates (a follower's
        :class:`~repro.twitter.columns.TimelineProfile`).

        The result is empty for accounts that never tweeted, and never
        exceeds ``min(count, statuses_count, TIMELINE_CAP)``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative: {count!r}")
        if account.statuses_count == 0 or account.last_tweet_at is None:
            return TimelineBlock.empty(account.user_id)
        n = min(count, account.statuses_count, TIMELINE_CAP)
        if n == 0:
            return TimelineBlock.empty(account.user_id)
        behavior = account.behavior
        pool = behavior.duplicate_pool
        if pool > _MAX_SERIAL:
            raise ConfigurationError(
                f"duplicate_pool must be at most {_MAX_SERIAL}: {pool!r}")

        uniforms = stream_uniforms(timeline_state(self._seed, account.user_id),
                                   1 + 4 * pool + 7 * n)
        salt = int(uniforms[0] * (1 << _SALT_BITS))
        # Per tweet: gap, then link, spam, mention, hashtag, retweet,
        # automation (a template account reuses the link column as its
        # template choice).
        draws = uniforms[1 + 4 * pool:].reshape(n, 7)

        mean_gap = DAY / max(behavior.tweets_per_day, 1e-3)
        created_at = np.log1p(-draws[:, 0])
        created_at[0] = 0.0
        np.cumsum(created_at, out=created_at)
        created_at *= mean_gap
        created_at += account.last_tweet_at
        np.maximum(created_at, account.created_at, out=created_at)

        millis = (created_at * 1000).astype(np.int64)
        millis -= SNOWFLAKE_EPOCH_MS
        np.maximum(millis, 0, out=millis)
        sequence = np.arange(n, dtype=np.int64)  # n <= TIMELINE_CAP < 4096
        tweet_id = (millis << 22) | sequence
        tweet_id |= (account.user_id % 1024) << 12

        flags = _flag_bits(draws[:, 1:], behavior)
        if pool:
            serial = np.minimum((draws[:, 1] * pool).astype(np.int64),
                                pool - 1)
            templates = _flag_bits(
                uniforms[1:1 + 4 * pool].reshape(pool, 4), behavior)
            bits = templates[serial]
            flags = (flags & (RETWEET | AUTOMATION)) | bits
            uses = np.bincount(serial, minlength=pool)
            duplicated = int(uses[uses > 3].sum())
        else:
            serial = sequence
            bits = flags & _BODY_BITS
            duplicated = 0
        # A retweet's ``RT @user:`` source is a mention too.
        flags |= (flags & RETWEET) >> 2
        body_key = (salt << _SALT_SHIFT) | (serial << _SERIAL_SHIFT) | bits
        return TimelineBlock(account.user_id, created_at, tweet_id, flags,
                             body_key, duplicated=duplicated)
