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
from operator import attrgetter
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ..core.errors import ConfigurationError
from ..core.ids import SNOWFLAKE_EPOCH_MS
from ..core.timeutil import DAY
from .account import Account
from .draws import mix64, stream_rows
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


def render_body(body_key: int) -> str:
    """The tweet body a body key stands for — a pure function of the key.

    Word choice is a hash of the key; the key's body bits decide the
    spam phrase, hashtag, mention and link; and a trailing ``x<hex>``
    token spells the key itself, so distinct keys always render
    distinct bodies.  No fragment can trip a detector it is not meant
    to: ordinary words hold no spam phrase, and only the flagged
    fragments contain ``#``, ``@`` or a URL.
    """
    word_hash = mix64(body_key)
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
    extra_hash = mix64(body_key ^ _MASK64)
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
    tweet_hash = mix64(tweet_id)
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


#: The :class:`BehaviorProfile` rates of the six flag bits, in bit order.
_RATE_FIELDS = ("link_ratio", "spam_ratio", "mention_ratio", "hashtag_ratio",
                "retweet_ratio", "api_source_ratio")
_rates = attrgetter(*_RATE_FIELDS)
#: The columns of :attr:`TimelineProfiles.counts`, in order.
PROFILE_COUNTS = ("user_id", "statuses_count", "duplicate_pool")
#: The columns of :attr:`TimelineProfiles.floats`, in order.
PROFILE_FLOATS = ("created_at", "last_tweet_at", "tweets_per_day") \
    + _RATE_FIELDS
#: Users one pass of :meth:`TimelineGenerator.timelines` draws together:
#: enough to amortise NumPy's per-call cost, few enough that a pass's
#: matrices (seven draws a tweet) stay under a megabyte each.
_CHUNK = 64


class TimelineProfiles(NamedTuple):
    """What timeline synthesis reads of a batch of accounts, as two matrices.

    Row ``i`` of ``counts`` and of ``floats`` holds account ``i``'s
    :data:`PROFILE_COUNTS` and :data:`PROFILE_FLOATS`: ``last_tweet_at``
    is NaN for an account that never tweeted, and the six flag rates
    come last, in bit order.
    """

    counts: np.ndarray      # (n, 3) int64
    floats: np.ndarray      # (n, 9) float64

    @classmethod
    def of(cls, accounts) -> "TimelineProfiles":
        """The rows of :class:`Account` objects (or anything with its
        ``user_id``, ``created_at``, ``statuses_count``,
        ``last_tweet_at`` and ``behavior``)."""
        return cls(
            np.array([(account.user_id, account.statuses_count,
                       account.behavior.duplicate_pool)
                      for account in accounts], dtype=np.int64
                     ).reshape(-1, len(PROFILE_COUNTS)),
            np.array([(account.created_at,
                       np.nan if account.last_tweet_at is None
                       else account.last_tweet_at,
                       account.behavior.tweets_per_day)
                      + _rates(account.behavior) for account in accounts],
                     dtype=np.float64).reshape(-1, len(PROFILE_FLOATS)))

    def take(self, rows) -> "TimelineProfiles":
        """The profiles at ``rows`` (indices or a slice)."""
        return TimelineProfiles(self.counts[rows], self.floats[rows])


class TimelineGenerator:
    """Synthesise accounts' recent timelines from their snapshots.

    Tweet times walk backwards from ``last_tweet_at`` with exponential
    inter-tweet gaps whose mean matches the account's
    ``tweets_per_day`` rate, clamped at the account creation time.
    Class flags follow the account's :class:`BehaviorProfile`; accounts
    with a ``duplicate_pool`` draw every body from that many templates,
    whose body flags are drawn once per template.

    All draws of an account are one column of its counter-based stream
    (:func:`~repro.twitter.streams.timeline_state`), laid out as the
    body-key salt, four body-flag uniforms per template, then one row
    of seven uniforms per tweet — so a shorter fetch is a prefix of a
    longer one, and an account's timeline does not depend on the batch
    it is drawn in.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed

    def recent_tweets(self, account: Account, count: int) -> TimelineBlock:
        """Return up to ``count`` most recent tweets, newest first: the
        one-account case of :meth:`timelines`."""
        return self.timelines(TimelineProfiles.of([account]), count)[0]

    def timelines(self, profiles: TimelineProfiles,
                  count: int) -> List[TimelineBlock]:
        """Up to ``count`` most recent tweets of every profile, newest first.

        Each block is empty for an account that never tweeted, and
        never longer than ``min(count, statuses_count, TIMELINE_CAP)``.
        Accounts are drawn :data:`_CHUNK` at a time, and every block
        owns compact copies of its columns.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative: {count!r}")
        limit = min(count, TIMELINE_CAP)
        user_ids, statuses, __ = profiles.counts.T.tolist()
        sizes = [0 if last != last else min(total, limit) for total, last
                 in zip(statuses, profiles.floats[:, 1].tolist())]
        blocks = [None if size else TimelineBlock.empty(user_id)
                  for user_id, size in zip(user_ids, sizes)]
        drawn = [row for row, size in enumerate(sizes) if size]
        if len(drawn) < len(sizes):
            profiles = profiles.take(drawn)
            sizes = [sizes[row] for row in drawn]
        for start in range(0, len(drawn), _CHUNK):
            chunk = slice(start, start + _CHUNK)
            for row, block in zip(drawn[chunk], self._draw(
                    profiles.take(chunk), sizes[chunk])):
                blocks[row] = block
        return blocks

    def _draw(self, profiles: TimelineProfiles,
              sizes: List[int]) -> List[TimelineBlock]:
        """The blocks of ``profiles``, ``sizes`` tweets each (all > 0).

        Row ``i`` of every matrix is account ``i``; a row's columns past
        its own size are drawn and dropped.
        """
        counts, floats = profiles
        user_ids, pools = counts[:, 0], counts[:, 2]
        rates = floats[:, 3:]
        pool_sizes = pools.tolist()
        most = max(pool_sizes)
        if most > _MAX_SERIAL:
            raise ConfigurationError(
                f"duplicate_pool must be at most {_MAX_SERIAL}: {most!r}")
        width = max(sizes)
        # Each row is one account's stream: the salt, four uniforms per
        # template of the largest pool, then seven per tweet.
        uniforms = stream_rows(
            np.array([timeline_state(self._seed, user_id)
                      for user_id in user_ids.tolist()], dtype=np.uint64),
            1 + 4 * most + 7 * width)
        if min(pool_sizes) == most:
            draws = uniforms[:, 1 + 4 * most:]
        else:           # a smaller pool's tweets start earlier
            draws = np.take_along_axis(
                uniforms, (1 + 4 * pools)[:, None] + np.arange(7 * width),
                axis=1)
        # Per tweet: gap, then link, spam, mention, hashtag, retweet,
        # automation (a template account reuses the link column as its
        # template choice).
        draws = draws.reshape(len(sizes), width, 7)

        created_at = np.log1p(-draws[:, :, 0])
        created_at[:, 0] = 0.0
        created_at.cumsum(axis=1, out=created_at)
        created_at *= (DAY / np.maximum(floats[:, 2], 1e-3))[:, None]
        created_at += floats[:, 1, None]
        np.maximum(created_at, floats[:, 0, None], out=created_at)

        millis = (created_at * 1000).astype(np.int64)
        millis -= SNOWFLAKE_EPOCH_MS
        np.maximum(millis, 0, out=millis)
        sequence = np.arange(width, dtype=np.int64)  # width <= TIMELINE_CAP < 4096
        tweet_ids = (millis << 22) | sequence
        tweet_ids |= ((user_ids % 1024) << 12)[:, None]

        flags = (draws[:, :, 1:] < rates[:, None, :]) @ _BIT_WEIGHTS
        bits = flags & _BODY_BITS
        serials = sequence
        duplicated = [0] * len(sizes)
        pooled = [row for row, pool in enumerate(pool_sizes) if pool]
        if pooled:
            pool = pools[pooled][:, None]
            serial = np.minimum((draws[pooled, :, 1] * pool).astype(np.int64),
                                pool - 1)
            templates = (uniforms[pooled, 1:1 + 4 * most].reshape(
                len(pooled), most, 4) < rates[pooled, None, :4]
                         ) @ _BIT_WEIGHTS[:4]
            template_bits = np.take_along_axis(templates, serial, axis=1)
            serials = np.repeat(sequence[None], len(sizes), axis=0)
            serials[pooled] = serial
            bits[pooled] = template_bits
            flags[pooled] = ((flags[pooled] & (RETWEET | AUTOMATION))
                             | template_bits)
            # Each account's template uses among its own tweets.
            tweeted = sequence < np.array([sizes[row] for row in pooled]
                                          )[:, None]
            uses = np.bincount(
                (serial + (np.arange(len(pooled)) * most)[:, None])[tweeted],
                minlength=len(pooled) * most)
            for row, repeats in zip(pooled, np.where(uses > 3, uses, 0)
                                    .reshape(len(pooled), most)
                                    .sum(axis=1).tolist()):
                duplicated[row] = repeats
        # A retweet's ``RT @user:`` source is a mention too.
        flags |= (flags & RETWEET) >> 2
        body_keys = (serials << _SERIAL_SHIFT) | bits
        body_keys |= ((uniforms[:, 0] * (1 << _SALT_BITS)).astype(np.int64)
                      << _SALT_SHIFT)[:, None]
        return [TimelineBlock(user_id, created_at[row, :size].copy(),
                              tweet_ids[row, :size].copy(),
                              flags[row, :size].copy(),
                              body_keys[row, :size].copy(),
                              duplicated=duplicated[row])
                for row, (user_id, size) in enumerate(
                    zip(user_ids.tolist(), sizes))]
