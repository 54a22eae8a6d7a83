"""Reference oracle for timeline synthesis: one account, one stream.

The production generator draws a batch of accounts in array passes.
This oracle draws one account the straightforward way, from the first
``1 + 4 * pool + 7 * n`` uniforms of its stream (salt, template draws,
then seven per tweet), so tests can hold every batched block to it bit
for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.ids import SNOWFLAKE_EPOCH_MS
from repro.core.timeutil import DAY
from repro.twitter.draws import stream_uniforms
from repro.twitter.streams import timeline_state
from repro.twitter.timeline import (AUTOMATION, HASHTAG, LINK, MENTION,
                                    RETWEET, SPAM, TIMELINE_CAP)

_WEIGHTS = np.array([LINK, SPAM, MENTION, HASHTAG, RETWEET, AUTOMATION],
                    dtype=np.uint8)


def _flag_bits(draws, behavior):
    """Bit ``1 << i`` set where column ``i`` falls under its rate."""
    width = draws.shape[1]
    rates = (behavior.link_ratio, behavior.spam_ratio,
             behavior.mention_ratio, behavior.hashtag_ratio,
             behavior.retweet_ratio, behavior.api_source_ratio)[:width]
    return (draws < rates) @ _WEIGHTS[:width]


def one_timeline(seed, account, count):
    """``(created_at, tweet_id, flags, body_key, duplicated)`` of one
    account's newest ``count`` tweets; empty columns if it never
    tweeted."""
    n = min(count, account.statuses_count, TIMELINE_CAP)
    if account.last_tweet_at is None or n == 0:
        return (np.empty(0), np.empty(0, np.int64), np.empty(0, np.uint8),
                np.empty(0, np.int64), 0)
    behavior = account.behavior
    pool = behavior.duplicate_pool
    uniforms = stream_uniforms(timeline_state(seed, account.user_id),
                               1 + 4 * pool + 7 * n)
    salt = int(uniforms[0] * (1 << 39))
    draws = uniforms[1 + 4 * pool:].reshape(n, 7)
    created_at = np.log1p(-draws[:, 0])
    created_at[0] = 0.0
    np.cumsum(created_at, out=created_at)
    created_at *= DAY / max(behavior.tweets_per_day, 1e-3)
    created_at += account.last_tweet_at
    np.maximum(created_at, account.created_at, out=created_at)
    millis = np.maximum((created_at * 1000).astype(np.int64)
                        - SNOWFLAKE_EPOCH_MS, 0)
    sequence = np.arange(n, dtype=np.int64)
    tweet_id = (millis << 22) | sequence | ((account.user_id % 1024) << 12)
    flags = _flag_bits(draws[:, 1:], behavior)
    duplicated = 0
    if pool:
        serial = np.minimum((draws[:, 1] * pool).astype(np.int64), pool - 1)
        bits = _flag_bits(uniforms[1:1 + 4 * pool].reshape(pool, 4),
                          behavior)[serial]
        flags = (flags & (RETWEET | AUTOMATION)) | bits
        uses = np.bincount(serial, minlength=pool)
        duplicated = int(uses[uses > 3].sum())
    else:
        serial = sequence
        bits = flags & (LINK | SPAM | MENTION | HASHTAG)
    flags |= (flags & RETWEET) >> 2
    body_key = (salt << 24) | (serial << 4) | bits
    return created_at, tweet_id, flags, body_key, duplicated
