"""Reference oracle for timeline class fractions: a text sweep.

The production path computes the seven class-B fractions from a
timeline block's flag and body-key columns.  This oracle computes them
the way a crawler reading only the wire text would: one pass over the
tweets, each predicate applied to ``text`` and ``source``.  Tests check
the column path against it bit for bit.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from repro.twitter.tweet import HUMAN_SOURCES, SPAM_PHRASES, _HASHTAG_RE, \
    _MENTION_RE, _RETWEET_RE, _URL_RE


def timeline_fractions(timeline) -> Tuple[float, ...]:
    """``(retweet, link, spam, mention, hashtag, automation, duplicate)``
    fractions of one timeline, each ``count / len(timeline)``."""
    n = len(timeline)
    if n == 0:
        return (0.0,) * 7
    retweets = links = spam = mentions = hashtags = automation = 0
    bodies: List[str] = []
    for tweet in timeline:
        text = tweet.text
        if _RETWEET_RE.match(text):
            retweets += 1
        if _URL_RE.search(text):
            links += 1
        lowered = text.lower()
        if any(phrase in lowered for phrase in SPAM_PHRASES):
            spam += 1
        if _MENTION_RE.search(text) is not None:
            mentions += 1
        if _HASHTAG_RE.search(text) is not None:
            hashtags += 1
        if tweet.source not in HUMAN_SOURCES:
            automation += 1
        bodies.append(_RETWEET_RE.sub("", text).strip())
    counts = Counter(bodies)
    duplicated = sum(1 for body in bodies if counts[body] > 3)
    return (retweets / n, links / n, spam / n, mentions / n,
            hashtags / n, automation / n, duplicated / n)
