"""Timeline statistic columns for batch classification.

Socialbakers' content rules (spam phrases, repeated tweets, retweet and
link ratios) and FC's class-B features need per-timeline fractions.
Timelines arrive as :class:`~repro.twitter.timeline.TimelineBlock`
columns, so all seven fractions of a whole sample come from its flag
and body-key columns in a few vectorized passes — no tweet text is
rendered or parsed.  Hand-built tweet lists enter the same path through
:meth:`TimelineBlock.from_tweets`, which detects their flags with the
:class:`~repro.twitter.tweet.Tweet` predicates.

Each fraction is ``count / len(timeline)`` with both operands exact in
float64, so the columns are bit-identical to what the scalar helpers in
:mod:`repro.fc.rulesets` and :mod:`repro.fc.features` compute on the
rendered tweets.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigurationError
from ..twitter.timeline import (AUTOMATION, HASHTAG, LINK, MENTION, RETWEET,
                                SPAM, TimelineBlock)

#: Flag bit of each fraction column, in column order (the duplicate
#: column comes from body keys instead).
_FRACTION_BITS = (RETWEET, LINK, SPAM, MENTION, HASHTAG, AUTOMATION)


@dataclass
class TimelineStatColumns:
    """Seven per-timeline fraction columns plus a non-empty mask."""

    retweet: object
    link: object
    spam: object
    mention: object
    hashtag: object
    automation: object
    duplicate: object
    #: ``bool(timeline)`` per row — rules like "more than 90% retweets"
    #: only fire on accounts that tweeted at all.
    nonempty: object

    def __len__(self) -> int:
        return len(self.nonempty)

    def column(self, index: int):
        """The ``index``-th fraction column, in declaration order."""
        return (self.retweet, self.link, self.spam, self.mention,
                self.hashtag, self.automation, self.duplicate)[index]


def timeline_stat_columns(np, timelines) -> TimelineStatColumns:
    """Fraction columns over ``timelines`` (blocks or tweet sequences).

    ``None`` entries read as empty timelines (all fractions 0.0), the
    same degradation the scalar rules apply via ``timeline or []``.
    """
    if timelines is None:
        raise ConfigurationError("timeline_stat_columns needs timelines")
    blocks = [TimelineBlock.from_tweets(timeline or ())
              for timeline in timelines]
    lengths = np.array([len(block) for block in blocks], dtype=np.int64)
    nonempty = lengths > 0
    rows = np.repeat(np.arange(len(blocks)), lengths)
    flags = (np.concatenate([block.flags for block in blocks]) if blocks
             else np.zeros(0, dtype=np.uint8))

    def fraction(counts):
        return np.divide(counts, lengths, out=np.zeros(len(blocks)),
                         where=nonempty)

    columns = [fraction(np.bincount(rows[(flags & bit) != 0],
                                    minlength=len(blocks)))
               for bit in _FRACTION_BITS]
    duplicated = np.array([block.duplicated for block in blocks],
                          dtype=np.int64)
    return TimelineStatColumns(*columns, fraction(duplicated),
                               nonempty=nonempty)
