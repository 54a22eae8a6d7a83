"""Tweet model for the simulated Twitter.

Tweets carry the subset of the real status object the paper's engines
inspect: text, creation time, retweet flag, URL/hashtag/mention
presence, and posting source.  Text-level signals (spam phrases,
duplicated bodies) are detected from the text itself, exactly as a real
crawler would.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet

from ..core.errors import ConfigurationError

#: Spam phrases listed by Socialbakers' published methodology
#: ("more than 30% of the account's tweets use spam phrases (like diet,
#: make money, work from home)", paper Section II-B), extended with a few
#: staples of 2012-2014 Twitter spam so generated spam is not degenerate.
SPAM_PHRASES = (
    "diet",
    "make money",
    "work from home",
    "free followers",
    "lose weight fast",
    "click here",
    "earn cash",
    "miracle cure",
)

#: The official clients; any other ``source`` is an automation tool.
HUMAN_SOURCES = ("web", "Twitter for iPhone", "Twitter for Android")

_URL_RE = re.compile(r"https?://\S+")
_MENTION_RE = re.compile(r"(?<!\w)@(\w{1,15})")
_HASHTAG_RE = re.compile(r"(?<!\w)#(\w+)")
_RETWEET_RE = re.compile(r"^RT @\w{1,15}:")


@dataclass(frozen=True)
class Tweet:
    """A single status.

    ``source`` mirrors the v1.1 ``source`` field: the client application
    the status was posted from (``"web"``, ``"Twitter for iPhone"``, or a
    third-party automation tool).
    """

    tweet_id: int
    user_id: int
    created_at: float
    text: str
    source: str = "web"

    def __post_init__(self) -> None:
        if self.tweet_id < 0:
            raise ConfigurationError(f"tweet_id must be non-negative: {self.tweet_id!r}")
        if not self.text:
            raise ConfigurationError("tweet text must be non-empty")

    def is_retweet(self) -> bool:
        """Whether the status is a retweet (``RT @user: ...`` form)."""
        return bool(_RETWEET_RE.match(self.text))

    def has_link(self) -> bool:
        """Whether the status body contains a URL."""
        return bool(_URL_RE.search(self.text))

    def mentions(self) -> FrozenSet[str]:
        """Screen names mentioned in the status (including the RT source)."""
        return frozenset(_MENTION_RE.findall(self.text))

    def hashtags(self) -> FrozenSet[str]:
        """Hashtags used in the status."""
        return frozenset(_HASHTAG_RE.findall(self.text))

    def contains_spam_phrase(self) -> bool:
        """Whether the status uses a known spam phrase."""
        lowered = self.text.lower()
        return any(phrase in lowered for phrase in SPAM_PHRASES)

    def body(self) -> str:
        """The comparable body of the tweet, used for duplicate detection.

        Socialbakers' rule fires when "the same tweets are repeated more
        than three times, even when posted to different accounts", so the
        body strips the ``RT @user:`` prefix before comparison.
        """
        return _RETWEET_RE.sub("", self.text).strip()
