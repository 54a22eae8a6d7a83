"""Columnar account schema: the structured dtype and row adapters.

One follower = one row of :data:`ACCOUNT_DTYPE`, a NumPy structured
dtype holding every field of :class:`repro.twitter.account.Account`
(profile observables, behaviour profile, ground-truth label).  The
encoding is exact by construction:

* counts are int64, times are float64 — both store the generated Python
  values without rounding;
* ``last_tweet_at=None`` (never tweeted) is encoded as NaN, the only
  float value the generators never produce;
* strings live in fixed-width unicode columns whose widths exceed the
  longest string any persona sampler can mint; :func:`pack_account`
  *verifies* that on every write and refuses to truncate, so a silent
  bit-identity break is impossible;
* the ground-truth label is stored as an int8 index into
  :data:`repro.twitter.account.LABELS`.

:func:`user_object_from_row` projects a row onto the public
:class:`~repro.api.endpoints.UserObject` shape, which is how a
:class:`UserRowBlock` poses as a sequence of user objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Optional

import numpy as np

from ...core.errors import ConfigurationError
from ..account import Account, LABELS

#: Fixed string column widths.  Persona samplers mint screen names of at
#: most 15 characters, display names of at most 15, bios of at most 36,
#: locations of at most 11 and urls of at most 34; widths leave headroom
#: and ``pack_account`` raises rather than truncate if a generator ever
#: outgrows them.
STRING_WIDTHS = {
    "screen_name": 20,
    "name": 24,
    "description": 48,
    "location": 16,
    "url": 40,
}

ACCOUNT_DTYPE = np.dtype([
    ("user_id", "<i8"),
    ("screen_name", f"<U{STRING_WIDTHS['screen_name']}"),
    ("created_at", "<f8"),
    ("name", f"<U{STRING_WIDTHS['name']}"),
    ("description", f"<U{STRING_WIDTHS['description']}"),
    ("location", f"<U{STRING_WIDTHS['location']}"),
    ("url", f"<U{STRING_WIDTHS['url']}"),
    ("default_profile_image", "?"),
    ("verified", "?"),
    ("followers_count", "<i8"),
    ("friends_count", "<i8"),
    ("statuses_count", "<i8"),
    ("last_tweet_at", "<f8"),      # NaN == never tweeted
    # Behaviour profile (drives lazy timeline synthesis).
    ("tweets_per_day", "<f8"),
    ("retweet_ratio", "<f8"),
    ("link_ratio", "<f8"),
    ("spam_ratio", "<f8"),
    ("mention_ratio", "<f8"),
    ("hashtag_ratio", "<f8"),
    ("duplicate_pool", "<i8"),
    ("api_source_ratio", "<f8"),
    ("label", "i1"),               # index into account.LABELS
])

_LABEL_INDEX = {label: index for index, label in enumerate(LABELS)}


def pack_account(row: np.void, account: Account) -> None:
    """Write ``account`` into ``row`` in place, refusing lossy writes."""
    for field, width in STRING_WIDTHS.items():
        value = getattr(account, field)
        if len(value) > width:
            raise ConfigurationError(
                f"account {account.user_id} field {field!r} exceeds the "
                f"columnar width {width}: {value!r}")
    row["user_id"] = account.user_id
    row["screen_name"] = account.screen_name
    row["created_at"] = account.created_at
    row["name"] = account.name
    row["description"] = account.description
    row["location"] = account.location
    row["url"] = account.url
    row["default_profile_image"] = account.default_profile_image
    row["verified"] = account.verified
    row["followers_count"] = account.followers_count
    row["friends_count"] = account.friends_count
    row["statuses_count"] = account.statuses_count
    row["last_tweet_at"] = (np.nan if account.last_tweet_at is None
                            else account.last_tweet_at)
    behavior = account.behavior
    row["tweets_per_day"] = behavior.tweets_per_day
    row["retweet_ratio"] = behavior.retweet_ratio
    row["link_ratio"] = behavior.link_ratio
    row["spam_ratio"] = behavior.spam_ratio
    row["mention_ratio"] = behavior.mention_ratio
    row["hashtag_ratio"] = behavior.hashtag_ratio
    row["duplicate_pool"] = behavior.duplicate_pool
    row["api_source_ratio"] = behavior.api_source_ratio
    row["label"] = _LABEL_INDEX[account.true_label]


def _last_tweet_at(row: np.void) -> Optional[float]:
    value = float(row["last_tweet_at"])
    return None if value != value else value


def user_object_from_row(row: np.void):
    """Project a row onto the public API user-object shape directly."""
    from ...api.endpoints import UserObject  # deferred: api imports twitter

    return UserObject(
        user_id=int(row["user_id"]),
        screen_name=str(row["screen_name"]),
        name=str(row["name"]),
        created_at=float(row["created_at"]),
        description=str(row["description"]),
        location=str(row["location"]),
        url=str(row["url"]),
        default_profile_image=bool(row["default_profile_image"]),
        verified=bool(row["verified"]),
        followers_count=int(row["followers_count"]),
        friends_count=int(row["friends_count"]),
        statuses_count=int(row["statuses_count"]),
        last_status_at=_last_tweet_at(row),
    )


class UserRowBlock(Sequence):
    """A batch of account rows posing as a sequence of user objects.

    Indexing and iteration materialise :class:`UserObject` instances
    lazily, so row-oriented consumers keep working; the classifiers
    instead read :attr:`rows` through the
    :class:`~repro.api.columns.SampleBlock` field views and never touch
    per-row objects at all.
    """

    def __init__(self, rows: np.ndarray) -> None:
        if rows.dtype != ACCOUNT_DTYPE:
            raise ConfigurationError(
                f"expected ACCOUNT_DTYPE rows, got {rows.dtype!r}")
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UserRowBlock(self._rows[index])
        return user_object_from_row(self._rows[index])

    @property
    def rows(self) -> np.ndarray:
        """The underlying structured rows (read-mostly)."""
        return self._rows

    @classmethod
    def from_users(cls, users) -> "UserRowBlock":
        """Pack plain user objects into a row block.

        Only the profile fields a :class:`UserObject` carries are
        written; the behaviour columns that drive lazy timeline
        synthesis stay zeroed — callers classify profiles, they do not
        synthesise timelines from the result.  Refuses lossy string
        writes like :func:`pack_account`.
        """
        rows = np.zeros(len(users), dtype=ACCOUNT_DTYPE)
        for row, user in zip(rows, users):
            for field, width in STRING_WIDTHS.items():
                value = getattr(user, field)
                if len(value) > width:
                    raise ConfigurationError(
                        f"user {user.user_id} field {field!r} exceeds the "
                        f"columnar width {width}: {value!r}")
            row["user_id"] = user.user_id
            row["screen_name"] = user.screen_name
            row["created_at"] = user.created_at
            row["name"] = user.name
            row["description"] = user.description
            row["location"] = user.location
            row["url"] = user.url
            row["default_profile_image"] = user.default_profile_image
            row["verified"] = user.verified
            row["followers_count"] = user.followers_count
            row["friends_count"] = user.friends_count
            row["statuses_count"] = user.statuses_count
            row["last_tweet_at"] = (np.nan if user.last_status_at is None
                                    else user.last_status_at)
        return cls(rows)
