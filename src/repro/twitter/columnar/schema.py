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
  longest string any persona can render (every persona vocabulary is
  checked against them when the persona is built), and
  :meth:`UserRowBlock.from_users` refuses a value the column would
  truncate or strip (a trailing NUL), so a silent bit-identity break
  is impossible;
* the ground-truth label is stored as an int8 index into
  :data:`repro.twitter.account.LABELS`.

:func:`user_object_from_row` projects a row onto the public
:class:`~repro.api.endpoints.UserObject` shape, which is how a
:class:`UserRowBlock` poses as a sequence of user objects.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import fields
from operator import attrgetter
from typing import Optional

import numpy as np

from ...core.errors import ConfigurationError
from ..account import LABELS, STRING_WIDTHS, BehaviorProfile


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
    # Behaviour profile (drives lazy timeline synthesis), field by field.
    *((field.name, "<i8" if field.type in (int, "int") else "<f8")
      for field in fields(BehaviorProfile)),
    ("label", "i1"),               # index into account.LABELS
])

#: The profile columns a user object and an account share, in row order
#: (``last_tweet_at`` follows them; the two shapes name it differently).
_NAMES = ACCOUNT_DTYPE.names
_PROFILE_COLUMNS = _NAMES[:_NAMES.index("last_tweet_at")]
_BEHAVIOR_COLUMNS = _NAMES[_NAMES.index("tweets_per_day"):_NAMES.index("label")]
_profile_values = attrgetter(*_PROFILE_COLUMNS)
_account_profile = attrgetter(*_PROFILE_COLUMNS, "last_tweet_at")
_behavior_values = attrgetter(*_BEHAVIOR_COLUMNS)
_LABEL_INDEX = {label: index for index, label in enumerate(LABELS)}
#: ``(tuple index, field, width)`` of each fixed-width text column.
_TEXT_SLOTS = tuple(
    (index, field, STRING_WIDTHS[field])
    for index, field in enumerate(_PROFILE_COLUMNS) if field in STRING_WIDTHS)
#: ``last_tweet_at`` of an account that never tweeted.
_NEVER_TWEETED = float("nan")
#: Behaviour and label columns of a row packed from a plain user object.
_NO_BEHAVIOR = (0,) * (len(_BEHAVIOR_COLUMNS) + 1)


def _profile_row(values: tuple, last_at: Optional[float]) -> tuple:
    """The profile columns, from the values before ``last_tweet_at``.

    Refuses a text value its fixed-width column cannot round-trip: one
    longer than the width, or one ending in NUL (NumPy strips trailing
    NULs when it reads a ``U`` field back).
    """
    for index, field, width in _TEXT_SLOTS:
        value = values[index]
        if len(value) > width or value.endswith("\x00"):
            raise ConfigurationError(
                f"user {values[0]} field {field!r} cannot round-trip "
                f"through the columnar width {width}: {value!r}")
    return values + (_NEVER_TWEETED if last_at is None else last_at,)


def profile_record(profile: tuple, behavior: BehaviorProfile,
                   label) -> tuple:
    """One :data:`ACCOUNT_DTYPE` record tuple.

    ``profile`` holds the values of the :class:`Account` fields up to
    and including ``last_tweet_at`` (``None``: never tweeted), in field
    order.  Refuses lossy text values (see :func:`_profile_row`).
    """
    return (_profile_row(profile[:-1], profile[-1])
            + _behavior_values(behavior) + (_LABEL_INDEX[label],))


def account_record(account) -> tuple:
    """An :class:`~repro.twitter.account.Account` as one record tuple."""
    return profile_record(_account_profile(account), account.behavior,
                          account.true_label)


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
        synthesise timelines from the result.  Refuses lossy text
        values (see :func:`_profile_row`).
        """
        return cls(np.array(
            [_profile_row(_profile_values(user), user.last_status_at)
             + _NO_BEHAVIOR
             for user in users], dtype=ACCOUNT_DTYPE))
