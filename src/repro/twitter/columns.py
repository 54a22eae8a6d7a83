"""Follower columns: a batch of generated accounts, rendered on demand.

:func:`sample_columns` runs each persona's column sampler over its rows
of a draw matrix (:mod:`repro.twitter.draws`) and returns a
:class:`FollowerColumns`.  Text is not drawn as text: the columns hold
small codes into the vocabularies of :mod:`repro.twitter.names` and of
each persona, rendered only when a user object, a row or an
:class:`~repro.twitter.account.Account` is asked for.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.errors import ConfigurationError
from .account import LABELS, Account, BehaviorProfile
from .draws import Draws, draw_matrix
from .names import render_handle, render_name
from .timeline import PROFILE_COUNTS, PROFILE_FLOATS, TimelineProfiles

# -- the columns of a batch -----------------------------------------------------

#: The behaviour-rate columns: :class:`BehaviorProfile`'s fields, in order.
_BEHAVIOR_COLUMNS = tuple(field.name for field in fields(BehaviorProfile))
#: Columns a sampler may leave out, with the value they then take.
#: ``created_at``, ``last_tweet_at`` (NaN: never tweeted),
#: ``statuses_count`` and the ``handle_*`` codes are required.
OPTIONAL_COLUMNS: Dict[str, object] = {
    "followers_count": 0,
    "friends_count": 0,
    "default_profile_image": False,
    "name_kind": 0,
    "name_first": 0,
    "name_last": 0,
    "description": 0,
    "location": 0,
    "url": 0,
    **{field.name: field.default for field in fields(BehaviorProfile)},
}
_HANDLE_COLUMNS = ("handle_style", "handle_a", "handle_b", "handle_c",
                   "handle_d", "handle_bits")
REQUIRED_COLUMNS = ("created_at", "last_tweet_at", "statuses_count") \
    + _HANDLE_COLUMNS
#: The columns a rendered profile reads, in :meth:`FollowerColumns._records`
#: order.
_PROFILE_CODES = _HANDLE_COLUMNS + (
    "created_at", "name_kind", "name_first", "name_last", "description",
    "location", "url", "default_profile_image", "followers_count",
    "friends_count", "statuses_count", "last_tweet_at")
_LABEL_INDEX = {label: index for index, label in enumerate(LABELS)}


def _listed(value, size: int) -> list:
    """A column as a list of Python values (a scalar repeats)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return [value] * size


class _Group(NamedTuple):
    """The rows of a batch that one persona sampled, with its columns
    (every column of :data:`OPTIONAL_COLUMNS` filled in)."""

    rows: Optional[np.ndarray]      # None: every row of the batch
    persona: object
    columns: Dict[str, object]


def _checked(persona, columns: Dict[str, object], latest_created
             ) -> Dict[str, object]:
    """``columns`` with defaults, after the contract checks every
    sampler must pass."""
    missing = [name for name in REQUIRED_COLUMNS if name not in columns]
    if missing:
        raise ConfigurationError(
            f"persona {persona.name!r}: sampler left out {missing}")
    created = columns["created_at"]
    last = columns["last_tweet_at"]
    if (created > latest_created).any():
        raise ConfigurationError(
            f"persona {persona.name!r}: an account created after its "
            f"latest_created")
    if ((np.isnan(last) != (columns["statuses_count"] == 0))
            | (last < created)).any():
        raise ConfigurationError(
            f"persona {persona.name!r}: last_tweet_at must be NaN exactly "
            f"when statuses_count is 0, and never before created_at")
    return {**OPTIONAL_COLUMNS, **columns}


class FollowerColumns:
    """A batch of generated accounts, as per-persona column groups.

    Row ``i`` is the account with ``user_ids[i]``.  Nothing is rendered
    until asked: :meth:`profile_rows` renders text from codes,
    :meth:`accounts` builds :class:`~repro.twitter.account.Account`
    objects, and :meth:`timeline_profiles` reads only what timeline
    synthesis needs.
    """

    __slots__ = ("user_ids", "_groups")

    def __init__(self, user_ids: np.ndarray, groups: List[_Group]) -> None:
        self.user_ids = user_ids
        self._groups = groups

    def __len__(self) -> int:
        return len(self.user_ids)

    def _rows(self, group: _Group) -> List[int]:
        if group.rows is None:
            return list(range(len(self)))
        return group.rows.tolist()

    def _records(self, group: _Group):
        """Per row of ``group``: its batch row, profile and behaviour.

        The profile tuple is in :data:`ACCOUNT_DTYPE` order, with NaN
        for never tweeted.
        """
        rows = self._rows(group)
        size = len(rows)
        columns = group.columns
        persona = group.persona
        ids = (self.user_ids.tolist() if group.rows is None
               else self.user_ids[group.rows].tolist())
        descriptions, locations, urls = (
            persona.descriptions, persona.locations, persona.urls)
        behaviors = zip(*(_listed(columns[name], size)
                          for name in _BEHAVIOR_COLUMNS))
        for (row, user_id, style, a, b, c, d, bits, created, name_kind,
             first, last_name, description, location, url, dpi, followers,
             friends, statuses, last, behavior) in zip(
                rows, ids,
                *(_listed(columns[name], size) for name in _PROFILE_CODES),
                behaviors):
            handle = render_handle(style, a, b, c, d, bits)
            yield row, (
                user_id, handle, created,
                render_name(name_kind, first, last_name, handle),
                descriptions[description], locations[location],
                urls[url].format(handle), bool(dpi), False,
                followers, friends, statuses, last,
            ), behavior

    def profile_rows(self) -> list:
        """Every row as an :data:`ACCOUNT_DTYPE` record tuple."""
        records = [None] * len(self)
        for group in self._groups:
            label = (_LABEL_INDEX[group.persona.label],)
            for row, profile, behavior in self._records(group):
                records[row] = profile + behavior + label
        return records

    def accounts(self) -> List[Account]:
        """Every row as an :class:`~repro.twitter.account.Account`."""
        accounts = [None] * len(self)
        for group in self._groups:
            label = group.persona.label
            for row, (user_id, handle, created, name, description, location,
                      url, dpi, verified, followers, friends, statuses,
                      last), behavior in self._records(group):
                accounts[row] = Account(
                    user_id=user_id, screen_name=handle, created_at=created,
                    name=name, description=description, location=location,
                    url=url, default_profile_image=dpi, verified=verified,
                    followers_count=followers, friends_count=friends,
                    statuses_count=statuses,
                    last_tweet_at=None if last != last else last,
                    behavior=BehaviorProfile(*behavior), true_label=label)
        return accounts

    def timeline_profiles(self) -> TimelineProfiles:
        """What timeline synthesis reads of every row, as columns."""
        counts = np.empty((len(self), len(PROFILE_COUNTS)), dtype=np.int64)
        floats = np.empty((len(self), len(PROFILE_FLOATS)))
        counts[:, 0] = self.user_ids          # PROFILE_COUNTS[0]
        for group in self._groups:
            rows = slice(None) if group.rows is None else group.rows
            for column, name in enumerate(PROFILE_COUNTS[1:], 1):
                counts[rows, column] = group.columns[name]
            for column, name in enumerate(PROFILE_FLOATS):
                floats[rows, column] = group.columns[name]
        return TimelineProfiles(counts, floats)


def sample_columns(bits: np.ndarray, uniforms: np.ndarray,
                   personas: Sequence, picks: np.ndarray, now,
                   latest_created: np.ndarray,
                   user_ids: np.ndarray) -> FollowerColumns:
    """Run each picked persona's sampler over its rows of the matrix.

    ``personas[picks[i]]`` is row ``i``'s persona and
    ``latest_created[i]`` caps its creation (``inf``: no cap); ``now``
    is the instant every row is observed at, or one instant per row.  A
    sampler receives its rows' draws, instants and caps as arrays.
    """
    now = np.broadcast_to(np.asarray(now, dtype=np.float64), picks.shape)
    codes = np.unique(picks).tolist()
    split = [(None, codes[0])] if len(codes) == 1 else [
        (np.flatnonzero(picks == code), code) for code in codes]
    groups = []
    for rows, code in split:
        persona = personas[code]
        if rows is None:
            draws, instants, caps = Draws(bits, uniforms), now, latest_created
        else:
            draws = Draws(bits[rows], uniforms[rows])
            instants, caps = now[rows], latest_created[rows]
        columns = persona.sampler(draws, instants, caps)
        groups.append(_Group(rows, persona, _checked(persona, columns, caps)))
    return FollowerColumns(user_ids, groups)


def sample_keyed(personas: Sequence, keys: Sequence[int],
                 user_ids: Sequence[int], now: float) -> FollowerColumns:
    """Columns of ``personas[i]`` keyed by ``keys[i]``, uncapped.

    The FC gold standard and the ambient pool draw each key from their
    own stream (``rng.getrandbits(64)``) and sample here, through the
    same column samplers as every follower; object callers take
    :meth:`FollowerColumns.accounts`.
    """
    distinct = list(dict.fromkeys(personas))
    picks = np.array([distinct.index(persona) for persona in personas],
                     dtype=np.int64)
    caps = np.full(len(keys), np.inf)
    bits, uniforms = draw_matrix(np.array(keys, dtype=np.uint64))
    return sample_columns(bits, uniforms, distinct, picks, now, caps,
                          np.array(user_ids, dtype=np.int64))

