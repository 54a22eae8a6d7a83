"""Fully materialised social graph.

For small-scale studies, property-based tests and the examples, the
library also offers an explicit adjacency-backed graph where every
account and follow edge is a real object.  It implements the same
:class:`~repro.twitter.population.World` interface as the lazy
:class:`SyntheticWorld`, so the API simulator and every engine run
unchanged on either backend.

Follow edges are timestamped; follower/friend lists are maintained in
chronological order of edge creation, matching the semantics verified in
the paper's Section IV-B experiment.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.errors import (
    DuplicateAccountError,
    GraphError,
    UnknownAccountError,
)
from .account import Account
from .population import World
from .timeline import TimelineBlock, TimelineGenerator


@dataclass(frozen=True)
class FollowEdge:
    """A directed, timestamped follow relationship."""

    follower_id: int
    target_id: int
    created_at: float


class _EdgeList:
    """Chronologically ordered edge endpoints with O(log n) insertion."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._ids: List[int] = []

    def add(self, moment: float, user_id: int) -> None:
        index = bisect.bisect_right(self._times, moment)
        self._times.insert(index, moment)
        self._ids.insert(index, user_id)

    def remove(self, user_id: int) -> None:
        index = self._ids.index(user_id)
        del self._ids[index]
        del self._times[index]

    def ids_until(self, now: float) -> List[int]:
        index = bisect.bisect_right(self._times, now)
        return self._ids[:index]

    def count_until(self, now: float) -> int:
        return bisect.bisect_right(self._times, now)

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._ids


class SocialGraph(World):
    """An explicit, mutable social graph.

    A materialised graph is almost always a *partial* view of the
    network: the accounts' own audiences are not locally present (you
    never crawl all of Twitter).  Counts reported in snapshots therefore
    combine both sources of truth: ``followers_count``/``friends_count``
    is the **larger of the declared profile count and the locally
    materialised edge count** at observation time.  A fresh follower
    with a declared audience of 500 keeps reporting 500; a target whose
    1200 followers were materialised here reports 1200 even if it was
    registered with a zero count.  Listings (``follower_ids`` /
    ``friend_ids``) always come from the materialised edges, in
    chronological order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._accounts: Dict[int, Account] = {}
        self._by_name: Dict[str, int] = {}
        self._followers: Dict[int, _EdgeList] = {}
        self._friends: Dict[int, _EdgeList] = {}
        self._timelines = TimelineGenerator(seed)

    # -- mutation --------------------------------------------------------------

    def add_account(self, account: Account) -> None:
        """Register an account.

        The snapshot's ``followers_count``/``friends_count`` fields are
        kept as the account's *declared* counts; edges added to this
        graph can only raise the reported numbers above them.
        """
        if account.user_id in self._accounts:
            raise DuplicateAccountError(account.user_id)
        key = account.screen_name.lower()
        if key in self._by_name:
            raise DuplicateAccountError(account.screen_name)
        self._accounts[account.user_id] = account
        self._by_name[key] = account.user_id
        self._followers[account.user_id] = _EdgeList()
        self._friends[account.user_id] = _EdgeList()

    def follow(self, follower_id: int, followee_id: int, at: float) -> FollowEdge:
        """Create a follow edge at simulated instant ``at``."""
        self._require(follower_id)
        self._require(followee_id)
        if follower_id == followee_id:
            raise GraphError("an account cannot follow itself")
        if follower_id in self._followers[followee_id]:
            raise GraphError(
                f"{follower_id} already follows {followee_id}")
        self._followers[followee_id].add(at, follower_id)
        self._friends[follower_id].add(at, followee_id)
        return FollowEdge(follower_id, followee_id, at)

    def unfollow(self, follower_id: int, followee_id: int) -> None:
        """Remove an existing follow edge."""
        self._require(follower_id)
        self._require(followee_id)
        if follower_id not in self._followers[followee_id]:
            raise GraphError(f"{follower_id} does not follow {followee_id}")
        self._followers[followee_id].remove(follower_id)
        self._friends[follower_id].remove(followee_id)

    def update_account(self, account: Account) -> None:
        """Replace a registered account's snapshot (live simulations).

        The id and screen name must match the registered entry; edges
        are untouched.
        """
        current = self._require(account.user_id)
        if current.screen_name.lower() != account.screen_name.lower():
            raise GraphError(
                "update_account cannot rename an account "
                f"({current.screen_name!r} -> {account.screen_name!r})")
        self._accounts[account.user_id] = account

    def _require(self, user_id: int) -> Account:
        if user_id not in self._accounts:
            raise UnknownAccountError(user_id)
        return self._accounts[user_id]

    # -- inspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._accounts)

    def has_account(self, user_id: int) -> bool:
        """Whether an account with this id is registered."""
        return user_id in self._accounts

    def has_screen_name(self, screen_name: str) -> bool:
        """Whether a handle is already taken (case-insensitive)."""
        return screen_name.lower() in self._by_name

    def is_following(self, follower_id: int, followee_id: int) -> bool:
        """Whether a follow edge currently exists."""
        self._require(follower_id)
        self._require(followee_id)
        return follower_id in self._followers[followee_id]

    def all_account_ids(self) -> List[int]:
        """Ids of every registered account."""
        return list(self._accounts)

    # -- World interface -----------------------------------------------------------

    def account_by_id(self, user_id: int, now: float) -> Account:
        """Snapshot of an account at ``now`` (max of declared/edge counts)."""
        account = self._require(user_id)
        if account.created_at > now:
            raise UnknownAccountError(user_id)
        return account.with_counts(
            followers_count=max(
                account.followers_count,
                self._followers[user_id].count_until(now)),
            friends_count=max(
                account.friends_count,
                self._friends[user_id].count_until(now)),
        )

    def account_by_name(self, screen_name: str, now: float) -> Account:
        """Resolve a handle (case-insensitive) to a snapshot at ``now``."""
        key = screen_name.lower()
        if key not in self._by_name:
            raise UnknownAccountError(screen_name)
        return self.account_by_id(self._by_name[key], now)

    def follower_count(self, user_id: int, now: float) -> int:
        """Materialised follower-edge count at ``now``."""
        self._require(user_id)
        return self._followers[user_id].count_until(now)

    def follower_ids(self, user_id: int, start: int, stop: int,
                     now: float) -> Sequence[int]:
        """Slice of the chronological follower listing at ``now``."""
        self._require(user_id)
        return self._followers[user_id].ids_until(now)[start:stop]

    def friend_count(self, user_id: int, now: float) -> int:
        """Materialised friend-edge count at ``now``."""
        self._require(user_id)
        return self._friends[user_id].count_until(now)

    def friend_ids(self, user_id: int, start: int, stop: int,
                   now: float) -> Sequence[int]:
        """Slice of the chronological friend listing at ``now``."""
        self._require(user_id)
        return self._friends[user_id].ids_until(now)[start:stop]

    def timeline(self, user_id: int, count: int, now: float) -> TimelineBlock:
        """The account's recent tweets visible at ``now``, newest first."""
        account = self.account_by_id(user_id, now)
        block = self._timelines.recent_tweets(account, count)
        # Newest first, so the tweets visible at ``now`` are a suffix.
        hidden = int(np.count_nonzero(block.created_at > now))
        return block[hidden:]
