"""Wire-level objects returned by the simulated API.

These are the *only* shapes analytics engines may consume.  In
particular :class:`UserObject` is an :class:`~repro.twitter.account.Account`
with the simulation-internal fields (ground-truth label, generating
behaviour profile) stripped — engines must infer everything from
observables, exactly as they must against the real service.

Like the real v1.1 ``users/lookup``, a user object embeds the creation
time of the account's most recent status, which is how real-world tools
check "the last tweet is more than 90 days old" without a timeline call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..twitter.account import Account


@dataclass(frozen=True)
class UserObject:
    """Public profile snapshot, mirroring the v1.1 user object."""

    user_id: int
    screen_name: str
    name: str
    created_at: float
    description: str
    location: str
    url: str
    default_profile_image: bool
    verified: bool
    followers_count: int
    friends_count: int
    statuses_count: int
    #: Creation time of the embedded most-recent status (``None`` if the
    #: account never tweeted).
    last_status_at: Optional[float]

    @classmethod
    def from_account(cls, account: Account) -> "UserObject":
        """Project an internal account snapshot onto the public shape."""
        return cls(
            user_id=account.user_id,
            screen_name=account.screen_name,
            name=account.name,
            created_at=account.created_at,
            description=account.description,
            location=account.location,
            url=account.url,
            default_profile_image=account.default_profile_image,
            verified=account.verified,
            followers_count=account.followers_count,
            friends_count=account.friends_count,
            statuses_count=account.statuses_count,
            last_status_at=account.last_tweet_at,
        )

    # -- the same derived observables analytics rule sets use ------------

    def friends_followers_ratio(self) -> float:
        """following/followers ratio; ``friends_count`` when unfollowed."""
        if self.followers_count == 0:
            return float(self.friends_count)
        return self.friends_count / self.followers_count

    def has_bio(self) -> bool:
        """Whether the profile description is filled in."""
        return bool(self.description.strip())

    def has_location(self) -> bool:
        """Whether the profile location is filled in."""
        return bool(self.location.strip())

    def has_ever_tweeted(self) -> bool:
        """Whether the account posted at least one status."""
        return self.statuses_count > 0

    def age_at(self, now: float) -> float:
        """Account age in seconds at ``now``."""
        return max(0.0, now - self.created_at)

    def last_status_age(self, now: float) -> Optional[float]:
        """Seconds since the embedded last status; ``None`` if never tweeted."""
        if self.last_status_at is None:
            return None
        return max(0.0, now - self.last_status_at)


@dataclass(frozen=True)
class IdsPage:
    """One page of ``followers/ids`` / ``friends/ids`` results.

    ``ids`` are ordered newest-first, matching the behaviour the paper
    verifies experimentally in Section IV-B ("the list of the first 1000
    followers returned by Twitter is actually the list of the last 1000
    accounts that started following the target").

    Cursors follow the v1.1 convention: ``-1`` requests the first page,
    ``next_cursor == 0`` means the listing is exhausted.
    """

    ids: Tuple[int, ...]
    next_cursor: int
    previous_cursor: int

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ApiCall:
    """One logged API request (or failed attempt), for cost accounting.

    ``error`` is ``None`` for a successful call; for a failed attempt it
    names the failure kind (e.g. ``"transient_503"``).  With fault
    injection on, every retried attempt is logged individually, so the
    log remains a complete, deterministic record of what the client did.
    """

    resource: str
    issued_at: float
    completed_at: float
    waited: float
    items: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the request completed successfully."""
        return self.error is None

    @property
    def latency(self) -> float:
        """Wall time of the request, including rate-limit wait."""
        return self.completed_at - self.issued_at


class CallLog:
    """Accumulating record of a client's API usage.

    Aggregates are maintained incrementally at :meth:`record` time, so
    every query below is O(1) or O(resources) instead of re-scanning
    the whole call list — the scans used to dominate ``repro stats``
    on large batch runs, where the stats line asks several aggregate
    questions of every registered log.  Floats accumulate in record
    order, exactly the order the old per-query scans summed them in,
    so every reported value is byte-identical.
    """

    def __init__(self) -> None:
        self._calls: list[ApiCall] = []
        # Per-resource summary()-shaped aggregates (ok calls only,
        # failures counted separately — see summary()'s contract).
        self._by_resource: Dict[str, Dict[str, float]] = {}
        # Per-resource tallies over ALL attempts, failures included
        # (the contract of count / failures / total_items).
        self._attempts: Dict[str, int] = {}
        self._failed: Dict[str, int] = {}
        self._items: Dict[str, int] = {}
        self._total_failures = 0
        self._total_items = 0

    def record(self, call: ApiCall) -> None:
        """Append one completed call to the log."""
        self._calls.append(call)
        resource = call.resource
        self._attempts[resource] = self._attempts.get(resource, 0) + 1
        self._items[resource] = self._items.get(resource, 0) + call.items
        self._total_items += call.items
        stats = self._by_resource.setdefault(resource, {
            "calls": 0, "items": 0, "waited": 0.0, "total_latency": 0.0,
            "failures": 0})
        if not call.ok:
            self._failed[resource] = self._failed.get(resource, 0) + 1
            self._total_failures += 1
            stats["failures"] += 1
            return
        stats["calls"] += 1
        stats["items"] += call.items
        stats["waited"] += call.waited
        stats["total_latency"] += call.latency

    def calls(self, resource: Optional[str] = None) -> Sequence[ApiCall]:
        """Logged calls, optionally filtered by resource."""
        if resource is None:
            return tuple(self._calls)
        return tuple(call for call in self._calls if call.resource == resource)

    def count(self, resource: Optional[str] = None) -> int:
        """Number of logged calls, optionally filtered by resource."""
        if resource is None:
            return len(self._calls)
        return self._attempts.get(resource, 0)

    def failures(self, resource: Optional[str] = None) -> int:
        """Number of logged failed attempts, optionally by resource."""
        if resource is None:
            return self._total_failures
        return self._failed.get(resource, 0)

    def total_items(self, resource: Optional[str] = None) -> int:
        """Total elements returned, optionally filtered by resource."""
        if resource is None:
            return self._total_items
        return self._items.get(resource, 0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-resource aggregates of the whole log.

        Returns ``{resource: {"calls", "items", "waited",
        "total_latency", "failures"}}`` with resources in sorted order —
        the shape consumed by the Prometheus exporter (``api_calllog_*``
        series) and the ``repro stats`` summary line.  Failed attempts
        count only under ``"failures"``: they contribute nothing to
        ``"calls"``, ``"items"``, ``"waited"`` or ``"total_latency"``,
        so per-resource latency averages (``total_latency / calls``)
        describe successful requests only.
        """
        return {resource: dict(self._by_resource[resource])
                for resource in sorted(self._by_resource)}

    def clear(self) -> None:
        """Drop every logged call."""
        self._calls.clear()
        self._by_resource.clear()
        self._attempts.clear()
        self._failed.clear()
        self._items.clear()
        self._total_failures = 0
        self._total_items = 0
