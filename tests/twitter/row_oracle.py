"""Reference oracle for account rows: one field write at a time.

The production path renders one record tuple per generated follower
(:meth:`repro.twitter.columns.FollowerColumns.profile_rows`), packs a
batch of them with a single ``np.array`` call, and fills a target's row
from the static row packed on its first lookup.  This oracle
writes each field of each row separately, by name, the way the row
packing was first written.  Tests check the bulk path against it byte
for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.twitter.account import LABELS, Account
from repro.twitter.columnar.schema import ACCOUNT_DTYPE

_LABEL_INDEX = {label: index for index, label in enumerate(LABELS)}


def pack_account(row: np.void, account: Account) -> None:
    """Write ``account`` into ``row`` in place, field by field."""
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


def pack_accounts(accounts: Sequence[Account]) -> np.ndarray:
    """``accounts`` as :data:`ACCOUNT_DTYPE` rows, one field write each."""
    rows = np.empty(len(accounts), dtype=ACCOUNT_DTYPE)
    for row, account in zip(rows, accounts):
        pack_account(row, account)
    return rows
