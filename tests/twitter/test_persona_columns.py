"""The column samplers against the scalar samplers they replaced.

Every persona field drawn by the column samplers of
:mod:`repro.twitter.personas` is compared, in distribution, with the
scalar samplers kept in :mod:`tests.twitter.persona_oracle`:

* continuous fields and counts (times, rates, graph counts, handle
  digit fractions): two-sample Kolmogorov-Smirnov, rejected when the
  statistic exceeds ``c(alpha) * sqrt((n + m) / (n m))`` with
  ``c(alpha) = sqrt(-ln(alpha / 2) / 2)``;
* flags and categories (avatar, bio, location, url, display name,
  never tweeted, handle shape, duplicate pool): one binomial
  two-proportion z-test per category, at ``alpha`` over the number of
  categories (Bonferroni).

Each test uses ``alpha = 0.001``, ``N = 5000`` accounts a side and
fixed seeds.  The comparison is uncapped (no ``latest_created``): the
cap is where the column samplers deliberately differ (they draw the
last tweet from the capped creation), and the property test of
``test_follower_columns.py`` covers capped rows.
"""

from __future__ import annotations

import math
import random
from statistics import NormalDist

import numpy as np
import pytest

from repro.core import PAPER_EPOCH, ConfigurationError
from repro.twitter.columns import sample_accounts
from repro.twitter.names import digit_fraction
from repro.twitter.personas import PERSONAS

from . import persona_oracle

ALPHA = 0.001
N = 5000
NOW = PAPER_EPOCH
BUILTIN = sorted(persona_oracle.SAMPLERS)


def _columns_side(name):
    rng = random.Random(f"columns-{name}")
    keys = [rng.getrandbits(64) for __ in range(N)]
    return sample_accounts([PERSONAS[name]] * N, keys,
                           list(range(1, N + 1)), NOW)


def _oracle_side(name):
    rng = random.Random(f"oracle-{name}")
    sampler = persona_oracle.SAMPLERS[name]
    return [sampler(rng, index + 1, f"u{index}", NOW, None)
            for index in range(N)]


@pytest.fixture(scope="module", params=BUILTIN)
def sides(request):
    name = request.param
    return name, _columns_side(name), _oracle_side(name)


def ks_statistic(first, second) -> float:
    """The two-sample Kolmogorov-Smirnov statistic."""
    first, second = np.sort(first), np.sort(second)
    values = np.concatenate([first, second])
    cdf_first = np.searchsorted(first, values, side="right") / len(first)
    cdf_second = np.searchsorted(second, values, side="right") / len(second)
    return float(np.max(np.abs(cdf_first - cdf_second)))


def ks_bound(n: int, m: int, alpha: float = ALPHA) -> float:
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


def assert_same_distribution(first, second, field):
    first = np.asarray(first, dtype=np.float64)
    second = np.asarray(second, dtype=np.float64)
    if len(first) < 30 or len(second) < 30:
        assert len(first) == len(second) == 0 or (
            abs(len(first) - len(second)) <= 30), field
        return
    if np.ptp(first) == 0 and np.ptp(second) == 0:
        assert first[0] == second[0], field
        return
    statistic = ks_statistic(first, second)
    assert statistic <= ks_bound(len(first), len(second)), (
        f"{field}: KS {statistic:.4f} > {ks_bound(len(first), len(second)):.4f}")


def assert_same_categories(first, second, field):
    categories = sorted(set(first) | set(second), key=repr)
    z = NormalDist().inv_cdf(1 - ALPHA / (2 * max(1, len(categories))))
    n, m = len(first), len(second)
    for category in categories:
        p = sum(1 for value in first if value == category) / n
        q = sum(1 for value in second if value == category) / m
        pooled = (p * n + q * m) / (n + m)
        spread = math.sqrt(pooled * (1 - pooled) * (1 / n + 1 / m))
        assert abs(p - q) <= z * spread + 1e-12, (
            f"{field}={category!r}: {p:.4f} vs {q:.4f} (z bound {z:.2f})")


_RATES = ("tweets_per_day", "retweet_ratio", "link_ratio", "spam_ratio",
          "mention_ratio", "hashtag_ratio", "api_source_ratio")


def _handle_shape(handle: str) -> str:
    if any(c in "._" for c in handle) or not any(c.isdigit() for c in handle):
        return "human-like"
    return "digits"


class TestContinuousFields:
    def test_times(self, sides):
        name, columns, oracle = sides
        assert_same_distribution([a.created_at for a in columns],
                                 [a.created_at for a in oracle],
                                 f"{name}.created_at")
        assert_same_distribution(
            [a.last_tweet_at for a in columns if a.last_tweet_at is not None],
            [a.last_tweet_at for a in oracle if a.last_tweet_at is not None],
            f"{name}.last_tweet_at")

    def test_rates(self, sides):
        name, columns, oracle = sides
        for rate in _RATES:
            assert_same_distribution(
                [getattr(a.behavior, rate) for a in columns],
                [getattr(a.behavior, rate) for a in oracle],
                f"{name}.{rate}")

    def test_counts(self, sides):
        name, columns, oracle = sides
        for field in ("followers_count", "friends_count", "statuses_count"):
            assert_same_distribution([getattr(a, field) for a in columns],
                                     [getattr(a, field) for a in oracle],
                                     f"{name}.{field}")

    def test_handle_digits_and_length(self, sides):
        name, columns, oracle = sides
        assert_same_distribution(
            [digit_fraction(a.screen_name) for a in columns],
            [digit_fraction(a.screen_name) for a in oracle],
            f"{name}.screen_name digits")
        assert_same_distribution([len(a.screen_name) for a in columns],
                                 [len(a.screen_name) for a in oracle],
                                 f"{name}.screen_name length")


class TestCategoricalFields:
    def test_profile_text(self, sides):
        name, columns, oracle = sides
        for field in ("description", "location", "url"):
            assert_same_categories(
                [getattr(a, field).replace(a.screen_name, "<handle>")
                 for a in columns],
                [getattr(a, field).replace(a.screen_name, "<handle>")
                 for a in oracle], f"{name}.{field}")

    def test_flags(self, sides):
        name, columns, oracle = sides
        for field, read in (
                ("default_profile_image", lambda a: a.default_profile_image),
                ("never_tweeted", lambda a: a.last_tweet_at is None),
                ("named", lambda a: bool(a.name)),
                ("named_after_handle",
                 lambda a: bool(a.name) and a.screen_name.startswith(a.name)),
                ("handle_shape", lambda a: _handle_shape(a.screen_name)),
                ("duplicate_pool", lambda a: a.behavior.duplicate_pool)):
            assert_same_categories([read(a) for a in columns],
                                   [read(a) for a in oracle],
                                   f"{name}.{field}")

    def test_labels(self, sides):
        name, columns, oracle = sides
        assert {a.true_label for a in columns} == \
            {a.true_label for a in oracle} == {PERSONAS[name].label}


class TestBoundedLognormal:
    """The oracle's clamped log-normal (no longer in ``repro.core``)."""

    def test_respects_bounds(self):
        rng = random.Random(1)
        values = [persona_oracle.bounded_int_lognormal(rng, 10.0, 3.0, 5, 50)
                  for _ in range(500)]
        assert all(5 <= v <= 50 for v in values)

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigurationError):
            persona_oracle.bounded_int_lognormal(random.Random(1), 1.0, 1.0,
                                                 10, 5)
