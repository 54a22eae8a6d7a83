"""Unit tests for the persona library.

The critical invariant: ground-truth labels coincide with the paper's
behavioural definitions — every INACTIVE-labelled persona yields
accounts that never tweeted or last tweeted > 90 days ago, and every
GENUINE/FAKE persona yields recently active accounts.
"""

import pytest

from repro.core import ConfigurationError, PAPER_EPOCH, make_rng
from repro.twitter import (
    DEFAULT_LABEL_MIXES,
    INACTIVITY_HORIZON,
    Label,
    PERSONAS,
    persona_mix_from_labels,
)

NOW = PAPER_EPOCH


def sample_many(persona_name, n=100, seed=3):
    persona = PERSONAS[persona_name]
    rng = make_rng(seed, persona_name)
    return [persona.sample(rng, i + 1, NOW) for i in range(n)]


def is_behaviourally_inactive(account):
    age = account.last_tweet_age(NOW)
    return age is None or age > INACTIVITY_HORIZON


class TestLabelBehaviourConsistency:
    @pytest.mark.parametrize("name", ["genuine_abandoned", "fake_egg_dormant"])
    def test_inactive_personas_are_inactive(self, name):
        assert PERSONAS[name].label is Label.INACTIVE
        assert all(is_behaviourally_inactive(a) for a in sample_many(name))

    @pytest.mark.parametrize("name", [
        "genuine_active", "genuine_newbie", "fake_classic", "fake_spammer"])
    def test_active_personas_are_active(self, name):
        assert PERSONAS[name].label is not Label.INACTIVE
        assert not any(is_behaviourally_inactive(a) for a in sample_many(name))

    @pytest.mark.parametrize("name", list(PERSONAS))
    def test_sampled_label_matches_persona(self, name):
        for account in sample_many(name, n=20):
            assert account.true_label is PERSONAS[name].label


class TestArchetypeShape:
    def test_fakes_follow_many_have_few_followers(self):
        for account in sample_many("fake_classic"):
            assert account.friends_count > account.followers_count

    def test_spammers_tweet_spammy_content_rates(self):
        for account in sample_many("fake_spammer", n=50):
            behavior = account.behavior
            assert (behavior.link_ratio > 0.9 or behavior.retweet_ratio > 0.9)
            assert behavior.duplicate_pool >= 2

    def test_genuine_active_has_reasonable_profile(self):
        accounts = sample_many("genuine_active")
        with_bio = sum(1 for a in accounts if a.has_bio())
        assert with_bio > len(accounts) * 0.6

    def test_eggs_have_empty_profiles(self):
        for account in sample_many("fake_egg_dormant"):
            assert not account.has_bio()
            assert not account.has_location()

    def test_no_account_predates_twitter(self):
        from repro.core import TWITTER_LAUNCH
        for name in PERSONAS:
            for account in sample_many(name, n=20):
                assert account.created_at >= TWITTER_LAUNCH


class TestPersonaMix:
    def test_mix_weights_sum_to_one(self):
        mix = persona_mix_from_labels(0.3, 0.2, 0.5)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_pure_fake_mix_only_fake_personas(self):
        mix = persona_mix_from_labels(0.0, 1.0, 0.0)
        assert set(mix) == set(DEFAULT_LABEL_MIXES[Label.FAKE])

    def test_rounded_percentages_accepted(self):
        # Paper tables carry rounded values summing to e.g. 100.1.
        persona_mix_from_labels(0.443, 0.099, 0.459)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            persona_mix_from_labels(-0.1, 0.5, 0.6)

    def test_bad_sum_rejected(self):
        with pytest.raises(ConfigurationError):
            persona_mix_from_labels(0.5, 0.5, 0.5)
