"""Seller profiles and their orders as post-reference blocks."""

import math

import pytest

from repro.api import TwitterApiClient
from repro.core import ConfigurationError, DAY, HOUR, PAPER_EPOCH, SimClock
from repro.market import (
    CHEAP_BULK,
    PREMIUM_DRIP,
    PRESET_SELLERS,
    STANDARD,
    SellerProfile,
)
from repro.twitter import Label, add_simple_target, build_world


def buyer_world(*orders, organic_per_day=0.0):
    """A world whose follower-less target @buyer placed ``orders``."""
    world = build_world(seed=5, ref_time=PAPER_EPOCH)
    add_simple_target(world, "buyer", 0, 0.05, 0.05, 0.90,
                      daily_new_followers=organic_per_day,
                      post_ref_bursts=orders)
    return world


def buyer(*orders):
    """The follower population of :func:`buyer_world`'s @buyer."""
    return buyer_world(*orders).population("buyer")


class TestSellerProfile:
    def test_presets_are_valid_and_ordered_by_price(self):
        prices = [seller.price_per_thousand for seller in PRESET_SELLERS]
        assert prices == sorted(prices)

    def test_pricing(self):
        assert STANDARD.price(5000) == pytest.approx(40.0)
        assert CHEAP_BULK.price(1000) == pytest.approx(2.0)

    def test_delivery_hours(self):
        assert CHEAP_BULK.delivery_hours(10_000) == pytest.approx(2.0)
        assert PREMIUM_DRIP.delivery_hours(600) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SellerProfile("", 1.0, {"fake_classic": 1.0}, 100, 0.01)
        with pytest.raises(ConfigurationError):
            SellerProfile("x", 1.0, {"nope": 1.0}, 100, 0.01)
        with pytest.raises(ConfigurationError):
            SellerProfile("x", 1.0, {"fake_classic": 1.0}, 0, 0.01)
        with pytest.raises(ConfigurationError):
            SellerProfile("x", 1.0, {"fake_classic": 1.0}, 100, 1.0)
        with pytest.raises(ConfigurationError):
            STANDARD.price(0)


class TestOrderFulfilment:
    def test_bulk_order_delivers_within_hours(self):
        order = CHEAP_BULK.order(0.0, 8000)
        assert CHEAP_BULK.price(order.count) == pytest.approx(16.0)
        population = buyer(order)
        # Two tranches: 5000 at the order instant, 3000 an hour later.
        assert population.size_at(PAPER_EPOCH) == 5000
        assert population.size_at(PAPER_EPOCH + 4 * HOUR) == 8000

    def test_tranche_timing_matches_delivery_hours(self):
        for seller in PRESET_SELLERS:
            population = buyer(seller.order(0.0, 1000))
            hours = math.ceil(seller.delivery_hours(1000))
            arrived = [population.size_at(PAPER_EPOCH + hour * HOUR)
                       for hour in range(hours + 1)]
            assert arrived == [
                min(1000, (hour + 1) * seller.delivery_per_hour)
                for hour in range(hours + 1)], seller.name
            # The last tranche lands ceil(hours) - 1 hours in.
            assert population.followed_at(999) == \
                PAPER_EPOCH + (hours - 1) * HOUR

    def test_drip_order_spreads_over_days(self):
        population = buyer(PREMIUM_DRIP.order(0.0, 2000))
        assert 0 < population.size_at(PAPER_EPOCH + 12 * HOUR) < 2000
        assert population.size_at(PAPER_EPOCH + 2 * DAY) == 2000

    def test_delivered_accounts_are_fake_personas(self):
        population = buyer(STANDARD.order(0.0, 500))
        now = PAPER_EPOCH + 6 * HOUR
        assert population.size_at(now) == 500
        for position in range(500):
            label = population.account_at(position, now).true_label
            assert label in (Label.FAKE, Label.INACTIVE)

    def test_attrition_erodes_the_block(self):
        population = buyer(CHEAP_BULK.order(0.0, 5000))
        now = PAPER_EPOCH + 2 * HOUR + 30 * DAY
        # 4%/day for 30 days: 0.96^30 ~ 0.29 of the block gone.
        retained = population.size_at(now)
        assert retained < 0.85 * 5000
        assert population.arrived_at(now) == 5000
        assert population.schedule.departed_at(now) == 5000 - retained

    def test_premium_attrition_is_negligible(self):
        population = buyer(PREMIUM_DRIP.order(0.0, 600))
        assert population.size_at(PAPER_EPOCH + 40 * DAY) > 0.9 * 600

    def test_quantity_validated(self):
        with pytest.raises(ConfigurationError):
            STANDARD.order(0.0, 0)
        with pytest.raises(ConfigurationError):
            STANDARD.order(-1.0, 100)

    def test_orders_tracked(self):
        population = buyer(STANDARD.order(0.0, 100),
                           CHEAP_BULK.order(1.0, 100))
        assert population.arrived_at(PAPER_EPOCH + 0.5 * DAY) == 100
        assert population.arrived_at(PAPER_EPOCH + 1.5 * DAY) == 200


class TestBurstVisibility:
    def test_bulk_purchase_trips_the_growth_monitor(self):
        """End to end: seller order -> daily poller -> alert."""
        from repro.growth import (
            BurstDetector,
            GrowthMonitor,
            series_from_observations,
        )

        # Bought an hour after the day-8 poll.
        world = buyer_world(CHEAP_BULK.order(8 + 1 / 24, 6000),
                            organic_per_day=80.0)
        clock = SimClock(PAPER_EPOCH)
        monitor = GrowthMonitor(world, clock)
        observations = []
        for day in range(15):
            clock.advance_to(PAPER_EPOCH + day * DAY)
            observations.append(monitor.poll("buyer"))
        series = series_from_observations(observations)
        events = BurstDetector().detect(series)
        assert events
        assert events[0].day == 8
        assert events[0].excess > 4000

    def test_departed_buyers_leave_the_listing_but_still_resolve(self):
        """A departure acts like an unfollow on the API surface."""
        world = buyer_world(CHEAP_BULK.order(0.0, 5000))
        population = world.population("buyer")
        now = PAPER_EPOCH + 2 * HOUR + 3 * DAY
        client = TwitterApiClient(world, SimClock(now))
        listed = client.followers_ids(screen_name="buyer", count=5000).ids
        assert client.users_show(
            screen_name="buyer").followers_count == len(listed) < 5000
        departed = population.follower_id_at(0)
        assert departed not in listed
        assert [user.user_id for user in client.users_lookup([departed])] \
            == [departed]
