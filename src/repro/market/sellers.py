"""Fake-follower seller profiles.

The paper's backdrop is "a growing black market for fake followers"
(its reference [6] is literally titled that).  Reporting from the
2012-2013 episode describes a spectrum of merchandise: bottom-shelf
bulk "eggs" delivered within hours and prone to mass disappearance
(Twitter purges, seller recycling), and pricier "aged" accounts with
filled profiles and drip-fed delivery meant to evade exactly the
growth-anomaly monitors of :mod:`repro.growth`.

A :class:`SellerProfile` captures those dimensions; the presets span
the market's ends.  An order compiles to one
:class:`~repro.twitter.PostRefBurst` of the generative world: staged
hourly delivery and deterministic daily attrition are part of the
block's arrival schedule, so every engine, crawler and monitor observes
the purchase without an event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.errors import ConfigurationError
from ..twitter.population import PostRefBurst


@dataclass(frozen=True)
class SellerProfile:
    """One merchant on the fake-follower market.

    Attributes
    ----------
    name:
        Marketplace handle of the seller.
    price_per_thousand:
        USD per 1000 followers (2013 street prices ran $1-$20).
    personas:
        Persona mix of the delivered accounts.
    delivery_per_hour:
        Delivery throughput: hourly tranches of this size, the first at
        the order instant.
    daily_attrition:
        Fraction of the delivered block unfollowing per day after
        delivery (purges, recycling, buyer remorse on shared bots), by
        :class:`~repro.twitter.PostRefBurst`'s integer rule.
    """

    name: str
    price_per_thousand: float
    personas: Mapping[str, float]
    delivery_per_hour: int
    daily_attrition: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("seller name must be non-empty")
        if self.price_per_thousand < 0:
            raise ConfigurationError("price must be non-negative")
        # Personas, delivery rate and attrition: valid when an order is.
        self.order(0.0, 1)

    def price(self, quantity: int) -> float:
        """USD for an order of ``quantity`` followers."""
        if quantity < 1:
            raise ConfigurationError(f"quantity must be >= 1: {quantity!r}")
        return self.price_per_thousand * quantity / 1000.0

    def delivery_hours(self, quantity: int) -> float:
        """Hours to deliver an order of ``quantity`` followers.

        The last of the ``ceil(delivery_hours)`` tranches lands
        ``ceil(delivery_hours) - 1`` hours after the order.
        """
        if quantity < 1:
            raise ConfigurationError(f"quantity must be >= 1: {quantity!r}")
        return quantity / self.delivery_per_hour

    def order(self, days_after: float, quantity: int) -> PostRefBurst:
        """An order of ``quantity`` followers placed ``days_after`` days
        past the reference instant, as a target's post-reference block."""
        return PostRefBurst(
            days_after=days_after, count=quantity, personas=self.personas,
            delivery_per_hour=self.delivery_per_hour,
            daily_attrition=self.daily_attrition)


#: Bottom shelf: instant bulk eggs, heavy attrition.
CHEAP_BULK = SellerProfile(
    name="cheap-bulk",
    price_per_thousand=2.0,
    personas={"fake_egg_dormant": 0.7, "fake_classic": 0.3},
    delivery_per_hour=5000,
    daily_attrition=0.04,
)

#: Mid market: mixed inventory, same-day delivery.
STANDARD = SellerProfile(
    name="standard",
    price_per_thousand=8.0,
    personas={"fake_classic": 0.6, "fake_egg_dormant": 0.2,
              "fake_spammer": 0.2},
    delivery_per_hour=1500,
    daily_attrition=0.015,
)

#: Top shelf: "aged, high-quality" accounts, drip-fed to dodge
#: growth-anomaly monitors, near-zero attrition.
PREMIUM_DRIP = SellerProfile(
    name="premium-drip",
    price_per_thousand=20.0,
    personas={"fake_classic": 0.9, "fake_spammer": 0.1},
    delivery_per_hour=60,
    daily_attrition=0.002,
)

PRESET_SELLERS = (CHEAP_BULK, STANDARD, PREMIUM_DRIP)
