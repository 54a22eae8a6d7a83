"""The fake-follower black market: seller profiles and their orders."""

from .sellers import (
    CHEAP_BULK,
    PREMIUM_DRIP,
    PRESET_SELLERS,
    STANDARD,
    SellerProfile,
)

__all__ = [
    "CHEAP_BULK",
    "PREMIUM_DRIP",
    "PRESET_SELLERS",
    "STANDARD",
    "SellerProfile",
]
