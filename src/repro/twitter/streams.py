"""The single documented stream-split for synthetic-world randomness.

Every stochastic draw in a synthetic world is made from a
``random.Random`` (or, for timelines, a ``numpy.random.Generator``)
derived from the world's master seed plus a *stream path* — a short
label tuple hashed by :func:`repro.core.rng.derive_seed`.
This module is the only place those paths are spelled out, so every
call site that must consume *identical* random streams provably does;
``tests/twitter/test_streams.py`` pins the derived seeds and the first
draws of each stream so any accidental re-keying fails loudly.

Stream registry
---------------
========================  ============================================
stream                    path under the master seed
========================  ============================================
follower persona          ``("persona", ordinal, position)``
follower account          ``("account", ordinal, position)``
composition sampling      ``("composition", sample_seed)``
ambient pool account      ``("ambient", index)``
friends/ids shuffle       ``("friends", user_id)``
timeline synthesis        ``("timeline", user_id)`` (NumPy PCG64)
explicit-graph builder    ``("graph", screen_name)``
========================  ============================================

Follower streams are keyed by ``(target ordinal, arrival position)``;
they deliberately do *not* depend on the observation instant or on
which other followers were generated, which is what makes lazy
generation possible: materialising position ``p`` never requires
materialising positions ``0..p-1``.
"""

from __future__ import annotations

import random

import numpy as np

from ..core.rng import derive_seed, make_rng


def follower_persona_rng(seed: int, ordinal: int, position: int) -> random.Random:
    """Stream deciding which persona the follower at ``position`` gets."""
    return make_rng(seed, "persona", ordinal, position)


def follower_account_rng(seed: int, ordinal: int, position: int) -> random.Random:
    """Stream the follower's persona sampler draws its snapshot from."""
    return make_rng(seed, "account", ordinal, position)


def composition_rng(seed: int, sample_seed: int) -> random.Random:
    """Stream for uniform position sampling in ground-truth composition."""
    return make_rng(seed, "composition", sample_seed)


def ambient_rng(seed: int, index: int) -> random.Random:
    """Stream generating the ``index``-th shared ambient-pool account."""
    return make_rng(seed, "ambient", index)


def friends_rng(seed: int, user_id: int) -> random.Random:
    """Stream shuffling the ambient pool into a user's friends list."""
    return make_rng(seed, "friends", user_id)


def timeline_generator(seed: int, user_id: int) -> np.random.Generator:
    """Stream synthesising a user's recent timeline.

    A NumPy generator, because timelines are drawn as whole columns
    (see :class:`repro.twitter.timeline.TimelineGenerator`).
    """
    return np.random.Generator(
        np.random.PCG64(derive_seed(seed, "timeline", user_id)))


def graph_rng(seed: int, screen_name: str) -> random.Random:
    """Stream used by :func:`repro.twitter.generator.populate_graph`."""
    return make_rng(seed, "graph", screen_name)
