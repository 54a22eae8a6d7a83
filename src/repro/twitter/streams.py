"""The single documented stream-split for synthetic-world randomness.

Every stochastic draw in a synthetic world is made from a
``random.Random`` derived from the world's master seed plus a *stream
path* — a short label tuple hashed by
:func:`repro.core.rng.derive_seed` — except follower snapshots and
timelines, which are counter-based: SplitMix64 outputs stepped from a
64-bit state derived the same way, so a whole column is one NumPy
pass.
This module is the only place those paths are spelled out, so every
call site that must consume *identical* random streams provably does;
``tests/twitter/test_streams.py`` pins the derived seeds and the first
draws of each stream so any accidental re-keying fails loudly.

Stream registry
---------------
========================  ============================================
stream                    path under the master seed
========================  ============================================
follower key state        ``("follower", ordinal)`` (SplitMix64 state)
composition sampling      ``("composition", sample_seed)``
ambient pool account      ``("ambient", index)``
friends/ids shuffle       ``("friends", user_id)``
timeline synthesis        ``("timeline", user_id)`` (SplitMix64 state)
explicit-graph builder    ``("graph", screen_name)``
========================  ============================================

A follower's key is the SplitMix64 output at step ``position + 1`` of
its target's key state, and each of its draws is ``mix(key ^
slot_constant)`` (see :mod:`repro.twitter.draws`).  Keys
deliberately do *not* depend on the observation instant or on which
other followers were generated, which is what makes lazy generation
possible: materialising position ``p`` never requires materialising
positions ``0..p-1``, and any set of positions is generated in one
NumPy pass.  Callers that build accounts outside a population (the
graph builder, the live processes, the FC gold standard, the ambient
pool) draw a key from their own stream with ``rng.getrandbits(64)``.
"""

from __future__ import annotations

import random

from ..core.rng import derive_seed, make_rng


def follower_key_state(seed: int, ordinal: int) -> int:
    """The SplitMix64 state a target's follower keys step from."""
    return derive_seed(seed, "follower", ordinal)


def composition_rng(seed: int, sample_seed: int) -> random.Random:
    """Stream for uniform position sampling in ground-truth composition."""
    return make_rng(seed, "composition", sample_seed)


def ambient_rng(seed: int, index: int) -> random.Random:
    """Stream generating the ``index``-th shared ambient-pool account."""
    return make_rng(seed, "ambient", index)


def friends_rng(seed: int, user_id: int) -> random.Random:
    """Stream shuffling the ambient pool into a user's friends list."""
    return make_rng(seed, "friends", user_id)


def timeline_state(seed: int, user_id: int) -> int:
    """The SplitMix64 state a user's timeline draws step from.

    Timelines are drawn as whole columns, the ``i``-th uniform from
    step ``i + 1`` (see :func:`repro.twitter.draws.stream_rows`).
    """
    return derive_seed(seed, "timeline", user_id)


def graph_rng(seed: int, screen_name: str) -> random.Random:
    """Stream used by :func:`repro.twitter.generator.populate_graph`."""
    return make_rng(seed, "graph", screen_name)
