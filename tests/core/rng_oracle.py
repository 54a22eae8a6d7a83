"""Reference implementations of :mod:`repro.core.rng` for differential tests.

``derive_seed`` hashes the ``repr`` of a tuple and ``weighted_choice``
walks the running sum of the weights; the library builds the same
text without the tuple and picks through a precomputed
:class:`~repro.core.rng.WeightedTable`.  These are the direct forms.
"""

import hashlib


def derive_seed(master, *path):
    """The seed of the ``repr`` of ``(int(master), str(p), ...)``."""
    payload = repr((int(master),) + tuple(str(p) for p in path)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def weighted_choice(rng, items, weights):
    """One draw, then the first item whose running weight reaches it."""
    total = float(sum(weights))
    target = rng.random() * total
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if target <= acc:
            return item
    return items[-1]
