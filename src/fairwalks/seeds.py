"""Deterministic seed derivation.

Every randomized stage derives its own seed from the master seed plus a
stage tag, so that results are reproducible and stages draw independent
streams. The derivation is a stable hash, identical across platforms
and Python processes.
"""

import hashlib

import numpy as np


def derive_seed(master: int, *tags) -> int:
    """Derive a 63-bit seed from a master seed and a sequence of tags.

    Tags may be ints or strings. The same (master, tags) always yields the
    same seed; distinct tag sequences yield independent seeds.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for tag in tags:
        h.update(b"|")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest(), "little") >> 1


def rng_for(master: int, *tags) -> np.random.Generator:
    """Seeded generator for one stage or work unit."""
    return np.random.default_rng(derive_seed(master, *tags))
