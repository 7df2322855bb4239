"""Deterministic random stream derivation.

Every random choice in the package flows through numpy's PCG64 bit
generator.  Independent streams are derived by hashing (seed, purpose
tag, *indices) through numpy's SeedSequence, so any result is
reproducible from its user-facing 64-bit seed alone, and streams for
different purposes or shard indices never collide.
"""

from __future__ import annotations

import numpy as np

from .graphs import check_integer

# Purpose tags. Frozen: serialized outputs depend on these values.
W_RANDOM = 1
ERDOS_RENYI = 2
UNIFORM_ATTACHMENT = 3
MONTE_CARLO = 4
CUT_HEURISTIC = 5
CUT_DISTANCE = 6
EXTREMAL = 7
CUT_EVAL = 8

_MAX_SEED = (1 << 64) - 1


def check_seed(seed: int, name: str = "seed") -> int:
    seed = check_integer(seed, name)
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by (seed, *key).

    SeedSequence reads a list of ints as their little-endian 32-bit words,
    at least one per int, converting one int at a time; handing it those
    words as one uint32 array seeds the same stream about four times
    faster for a permutation key; values under 2^32 are their own words.
    """
    words = values = (check_seed(seed), *map(int, key))
    if min(values) < 0:
        raise ValueError(f"stream keys must be non-negative, got {min(values)}")
    if max(values) >> 32:
        words = []
        for value in values:
            words.append(value & 0xFFFFFFFF)
            while value := value >> 32:
                words.append(value & 0xFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))
