"""Counter-based randomness: Philox4x32-10 evaluated in numpy over whole arrays.

Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) maps a 128-bit counter and a 64-bit key to 128 random bits, so a
draw is a pure function of (key, counter): no generator state, nothing to
construct per trial, and any set of draws can be computed in one vectorized
pass. A 64-bit key ``k`` is used as the word pair ``(k & 0xffffffff, k >> 32)``.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np

_MULTIPLIERS = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64)
_WEYL = np.array([0x9E3779B9, 0xBB67AE85], dtype=np.uint64)
_ROUND_OFFSETS = (np.arange(10, dtype=np.uint64)[:, None] * _WEYL)[:, :, None]  # (round, word, 1)
_MASK = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)


def philox4x32(counter, key) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox4x32-10 of ``counter`` (words c0..c3) under ``key`` (words k0, k1).

    ``counter`` has shape (4, ...) and ``key`` shape (2, ...), broadcastable
    to the counter's; each word is a 32-bit value held in uint64. Returns the
    four output words, uint64 arrays of the counter's trailing shape. Both
    multiplications of a round run as one product of (c0, c2) with the two
    multipliers, and all ten round keys are computed up front.
    """
    counter = np.asarray(counter, dtype=np.uint64)
    shape = counter.shape[1:]
    counter = counter.reshape(4, -1)
    lanes = counter.shape[1]
    multipliers = np.repeat(_MULTIPLIERS, lanes).reshape(2, lanes)
    key = np.broadcast_to(np.asarray(key, dtype=np.uint64), (2, *shape)).reshape(2, lanes)
    round_keys = (key + _ROUND_OFFSETS) & _MASK
    even, odd = counter[0::2], counter[1::2]  # (c0, c2), (c1, c3)
    # A round: c0 = hi(M1 c2) ^ c1 ^ k0, c1 = lo(M1 c2), c2 = hi(M0 c0) ^ c3 ^ k1,
    # c3 = lo(M0 c0); the [::-1] pairs each new word with the other product.
    for round_key in round_keys:
        product = even * multipliers
        even, odd = (product >> _SHIFT)[::-1] ^ odd ^ round_key, (product & _MASK)[::-1]
    return tuple(word.reshape(shape) for word in (even[0], odd[0], even[1], odd[1]))


def key_words(keys: np.ndarray) -> np.ndarray:
    """The (low, high) 32-bit words of uint64 keys, stacked on a leading axis."""
    return np.stack([keys & _MASK, keys >> _SHIFT])


def check_seed(seed: object) -> int:
    """A seed is an int in [0, 2**64), the range of a Philox key; ValueError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
    return int(seed)


def seed_keys(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """Validated seeds as a uint64 array of Philox keys; a uint64 array is taken as is."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    return np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
