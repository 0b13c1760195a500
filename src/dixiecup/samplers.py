"""Seeded random streams: one independent stream per (seed, stream) pair.

A (master_seed, stream_index) pair, which :class:`SeedSpec` validates, names
one stream of the counter-based Philox generator, which gives
bit-reproducible, mutually independent streams without sequential skipping,
so replications can run on any number of workers in any order.

A Philox stream is its 128-bit key at counter 0 (Salmon et al. 2011,
"Parallel random numbers: as easy as 1, 2, 3").  The key of a pair is what
numpy's seed sequence derives from it by a fixed uint32 hash (O'Neill's
``seed_seq`` design).  :func:`stream_keys` runs that hash on many pairs at
once as array arithmetic, so a bank's streams are keyed for about the cost
of one.  The row samplers of :mod:`dixiecup.discrete` draw every stream
from its key.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SeedSpec", "stream_keys"]

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """One reproducible random stream, identified by (master seed, stream index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_index"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= _UINT64_MAX:
                raise ValueError(f"{name} must fit in 64 unsigned bits, got {value}")


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` mod 2**32 for k = 0..count: the running hash constant."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# the seed sequence's constants: the entropy hash runs 16 steps on a pool of 4
# words (4 to fill it, 12 to mix it), the output hash 4 steps; step k xors
# with constant k and multiplies by constant k + 1
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)[:, None]
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)[:, None]
_FILL = _HASH_A[:4], _HASH_A[1:5]
_OUTPUT = _HASH_B[:4], _HASH_B[1:5]
# 0-d arrays, which numpy combines with arrays faster than its scalars
_MIX_L, _MIX_R, _SHIFT = (np.array(c, dtype=np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))


def _mixing_constants(src: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of the hash steps at which word
    ``src`` mixes into each other word (the row of ``src`` is unused)."""
    steps = np.zeros(4, dtype=np.intp)
    steps[[d for d in range(4) if d != src]] = 4 + 3 * src + np.arange(3)
    return _HASH_A[steps], _HASH_A[steps + 1]


_MIXING = [_mixing_constants(src) for src in range(4)]


def _hash(words: np.ndarray, constants: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mult = constants
    words = words ^ xor
    words *= mult
    words ^= words >> _SHIFT
    return words


def stream_keys(seeds, indices) -> np.ndarray:
    """The Philox key of each stream ``(seeds[i], indices[i])``, one row of
    two uint64 words each; a lone seed or index serves every stream.

    Row i is, bit for bit, the two uint64 words that numpy's seed sequence
    over ``(seeds[i], indices[i])`` generates.  The entropy is the seed's
    uint32 words, low first (one word below 2**32, else two), then the
    index's; it fits the pool of 4 words, where missing words hash as 0.
    """
    seeds, indices = np.broadcast_arrays(np.asarray(seeds, dtype=np.uint64),
                                         np.asarray(indices, dtype=np.uint64))
    values = np.empty((indices.size, 2), dtype="<u8")
    values[:, 0], values[:, 1] = seeds.ravel(), indices.ravel()
    # one row per pool word, one column per stream: seed low, seed high, index
    # low, index high, or with a one-word seed its high word, 0, comes last
    halves = values.view("<u4").T
    pool = _hash(np.where(halves[1] != 0, halves, halves[[0, 2, 3, 1]]), _FILL)
    for src, constants in enumerate(_MIXING):
        # word src, hashed by the next three steps, mixes into the other three
        hashed = _hash(pool[src], constants)
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    # the output words, low first, pair up into uint64s
    state = _hash(pool, _OUTPUT)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
