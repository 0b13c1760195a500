"""Seeded random streams: one independent generator per (seed, stream) pair.

All randomness in the package flows through :class:`SeedSpec`.  A spec is a
(master_seed, stream_index) pair; the counter-based Philox generator seeded
through a ``SeedSequence`` over that pair gives bit-reproducible, mutually
independent streams without sequential skipping, so replications can run on
any number of workers in any order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = ["SeedSpec"]

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

    def generator(self) -> Generator:
        """Return a fresh Philox generator for this stream."""
        entropy = (int(self.master_seed), int(self.stream_index))
        return Generator(Philox(SeedSequence(entropy)))
