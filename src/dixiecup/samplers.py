"""Seeded random-variate generation with independent substreams.

All randomness in the package flows through :class:`SeedSpec`.  A spec is a
(master_seed, stream_index) pair; the counter-based Philox generator seeded
through a ``SeedSequence`` over that pair gives bit-reproducible, mutually
independent streams without sequential skipping, so replications can run on
any number of workers in any order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

__all__ = [
    "SeedSpec",
    "sample_exponential",
    "sample_uniform_type",
    "sample_negbin_trials",
    "sample_gamma",
]

_UINT64_MAX = 2**64 - 1

# Below this many expected Bernoulli trials the negative binomial sampler
# counts trials explicitly instead of summing inverted geometrics.
_NEGBIN_COUNTING_CUTOFF = 64


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

    def substream(self, offset: int) -> "SeedSpec":
        """The spec whose stream index is shifted by ``offset``."""
        return SeedSpec(self.master_seed, self.stream_index + offset)


def sample_exponential(rng: Generator, size: int | None = None):
    """Unit-mean exponential variate(s)."""
    return rng.exponential(1.0, size)


def sample_uniform_type(rng: Generator, n: int, size: int | None = None):
    """Uniform type label(s) on {1, ..., n}."""
    if n < 2:
        raise ValueError(f"need at least 2 types, got n={n}")
    return rng.integers(1, n + 1, size=size)


def _geometric(rng: Generator, p: float, size: int):
    # Inversion: ceil(ln(1-U) / ln(1-p)) is the trial count of the first success.
    u = rng.random(size)
    g = np.ceil(np.log1p(-u) / math.log1p(-p)).astype(np.int64)
    return np.maximum(g, 1)


def sample_negbin_trials(rng: Generator, r: int, n: int, size: int | None = None):
    """Number of uniform draws until one fixed type has appeared ``r`` times.

    The law is the trial-counting negative binomial with success probability
    1/n and support {r, r+1, ...}.  Small instances count Bernoulli trials
    directly; larger ones sum ``r`` inverted geometrics, which realizes the
    identical distribution.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    count = 1 if size is None else int(size)
    if n * r <= _NEGBIN_COUNTING_CUTOFF:
        out = np.empty(count, dtype=np.int64)
        p = 1.0 / n
        for k in range(count):
            successes = 0
            trials = 0
            while successes < r:
                trials += 1
                if rng.random() < p:
                    successes += 1
            out[k] = trials
    else:
        out = _geometric(rng, 1.0 / n, count * r).reshape(count, r).sum(axis=1)
    return int(out[0]) if size is None else out


def sample_gamma(rng: Generator, r: int, n: int, size: int | None = None):
    """Gamma(r, rate 1/n) variate(s) for integer shape ``r``.

    Built as n times the sum of ``r`` unit exponentials, the construction of
    the coupled scheme's r-th arrival times.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    count = 1 if size is None else int(size)
    values = n * rng.exponential(1.0, (count, r)).sum(axis=1)
    return float(values[0]) if size is None else values
