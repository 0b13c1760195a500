"""Test oracles: each is a reference that tests compare the package against.

``trace_from_sequence`` builds the trace of an explicit draw-by-draw coupon
sequence, ``sample_limit_process`` samples the limiting Poisson pattern
directly, and ``last_but`` reads the largest points of a pattern by sorting.
``seeded_traces`` is no oracle but the tests' fast way to loop over the lone
traces of consecutive streams.
"""
from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np
from numpy.random import Generator

from dixiecup.discrete import CollectorTrace, TraceBlock, block_size
from dixiecup.pointprocess import PointPattern, h_transform
from dixiecup.samplers import SeedSpec


def trace_from_sequence(types, n: int, r_max: int) -> CollectorTrace:
    """Build a trace by scanning an explicit 1-based coupon type sequence.

    The sequence must contain at least ``r_max`` occurrences of every type.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    counts = np.zeros(n, dtype=np.int64)
    arrivals = np.zeros((n, r_max), dtype=np.int64)
    for t, label in enumerate(types, start=1):
        i = int(label) - 1
        if not 0 <= i < n:
            raise ValueError(f"type {label} outside 1..{n}")
        if counts[i] < r_max:
            arrivals[i, counts[i]] = t
        counts[i] += 1
    if np.any(counts < r_max):
        raise ValueError("sequence ended before every type arrived r_max times")
    # the chain is given, so it is set rather than derived; the trace has no times
    trace = CollectorTrace(n, r_max, None)
    trace.arrivals = arrivals
    return trace


def seeded_traces(n: int, r_max: int, reps: int, seed: int) -> Iterator[CollectorTrace]:
    """The traces of streams ``SeedSpec(seed, j)`` for j < ``reps``, in order:
    the bytes of ``run_discrete(n, r_max, SeedSpec(seed, j))``, sampled in
    blocks, which cost a fraction of a lone trace each at small n."""
    size = block_size(n, r_max)
    for start in range(0, reps, size):
        streams = [SeedSpec(seed, j) for j in range(start, min(start + size, reps))]
        yield from TraceBlock(n, r_max, streams).traces


def sample_limit_process(r: int, a: float, rng: Generator) -> PointPattern:
    """One realization of the limiting Poisson pattern restricted to [a, +inf).

    Simulates a homogeneous unit-rate pattern on (0, exp(-a)/(r-1)!] and pushes
    it through the log map, so the point count is Poisson with that mean and
    the intensity on [a, inf) is exp(-x)/(r-1)! dx.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if not math.isfinite(a):
        raise ValueError("left endpoint must be finite")
    upper = math.exp(-a) / math.factorial(r - 1)
    total = rng.poisson(upper)
    if total == 0:
        return PointPattern()
    # (0, upper] so the log map is always defined
    uniform_pts = upper * (1.0 - rng.random(total))
    return PointPattern.from_values(h_transform(uniform_pts, r))


def last_but(pattern: PointPattern, m: int) -> np.ndarray:
    """The m+1 largest points of ``pattern``, largest first."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if pattern.mass < m + 1:
        raise ValueError(f"pattern of mass {pattern.mass} has no last-but-{m} point")
    return pattern.points[-1 : -(m + 2) : -1].copy()
