"""Test oracles: each is a reference that tests compare the package against.

``generator`` builds a stream's own Philox generator from numpy's
``SeedSequence``: the reference for the package's block key hash and its
keyed scratch generator, and a seeded generator for tests that need one.
``trace_from_sequence`` builds the trace of an explicit draw-by-draw coupon
sequence, ``sample_limit_process`` samples the limiting Poisson pattern
directly, and ``last_but`` reads the largest points of a pattern by sorting.
``collection_time``, ``partial_collection_time``, ``normalize`` and
``count_mismatch`` read one trace's statistics, and ``EXTRACT`` holds, per
experiment kind, the payload row of one trace built from them: the block
extraction of :data:`dixiecup.experiments.KINDS` must give it for every row.
``spec_keys``, ``block_traces`` and ``seeded_traces`` are no oracles but the
tests' ways to key a block by a list of streams, to read the rows of a block,
and to loop over the lone traces of consecutive streams, as traces.
"""
from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from dixiecup.discrete import CollectorTrace, TraceBlock, block_size
from dixiecup.gof import ks_test
from dixiecup.limitlaws import LogGamma
from dixiecup.pointprocess import Normalization, PointPattern, h_transform
from dixiecup.samplers import SeedSpec, stream_keys


def generator(stream: SeedSpec) -> Generator:
    """A fresh Philox generator of ``stream``, keyed by the seed sequence over
    ``(master_seed, stream_index)``."""
    entropy = (int(stream.master_seed), int(stream.stream_index))
    return Generator(Philox(SeedSequence(entropy)))


def trace_from_sequence(types, n: int, r_max: int) -> CollectorTrace:
    """Build the trace of an explicit 1-based coupon type sequence: the k-th
    arrival of a type is the 1-based position of its k-th occurrence.

    The sequence must contain at least ``r_max`` occurrences of every type.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    raw = np.asarray(types, dtype=np.int64)
    outside = raw[(raw < 1) | (raw > n)]
    if outside.size:
        raise ValueError(f"type {outside[0]} outside 1..{n}")
    counts = np.bincount(raw - 1, minlength=n)
    if np.any(counts < r_max):
        raise ValueError("sequence ended before every type arrived r_max times")
    # the draws of each type in order, the types in order: type i's first
    # r_max draws start where the draws of the types below it end
    order = np.argsort(raw, kind="stable")
    starts = np.cumsum(counts) - counts
    arrivals = order[starts[:, None] + np.arange(r_max)] + 1
    # the chain is given, not derived, so the trace has no times
    return CollectorTrace(n, r_max, None, arrivals)


def spec_keys(streams: list[SeedSpec]) -> np.ndarray:
    """The Philox keys of ``streams``, a row each, as a block takes them."""
    return stream_keys([s.master_seed for s in streams], [s.stream_index for s in streams])


def block_traces(block: TraceBlock) -> list[CollectorTrace]:
    """One trace per stream of ``block``, each a row of it."""
    return [CollectorTrace(block.n, block.r_max, times, arrivals)
            for times, arrivals in zip(block.times, block.arrivals)]


def seeded_traces(n: int, r_max: int, reps: int, seed: int) -> Iterator[CollectorTrace]:
    """The traces of streams ``SeedSpec(seed, j)`` for j < ``reps``, in order:
    the bytes of ``run_discrete(n, r_max, SeedSpec(seed, j))``, sampled in
    blocks, which cost a fraction of a lone trace each at small n."""
    size = block_size(n, r_max)
    for start in range(0, reps, size):
        keys = stream_keys(seed, np.arange(start, min(start + size, reps)))
        yield from block_traces(TraceBlock(n, r_max, keys))


def _column(trace: CollectorTrace, r: int) -> int:
    """The column of the r-th arrivals in ``trace``'s arrays."""
    if not 1 <= r <= trace.r_max:
        raise ValueError(f"multiplicity r={r} outside 1..{trace.r_max}")
    return r - 1


def arrival_column(trace: CollectorTrace, r: int) -> np.ndarray:
    """Arrival draws of the r-th coupon of every type."""
    return trace.arrivals[:, _column(trace, r)]


def time_column(trace: CollectorTrace, r: int) -> np.ndarray:
    """Poissonized arrival times of the r-th coupon of every type."""
    return trace.times[:, _column(trace, r)]


def collection_time(trace: CollectorTrace, c: int) -> int:
    """Draws needed to assemble ``c`` complete collections."""
    return int(arrival_column(trace, c).max())


def partial_collection_time(trace: CollectorTrace, r: int, m: int) -> int:
    """First time all but ``m`` (unspecified) types have ``r`` arrivals each.

    Zero when ``m >= n``; otherwise the (n-m)-th smallest r-th arrival time.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if m >= trace.n:
        return 0
    column = arrival_column(trace, r)
    k = trace.n - m - 1
    return int(np.partition(column, k)[k])


def normalize(raw_times, norm: Normalization) -> PointPattern:
    """Center and scale raw arrival times into a point pattern."""
    return PointPattern.from_values(norm.apply(raw_times))


def count_mismatch(trace: CollectorTrace, r: int, a: float, b: float) -> bool:
    """Whether the discrete and poissonized normalized patterns disagree on [a, b]."""
    norm = Normalization(trace.n, r)
    discrete_pts = norm.apply(arrival_column(trace, r))
    poisson_pts = norm.apply(time_column(trace, r))

    def inside(x):
        return int(np.count_nonzero((x >= a) & (x <= b)))

    return inside(discrete_pts) != inside(poisson_pts)


def _extract_marginal(trace, cfg):
    return Normalization(trace.n, cfg.r).apply(time_column(trace, cfg.r))


def _extract_counts(trace, cfg):
    pattern = normalize(arrival_column(trace, cfg.r), Normalization(trace.n, cfg.r))
    return [pattern.count(a, b) for a, b in cfg.intervals] + [float(pattern.points[-1])]


def _extract_collection(trace, cfg):
    value = float(Normalization(trace.n, cfg.c).apply(collection_time(trace, cfg.c)))
    return [value, collection_time(trace, 1)]


def _extract_lastbut(trace, cfg):
    norm = Normalization(trace.n, cfg.r)
    return [float(norm.apply(partial_collection_time(trace, cfg.r, j)))
            for j in range(cfg.m + 1)]


def _extract_partial(trace, cfg):
    t_rm, n = partial_collection_time(trace, cfg.r, cfg.m), trace.n
    if cfg.r == 1:
        return math.log(2 * n) - t_rm / n
    return float(Normalization(n, cfg.r).apply(t_rm))


def _extract_rare(trace, cfg):
    pattern = normalize(arrival_column(trace, cfg.r), Normalization(trace.n, cfg.r))
    tails = [pattern.count_from(x) for x in cfg.thresholds]
    # the points in [x, y): those of the tail from x less those of the tail from y
    return tails + [lo - hi for lo, hi in zip(tails, tails[1:])]


def _extract_mismatch(trace, cfg):
    a, b = cfg.intervals[0]
    return int(count_mismatch(trace, cfg.r, a, b))


def _extract_null_p_value(stream, cfg):
    sums = generator(stream).exponential(1.0, (1000, cfg.m + 1)).sum(axis=1)
    return ks_test(h_transform(sums, cfg.r), LogGamma(cfg.r, cfg.m).cdf).p_value


# per experiment kind, the payload row of one replication read from its lone
# trace, or for limit-consistency, which samples no trace, from its stream:
# the rows of the replications, as one np.array, are the kind's payload array
EXTRACT = {
    "poissonized-marginal": _extract_marginal,
    "theorem1-counts": _extract_counts,
    "erdos-renyi": _extract_collection,
    "partial-collection": _extract_lastbut,
    "chi2-law": _extract_partial,
    "rare-path": _extract_rare,
    "coupling-decay": _extract_mismatch,
    "limit-consistency": _extract_null_p_value,
}


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
