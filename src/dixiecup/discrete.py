"""Discrete coupon scheme: arrival-time matrices and collection times."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .samplers import SeedSpec

__all__ = [
    "CollectorTrace",
    "run_discrete",
    "trace_from_sequence",
    "collection_time",
    "partial_collection_time",
]


@dataclass(frozen=True)
class CollectorTrace:
    """Arrival-time record of one discrete collection run.

    ``arrivals[i, k]`` is the 1-based draw number at which type ``i`` (0-based
    here) appeared for the (k+1)-th time.  Rows are strictly increasing, all
    entries are pairwise distinct (one coupon per time slot), and the matrix
    maximum equals the number of draws the collection needed.
    """

    n: int
    r_max: int
    arrivals: np.ndarray

    def __post_init__(self) -> None:
        if self.arrivals.shape != (self.n, self.r_max):
            raise ValueError("arrival matrix shape does not match (n, r_max)")

    @property
    def total_draws(self) -> int:
        return int(self.arrivals[:, -1].max())

    def arrival_column(self, r: int) -> np.ndarray:
        """Arrival times of the r-th coupon of every type."""
        if not 1 <= r <= self.r_max:
            raise ValueError(f"multiplicity r={r} outside 1..{self.r_max}")
        return self.arrivals[:, r - 1]


def _poissonized_times(rng: Generator, n: int, r_max: int) -> np.ndarray:
    """The first ``r_max`` arrival times of every type in the poissonized scheme.

    Each type arrives as an independent rate-1/n Poisson process, so its times
    are n times the partial sums of ``r_max`` standard exponentials.  These are
    the stream's first draws, so they are the ``times`` that :func:`_embed`
    returns for the same generator, whether or not the jump chain is sampled
    after them.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if r_max < 1:
        raise ValueError(f"need r_max >= 1, got r_max={r_max}")
    times = rng.standard_exponential((n, r_max))
    # the row sums np.cumsum(axis=1) forms, a column at a time: it loops per row
    for k in range(1, r_max):
        times[:, k] += times[:, k - 1]
    times *= n
    return times


def _embed(rng: Generator, n: int, r_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample the first ``r_max`` arrivals of every type: ``(arrivals, times)``.

    The discrete scheme is the jump chain of the poissonized one, in which each
    type arrives as an independent rate-1/n Poisson process.  Only the n * r_max
    tracked times are sampled.  A type's arrivals past its r_max-th are
    independent of them, so the untracked draws between two consecutive tracked
    events are Poisson with mean (#types past r_max) * gap / n.  An event's draw
    number is its rank plus the untracked draws before it.

    Every pass works in place where it can; the generator calls and their
    arguments are fixed, so a stream always gives the same trace.  A type's
    times strictly increase unless two of them are an exact float tie, which
    shows as a zero gap between sorted times.  Only then can a tie break the
    wrong way in ``argsort`` and reverse two ranks of a row, so only then are
    the rows checked.
    """
    times = _poissonized_times(rng, n, r_max)
    order = np.argsort(times, axis=None)
    gaps = np.diff(times.take(order))
    tied = r_max > 1 and not gaps.all()
    # types past r_max before each gap: the number of last-column events so far
    if r_max == 1:
        gaps *= np.arange(1, n)
    else:
        last = np.zeros((n, r_max), dtype=np.int8)
        last[:, -1] = 1
        completed = last.take(order[:-1]).astype(np.float64)
        gaps *= np.cumsum(completed, out=completed)
    gaps /= n
    untracked = rng.poisson(gaps)
    # draw numbers: the first event is draw 1, and each later one comes its
    # untracked draws plus one after the event before it
    index = np.empty(n * r_max, dtype=np.int64)
    index[0] = 1
    np.add(untracked, 1, out=index[1:])
    np.cumsum(index, out=index)
    arrivals = np.empty_like(index)
    arrivals[order] = index
    arrivals = arrivals.reshape(n, r_max)
    if tied:
        # tied arrivals of one type are exchangeable, so restoring row order
        # is exact
        descents = arrivals[:, 1:] < arrivals[:, :-1]
        if descents.any():
            rows = descents.any(axis=1)
            arrivals[rows] = np.sort(arrivals[rows], axis=1)
    return arrivals, times


def run_discrete(n: int, r_max: int, stream: SeedSpec) -> CollectorTrace:
    """Simulate the discrete scheme until every type has ``r_max`` arrivals."""
    arrivals, _ = _embed(stream.generator(), n, r_max)
    return CollectorTrace(n, r_max, arrivals)


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
    return CollectorTrace(n, r_max, arrivals)


def collection_time(trace: CollectorTrace, c: int) -> int:
    """Draws needed to assemble ``c`` complete collections."""
    return int(trace.arrival_column(c).max())


def partial_collection_time(trace: CollectorTrace, r: int, m: int) -> int:
    """First time all but ``m`` (unspecified) types have ``r`` arrivals each.

    Zero when ``m >= n``; otherwise the (n-m)-th smallest r-th arrival time.
    """
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    if m >= trace.n:
        return 0
    column = trace.arrival_column(r)
    k = trace.n - m - 1
    return int(np.partition(column, k)[k])
