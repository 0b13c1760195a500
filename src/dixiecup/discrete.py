"""The one trace of both coupon schemes, its sampler, and collection times."""
from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.random import Generator

from .samplers import SeedSpec

__all__ = [
    "CollectorTrace",
    "run_discrete",
    "collection_time",
    "partial_collection_time",
]


class CollectorTrace:
    """One collection run: the poissonized scheme and its jump chain, the discrete one.

    Built from ``(n, r_max, stream)``, a trace samples only what is read, so
    one of r_max 0 is only its stream.  ``times[i, k]``, the stream's first
    draws, is the time of the (k+1)-th arrival of type ``i`` (0-based) when
    each type arrives as a rate-1/n Poisson process.  ``arrivals[i, k]``, the
    jump chain, is the 1-based draw number of that arrival, derived from the
    same generator on first read; so ``times`` are the same bytes whether it
    was read or not.  Rows of ``arrivals`` strictly increase, all entries are
    distinct (one coupon per draw), and the maximum is the number of draws the
    collection needed.  Given ``arrivals[i, k] = a``, ``times[i, k]`` is
    Gamma(a, 1), since draws arrive at unit rate.
    """

    def __init__(self, n: int, r_max: int, stream: SeedSpec | None) -> None:
        self.n, self.r_max, self.stream = n, r_max, stream

    @cached_property
    def _rng(self) -> Generator:
        return self.stream.generator()

    @cached_property
    def times(self) -> np.ndarray:
        return _poissonized_times(self._rng, self.n, self.r_max)

    @cached_property
    def arrivals(self) -> np.ndarray:
        return _jump_chain(self._rng, self.times)

    @property
    def total_draws(self) -> int:
        return int(self.arrivals[:, -1].max())

    @property
    def derived_draws(self) -> int:
        """The draws of the jump chain if it has been read, else 0."""
        # a cached property is in the instance dict once it has been read
        return self.total_draws if "arrivals" in vars(self) else 0

    def _column(self, r: int) -> int:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"multiplicity r={r} outside 1..{self.r_max}")
        return r - 1

    def arrival_column(self, r: int) -> np.ndarray:
        """Arrival draws of the r-th coupon of every type."""
        return self.arrivals[:, self._column(r)]

    def time_column(self, r: int) -> np.ndarray:
        """Poissonized arrival times of the r-th coupon of every type."""
        return self.times[:, self._column(r)]


def _poissonized_times(rng: Generator, n: int, r_max: int) -> np.ndarray:
    """The first ``r_max`` arrival times of every type in the poissonized scheme.

    Each type arrives as an independent rate-1/n Poisson process, so its times
    are n times the partial sums of ``r_max`` standard exponentials.
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


def _jump_chain(rng: Generator, times: np.ndarray) -> np.ndarray:
    """The draw number of every tracked arrival, given the poissonized ``times``.

    The discrete scheme is the jump chain of the poissonized one.  Only the
    n * r_max tracked times are sampled.  A type's arrivals past its r_max-th
    are independent of them, so the untracked draws between two consecutive
    tracked events are Poisson with mean (#types past r_max) * gap / n.  An
    event's draw number is its rank plus the untracked draws before it.

    Every pass works in place where it can; the generator calls and their
    arguments are fixed, so a stream always gives the same trace.  A type's
    times strictly increase unless two of them are an exact float tie, which
    shows as a zero gap between sorted times.  Only then can a tie break the
    wrong way in ``argsort`` and reverse two ranks of a row, so only then are
    the rows checked.
    """
    n, r_max = times.shape
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
    return arrivals


def run_discrete(n: int, r_max: int, stream: SeedSpec) -> CollectorTrace:
    """Simulate both schemes until every type has ``r_max`` arrivals: a whole trace."""
    trace = CollectorTrace(n, r_max, stream)
    trace.arrivals  # derive the jump chain now
    return trace


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
