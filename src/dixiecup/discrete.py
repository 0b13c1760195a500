"""The one trace of both coupon schemes and its block sampler."""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

from .samplers import SeedSpec, philox_keys

__all__ = [
    "CollectorTrace",
    "TraceBlock",
    "block_size",
    "keyed",
    "release_scratch",
    "run_discrete",
]


@dataclass(frozen=True, eq=False)
class CollectorTrace:
    """One collection run: the poissonized scheme and its jump chain, the discrete one.

    ``times[i, k]`` is the time of the (k+1)-th arrival of type ``i``
    (0-based) when each type arrives as a rate-1/n Poisson process.
    ``arrivals[i, k]``, the jump chain, is the 1-based draw number of that
    arrival.  Rows of ``arrivals`` strictly increase, all entries are distinct
    (one coupon per draw), and the maximum is the number of draws the
    collection needed.  Given ``arrivals[i, k] = a``, ``times[i, k]`` is
    Gamma(a, 1), since draws arrive at unit rate.  A trace built from a coupon
    sequence rather than sampled has no ``times``.
    """

    n: int
    r_max: int
    times: np.ndarray | None
    arrivals: np.ndarray

    @property
    def total_draws(self) -> int:
        return int(self.arrivals[:, -1].max())


# A block holds at most _BLOCK_TRACES traces and, unless it is one trace, at
# most _BLOCK_ARRIVALS tracked arrivals (traces times n * r_max).  Measured on
# 2 vCPUs: blocks save each trace's calls, up to 3x per trace at n * r_max of
# 100, while blocks of more arrivals than this outgrow the cache and were
# slower per trace; so from n * r_max above 8192 a block is one trace.
_BLOCK_TRACES = 256
_BLOCK_ARRIVALS = 16384


def block_size(n: int, r_max: int) -> int:
    """The traces of one block at ``(n, r_max)``."""
    return max(1, min(_BLOCK_TRACES, _BLOCK_ARRIVALS // max(n * r_max, 1)))


# The generator of every stream: each stream sets its key and counter on it
# before it draws, so it carries nothing from one to the next.  It is one per
# process, so two threads must not sample at once.
_SCRATCH = Generator(Philox(0))


# The jump chain's temporaries, one buffer per process beside _SCRATCH: it
# grows on demand, every pass writes it with ``out=``, and release_scratch
# empties it.  Only temporaries live in it: ``times`` and ``arrivals`` leave
# their block, so they are fresh arrays.
_WORK = np.empty(0)


def _work(*sizes: int) -> list[np.ndarray]:
    """Consecutive float64 runs of ``sizes`` in the work buffer, grown to hold them."""
    global _WORK
    if _WORK.size < sum(sizes):
        _WORK = np.empty(sum(sizes))
    ends = np.cumsum(sizes)
    return [_WORK[end - size:end] for size, end in zip(sizes, ends)]


def release_scratch() -> None:
    """Free the jump chain's work buffer; the next chain allocates it anew."""
    global _WORK
    _WORK = np.empty(0)


def keyed(streams: Sequence[SeedSpec]) -> Iterator[Generator]:
    """The scratch generator set to each stream's key at counter 0, in turn.

    A Philox stream is its key at counter 0, so what the generator draws
    before the next step are the stream's first draws; the next step keys it
    anew.  The keys are hashed at once, in one
    :func:`~dixiecup.samplers.philox_keys` pass.
    """
    philox = _SCRATCH.bit_generator
    zeros = np.zeros(4, dtype=np.uint64)
    # the state setter copies what it reads, so one dict serves every key
    start = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in philox_keys(streams):
        start["state"]["key"] = key
        philox.state = start
        yield _SCRATCH


class TraceBlock:
    """Traces of one ``(n, r_max)`` on their own streams, sampled as one array.

    ``times`` and ``arrivals`` have one row of shape ``(n, r_max)`` per
    stream, and row i is what a trace of ``streams[i]`` alone samples, to the
    byte: every generator call and its arguments are the ones the trace makes,
    and each array pass runs row by row.  Each stream is a :class:`SeedSpec`:
    on the one scratch generator, set to its key at counter 0 by
    :func:`keyed`, it draws its exponentials into its row of ``times``,
    and its state is saved until the first read of ``arrivals`` derives the
    jump chain of the whole block.
    """

    def __init__(self, n: int, r_max: int, streams: list[SeedSpec]) -> None:
        self.n, self.r_max, self.streams = n, r_max, streams

    @cached_property
    def times(self) -> np.ndarray:
        """The first ``r_max`` arrival times of every type in the poissonized scheme.

        Each type arrives as an independent rate-1/n Poisson process, so its
        times are n times the partial sums of ``r_max`` standard exponentials.
        """
        n, r_max = self.n, self.r_max
        if n < 2:
            raise ValueError(f"need n >= 2, got n={n}")
        if r_max < 1:
            raise ValueError(f"need r_max >= 1, got r_max={r_max}")
        times = np.empty((len(self.streams), n, r_max))
        self._states = []
        for row, rng in zip(times, keyed(self.streams)):
            rng.standard_exponential(out=row)
            self._states.append(rng.bit_generator.state)
        # the row sums np.cumsum(axis=-1) forms, a column at a time: it loops per row
        for k in range(1, r_max):
            times[:, :, k] += times[:, :, k - 1]
        times *= n
        return times

    @cached_property
    def arrivals(self) -> np.ndarray:
        times = self.times
        return _jump_chain(self._states, times)

    def derived_draws(self) -> int:
        """The draws of its traces' jump chains if the block derived them, else 0."""
        # a cached property is in the instance dict once it has been read
        if "arrivals" not in vars(self):
            return 0
        return int(self.arrivals[:, :, -1].max(axis=1).sum())


def _jump_chain(states: list[dict], times: np.ndarray) -> np.ndarray:
    """The draw number of every tracked arrival, given the poissonized ``times``
    of a block and the scratch generator's state after each row's times.

    The discrete scheme is the jump chain of the poissonized one.  Only the
    n * r_max tracked times are sampled.  A type's arrivals past its r_max-th
    are independent of them, so the untracked draws between two consecutive
    tracked events are Poisson with mean (#types past r_max) * gap / n.  An
    event's draw number is its rank plus the untracked draws before it.

    Each pass runs on the whole block, row by row, and writes into the work
    buffer, so only the argsort order, each row's Poisson draws and the
    returned arrivals are allocated.  The generator calls and their arguments
    are fixed, so a stream always gives the same trace.  A type's times strictly increase unless two of them
    are an exact float tie, which shows as a zero gap between sorted times.
    Only then can a tie break the wrong way in ``argsort`` and reverse two
    ranks of a row, so only then are the rows checked.
    """
    traces, n, r_max = times.shape
    size = n * r_max
    cells = traces * size
    order = np.argsort(times.reshape(traces, size), axis=1)
    # flat positions in the block, so that one gather and one scatter serve all rows
    order += np.arange(0, cells, size)[:, None]
    # the work buffer: the times in rank order, whose run then holds the
    # running counts and at last the draw numbers; the gaps; and the marks of
    # last-column positions
    ranked, gaps, marks = _work(cells, cells - traces, cells if r_max > 1 else 0)
    ranked = ranked.reshape(traces, size)
    # mode="clip" gathers straight into out=; order is in range, so it clips nothing
    times.take(order, out=ranked, mode="clip")
    gaps = gaps.reshape(traces, size - 1)
    np.subtract(ranked[:, 1:], ranked[:, :-1], out=gaps)
    tied = r_max > 1 and not gaps.all()
    # types past r_max before each gap
    if r_max == 1:
        completed = ranked.ravel()[:n - 1]  # 1..n-1, the same in every row
        completed.fill(1.0)
        np.cumsum(completed, out=completed)
    else:
        # the number of last-column events so far
        marks.fill(0.0)  # a contiguous fill is several times faster than a strided one
        marks = marks.reshape(traces * n, r_max)
        marks[:, -1] = 1.0
        completed = ranked.ravel()[:cells - traces].reshape(traces, size - 1)
        marks.take(order[:, :-1], out=completed, mode="clip")
        np.cumsum(completed, axis=1, out=completed)
    gaps *= completed
    gaps /= n
    # draw numbers: the first event is draw 1, and each later one comes its
    # untracked draws plus one after the event before it
    index = ranked.view(np.int64)
    index[:, 0] = 1
    for row, (state, lam) in enumerate(zip(states, gaps)):
        _SCRATCH.bit_generator.state = state
        index[row, 1:] = _SCRATCH.poisson(lam)
    index[:, 1:] += 1
    np.cumsum(index, axis=1, out=index)
    arrivals = np.empty(traces * size, dtype=np.int64)
    arrivals[order] = index
    arrivals = arrivals.reshape(traces, n, r_max)
    if tied:
        # tied arrivals of one type are exchangeable, so restoring row order
        # is exact
        descents = arrivals[:, :, 1:] < arrivals[:, :, :-1]
        if descents.any():
            rows = descents.any(axis=2)
            arrivals[rows] = np.sort(arrivals[rows], axis=1)
    return arrivals


def run_discrete(n: int, r_max: int, stream: SeedSpec) -> CollectorTrace:
    """Simulate both schemes until every type has ``r_max`` arrivals: a whole trace."""
    block = TraceBlock(n, r_max, [stream])
    return CollectorTrace(n, r_max, block.times[0], block.arrivals[0])
