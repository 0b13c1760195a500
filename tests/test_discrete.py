"""Discrete scheme: construction invariants and exact-oracle comparisons."""
import functools
import math

import numpy as np
import pytest
from scipy import stats

from dixiecup.discrete import (
    CollectorTrace,
    _embed,
    _poissonized_times,
    collection_time,
    partial_collection_time,
    run_discrete,
    trace_from_sequence,
)
from dixiecup.poissonized import run_coupled
from dixiecup.samplers import SeedSpec


def harmonic(n):
    return sum(1.0 / k for k in range(1, n + 1))


def scan_partial_time(sequence, n, r, m):
    """Time-scan oracle: first instant with >= n-m types at >= r arrivals."""
    if m >= n:
        return 0
    counts = [0] * n
    satisfied = 0
    for t, label in enumerate(sequence, start=1):
        counts[label - 1] += 1
        if counts[label - 1] == r:
            satisfied += 1
            if satisfied >= n - m:
                return t
    raise AssertionError("sequence too short")


def test_trace_from_explicit_sequence():
    trace = trace_from_sequence([1, 1, 2], 2, 1)
    assert trace.arrivals[0, 0] == 1
    assert trace.arrivals[1, 0] == 3


def uniform_sequence_trace(rng, n, r_max):
    """Oracle trace: scan uniform 1-based types until every type has r_max arrivals."""
    chunks = []
    while True:
        chunks.append(rng.integers(0, n, size=4 * n * r_max) + 1)
        raw = np.concatenate(chunks)
        if np.bincount(raw, minlength=n + 1)[1:].min() >= r_max:
            return trace_from_sequence(raw, n, r_max)


def test_run_matches_sequence_scan():
    # run_discrete must have the law of the explicit draw-by-draw scan;
    # the oracle sequences come from a seed stream run_discrete never uses
    reps = 4000
    for n, r_max in ((5, 2), (50, 3)):
        oracle_rng = SeedSpec(102, n).generator()
        sim = [run_discrete(n, r_max, SeedSpec(101, j)) for j in range(reps)]
        ref = [uniform_sequence_trace(oracle_rng, n, r_max) for _ in range(reps)]

        def stats_of(traces):
            return (
                [t.arrivals[:, -1].max() for t in traces],
                [partial_collection_time(t, r_max, 1) for t in traces],
                [t.arrivals[0, 1] for t in traces],
            )

        for a, b in zip(stats_of(sim), stats_of(ref)):
            assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_trace_invariants():
    for j in range(20):
        trace = run_discrete(100, 2, SeedSpec(55, j))
        arr = trace.arrivals
        assert (arr[:, 0] < arr[:, 1]).all()
        assert len(np.unique(arr)) == 200
        assert arr.min() >= 1
        assert trace.total_draws == arr.max()


class TiedExponentials:
    """Generator stand-in whose exponential draws hold exact zeros, so two
    consecutive arrivals of one type share a float time; ``poisson`` is the
    wrapped generator's."""

    def __init__(self, seed):
        self._rng = SeedSpec(seed, 0).generator()

    def standard_exponential(self, size):
        draws = self._rng.standard_exponential(size)
        draws[0::2, 1] = 0.0  # tie between the first and second arrival
        draws[1::2, -1] = 0.0  # tie at the last tracked arrival
        return draws

    def poisson(self, lam):
        return self._rng.poisson(lam)


def test_embed_restores_row_order_after_float_ties():
    n, r_max = 40, 3
    arrivals, times = _embed(TiedExponentials(5), n, r_max)
    # the default argsort reverses some tied pair, so the row repair runs
    stable_argsort = functools.partial(np.argsort, kind="stable")
    assert not np.array_equal(np.argsort(times, axis=None),
                              stable_argsort(times, axis=None))
    # a stable argsort keeps tied arrivals in row order, so its rows need no
    # repair: each repaired row must strictly increase and hold those draws
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", stable_argsort)
        reference, _ = _embed(TiedExponentials(5), n, r_max)
    assert np.all(np.diff(arrivals, axis=1) > 0)
    assert np.array_equal(arrivals, reference)


def reference_embed(rng, n, r_max):
    """The sampler's earlier body, kept verbatim: every change to ``_embed``
    must give the same bytes from the same generator."""
    times = n * np.cumsum(rng.standard_exponential((n, r_max)), axis=1)
    order = np.argsort(times, axis=None)
    sorted_times = times.ravel()[order]
    completed = np.cumsum(order % r_max == r_max - 1)
    untracked = rng.poisson(completed[:-1] * np.diff(sorted_times) / n)
    index = np.arange(1, n * r_max + 1, dtype=np.int64)
    index[1:] += np.cumsum(untracked)
    arrivals = np.empty(n * r_max, dtype=np.int64)
    arrivals[order] = index
    arrivals = arrivals.reshape(n, r_max)
    if r_max > 1:
        descents = arrivals[:, 1:] < arrivals[:, :-1]
        if descents.any():
            rows = descents.any(axis=1)
            arrivals[rows] = np.sort(arrivals[rows], axis=1)
    return arrivals, times


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("r_max", [1, 2, 3, 4])
def test_embed_matches_reference_bytes(n, r_max):
    for j in range(3 if n == 10_000 else 8):
        stream = SeedSpec(2024, (n << 8) | j)
        assert_same_bytes(_embed(stream.generator(), n, r_max),
                          reference_embed(stream.generator(), n, r_max))


@pytest.mark.parametrize("n,r_max", [(40, 3), (2, 2), (10, 4), (1000, 2)])
def test_embed_matches_reference_bytes_after_float_ties(n, r_max):
    for seed in range(4):
        assert_same_bytes(_embed(TiedExponentials(seed), n, r_max),
                          reference_embed(TiedExponentials(seed), n, r_max))


@pytest.mark.parametrize("n", [2, 100, 10_000])
@pytest.mark.parametrize("r_max", [1, 2, 3, 4])
def test_poissonized_times_are_the_coupled_times(n, r_max):
    """The times alone are the stream's first draws, so sampling the jump chain
    after them or not gives the same bytes."""
    for j in range(3):
        stream = SeedSpec(2024, (n << 8) | j)
        assert_same_bytes([_poissonized_times(stream.generator(), n, r_max)],
                          [run_coupled(n, r_max, stream).times])
        if r_max > 1:  # TiedExponentials ties the second and the last column
            assert_same_bytes([_poissonized_times(TiedExponentials(j), n, r_max)],
                              [_embed(TiedExponentials(j), n, r_max)[1]])


def test_collection_time_is_max_of_column():
    trace = run_discrete(50, 3, SeedSpec(7, 0))
    for c in (1, 2, 3):
        assert collection_time(trace, c) == trace.arrivals[:, c - 1].max()
    assert collection_time(trace, 1) >= 50
    assert collection_time(trace, 3) >= 3


def test_collection_time_out_of_range():
    trace = run_discrete(10, 1, SeedSpec(7, 0))
    with pytest.raises(ValueError):
        collection_time(trace, 2)


def test_mean_full_collection_time_matches_harmonic_oracle():
    # E T_1 = n * H_n by the absorbing-chain / harmonic-sum argument
    for n, reps, seed in ((3, 20_000, 1), (10, 5_000, 2)):
        times = np.array([
            collection_time(run_discrete(n, 1, SeedSpec(seed, j)), 1)
            for j in range(reps)
        ], dtype=float)
        target = n * harmonic(n)
        se = times.std(ddof=1) / math.sqrt(reps)
        assert abs(times.mean() - target) < 3 * se


def test_partial_time_reduces_to_collection_time_and_zero():
    trace = run_discrete(20, 2, SeedSpec(9, 0))
    assert partial_collection_time(trace, 2, 0) == collection_time(trace, 2)
    assert partial_collection_time(trace, 1, 20) == 0
    assert partial_collection_time(trace, 1, 500) == 0


def test_partial_time_matches_time_scan_oracle():
    n, r = 4, 2
    for j in range(500):
        raw = SeedSpec(77, j).generator().integers(0, n, size=200) + 1
        trace = trace_from_sequence(raw, n, r)
        for m in range(0, n + 1):
            assert partial_collection_time(trace, r, m) == scan_partial_time(raw, n, r, m)


def test_partial_time_nonincreasing_in_m():
    trace = run_discrete(30, 2, SeedSpec(3, 0))
    values = [partial_collection_time(trace, 2, m) for m in range(32)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_discrete(1, 1, SeedSpec(0, 0))
    with pytest.raises(ValueError):
        run_discrete(5, 0, SeedSpec(0, 0))
    trace = run_discrete(5, 1, SeedSpec(0, 0))
    with pytest.raises(ValueError):
        partial_collection_time(trace, 1, -1)
    with pytest.raises(ValueError):
        partial_collection_time(trace, 2, 0)


def test_memory_footprint_is_matrix_only():
    trace = run_discrete(1000, 2, SeedSpec(4, 0))
    assert trace.arrivals.shape == (1000, 2)
    assert trace.arrivals.nbytes == 1000 * 2 * 8
