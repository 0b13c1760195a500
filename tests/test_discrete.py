"""Discrete scheme: construction invariants and exact-oracle comparisons."""
import ast
import functools
import math
import shutil
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from dixiecup import discrete
from dixiecup.discrete import (
    TraceBlock,
    block_size,
    run_discrete,
)
from dixiecup.poissonized import run_coupled
from dixiecup.samplers import SeedSpec, philox_keys

from oracles import (
    block_traces,
    collection_time,
    generator,
    partial_collection_time,
    seeded_traces,
    trace_from_sequence,
)


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
        oracle_rng = generator(SeedSpec(102, n))
        # the traces of run_discrete(n, r_max, SeedSpec(101, j)), sampled in blocks
        sim = list(seeded_traces(n, r_max, reps, 101))
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
        self._rng = generator(SeedSpec(seed, 0))

    def standard_exponential(self, size=None, out=None):
        draws = self._rng.standard_exponential(size, out=out)
        draws[0::2, 1] = 0.0  # tie between the first and second arrival
        draws[1::2, -1] = 0.0  # tie at the last tracked arrival
        return draws

    def poisson(self, lam):
        return self._rng.poisson(lam)


class TiedScratch(TiedExponentials):
    """Scratch generator stand-in: set to the key of stream ``SeedSpec(seed,
    0)``, it draws what ``TiedExponentials(seed)`` draws."""

    def __init__(self):
        self._rng = Generator(Philox(0))
        self.bit_generator = self._rng.bit_generator


@pytest.fixture
def tied_scratch(monkeypatch, numpy_path):
    """Sample every stream on a :class:`TiedScratch`, which only numpy's row
    sampler reads."""
    monkeypatch.setattr(discrete, "_SCRATCH", TiedScratch())


def embed(stream, n, r_max):
    """A trace's ``(arrivals, times)``, the pair the reference returns."""
    trace = run_discrete(n, r_max, stream)
    return trace.arrivals, trace.times


def test_embed_restores_row_order_after_float_ties(tied_scratch):
    n, r_max = 40, 3
    arrivals, times = embed(SeedSpec(5, 0), n, r_max)
    # the default argsort reverses some tied pair, so the row repair runs
    stable_argsort = functools.partial(np.argsort, kind="stable")
    assert not np.array_equal(np.argsort(times, axis=None),
                              stable_argsort(times, axis=None))
    # a stable argsort keeps tied arrivals in row order, so its rows need no
    # repair: each repaired row must strictly increase and hold those draws
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "argsort", stable_argsort)
        reference, _ = embed(SeedSpec(5, 0), n, r_max)
    assert np.all(np.diff(arrivals, axis=1) > 0)
    assert np.array_equal(arrivals, reference)


def reference_embed(rng, n, r_max):
    """The sampler's earlier body, kept verbatim: every change to the trace's
    sampling must give the same bytes from the same generator."""
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
        assert_same_bytes(embed(stream, n, r_max),
                          reference_embed(generator(stream), n, r_max))


@pytest.mark.parametrize("n,r_max", [(40, 3), (2, 2), (10, 4), (1000, 2)])
def test_embed_matches_reference_bytes_after_float_ties(n, r_max, tied_scratch):
    for seed in range(4):
        assert_same_bytes(embed(SeedSpec(seed, 0), n, r_max),
                          reference_embed(TiedExponentials(seed), n, r_max))


def test_block_size_depends_only_on_the_tracked_arrivals():
    assert block_size(3, 1) == block_size(2, 1) == 256
    assert block_size(100, 1) == block_size(50, 2) == 163
    assert block_size(1000, 2) == block_size(2000, 1) == 8
    # from n * r_max above 8192 a block is one trace
    assert block_size(8193, 1) == block_size(10_000, 1) == block_size(10_000, 3) == 1


@pytest.mark.parametrize("n,r_max", [(2, 1), (3, 4), (40, 3), (100, 1), (1000, 2), (8192, 1)])
def test_block_rows_are_the_traces_alone(n, r_max):
    """Row j of the largest block is the trace of stream (n << 32) | j alone,
    to the byte, whichever of times and arrivals is read first."""
    size = block_size(n, r_max)
    streams = [SeedSpec(2024, (n << 32) | j) for j in range(size)]
    block = TraceBlock(n, r_max, streams)
    for trace, stream in zip(block_traces(block), streams):
        assert_same_bytes((trace.arrivals, trace.times), embed(stream, n, r_max))
    times_first = TraceBlock(n, r_max, streams)
    times = times_first.times.copy()
    # another block samples on the shared generator between its times and its chain
    TraceBlock(n, r_max, streams[::-1]).arrivals
    assert_same_bytes([times_first.arrivals, times], [block.arrivals, block.times])


@pytest.mark.parametrize("n,r_max", [(40, 3), (2, 2), (10, 4)])
def test_block_rows_restore_row_order_after_float_ties(n, r_max, tied_scratch):
    """Rows that hold an exact float tie are repaired as in a trace alone."""
    size = block_size(n, r_max)
    block = TraceBlock(n, r_max, [SeedSpec(seed, 0) for seed in range(size)])
    stable_argsort = functools.partial(np.argsort, kind="stable")
    # some row's argsort reverses a tied pair, so its repair runs
    assert any(not np.array_equal(np.argsort(times, axis=None), stable_argsort(times, axis=None))
               for times in block.times)
    for seed, trace in enumerate(block_traces(block)):
        assert_same_bytes((trace.arrivals, trace.times), embed(SeedSpec(seed, 0), n, r_max))
        assert np.all(np.diff(trace.arrivals, axis=1) > 0)


@pytest.mark.parametrize("r_max", [3, 1])
def test_warmed_jump_chain_allocates_below_four_arrival_arrays(r_max):
    """The numpy chain's temporaries live in the work buffer: once it has
    grown, a chain allocates only the argsort order, a row's Poisson draws and
    the arrivals it returns, each n * r_max int64s (fresh temporaries were
    six); the compiled chain allocates the packed keys, their positions and
    the arrivals."""
    n = 10_000
    TraceBlock(n, r_max, [SeedSpec(3, 0)]).arrivals  # grows the work buffer
    block = TraceBlock(n, r_max, [SeedSpec(3, 1)])
    block.times
    tracemalloc.start()
    try:
        block.arrivals
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * r_max * 8


def test_blocks_of_alternating_shapes_match_the_reference(request):
    """The work buffer holds the last, larger block's data when a smaller or
    differently shaped one reuses it; no row may read any of it."""
    shapes = [(10_000, 3), (100, 1), (10_000, 1), (100, 2)]
    for n, r_max in shapes:
        streams = [SeedSpec(2025, (n << 8) | j) for j in range(3)]
        for trace, stream in zip(block_traces(TraceBlock(n, r_max, streams)), streams):
            assert_same_bytes((trace.arrivals, trace.times),
                              reference_embed(generator(stream), n, r_max))
    TraceBlock(10_000, 3, [SeedSpec(2025, 0)]).arrivals
    request.getfixturevalue("tied_scratch")
    assert_same_bytes(embed(SeedSpec(1, 0), 40, 3), reference_embed(TiedExponentials(1), 40, 3))


def test_a_trace_keeps_its_bytes_after_later_blocks():
    """``times`` and ``arrivals`` leave their block, so no later block may
    write them: they are never the work buffer."""
    trace = run_discrete(1000, 2, SeedSpec(8, 0))
    saved = trace.arrivals.copy(), trace.times.copy()
    for n, r_max in ((1000, 2), (10_000, 3), (100, 1)):
        TraceBlock(n, r_max, [SeedSpec(8, 1), SeedSpec(8, 2)]).arrivals
    assert_same_bytes((trace.arrivals, trace.times), saved)


def first_draw_times(rng, n, r_max):
    """The poissonized times from the generator's first draws, as the reference forms them."""
    return n * np.cumsum(rng.standard_exponential((n, r_max)), axis=1)


@pytest.mark.parametrize("n", [2, 100, 10_000])
@pytest.mark.parametrize("r_max", [1, 2, 3, 4])
def test_poissonized_times_are_the_coupled_times(n, r_max, request):
    """The times alone are the stream's first draws, so sampling the jump chain
    after them or not gives the same bytes."""
    for j in range(3):
        stream = SeedSpec(2024, (n << 8) | j)
        coupled = run_coupled(n, r_max, stream).times
        assert_same_bytes([first_draw_times(generator(stream), n, r_max)], [coupled])
        # a block whose arrivals are never read has the same times
        assert_same_bytes([TraceBlock(n, r_max, [stream]).times[0]], [coupled])
    if r_max > 1:  # TiedExponentials ties the second and the last column
        request.getfixturevalue("tied_scratch")
        for j in range(3):
            assert_same_bytes([first_draw_times(TiedExponentials(j), n, r_max)],
                              [embed(SeedSpec(j, 0), n, r_max)[1]])


def test_blocks_key_streams_without_their_own_generators():
    """Every stream, a lone trace's and limit-consistency's too, is drawn on
    the one scratch generator, keyed by ``keyed``: no module of the package
    but that generator's builds a Philox generator or a seed sequence, since
    a generator per stream would cost about twice the keying."""
    found = []
    for path in Path(discrete.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("Generator", "Philox", "SeedSequence", "default_rng"):
                    found.append((path.name, name))
            elif isinstance(node, ast.ImportFrom):
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name in ("SeedSequence", "default_rng")]
    # the two calls of _SCRATCH = Generator(Philox(0))
    assert sorted(found) == [("discrete.py", "Generator"), ("discrete.py", "Philox")]


def test_the_compiled_sampler_loads_wherever_it_can_be_built():
    """A C compiler, Python's headers and numpy's static libnpyrandom build
    the compiled row sampler; with them, a numpy-only run is a broken build."""
    needs = [Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a",
             Path(sysconfig.get_paths()["include"]) / "Python.h"]
    if shutil.which(discrete._CC) is None or not all(path.is_file() for path in needs):
        pytest.skip("no C compiler, Python.h or libnpyrandom.a to build the sampler with")
    assert discrete.row_sampler().name == "compiled"


def chain_means(times):
    """The Poisson means of the untracked draws of a block's jump chains: per
    row, each gap between sorted times, times the types whose last tracked
    arrival came before it, over n."""
    traces, n, r_max = times.shape
    flat = times.reshape(traces, n * r_max)
    order = np.argsort(flat, axis=1)
    completed = np.cumsum(order % r_max == r_max - 1, axis=1)[:, :-1]
    return np.diff(np.take_along_axis(flat, order, axis=1), axis=1) * completed / n


def test_compiled_rows_are_numpys_bytes(monkeypatch):
    """Blocks of one row and of ``block_size`` rows have the same ``times``
    and ``arrivals`` on both row samplers, over key words on both sides of
    2**63 and Poisson means on both sides of 10, where numpy switches method,
    and of 0, where it draws nothing."""
    compiled = discrete.row_sampler()
    if compiled.name != "compiled":
        pytest.skip("the compiled row sampler is not built here")
    means = []

    def chain(states, times):
        lam = chain_means(times)
        means.append((lam.min(), lam.max()))
        return type(compiled).chain(compiled, states, times)

    # every block's chain, on either path of the compiled sampler, comes through here
    monkeypatch.setattr(compiled, "chain", chain)
    keys = []
    for n, r_max in ((2, 1), (3, 2), (10, 4), (100, 1), (100, 3), (1000, 2), (10_000, 1),
                     (100_000, 3)):
        for rows in sorted({1, block_size(n, r_max)}):
            streams = [SeedSpec(2**64 - 1 - j, (n << 32) | j) for j in range(rows)]
            keys.append(philox_keys(streams))
            sampled = []
            for sampler in (compiled, discrete._NUMPY):
                monkeypatch.setattr(discrete, "_rows", sampler)
                block = TraceBlock(n, r_max, streams)
                sampled.append((block.times, block.arrivals))
            assert_same_bytes(*sampled)
    keys = np.concatenate(keys)
    assert (keys >= 2**63).any() and (keys < 2**63).any()
    assert min(low for low, _ in means) == 0 and max(high for _, high in means) >= 10
    assert any(0 < low < 10 or 0 < high < 10 for low, high in means)


def adjacent_times(block, rng):
    """``block``'s times, with two arrivals of each row moved to one time and
    the next float above it: their keys tie but for the position bits, so
    the keys may order them otherwise than ``np.argsort``."""
    times = block.times.copy()
    flat = times.reshape(len(times), -1)
    for row in flat:
        a, b = rng.choice(len(row), 2, replace=False)
        # the lowest bit cleared, so that the next float differs in it alone
        row[a] = (row[a:a + 1].view(np.uint64) & np.uint64(2**64 - 2)).view(np.float64)[0]
        row[b] = np.nextafter(row[a], np.inf)
    return times


def tied_times(block, rng):
    """``block``'s times, with one arrival of each row moved to another's time."""
    times = block.times.copy()
    flat = times.reshape(len(times), -1)
    for row in flat:
        a, b = rng.choice(len(row), 2, replace=False)
        row[a] = row[b]
    return times


@pytest.mark.parametrize("n,r_max", [(2, 1), (3, 2), (10, 4), (40, 3), (100, 1), (1000, 2)])
@pytest.mark.parametrize("perturb", [adjacent_times, tied_times])
def test_compiled_chain_is_numpys_on_ties_and_key_collisions(n, r_max, perturb, monkeypatch):
    """Where two times of a row agree but for the bits a packed key replaces
    with the position, or tie, the compiled chain takes its order from
    ``np.argsort`` and gives the numpy chain's bytes, ties repaired alike."""
    compiled = discrete.row_sampler()
    if compiled.name != "compiled":
        pytest.skip("the compiled row sampler is not built here")
    codes = []

    def derive(*args):
        codes.append(type(compiled)._derive(compiled, *args))
        return codes[-1]

    monkeypatch.setattr(compiled, "_derive", derive)
    rng = generator(SeedSpec(12, (n << 8) | r_max))
    block = TraceBlock(n, r_max, [SeedSpec(11, (n << 32) | j) for j in range(block_size(n, r_max))])
    for _ in range(3):
        times = perturb(block, rng)
        chains = [rows.chain(rows.exponentials(block.keys, np.empty_like(times)), times)
                  for rows in (compiled, discrete._NUMPY)]
        assert_same_bytes(chains[:1], chains[1:])
        # the keys failed the check before any draw, and the chain ran on argsort's order
        assert codes[0] == 1 and len(codes) == 2
        codes.clear()


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
        times = np.array([collection_time(trace, 1)
                          for trace in seeded_traces(n, 1, reps, seed)], dtype=float)
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
        raw = generator(SeedSpec(77, j)).integers(0, n, size=200) + 1
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
