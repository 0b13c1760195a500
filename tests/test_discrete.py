"""Discrete scheme: construction invariants and exact-oracle comparisons."""
import ast
import functools
import math
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats

from dixiecup import discrete
from dixiecup.discrete import (
    TraceBlock,
    block_size,
    run_discrete,
)
from dixiecup.poissonized import run_coupled
from dixiecup.samplers import SeedSpec, stream_keys

from oracles import (
    block_traces,
    collection_time,
    generator,
    partial_collection_time,
    seeded_traces,
    spec_keys,
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
    # an exact tie, a zero gap between sorted times, so the stable re-sort runs
    assert (np.diff(np.sort(times, axis=None)) == 0).any()
    stable_argsort = functools.partial(np.argsort, kind="stable")
    # a stable argsort keeps tied arrivals in row order: each row must
    # strictly increase and hold the draws it gives
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


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10_000])
@pytest.mark.parametrize("r_max", [1, 2, 3, 4])
def test_numpys_chain_matches_reference_bytes(n, r_max, numpy_path):
    """The test above on numpy's row sampler, which it does not reach where
    the compiled one draws: the reference checks the numpy chain at every
    shape, and not only on tied times."""
    test_embed_matches_reference_bytes(n, r_max)


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
    block = TraceBlock(n, r_max, spec_keys(streams))
    for trace, stream in zip(block_traces(block), streams):
        assert_same_bytes((trace.arrivals, trace.times), embed(stream, n, r_max))
    times_first = TraceBlock(n, r_max, spec_keys(streams))
    times = times_first.times.copy()
    # another block samples on the shared generator between its times and its chain
    TraceBlock(n, r_max, block.keys[::-1]).arrivals
    assert_same_bytes([times_first.arrivals, times], [block.arrivals, block.times])


@pytest.mark.parametrize("n,r_max", [(40, 3), (2, 2), (10, 4)])
def test_block_rows_restore_row_order_after_float_ties(n, r_max, tied_scratch):
    """Rows that hold an exact float tie are ordered as in a trace alone."""
    size = block_size(n, r_max)
    block = TraceBlock(n, r_max, stream_keys(np.arange(size), 0))
    # some row has an exact tie, a zero gap between sorted times, so the stable re-sort runs
    assert any((np.diff(np.sort(times, axis=None)) == 0).any() for times in block.times)
    for seed, trace in enumerate(block_traces(block)):
        assert_same_bytes((trace.arrivals, trace.times), embed(SeedSpec(seed, 0), n, r_max))
        assert np.all(np.diff(trace.arrivals, axis=1) > 0)


@pytest.mark.parametrize("r_max", [3, 1])
def test_warmed_jump_chain_allocates_below_four_arrival_arrays(r_max):
    """Once a chain has run, the compiled chain allocates only the packed
    keys, their positions and the arrivals it returns, each n * r_max
    8-byte words."""
    if discrete.row_sampler().name != "compiled":
        pytest.skip("the compiled row sampler is not built here")
    n = 10_000
    TraceBlock(n, r_max, stream_keys(3, 0)).arrivals
    block = TraceBlock(n, r_max, stream_keys(3, 1))
    block.times
    tracemalloc.start()
    try:
        block.arrivals
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * r_max * 8


def test_blocks_of_alternating_shapes_match_the_reference(request):
    """Blocks of other shapes, larger and smaller, between them change no
    block's bytes: no chain reads what an earlier one left."""
    shapes = [(10_000, 3), (100, 1), (10_000, 1), (100, 2)]
    for n, r_max in shapes:
        streams = [SeedSpec(2025, (n << 8) | j) for j in range(3)]
        for trace, stream in zip(block_traces(TraceBlock(n, r_max, spec_keys(streams))), streams):
            assert_same_bytes((trace.arrivals, trace.times),
                              reference_embed(generator(stream), n, r_max))
    TraceBlock(10_000, 3, stream_keys(2025, 0)).arrivals
    request.getfixturevalue("tied_scratch")
    assert_same_bytes(embed(SeedSpec(1, 0), 40, 3), reference_embed(TiedExponentials(1), 40, 3))


def test_a_trace_keeps_its_bytes_after_later_blocks():
    """``times`` and ``arrivals`` leave their block, so no later block may
    write them."""
    trace = run_discrete(1000, 2, SeedSpec(8, 0))
    saved = trace.arrivals.copy(), trace.times.copy()
    for n, r_max in ((1000, 2), (10_000, 3), (100, 1)):
        TraceBlock(n, r_max, stream_keys(8, [1, 2])).arrivals
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
        assert_same_bytes([TraceBlock(n, r_max, spec_keys([stream])).times[0]], [coupled])
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
            keys.append(spec_keys([SeedSpec(2**64 - 1 - j, (n << 32) | j) for j in range(rows)]))
            sampled = []
            for sampler in (compiled, discrete._NUMPY):
                monkeypatch.setattr(discrete, "_rows", sampler)
                block = TraceBlock(n, r_max, keys[-1])
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


def keys_collide(times):
    """Whether some row of a block of ``times`` has two packed keys of equal
    high parts, as the compiled chain packs them."""
    traces, n, r_max = times.shape
    bits = np.uint64((n * r_max - 1).bit_length())
    high = np.sort(times.reshape(traces, -1).view(np.uint64) >> bits, axis=1)
    return bool((np.diff(high, axis=1) == 0).any())


@pytest.mark.parametrize("n,r_max", [(2, 1), (3, 2), (10, 4), (40, 3), (100, 1), (1000, 2)])
@pytest.mark.parametrize("perturb", [adjacent_times, tied_times])
def test_compiled_chain_is_numpys_on_ties_and_key_collisions(n, r_max, perturb):
    """Where two times of a row agree but for the bits a packed key replaces
    with the position, or tie, the compiled chain orders them by time, ties
    by position, and gives the numpy chain's bytes."""
    compiled = discrete.row_sampler()
    if compiled.name != "compiled":
        pytest.skip("the compiled row sampler is not built here")
    rng = generator(SeedSpec(12, (n << 8) | r_max))
    block = TraceBlock(n, r_max, stream_keys(11, (n << 32) | np.arange(block_size(n, r_max))))
    for _ in range(3):
        times = perturb(block, rng)
        assert keys_collide(times)
        chains = [rows.chain(rows.exponentials(block.keys, np.empty_like(times)), times)
                  for rows in (compiled, discrete._NUMPY)]
        assert_same_bytes(chains[:1], chains[1:])


def ties_between_types(times):
    """Whether some row of a block of ``times`` ties arrivals of two types."""
    traces, n, r_max = times.shape
    flat = times.reshape(traces, -1)
    order = np.argsort(flat, axis=1, kind="stable")
    tied = np.diff(np.take_along_axis(flat, order, axis=1), axis=1) == 0
    types = order // r_max
    return bool((tied & (types[:, 1:] != types[:, :-1])).any())


def stable_chain(rng, times):
    """The jump chain of ``times`` in ``np.argsort(kind="stable")`` order,
    with no repair: events in order of time, an exact tie in order of
    position in the row.  ``rng`` draws the Poisson draws."""
    n, r_max = times.shape
    order = np.argsort(times, axis=None, kind="stable")
    completed = np.cumsum(order % r_max == r_max - 1)
    untracked = rng.poisson(completed[:-1] * np.diff(times.ravel()[order]) / n)
    index = np.arange(1, n * r_max + 1, dtype=np.int64)
    index[1:] += np.cumsum(untracked)
    arrivals = np.empty(n * r_max, dtype=np.int64)
    arrivals[order] = index
    return arrivals.reshape(n, r_max)


@pytest.mark.parametrize("n,r_max", [(2, 1), (3, 2), (10, 4), (40, 3), (100, 1), (1000, 2)])
def test_both_row_samplers_break_ties_between_types_by_position(n, r_max):
    """On blocks whose rows each tie two arrivals, mostly of two types, both
    row samplers give the stable-order chain of each row's own stream."""
    streams = [SeedSpec(13, (n << 32) | j) for j in range(block_size(n, r_max))]
    block = TraceBlock(n, r_max, spec_keys(streams))
    times = tied_times(block, generator(SeedSpec(14, (n << 8) | r_max)))
    assert ties_between_types(times)
    wanted = []
    for stream, row in zip(streams, times):
        rng = generator(stream)
        rng.standard_exponential((n, r_max))  # the chain draws after the times
        wanted.append(stable_chain(rng, row))
    for rows in (discrete.row_sampler(), discrete._NUMPY):
        chain = rows.chain(rows.exponentials(block.keys, np.empty_like(times)), times)
        assert_same_bytes([chain], [np.stack(wanted)])


KEYS = stream_keys(1, np.arange(4))

# per input: the stream indices of seed 1 whose keys it holds, in order, or
# what the error a block refuses it with says it got
KEY_INPUTS = {
    "reversed-view": (KEYS[::-1], [3, 2, 1, 0]),
    "fortran-order": (np.asfortranarray(KEYS), [0, 1, 2, 3]),
    "zero-rows": (KEYS[:0], []),
    "list": (KEYS.tolist(), "got list"),
    "three-words": (np.concatenate([KEYS, KEYS[:, :1]], axis=1),
                    "got dtype uint64 and shape (4, 3)"),
    "int64": (KEYS.astype(np.int64), "got dtype int64 and shape (4, 2)"),
    "one-1d-key": (KEYS[0], "got dtype uint64 and shape (2,)"),
}


@pytest.mark.parametrize("sampler", ["numpy", "compiled"])
@pytest.mark.parametrize("case", list(KEY_INPUTS))
def test_both_row_samplers_take_and_refuse_the_same_keys(case, sampler, monkeypatch):
    """A block takes its keys as a uint64 array of shape (k, 2) in any
    layout, zero rows included, keeps them in C order and samples the
    streams they key; it refuses anything else when it is built, whichever
    row sampler would draw."""
    rows = discrete.row_sampler() if sampler == "compiled" else discrete._NUMPY
    if rows.name != sampler:
        pytest.skip("the compiled row sampler is not built here")
    monkeypatch.setattr(discrete, "_rows", rows)
    keys, wanted = KEY_INPUTS[case]
    if isinstance(wanted, str):
        with pytest.raises(ValueError, match=re.escape(wanted)):
            TraceBlock(10, 2, keys)
        return
    block = TraceBlock(10, 2, keys)
    assert block.keys.flags.c_contiguous and np.array_equal(block.keys, keys)
    alone = TraceBlock(10, 2, stream_keys(1, np.array(wanted, dtype=np.uint64)))
    assert_same_bytes([block.times, block.arrivals], [alone.times, alone.arrivals])


def sampled(rows, n, r_max, keys):
    """What a block of ``keys`` gives on the row sampler ``rows``: its times
    and arrivals, or the type of the exception it raised."""
    saved, discrete._rows = discrete._rows, rows
    try:
        block = TraceBlock(n, r_max, keys)
        return [block.times, block.arrivals]
    except Exception as exc:
        return type(exc)
    finally:
        discrete._rows = saved


WORDS = st.integers(0, 2**64 - 1)
LAYOUTS = {
    "c-order": lambda keys: keys,
    "reversed-view": lambda keys: keys[::-1],
    "every-other-row": lambda keys: np.repeat(keys, 2, axis=0)[::2],
    "fortran-order": np.asfortranarray,
    "list": lambda keys: keys.tolist(),
    "int64": lambda keys: keys.view(np.int64),
    "three-words": lambda keys: np.concatenate([keys, keys[:, :1]], axis=1),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(2, 300), r_max=st.integers(1, 4),
       streams=st.lists(st.tuples(WORDS, WORDS), max_size=6),
       layout=st.sampled_from(sorted(LAYOUTS)))
def test_both_row_samplers_give_the_same_blocks(n, r_max, streams, layout):
    """On any keys of ``stream_keys`` in any layout, both row samplers give
    the same times and arrivals, to the byte, or raise the same exception."""
    compiled = discrete.row_sampler()
    if compiled.name != "compiled":
        pytest.skip("the compiled row sampler is not built here")
    seeds, indices = (np.array([words[i] for words in streams], dtype=np.uint64) for i in (0, 1))
    keys = LAYOUTS[layout](stream_keys(seeds, indices))
    got, want = (sampled(rows, n, r_max, keys) for rows in (compiled, discrete._NUMPY))
    if isinstance(want, type):
        assert got is want
    else:
        assert_same_bytes(got, want)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(n=st.integers(2, 300), r_max=st.integers(1, 4), traces=st.integers(1, 6), seed=WORDS,
       grain=st.sampled_from([1 / 16, 1.0, 16.0]), adjacent=st.booleans())
def test_both_row_samplers_chain_tied_times_alike(n, r_max, traces, seed, grain, adjacent):
    """On times rounded down to a multiple of ``grain``, which tie, and on
    those with each type's first arrival one float later, whose packed keys
    collide but for the position, both row samplers derive the same chain."""
    compiled = discrete.row_sampler()
    if compiled.name != "compiled":
        pytest.skip("the compiled row sampler is not built here")
    keys = stream_keys(seed, np.arange(traces))
    times = np.floor(TraceBlock(n, r_max, keys).times / grain) * grain
    if adjacent:
        times[:, :, 0] = np.nextafter(times[:, :, 0], np.inf)
    chains = [rows.chain(rows.exponentials(keys, np.empty_like(times)), times)
              for rows in (compiled, discrete._NUMPY)]
    assert_same_bytes(chains[:1], chains[1:])


TIED_DIGESTS = """
import hashlib
import numpy as np
from dixiecup import discrete
from dixiecup.discrete import TraceBlock
from dixiecup.samplers import stream_keys

block = TraceBlock(1000, 2, stream_keys(42, np.arange(8)))
tied = np.floor(block.times)
for rows in (discrete.row_sampler(), discrete._NUMPY):
    chain = rows.chain(rows.exponentials(block.keys, np.empty_like(tied)), tied)
    print(rows.name, hashlib.sha256(chain.tobytes()).hexdigest())
"""


def test_tie_bytes_do_not_depend_on_numpys_cpu_dispatch():
    """A block with many ties between types, its times rounded down, has one
    chain on both row samplers under every level of numpy's CPU dispatch,
    whose sorts break ties otherwise at each level."""
    source = str(Path(discrete.__file__).parents[1])
    digests = {}
    for disabled in ("", "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled, PYTHONPATH=source)
        if subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                          capture_output=True, timeout=120).returncode:
            continue  # numpy does not run at this level here
        run = subprocess.run([sys.executable, "-c", TIED_DIGESTS], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests[disabled] = run.stdout.split()[1::2]
    assert "" in digests
    assert len({digest for pair in digests.values() for digest in pair}) == 1, digests


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
