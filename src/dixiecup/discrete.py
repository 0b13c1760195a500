"""The one trace of both coupon schemes and its block sampler."""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .samplers import SeedSpec, stream_keys

__all__ = [
    "CollectorTrace",
    "TraceBlock",
    "block_size",
    "row_sampler",
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


# The generator of every stream the numpy row sampler draws: each stream
# sets its key and counter on it before it draws, so it carries nothing from
# one to the next.  It is one per process, so two threads must not sample at
# once.
_SCRATCH = Generator(Philox(0))


class _NumpyRows:
    """The draws of a block's rows on the scratch generator, through numpy's
    ``Generator``, a row at a time: the reference of the compiled sampler,
    and the one row sampler wherever that cannot be built, loaded or verified.
    ``why`` says why the compiled one could not, if it was tried."""

    name = "numpy"

    def __init__(self, why: str | None = None) -> None:
        self.why = why

    def exponentials(self, keys: np.ndarray, times: np.ndarray) -> list[dict]:
        """Fill row i of ``times`` with the first standard exponentials of
        the stream keyed ``keys[i]``; returns the generator state after each row.

        A Philox stream is its key at counter 0, so each row sets the scratch
        generator to its key there before it draws."""
        philox = _SCRATCH.bit_generator
        zeros = np.zeros(4, dtype=np.uint64)
        # the state setter copies what it reads, so one dict serves every key
        start = {"bit_generator": "Philox", "state": {"counter": zeros, "key": None},
                 "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        states = []
        for row, key in zip(times, keys):
            start["state"]["key"] = key
            philox.state = start
            _SCRATCH.standard_exponential(out=row)
            states.append(philox.state)
        return states

    def chain(self, states: list[dict], times: np.ndarray) -> np.ndarray:
        """The draw number of every tracked arrival of a block of ``times``,
        each row's Poisson draws from its state in ``states``.

        The discrete scheme is the jump chain of the poissonized one.  Only
        the n * r_max tracked times are sampled.  A type's arrivals past its
        r_max-th are independent of them, so the untracked draws between two
        consecutive tracked events are Poisson with mean
        (#types past r_max) * gap / n.  An event's draw number is its rank
        plus the untracked draws before it.  Events are in order of time, an
        exact tie in order of position in the row: a zero gap between sorted
        times is the only way a tie shows, and only its rows take numpy's
        stable ``argsort``, whose tie order, unlike the default one's, does not
        depend on the CPU.  The gaps are the same in either order.
        """
        traces, n, r_max = times.shape
        size = n * r_max
        flat = times.reshape(traces, size)
        # flat positions in the block, so that one take and one put serve all
        # rows; a row's offset is a multiple of r_max, so order % r_max holds
        offsets = np.arange(0, traces * size, size)[:, None]
        order = np.argsort(flat, axis=1)
        order += offsets
        gaps = np.diff(times.take(order), axis=1)
        tied = ~gaps.all(axis=1)
        if tied.any():
            order[tied] = np.argsort(flat[tied], axis=1, kind="stable") + offsets[tied]
        # types past r_max before each gap
        completed = np.cumsum(order[:, :-1] % r_max == r_max - 1, axis=1)
        lam = completed * gaps / n
        # the first event is draw 1, and each later one comes its untracked
        # draws plus one after the event before it
        index = np.ones((traces, size), dtype=np.int64)
        for state, row_lam, row in zip(states, lam, index):
            _SCRATCH.bit_generator.state = state
            row[1:] += _SCRATCH.poisson(row_lam)
        arrivals = np.empty(times.shape, dtype=np.int64)
        arrivals.put(order, index.cumsum(axis=1))
        return arrivals


def _address(array: np.ndarray, dtype, shape: tuple) -> int:
    """The address of ``array``, which must be C-contiguous ``dtype`` values of ``shape``."""
    if array.dtype != dtype or array.shape != shape or not array.flags.c_contiguous:
        raise ValueError(f"the compiled sampler needs a C-contiguous {np.dtype(dtype)} "
                         f"array of shape {shape}")
    return array.ctypes.data


class _CompiledRows:
    """The draws of :class:`_NumpyRows`, to the bit, a whole block in one call
    of ``_sampler.c`` each: its Philox draws what numpy's does, and numpy's
    own distribution functions run on it.  A row's state is a row of uint64
    words."""

    name = "compiled"
    why = None

    def __init__(self, library: ctypes.CDLL) -> None:
        address, size = ctypes.c_void_p, ctypes.c_int64
        self._exponentials = library.dixie_exponentials
        self._exponentials.argtypes = [size, size, address, address, address]
        self._exponentials.restype = None
        self._chain = library.dixie_chain
        self._chain.argtypes = [size, size, size, address, address, size, address, address]
        self._chain.restype = None
        library.dixie_state_words.restype = size
        self._words = library.dixie_state_words()

    def exponentials(self, keys: np.ndarray, times: np.ndarray) -> np.ndarray:
        rows = len(keys)
        states = np.empty((rows, self._words), dtype=np.uint64)
        self._exponentials(rows, times.shape[1] * times.shape[2],
                           _address(keys, np.uint64, (rows, 2)),
                           _address(times, np.float64, (rows, *times.shape[1:])),
                           _address(states, np.uint64, states.shape))
        return states

    def chain(self, states: np.ndarray, times: np.ndarray) -> np.ndarray:
        """The jump chain of :meth:`_NumpyRows.chain`, to the bit, in one
        pass per row over its arrivals in the same order.

        The order is one numpy ``sort`` of packed keys: a positive double
        orders like its bits, so a key is the time's bits with the low
        ``bits`` replaced by the arrival's position in its row.  Keys whose
        high parts are equal, two times that agree but for those bits or
        tie, are in position order; the pass puts each such run in order of
        time first, ties staying in position order."""
        traces, n, r_max = times.shape
        size = n * r_max
        bits = (size - 1).bit_length()
        keys = times.reshape(traces, size).view(np.uint64) & np.uint64(2**64 - 2**bits)
        keys |= np.arange(size, dtype=np.uint64)
        keys.sort(axis=1)
        arrivals = np.empty(times.shape, dtype=np.int64)
        self._chain(traces, n, r_max, _address(states, np.uint64, (traces, self._words)),
                    _address(keys, np.uint64, keys.shape), bits,
                    _address(times, np.float64, times.shape),
                    _address(arrivals, np.int64, times.shape))
        return arrivals


_NUMPY = _NumpyRows()

# The compiled row sampler is _sampler.c beside this file, built by the C
# compiler _CC against numpy's headers and the static libnpyrandom.a in
# _RANDOM_LIB that numpy ships into __pycache__/_sampler.<source>.<library>.so,
# named by the hashes of the two files it reads.  A build removes the files of
# other sources; a failed compile leaves nothing, so the next process retries.
_SOURCE = Path(__file__).with_name("_sampler.c")
_CACHE = _SOURCE.parent / "__pycache__"
_CC = "cc"
_RANDOM_LIB = Path(np.__file__).parent / "random" / "lib"

# The row sampler of this process, chosen by the first call of row_sampler.
_rows: _NumpyRows | _CompiledRows | None = None


class _Unavailable(Exception):
    """The compiled row sampler cannot draw here; the message says why."""


def row_sampler() -> _NumpyRows | _CompiledRows:
    """The row sampler of this process: the compiled one if it can be built
    or found in the cache, loaded and verified against numpy's, else numpy's,
    whose ``why`` says what stopped the compiled one.

    It is chosen once, at the first call, and forked helpers inherit it.
    Both give the same bytes; ``name`` says which draws.  A compiled sampler
    that draws other values than numpy's means that numpy's generator has
    changed under the package, so that is also a ``warning:`` on stderr.
    """
    global _rows
    if _rows is None:
        try:
            _rows = _compiled()
        except _Unavailable as exc:
            _rows = _NumpyRows(str(exc))
    return _rows


def _compiled() -> _CompiledRows:
    """The compiled row sampler, built into the cache unless it is there;
    raises _Unavailable if it cannot be built, loaded or verified."""
    try:
        source, library = (hashlib.sha256(file.read_bytes()).hexdigest()[:16]
                           for file in (_SOURCE, _RANDOM_LIB / "libnpyrandom.a"))
    except OSError as exc:
        raise _Unavailable(f"cannot read {exc.filename}: {exc.strerror}") from None
    path = _CACHE / f"_sampler.{source}.{library}.so"
    if not path.exists():
        try:
            _build(path)
        except OSError as exc:
            raise _Unavailable(f"unwritable cache {path.parent}: {exc.strerror}") from None
    try:
        rows = _CompiledRows(ctypes.CDLL(str(path)))
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {path.name}: {exc}") from None
    if not _verified(rows):
        print(f"warning: the compiled row sampler draws other values than numpy "
              f"{np.__version__}; sampling on numpy's", file=sys.stderr)
        raise _Unavailable("check mismatch")
    return rows


def _build(path: Path) -> None:
    """Compile ``_SOURCE`` into the shared library ``path`` and remove the
    cache's ``_sampler.*`` files of other sources, stale builds and failed-build
    markers; one of this source against another libnpyrandom.a is current
    there, so it stays.  Raises _Unavailable if the build cannot run or fails,
    OSError if the cache is not writable; a compile that fails writes nothing."""
    path.parent.mkdir(exist_ok=True)
    if shutil.which(_CC) is None:
        raise _Unavailable(f"no C compiler {_CC}")
    with tempfile.TemporaryDirectory(dir=path.parent) as scratch:
        built = Path(scratch) / path.name
        try:
            subprocess.run([_CC, "-O3", "-fPIC", "-shared", "-o", built, _SOURCE,
                            "-I", np.get_include(), "-L", _RANDOM_LIB, "-lnpyrandom", "-lm"],
                           check=True, capture_output=True, timeout=120)
        except subprocess.CalledProcessError as exc:
            lines = exc.stderr.decode(errors="replace").strip().splitlines()
            raise _Unavailable(f"{_CC} failed: {lines[0] if lines else exc}") from None
        except subprocess.TimeoutExpired:
            raise _Unavailable(f"{_CC} took over 120 s") from None
        # a rename is atomic, so a process building beside this one loads a whole file
        os.replace(built, path)
    for stale in path.parent.glob("_sampler.*"):
        if stale.name.split(".")[1] != path.name.split(".")[1]:
            stale.unlink(missing_ok=True)


def _verified(rows: _CompiledRows) -> bool:
    """Whether ``rows`` draws the bytes of numpy's row sampler: on a block
    whose key words lie on both sides of 2**63 and whose Poisson means lie on
    both sides of 10, where numpy's sampler switches method; on its times
    rounded down to integers, which tie; and on those with each type's first
    arrival one float later, whose packed keys collide but for the position."""
    keys = stream_keys([0, 7], [0, 1 << 40])
    drawn = []
    for sampler in (rows, _NUMPY):
        times = np.empty((len(keys), 100, 2))
        sampler.exponentials(keys, times)
        times = 100 * times.cumsum(axis=2)
        tied = np.floor(times)
        adjacent = tied.copy()
        adjacent[:, :, 0] = np.nextafter(adjacent[:, :, 0], np.inf)
        # each chain draws its streams anew, from their states after their exponentials
        drawn.append(times.tobytes() + b"".join(
            sampler.chain(sampler.exponentials(keys, np.empty_like(t)), t).tobytes()
            for t in (times, tied, adjacent)))
    return drawn[0] == drawn[1]


class TraceBlock:
    """Traces of one ``(n, r_max)``, one per Philox key, sampled as one array.

    ``keys`` holds one key per trace, a row of two uint64 words each, as
    :func:`~dixiecup.samplers.stream_keys` gives them: a uint64 array of
    shape (k, 2), k >= 0, in any memory layout; anything else is a
    ValueError, on either row sampler.  ``times`` and
    ``arrivals`` have one row of shape ``(n, r_max)`` per key, and row i is
    what a block of ``keys[i]`` alone samples, to the byte: every generator
    call and its arguments are the ones that block makes, and each array
    pass runs row by row.  Each key is set at counter 0: the
    :func:`row_sampler` draws its exponentials into its row of ``times``,
    and its state is saved until the first read of ``arrivals`` derives the
    jump chain of the whole block.
    """

    def __init__(self, n: int, r_max: int, keys: np.ndarray) -> None:
        if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint64
                and keys.ndim == 2 and keys.shape[1] == 2):
            got = (f"dtype {keys.dtype} and shape {keys.shape}"
                   if isinstance(keys, np.ndarray) else type(keys).__name__)
            raise ValueError(f"keys must be a uint64 array of shape (k, 2), got {got}")
        # a copy only of a strided view: the compiled sampler reads C order
        self.n, self.r_max, self.keys = n, r_max, np.ascontiguousarray(keys)

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
        times = np.empty((len(self.keys), n, r_max))
        # the jump chain draws from each row's state after its times
        self._rows = row_sampler()
        self._states = self._rows.exponentials(self.keys, times)
        # the row sums np.cumsum(axis=-1) forms, a column at a time: it loops per row
        for k in range(1, r_max):
            times[:, :, k] += times[:, :, k - 1]
        times *= n
        return times

    @cached_property
    def arrivals(self) -> np.ndarray:
        times = self.times
        return self._rows.chain(self._states, times)

    def derived_draws(self) -> int:
        """The draws of its traces' jump chains if the block derived them, else 0."""
        # a cached property is in the instance dict once it has been read
        if "arrivals" not in vars(self):
            return 0
        return int(self.arrivals[:, :, -1].max(axis=1).sum())


def run_discrete(n: int, r_max: int, stream: SeedSpec) -> CollectorTrace:
    """Simulate both schemes until every type has ``r_max`` arrivals: a whole trace."""
    block = TraceBlock(n, r_max, stream_keys(stream.master_seed, stream.stream_index))
    return CollectorTrace(n, r_max, block.times[0], block.arrivals[0])
