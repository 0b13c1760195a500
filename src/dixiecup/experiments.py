"""Declarative experiment orchestration and report persistence.

Each experiment kind exercises one limit statement and is one entry of
:data:`KINDS`: what it verifies, how many arrivals per type its traces track,
how it extracts the payloads of a block of traces as one array, a row per
trace, and how it aggregates those payloads into rows, summaries and
verdicts.  :func:`run_bank` simulates each trace once, sampling consecutive
replications in blocks, and hands each block to the extraction of every
config that reads it, with the statistics several of them read computed once.
A trace is keyed by ``(master_seed, n, j)`` alone: replication ``j`` at ``n``
reads the stream keyed by :func:`replication_keys`, tracking the largest
r_max any config reading that ``(master_seed, n)`` needs, so configs sharing
a seed share their traces and the numbers are independent of the worker
count.  :func:`run_experiments` runs any list of configs on one bank, and
``verify`` and ``battery`` both use it.
"""
from __future__ import annotations

import csv
import json
import math
import multiprocessing
import os
import pickle
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from operator import attrgetter

import numpy as np

from . import calibration
from .discrete import TraceBlock, block_size, row_sampler
from .gof import increment_test, ks_p_value, ks_statistic, ks_test, poisson_count_test
from .limitlaws import (
    ChiSqLog,
    GumbelType,
    LogGamma,
    PoissonizedMarginal,
    intensity_mass,
)
from .pointprocess import Normalization, h_transform
from .samplers import stream_keys

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "KINDS",
    "check_battery",
    "check_report",
    "replication_keys",
    "run_bank",
    "run_experiments",
    "write_csv",
    "write_json",
]


class ConfigError(ValueError):
    """Invalid experiment description."""


# ---------------------------------------------------------------------------
# report schema: the type of each JSON value, as a predicate

def _number(value) -> bool:
    """A JSON number that formats as a float; a bool is not a number here."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _of(kind: type) -> Callable[[object], bool]:
    return lambda value: type(value) is kind


ROW_TYPES = {
    "experiment": _of(str), "n": _of(int), "r": _of(int), "c": _of(int), "m": _of(int),
    "statistic_name": _of(str), "value": _number,
    "p_value": lambda value: value is None or _number(value),
    "sample_size": _of(int), "verdict": _of(bool),
}
CSV_COLUMNS = list(ROW_TYPES)

CONFIG_TYPES = {
    "kind": _of(str), "n_grid": _of(list), "r": _of(int), "c": _of(int), "m": _of(int),
    "intervals": _of(list), "thresholds": _of(list), "replications": _of(int),
    "master_seed": _of(int), "significance": _number,
}

REPORT_TYPES = {
    "config": _of(dict), "theorem": _of(str), "results": _of(list), "summaries": _of(dict),
    "verdicts": _of(dict), "passed": _of(bool), "telemetry": _of(dict),
}

SERIES_TYPES = {"n": _of(int), "x": _number, "mean_count": _number}

BATTERY_TYPES = {
    "master_seed": _of(int), "scale": _number, "experiments": _of(list), "passed": _of(bool),
}


def check_fields(d, types: dict, what: str) -> None:
    """Raise ConfigError unless ``d`` is a dict with exactly these keys, each
    holding a value its predicate in ``types`` accepts."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} is not a JSON object")
    missing, unknown = sorted(set(types) - set(d)), sorted(set(d) - set(types))
    if missing or unknown:
        raise ConfigError(f"{what} has missing keys {missing} and unknown keys {unknown}")
    for key, ok in types.items():
        if not ok(d[key]):
            raise ConfigError(f"{what} key {key!r} has a value of the wrong type: {d[key]!r}")


# replication j at n reads stream (n << 32) | j, so n and j must each fit in 32 bits
KEY_LIMIT = 2**32
# a master seed, like a stream index, is a 64-bit unsigned word
SEED_LIMIT = 2**64


@dataclass
class ExperimentConfig:
    kind: str
    n_grid: list[int] = field(default_factory=lambda: [100])
    r: int = 1
    c: int = 1
    m: int = 0
    intervals: list[tuple[float, float]] = field(
        default_factory=lambda: [(0.0, math.inf)]
    )
    thresholds: list[float] = field(default_factory=lambda: [-1.0, 0.0, 1.0, 2.0])
    replications: int = 1000
    master_seed: int = 0
    significance: float = 1e-3

    @property
    def grid(self) -> list[int]:
        """The n of each bank row: the n grid, or [0] for a kind that samples no trace."""
        return list(self.n_grid) if KINDS[self.kind].r_max(self) else [0]

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {sorted(KINDS)}"
            )
        if KINDS[self.kind].r_max(self):
            if not self.n_grid:
                raise ConfigError("n_grid must not be empty")
            # a trace is keyed by n, so a repeated n would read its traces twice
            if len(set(self.n_grid)) != len(self.n_grid):
                raise ConfigError(f"n_grid entries must be distinct, got {self.n_grid}")
            for n in self.n_grid:
                if not 2 <= n < KEY_LIMIT:
                    raise ConfigError(f"n_grid entries must be >= 2 and, as a stream "
                                      f"index holds n in 32 bits, below 2**32; got {n}")
                # a trace of n types has no last-but-m point for m >= n
                if self.m >= n:
                    raise ConfigError(f"need m < n, got m={self.m} at n={n}")
        # the limit laws divide by (r-1)! or (c-1)!, a float only up to 170!
        for name in ("r", "c"):
            if not 1 <= getattr(self, name) <= 171:
                raise ConfigError(f"need 1 <= {name} <= 171, got {getattr(self, name)}")
        if self.m < 0:
            raise ConfigError(f"need m >= 0, got {self.m}")
        if not 0 <= self.master_seed < SEED_LIMIT:
            raise ConfigError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if not 1 <= self.replications <= KEY_LIMIT:
            raise ConfigError(f"need 1 <= replications <= 2**32, as a stream index holds "
                              f"j in 32 bits; got {self.replications}")
        if not 0.0 < self.significance < 1.0:
            raise ConfigError(f"significance must lie in (0, 1), got {self.significance}")
        if not self.intervals:
            raise ConfigError("intervals must not be empty")
        if not self.thresholds:
            raise ConfigError("thresholds must not be empty")
        for a, b in self.intervals:
            if not a <= b:
                raise ConfigError(f"interval [{a}, {b}] is empty")
        if not all(math.isfinite(x) for x in self.thresholds):
            raise ConfigError(f"thresholds must be finite, got {self.thresholds}")
        # compared, not subtracted: the difference of -1e308 and 1e308 overflows
        if list(self.thresholds) != sorted(self.thresholds):
            raise ConfigError("thresholds must be sorted ascending")
        for what, a, b, *_ in KINDS[self.kind].windows(self):
            try:
                mass = intensity_mass(self.r, a, b)
            except OverflowError:  # exp(-a) is beyond the float range
                mass = math.inf
            # the Poisson mean its total count is tested against, checked before sampling
            if not 0.0 < mass * self.replications < math.inf:
                raise ConfigError(f"{what} [{a}, {b}] has limit mass {mass}, which must be "
                                  f"positive, and finite times the {self.replications} "
                                  "replications")

    def to_dict(self) -> dict:
        # the fields as JSON values: its lists copied, an interval a list
        return {**vars(self), "n_grid": list(self.n_grid), "thresholds": list(self.thresholds),
                "intervals": [[a, b] for a, b in self.intervals]}


def check_report(d) -> dict:
    """Return ``d`` if it is a report as :func:`run_experiments` builds it,
    else raise ConfigError: its keys, rows, config and series items of the
    right types, its verdicts true or false, and ``passed`` their conjunction."""
    check_fields(d, REPORT_TYPES, "report")
    check_fields(d["config"], CONFIG_TYPES, "report config")
    for row in d["results"]:
        check_fields(row, ROW_TYPES, "report row")
    if "mean_count_series" in d["summaries"]:
        series = d["summaries"]["mean_count_series"]
        if not isinstance(series, list):
            raise ConfigError("report mean_count_series is not a JSON list")
        for item in series:
            check_fields(item, SERIES_TYPES, "report series item")
    # every kind records a verdict, and the conjunction of none would pass
    if not d["verdicts"] or not all(type(v) is bool for v in d["verdicts"].values()):
        raise ConfigError("report verdicts are empty or not all true or false")
    if d["passed"] != all(d["verdicts"].values()):
        raise ConfigError("report passed disagrees with its verdicts")
    return d


def check_battery(d) -> list[dict]:
    """The experiment reports of a battery report, each checked like a single one."""
    check_fields(d, BATTERY_TYPES, "battery report")
    if not d["experiments"]:
        raise ConfigError("battery report has no experiments")
    reports = [check_report(e) for e in d["experiments"]]
    if d["passed"] != all(report["passed"] for report in reports):
        raise ConfigError("battery passed disagrees with its experiments")
    return reports


# ---------------------------------------------------------------------------
# experiment kinds: the payloads each reads from a block of traces, and their aggregation

class _Checks:
    """The rows, summaries and verdicts of one experiment, as its aggregation
    records them.  A row with a ``key`` records its verdict under that key; a
    row without one is informative, and its verdict is True."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg, self.rows, self.summaries, self.verdicts = cfg, [], {}, {}

    def row(self, n, name, value, sample_size, verdict=True, key=None, p_value=None) -> None:
        cfg = self.cfg
        self.rows.append({
            "experiment": cfg.kind,
            "n": n,
            "r": cfg.r,
            "c": cfg.c,
            "m": cfg.m,
            "statistic_name": name,
            "value": float(value),
            "p_value": None if p_value is None else float(p_value),
            "sample_size": int(sample_size),
            "verdict": bool(verdict),
        })
        if key is not None:
            self.verdicts[key] = bool(verdict)

    def test(self, n, name, res, key) -> None:
        """The row of a test result, which passes if its p-value is at least the significance."""
        self.row(n, name, res.statistic, res.sample_size,
                 res.p_value >= self.cfg.significance, key, res.p_value)


def _harmonic(n: int) -> float:
    """H_n, summed in order from 1/1 up: the float of a sequential sum on
    every Python, where since 3.12 the builtin ``sum`` of floats compensates."""
    return float(np.cumsum(1.0 / np.arange(1, n + 1))[-1])


def _ks_tolerance(r: int, m: int, label: str) -> float | None:
    """The frozen KS tolerance of the statistic of T_{r,m}, or None with a
    warning: a KS verdict without one has no bound to meet, so it fails."""
    tol = calibration.PARTIAL_COLLECTION_KS_TOL.get((r, m))
    if tol is None:
        print(f"warning: no calibrated KS tolerance for {label}; "
              "its KS verdicts fail as uncalibrated", file=sys.stderr)
    return tol


def _count_tests(out, n, counts) -> None:
    """Poisson-test column k of ``counts`` against the limit mass of the kind's
    k-th window, recording a row and a verdict per window."""
    cfg = out.cfg
    for (_, a, b, name, key), column in zip(KINDS[cfg.kind].windows(cfg), counts.T, strict=True):
        out.test(n, name, poisson_count_test(column, intensity_mass(cfg.r, a, b)), key.format(n=n))


class _SharedBlock(TraceBlock):
    """A block as the bank hands it to its readers: its traces, and the
    statistics that several kinds read from them, each computed once per r
    and then shared.  ``depth`` is one more than the largest m among the
    readers."""

    def __init__(self, n: int, r_max: int, keys: np.ndarray, depth: int) -> None:
        super().__init__(n, r_max, keys)
        self.depth = depth
        self._patterns: dict[int, np.ndarray] = {}
        self._largest: dict[int, np.ndarray] = {}

    def pattern(self, r: int) -> np.ndarray:
        """Per row, the normalized draws of every type's r-th arrival."""
        if r not in self._patterns:
            self._patterns[r] = Normalization(self.n, r).apply(self.arrivals[:, :, r - 1])
        return self._patterns[r]

    def largest(self, r: int) -> np.ndarray:
        """Per row, the ``depth`` largest r-th arrival draws, largest first."""
        if r not in self._largest:
            k = self.n - self.depth
            # the largest in one selection, then in order: a partition at each
            # of them is up to ten times slower
            largest = np.partition(self.arrivals[:, :, r - 1], k, axis=1)[:, k:]
            self._largest[r] = np.sort(largest, axis=1)[:, ::-1]
        return self._largest[r]


def _within(points, a, b):
    """Per row of ``points``, its points in the closed interval [a, b]; b may be +inf."""
    return np.count_nonzero((points >= a) & (points <= b), axis=1)


def _extract_marginal(block, cfg):
    return Normalization(block.n, cfg.r).apply(block.times[:, :, cfg.r - 1])


def _aggregate_marginal(out, per_n):
    for n, points in per_n.items():
        out.test(n, "ks_statistic", ks_test(points.ravel(), PoissonizedMarginal(n, out.cfg.r).cdf),
                 f"ks_pass_n{n}")


def _interval_windows(cfg):
    return [("interval", a, b, f"poisson_counts[{a},{b}]", f"counts_pass_n{{n}}_interval{k}")
            for k, (a, b) in enumerate(cfg.intervals)]


def _extract_counts(block, cfg):
    """Per row, the count in each interval, then the first (largest) point."""
    points = block.pattern(cfg.r)
    return np.column_stack([_within(points, a, b) for a, b in cfg.intervals]
                           + [points.max(axis=1)])


def _aggregate_counts(out, per_n):
    cfg = out.cfg
    first_point_ks = {}
    for n, payloads in per_n.items():
        _count_tests(out, n, payloads[:, :-1].astype(np.int64))
        first = payloads[:, -1]
        first_point_ks[n] = ks_statistic(first, GumbelType(cfg.r).cdf)
        out.row(n, "first_point_ks", first_point_ks[n], len(first))
    out.summaries["first_point_ks"] = {str(n): d for n, d in first_point_ks.items()}
    if len(cfg.n_grid) >= 2:
        lo, hi = min(cfg.n_grid), max(cfg.n_grid)
        out.verdicts["first_point_ks_decreases"] = first_point_ks[hi] < first_point_ks[lo]


def _extract_collection(block, cfg):
    """Per row, the normalized T_c, then T_1."""
    # T_c, the draws that c complete collections need, is the largest c-th arrival
    t_c = block.arrivals[:, :, cfg.c - 1].max(axis=1)
    return np.column_stack([Normalization(block.n, cfg.c).apply(t_c),
                            block.arrivals[:, :, 0].max(axis=1)])


def _aggregate_collection(out, per_n):
    cfg = out.cfg
    distances = {}
    tol = _ks_tolerance(cfg.c, 0, f"erdos-renyi c={cfg.c}")  # T_c is T_{c,0}
    for n, payloads in per_n.items():
        values, t1 = payloads.T
        dist = distances[n] = ks_statistic(values, GumbelType(cfg.c).cdf)
        out.row(n, "ks_statistic", dist, len(values), tol is not None and dist <= tol,
                f"ks_within_tolerance_n{n}")
        target = n * _harmonic(n)
        # one replication has no standard error, so it cannot meet the identity
        mean_ok = len(t1) >= 2 and (abs(float(t1.mean()) - target)
                                    <= 3 * float(t1.std(ddof=1)) / math.sqrt(len(t1)))
        out.row(n, "mean_T1_minus_nHn", float(t1.mean()) - target, len(t1), mean_ok,
                f"mean_identity_n{n}")
    out.summaries["ks_by_n"] = {str(n): d for n, d in distances.items()}
    grid = sorted(cfg.n_grid)
    if len(grid) >= 2:
        out.verdicts["ks_nonincreasing"] = all(distances[hi] <= distances[lo]
                                               for lo, hi in zip(grid, grid[1:]))


def _extract_lastbut(block, cfg):
    # for j = 0..m, the first draw at which all but j types have r arrivals
    return Normalization(block.n, cfg.r).apply(block.largest(cfg.r)[:, :cfg.m + 1])


def _aggregate_lastbut(out, per_n):
    for n, vectors in per_n.items():
        res = increment_test(vectors, out.cfg.r, out.cfg.m)
        out.test(n, "increment_ks", res, f"increments_pass_n{n}")
        max_corr = res.details.get("max_abs_increment_correlation")
        if max_corr is not None:
            out.row(n, "max_abs_increment_correlation", max_corr, len(vectors),
                    max_corr <= 3.0 / math.sqrt(len(vectors)), f"correlations_small_n{n}")


def _extract_partial(block, cfg):
    t_rm, n = block.largest(cfg.r)[:, cfg.m], block.n
    if cfg.r == 1:
        return math.log(2 * n) - t_rm / n
    return Normalization(n, cfg.r).apply(t_rm)


def _aggregate_partial(out, per_n):
    cfg = out.cfg
    tol = _ks_tolerance(cfg.r, cfg.m, f"chi2-law r={cfg.r}, m={cfg.m}")
    law = ChiSqLog(cfg.m) if cfg.r == 1 else LogGamma(cfg.r, cfg.m)
    for n, values in per_n.items():
        dist = ks_statistic(values, law.cdf)
        out.row(n, f"ks_vs_{law.name}", dist, len(values), tol is not None and dist <= tol,
                f"ks_within_tolerance_n{n}")


def _rare_windows(cfg):
    xs = cfg.thresholds
    tails = [("threshold window", x, math.inf, f"rare_counts[x={x}]", f"rare_pass_n{{n}}_x{k}")
             for k, x in enumerate(xs)]
    return tails + [("increment window", a, b, f"rare_increment[{a},{b})",
                     f"rare_increment_pass_n{{n}}_pair{k}")
                    for k, (a, b) in enumerate(zip(xs, xs[1:]))]


def _extract_rare(block, cfg):
    points = block.pattern(cfg.r)
    tails = np.column_stack([np.count_nonzero(points >= x, axis=1) for x in cfg.thresholds])
    # the points in [x, y): those of the tail from x less those of the tail from y
    return np.hstack([tails, tails[:, :-1] - tails[:, 1:]])


def _aggregate_rare(out, per_n):
    series = out.summaries["mean_count_series"] = []
    for n, counts in per_n.items():
        _count_tests(out, n, counts)
        series += [{"n": n, "x": float(x), "mean_count": float(counts[:, k].mean())}
                   for k, x in enumerate(out.cfg.thresholds)]


def _extract_mismatch(block, cfg):
    """Per row, 1 if its discrete and poissonized normalized patterns hold
    different numbers of points in the first interval, else 0."""
    a, b = cfg.intervals[0]
    poissonized = _extract_marginal(block, cfg)
    return (_within(block.pattern(cfg.r), a, b) != _within(poissonized, a, b)).astype(np.int64)


def _aggregate_mismatch(out, per_n):
    cfg = out.cfg
    freqs = {}
    for n, payloads in per_n.items():
        freqs[n] = freq = float(np.mean(payloads))
        out.row(n, "mismatch_frequency", freq, len(payloads))
    out.summaries["mismatch_by_n"] = {str(n): f for n, f in freqs.items()}
    grid = sorted(cfg.n_grid)
    # a step along the grid may rise by two binomial standard errors at most
    slack = {n: 2.0 * math.sqrt(max(f * (1 - f), 1e-12) / cfg.replications)
             for n, f in freqs.items()}
    if len(grid) >= 2:
        out.verdicts["mismatch_nonincreasing"] = all(freqs[hi] <= freqs[lo] + slack[lo]
                                                     for lo, hi in zip(grid, grid[1:]))
    out.verdicts["largest_n_below_bound"] = (freqs[max(grid)]
                                             <= calibration.COUPLING_MISMATCH_BOUND_N1E4)


def _extract_null_p_values(block, cfg):
    """Per row, the KS p-value of 1000 sums of m+1 standard exponentials,
    the first draws of its stream, against their law under h.  The rows are
    drawn and tested a few at a time, as many as a block of 1000 types and
    m+1 arrivals holds: a whole block of 200 rows at once raised a process's
    peak resident memory by 7 MB."""
    law, rows = LogGamma(cfg.r, cfg.m), block_size(1000, cfg.m + 1)
    p_values = []
    for start in range(0, len(block.keys), rows):
        keys = block.keys[start:start + rows]
        draws = np.empty((len(keys), 1000, cfg.m + 1))
        row_sampler().exponentials(keys, draws)
        samples = h_transform(draws.sum(axis=2), cfg.r)
        p_values.append(ks_p_value(ks_statistic(samples, law.cdf), 1000))
    return np.concatenate(p_values)


def _aggregate_null(out, per_n):
    p_values = per_n[0]
    frac = float(np.mean(p_values < 0.05))
    out.row(0, "fraction_p_below_0.05", frac, len(p_values), abs(frac - 0.05) <= 0.05,
            "p_fraction_calibrated")
    out.row(0, "p_value_uniformity_ks", ks_statistic(p_values, lambda u: np.clip(u, 0.0, 1.0)),
            len(p_values))
    out.summaries["p_values"] = [float(p) for p in p_values]


@dataclass(frozen=True)
class Kind:
    """One experiment kind.

    ``r_max(cfg)`` is the number of arrivals per type its traces must track, 0
    for a kind that samples no trace.  ``extract(block, cfg)`` reads the
    payloads of a :class:`_SharedBlock` the bank samples as one array whose
    first axis is the block's rows, by array passes along the row axis; a
    payload of several fields is a row of columns.  It reads the statistics
    that several kinds share, the normalized pattern and the largest r-th
    arrival draws, from the block's ``pattern`` and ``largest``.  A block
    samples only what is read: a kind that reads only ``times`` costs no jump
    chain, and one of r_max 0 reads only ``block.keys``.  Row i is the
    bytes of the trace of ``block.keys[i]`` alone, so a payload does not depend
    on the block it was read from.  ``aggregate(out, per_n)`` reads the
    payload array at each n, one row per replication, and records its rows,
    summaries and verdicts in ``out``, the :class:`_Checks` of the config
    ``out.cfg``: a row per statistic, with its verdict under a key unless it is
    informative, and a verdict with no row by its key alone.  ``battery``
    holds the config fields of the kind's experiments in the standard suite,
    replications at scale 1.  ``windows(cfg)`` lists the windows whose counts
    a counting kind Poisson-tests against their limit mass, as ``(what, a, b,
    row name, verdict key)``: ``what`` names the window in errors and the key
    is a format string of ``n``.  Column k of its count payload is the count
    in window k.
    """

    description: str
    r_max: Callable[[ExperimentConfig], int]
    extract: Callable
    aggregate: Callable
    battery: tuple[dict, ...]
    windows: Callable[[ExperimentConfig], list[tuple]] = lambda cfg: []


_r, _c = attrgetter("r"), attrgetter("c")

KINDS = {
    "poissonized-marginal": Kind(
        "exact finite-n law of the normalized poissonized arrival times",
        _r, _extract_marginal, _aggregate_marginal,
        tuple(dict(n_grid=[100], r=r, replications=100) for r in (1, 2, 3))),
    "theorem1-counts": Kind(
        "Poisson limit of interval counts of the normalized arrival pattern",
        _r, _extract_counts, _aggregate_counts,
        tuple(dict(n_grid=[100, 10000], r=r,
                   intervals=[(0.0, math.inf), (-1.0, 0.0), (0.0, 1.0)],
                   replications=2000) for r in (1, 2)),
        _interval_windows),
    "erdos-renyi": Kind(
        "Gumbel-type limit and exact mean identity for full-collection times",
        _c, _extract_collection, _aggregate_collection,
        tuple(dict(n_grid=[100, 1000, 10000], c=c, replications=2000) for c in (1, 2))),
    "partial-collection": Kind(
        "i.i.d. exponential increments of the last-but-j projections",
        _r, _extract_lastbut, _aggregate_lastbut,
        (dict(n_grid=[10000], r=1, m=2, replications=2000),)),
    "chi2-law": Kind(
        "chi-square-log / log-gamma limits for partial-collection times",
        _r, _extract_partial, _aggregate_partial,
        tuple(dict(n_grid=[10000], r=r, m=m, replications=2000)
              for r, m in ((1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (3, 2)))),
    "rare-path": Kind(
        "Poisson process limit of the rare-type counting path",
        _r, _extract_rare, _aggregate_rare,
        tuple(dict(n_grid=[10000], r=r, thresholds=[-1.0, 0.0, 1.0, 2.0],
                   replications=2000) for r in (1, 2)),
        _rare_windows),
    "coupling-decay": Kind(
        "vanishing mismatch between discrete and poissonized patterns",
        _r, _extract_mismatch, _aggregate_mismatch,
        (dict(n_grid=[100, 1000, 10000], r=1, intervals=[(-2.0, 2.0)],
              replications=2000),)),
    "limit-consistency": Kind(
        "null calibration of the battery against its own limit laws",
        lambda cfg: 0, _extract_null_p_values, _aggregate_null,
        (dict(r=1, m=0, replications=200),)),
}


# ---------------------------------------------------------------------------
# the trace bank

def replication_keys(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """The Philox keys of replications ``start..stop-1`` of ``(seed, n)``:
    replication j reads the stream of ``seed`` whose index holds n in its
    high 32 bits and j in its low 32."""
    return stream_keys(seed, np.uint64(n << 32) | np.arange(start, stop, dtype=np.uint64))


def _bank_block(configs, task):
    """One block of traces: per config reading it, the payload of each trace,
    then the draws of the jump chains (0 unless a reader derived them)."""
    n, keys, r_max, readers = task
    block = _SharedBlock(n, r_max, keys, max(configs[k].m for k in readers) + 1)
    payloads = [KINDS[configs[k].kind].extract(block, configs[k]) for k in readers]
    return payloads, block.derived_draws()


def _drain(configs, tasks, counter, check) -> dict:
    """Claim the next task index from the shared ``counter`` and run its block
    until the tasks run out; returns ``{index: outcome}`` of the blocks run.
    ``check`` runs before each claim and each second spent waiting for the
    counter, since a process killed while holding its lock never releases it."""
    outcomes = {}
    lock = counter.get_lock()
    while True:
        check()
        while not lock.acquire(timeout=1.0):
            check()
        try:
            index = counter.value
            counter.value = index + 1
        finally:
            lock.release()
        if index >= len(tasks):
            return outcomes
        outcomes[index] = _bank_block(configs, tasks[index])


def _helper(configs, tasks, counter, send, parent, inherited) -> None:
    """A forked helper's work: drain the tasks, then send its outcomes, or the
    exception that stopped it, once, at the end.  An exception that does not
    survive pickling is sent as a RuntimeError with its repr.  It ends at once
    when its ``parent`` does: it closes the receiving ends it ``inherited``,
    so a send to a dead parent fails, and checks its parent before each claim."""
    for receive in inherited:
        receive.close()

    def check():
        if os.getppid() != parent:
            os._exit(1)

    try:
        result = _drain(configs, tasks, counter, check)
    except BaseException as exc:  # everything goes to the parent, which re-raises it
        result = exc
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            result = RuntimeError(f"a sampling helper raised {exc!r}")
    try:
        send.send(result)
    except BrokenPipeError:  # the parent is gone
        os._exit(1)


def _sample_forked(configs, tasks, processes: int) -> list:
    """The outcome of each task, in task order, sampled on this process and
    ``processes - 1`` forked helpers that claim blocks from one counter.

    A helper's exception is raised here; a helper that ends without sending
    raises ChildProcessError.  On any exception here the helpers are ended,
    since one may wait on a counter or a pipe that nobody serves any more;
    every helper has been joined when this returns or raises."""
    context = multiprocessing.get_context("fork")
    counter = context.Value("q", 0)
    row_sampler()  # chosen here, so that no helper builds it again
    helpers = {}  # the receiving end of each helper's pipe: the helper

    def ended(helper):
        helper.join()
        return ChildProcessError(f"a sampling helper ended with exit code "
                                 f"{helper.exitcode} before sending its blocks")

    def check():
        for helper in helpers.values():
            if helper.exitcode:
                raise ended(helper)

    try:
        for _ in range(processes - 1):
            receive, send = context.Pipe(duplex=False)
            helper = context.Process(target=_helper, args=(configs, tasks, counter, send,
                                                           os.getpid(), [*helpers, receive]))
            helper.start()
            send.close()
            helpers[receive] = helper
        outcomes = _drain(configs, tasks, counter, check)
        pending = list(helpers)
        while pending:  # in the order they send: a dead helper's pipe reads EOF
            for receive in wait(pending):
                pending.remove(receive)
                try:
                    result = receive.recv()
                except EOFError:
                    raise ended(helpers[receive]) from None
                if isinstance(result, BaseException):
                    raise result
                outcomes.update(result)
    except BaseException:
        for helper in helpers.values():
            helper.terminate()
        raise
    finally:
        for receive, helper in helpers.items():
            receive.close()
            helper.join()
    return [outcomes[index] for index in range(len(tasks))]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


# The cost model of a bank: a trace of n * r_max tracked arrivals costs
# about what sampling n * r_max + _TRACE_COST arrivals would, whether or not
# a reader derives its jump chain, and a bank of total cost at most
# _POOL_MIN_COST runs faster serially than with forked helpers.  Measured on
# 2 vCPUs, with extraction from whole blocks: in a serial bank on numpy's
# row sampler a trace costs about 25 us plus 0.12-0.14 us per tracked
# arrival, so its fixed part is nearer 200 arrivals than 300.  On the
# compiled row sampler, with its one-pass jump chain, an erdos-renyi trace
# costs at most about 3 us plus 0.06-0.08 us per arrival (medians of 9 banks
# of 1000 traces at n = 100 and 1000, over 3 runs), a fixed part below 40
# arrivals.  _TRACE_COST stays 300 so that every bank keeps the process
# count it was measured at.  Forking a helper, reading its pipe and joining it
# costs about 5 ms, against about 11 ms to start, map and exit a 2-process
# pool, which broke even near cost 600000, then about 50-75 ms of serial
# work (36-48 ms at the per-arrival cost above).  The cheaper start did not move the
# threshold: right after a fork both processes run slower, copying the pages
# they write, so an n = 100 erdos-renyi bank of 1000 replications (cost
# 400000) took a median 41 ms and 36 minor faults serially, but 58 ms on the
# parent and one helper, each taking over 1000 faults.
_TRACE_COST = 300
_POOL_MIN_COST = 600_000


def _processes(workers: int, traces: int, cost: int) -> int:
    """The processes a bank of ``traces`` traces and ``cost`` samples on: 1,
    which means serially with no helper, if its cost is at most
    ``_POOL_MIN_COST`` or this platform cannot fork; else at most
    ``workers``, and no more than the traces or the usable CPUs."""
    if cost <= _POOL_MIN_COST or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(workers, traces, _usable_cpus())


# The streams a bank's plan keys in one hash call: the hash's temporaries hold
# about six times the keys it makes.
_KEY_CHUNK = 1 << 16


def _plan(configs: list[ExperimentConfig], workers: int) -> tuple[list, int, int]:
    """The tasks of a bank of valid ``configs``, one per block, the number of
    traces they sample and the processes they sample on."""
    readers: dict[tuple[int, int], list[int]] = {}
    for k, cfg in enumerate(configs):
        for n in cfg.grid:
            readers.setdefault((cfg.master_seed, n), []).append(k)
    tasks, traces, cost = [], 0, 0
    for (seed, n), ks in readers.items():
        r_max = max(KINDS[configs[k].kind].r_max(configs[k]) for k in ks)
        size = block_size(n, r_max)
        stops = sorted({configs[k].replications for k in ks})
        # keyed before any block is sampled or helper forked: a block's keys
        # are a slice of its (seed, n)'s
        keys = np.empty((stops[-1], 2), dtype=np.uint64)
        for j in range(0, stops[-1], _KEY_CHUNK):
            keys[j:j + _KEY_CHUNK] = replication_keys(seed, n, j, min(j + _KEY_CHUNK, stops[-1]))
        start = 0
        # j in [start, stop) is read by the configs of at least stop replications
        for stop in stops:
            reading = [k for k in ks if configs[k].replications >= stop]
            tasks += [(n, keys[j:min(j + size, stop)], r_max, reading)
                      for j in range(start, stop, size)]
            start = stop
        traces += start
        cost += start * (n * r_max + _TRACE_COST)
    return tasks, traces, _processes(workers, traces, cost)


def run_bank(configs: list[ExperimentConfig], workers: int = 1) -> tuple:
    """Simulate each trace once and apply the extraction of every config that reads it.

    A trace is identified by ``(master_seed, n, j)`` alone: it is replication
    j of ``(master_seed, n)``, keyed by :func:`replication_keys` and
    tracking r_max arrivals per type, where r_max is the largest that any
    config reading that ``(master_seed, n)`` needs (0 for limit-consistency,
    at n = 0).  Each config reading a trace gets the one trace, which
    samples only what they read, in the same bytes in any order.  A config
    reads the traces with its seed, an n in its grid and a j below its
    replication count, so a config whose r_max is the bank's at each of its
    ``(seed, n)`` sees the payloads it would alone.

    The unit of work is a block: consecutive j of one ``(seed, n)`` that the
    same configs read, at most :func:`~dixiecup.discrete.block_size` of them,
    sampled as one :class:`~dixiecup.discrete.TraceBlock` whose rows are the
    traces, to the byte.  Each reading config extracts the payloads of all
    its rows in one call, as one array, by passes along the row axis, so a
    payload does not depend on the block size.  Blocks run serially, or, when
    the bank's cost earns the start-up, on this process and the helpers it
    forks, :func:`_processes` processes in all; the payloads do not depend
    on which.

    Returns ``(per_config, draws, traces, processes)``: one ``{n: payloads}``
    per config, its block arrays joined in j order, so that row j is the
    payload of replication j; the draws of the jump chains derived for the
    traces each config read; the number of traces simulated; and the
    processes sampled on (1 when serially), on which the rest do not depend.
    """
    if not configs:
        raise ConfigError("a bank needs at least one config")
    if workers < 1:
        raise ConfigError(f"need workers >= 1, got {workers}")
    for cfg in configs:
        cfg.validate()
    tasks, traces, processes = _plan(configs, workers)
    if processes > 1:
        outcomes = _sample_forked(configs, tasks, processes)
    else:
        outcomes = [_bank_block(configs, t) for t in tasks]

    parts = [{n: [] for n in cfg.grid} for cfg in configs]
    draws = [0] * len(configs)
    for (n, _, _, ks), (block_payloads, block_draws) in zip(tasks, outcomes):
        for k, payloads in zip(ks, block_payloads):
            parts[k][n].append(payloads)
            draws[k] += block_draws
    per_config = [{n: np.concatenate(blocks) for n, blocks in per_n.items()} for per_n in parts]
    return per_config, draws, traces, processes


def run_experiments(configs: list[ExperimentConfig], workers: int = 1) -> list[dict]:
    """Run the experiments on one trace bank, sampling on ``workers`` processes,
    and return the report of each, a dict of JSON values.

    The report numbers depend only on the configs, not on the worker count.
    """
    start = time.perf_counter()
    per_config, draws, traces, processes = run_bank(configs, workers)
    reports = []
    for cfg, per_n, total_draws in zip(configs, per_config, draws):
        kind, out = KINDS[cfg.kind], _Checks(cfg)
        kind.aggregate(out, per_n)
        reports.append({
            "config": cfg.to_dict(),
            "theorem": kind.description,
            "results": out.rows,
            "summaries": out.summaries,
            "verdicts": out.verdicts,
            "passed": all(out.verdicts.values()),
            "telemetry": {"total_draws": int(total_draws),
                          "replications": cfg.replications * len(cfg.grid)},
        })
    # wall-clock goes to stderr, not the reports, so reruns are byte-identical
    replications = sum(cfg.replications * len(cfg.grid) for cfg in configs)
    rows = row_sampler()
    print(f"{replications} replications from {traces} traces in "
          f"{time.perf_counter() - start:.2f}s (workers={processes}) (sampler={rows.name})"
          + (f" ({rows.why})" if rows.why else ""), file=sys.stderr, flush=True)
    return reports


# ---------------------------------------------------------------------------
# persistence

def write_json(data: dict, path: str) -> None:
    """Write a report, or a battery of them, in the one JSON report format."""
    # one write: json.dump would write each of its thousands of tokens alone
    with open(path, "w") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def write_csv(reports: list[dict], path: str, source: str | None = None) -> None:
    """Write the result rows of ``reports`` as flat CSV, a missing p-value as
    the empty cell csv makes of None, and beside them the mean-count series of
    a lone report.  Raises ConfigError, before it writes anything, if a file
    it would write is the file ``source``, which the reports were read from."""
    series = reports[0]["summaries"].get("mean_count_series") if len(reports) == 1 else None
    sidecar = os.path.splitext(path)[0] + ".series.csv"
    for out in [path, sidecar] if series else [path]:
        if source is not None and os.path.exists(out) and os.path.samefile(out, source):
            raise ConfigError(f"cannot write {out!r}: it is the input {source!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for report in reports:
            writer.writerows(report["results"])
    if series:
        with open(sidecar, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(SERIES_TYPES))
            writer.writeheader()
            writer.writerows(series)
