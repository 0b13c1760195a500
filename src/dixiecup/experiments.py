"""Declarative experiment orchestration and report persistence.

Each experiment kind exercises one limit statement and is one entry of
:data:`KINDS`: what it verifies, how many arrivals per type its traces track,
what it extracts from one trace, and how it aggregates those payloads into
rows, summaries and verdicts.  :func:`run_bank` simulates each trace once and
hands it to the extraction of every config that reads it.  A trace is keyed by
``(master_seed, n, j)`` alone: replication ``j`` at ``n`` reads stream
``(n << 32) | j`` of its seed, with the largest r_max any config reading that
``(master_seed, n)`` needs, so configs sharing a seed share their traces and
the numbers are independent of the worker count.  :func:`run_experiments` runs
any list of configs on one bank, and ``verify`` and ``battery`` both use it.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import partial
from multiprocessing import Pool
from operator import attrgetter

import numpy as np

from . import calibration
from .discrete import _poissonized_times, collection_time, partial_collection_time
from .gof import increment_test, ks_statistic, ks_test, poisson_count_test
from .limitlaws import (
    ChiSqLog,
    GumbelType,
    LogGamma,
    PoissonizedMarginal,
    intensity_mass,
)
from .pointprocess import Normalization, normalize
from .poissonized import count_mismatch, run_coupled
from .samplers import SeedSpec

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "KINDS",
    "run_bank",
    "run_experiments",
    "emit_report",
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
                if n < 2:
                    raise ConfigError(f"n_grid entries must be >= 2, got {n}")
        if self.r < 1:
            raise ConfigError(f"need r >= 1, got {self.r}")
        if self.c < 1:
            raise ConfigError(f"need c >= 1, got {self.c}")
        if self.m < 0:
            raise ConfigError(f"need m >= 0, got {self.m}")
        if self.replications < 1:
            raise ConfigError(f"need replications >= 1, got {self.replications}")
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
        if any(np.diff(self.thresholds) < 0):
            raise ConfigError("thresholds must be sorted ascending")
        for what, a, b in self._count_windows():
            try:
                mass = intensity_mass(self.r, a, b)
            except OverflowError:  # exp(-a) is beyond the float range
                mass = math.inf
            # the Poisson mean its counts are tested against, checked before sampling
            if not 0.0 < mass < math.inf:
                raise ConfigError(f"{what} [{a}, {b}] has limit mass {mass}, "
                                  "which must be finite and positive")

    def _count_windows(self) -> list[tuple[str, float, float]]:
        """The windows whose limit mass a counting kind tests its counts against."""
        if self.kind == "theorem1-counts":
            return [("interval", a, b) for a, b in self.intervals]
        if self.kind == "rare-path":
            xs = self.thresholds
            return ([("threshold window", x, math.inf) for x in xs]
                    + [("increment window", a, b) for a, b in zip(xs, xs[1:])])
        return []

    def to_dict(self) -> dict:
        d = asdict(self)
        d["intervals"] = [[a, b] for a, b in self.intervals]
        return d


@dataclass
class ExperimentReport:
    config: dict
    theorem: str
    results: list[dict]
    summaries: dict
    verdicts: dict
    passed: bool
    telemetry: dict

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
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
        if not all(type(v) is bool for v in d["verdicts"].values()):
            raise ConfigError("report verdicts are not all true or false")
        if d["passed"] != all(d["verdicts"].values()):
            raise ConfigError("report passed disagrees with its verdicts")
        return cls(**d)


def battery_from_dict(d: dict) -> list[ExperimentReport]:
    """The experiment reports of a battery report, checked like single ones."""
    check_fields(d, BATTERY_TYPES, "battery report")
    reports = [ExperimentReport.from_dict(e) for e in d["experiments"]]
    if d["passed"] != all(rep.passed for rep in reports):
        raise ConfigError("battery passed disagrees with its experiments")
    return reports


# ---------------------------------------------------------------------------
# experiment kinds: the payload each reads from one trace, and its aggregation

def _row(cfg, n, name, value, p_value, sample_size, verdict):
    return {
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
    }


def _harmonic(n: int) -> float:
    return float(sum(1.0 / k for k in range(1, n + 1)))


def _warn_uncalibrated(label: str) -> None:
    # a KS verdict without a frozen tolerance has no bound to meet, so it fails
    print(f"warning: no calibrated KS tolerance for {label}; "
          "its KS verdicts fail as uncalibrated", file=sys.stderr)


def _extract_marginal(times, cfg, n):
    return Normalization(n, cfg.r).apply(times[:, cfg.r - 1])


def _aggregate_marginal(cfg, per_n):
    rows, verdicts = [], {}
    for n, payloads in per_n.items():
        res = ks_test(np.concatenate(payloads), PoissonizedMarginal(n, cfg.r).cdf)
        ok = res.p_value >= cfg.significance
        rows.append(_row(cfg, n, "ks_statistic", res.statistic, res.p_value,
                         res.sample_size, ok))
        verdicts[f"ks_pass_n{n}"] = ok
    return rows, {}, verdicts


def _extract_counts(trace, cfg, n):
    pattern = normalize(trace.arrival_column(cfg.r), Normalization(n, cfg.r))
    return [pattern.count(a, b) for a, b in cfg.intervals], float(pattern.points[-1])


def _aggregate_counts(cfg, per_n):
    rows, verdicts = [], {}
    first_point_ks = {}
    for n, payloads in per_n.items():
        counts = np.array([p[0] for p in payloads], dtype=np.int64)
        for k, (a, b) in enumerate(cfg.intervals):
            mean = intensity_mass(cfg.r, a, b)
            res = poisson_count_test(counts[:, k], mean)
            ok = res.p_value >= cfg.significance
            name = f"poisson_counts[{a},{b}]"
            rows.append(_row(cfg, n, name, res.statistic, res.p_value,
                             res.sample_size, ok))
            verdicts[f"counts_pass_n{n}_interval{k}"] = ok
        first = np.array([p[1] for p in payloads])
        dist = ks_statistic(first, GumbelType(cfg.r).cdf)
        first_point_ks[n] = dist
        rows.append(_row(cfg, n, "first_point_ks", dist, None, len(first), True))
    summaries = {"first_point_ks": {str(n): d for n, d in first_point_ks.items()}}
    if len(cfg.n_grid) >= 2:
        lo, hi = min(cfg.n_grid), max(cfg.n_grid)
        verdicts["first_point_ks_decreases"] = first_point_ks[hi] < first_point_ks[lo]
    return rows, summaries, verdicts


def _extract_collection(trace, cfg, n):
    value = float(Normalization(n, cfg.c).apply(collection_time(trace, cfg.c)))
    return value, collection_time(trace, 1)


def _aggregate_collection(cfg, per_n):
    rows, verdicts = [], {}
    distances = {}
    tol = calibration.ERDOS_RENYI_KS_TOL.get(cfg.c)
    if tol is None:
        _warn_uncalibrated(f"erdos-renyi c={cfg.c}")
    for n, payloads in per_n.items():
        values = np.array([p[0] for p in payloads])
        t1 = np.array([p[1] for p in payloads], dtype=np.float64)
        dist = ks_statistic(values, GumbelType(cfg.c).cdf)
        distances[n] = dist
        ok = tol is not None and dist <= tol
        rows.append(_row(cfg, n, "ks_statistic", dist, None, len(values), ok))
        verdicts[f"ks_within_tolerance_n{n}"] = ok
        target = n * _harmonic(n)
        stderr = float(t1.std(ddof=1)) / math.sqrt(len(t1))
        mean_ok = abs(float(t1.mean()) - target) <= 3 * stderr
        rows.append(_row(cfg, n, "mean_T1_minus_nHn",
                         float(t1.mean()) - target, None, len(t1), mean_ok))
        verdicts[f"mean_identity_n{n}"] = mean_ok
    summaries = {"ks_by_n": {str(n): d for n, d in distances.items()}}
    grid = sorted(cfg.n_grid)
    if len(grid) >= 2:
        verdicts["ks_nonincreasing"] = all(distances[grid[i + 1]] <= distances[grid[i]]
                                           for i in range(len(grid) - 1))
    return rows, summaries, verdicts


def _extract_lastbut(trace, cfg, n):
    norm = Normalization(n, cfg.r)
    return [float(norm.apply(partial_collection_time(trace, cfg.r, j)))
            for j in range(cfg.m + 1)]


def _aggregate_lastbut(cfg, per_n):
    rows, verdicts = [], {}
    for n, payloads in per_n.items():
        vectors = np.array(payloads)
        res = increment_test(vectors, cfg.r, cfg.m)
        ok = res.p_value >= cfg.significance
        rows.append(_row(cfg, n, "increment_ks", res.statistic, res.p_value,
                         res.sample_size, ok))
        verdicts[f"increments_pass_n{n}"] = ok
        max_corr = res.details.get("max_abs_increment_correlation")
        if max_corr is not None:
            corr_ok = max_corr <= 3.0 / math.sqrt(len(vectors))
            rows.append(_row(cfg, n, "max_abs_increment_correlation",
                             max_corr, None, len(vectors), corr_ok))
            verdicts[f"correlations_small_n{n}"] = corr_ok
    return rows, {}, verdicts


def _extract_partial(trace, cfg, n):
    t_rm = partial_collection_time(trace, cfg.r, cfg.m)
    if cfg.r == 1:
        return math.log(2 * n) - t_rm / n
    return float(Normalization(n, cfg.r).apply(t_rm))


def _aggregate_partial(cfg, per_n):
    rows, verdicts = [], {}
    tol = calibration.PARTIAL_COLLECTION_KS_TOL.get((cfg.r, cfg.m))
    if tol is None:
        _warn_uncalibrated(f"chi2-law r={cfg.r}, m={cfg.m}")
    law = ChiSqLog(cfg.m) if cfg.r == 1 else LogGamma(cfg.r, cfg.m)
    for n, payloads in per_n.items():
        values = np.array(payloads)
        dist = ks_statistic(values, law.cdf)
        ok = tol is not None and dist <= tol
        rows.append(_row(cfg, n, f"ks_vs_{law.name}", dist, None, len(values), ok))
        verdicts[f"ks_within_tolerance_n{n}"] = ok
    return rows, {}, verdicts


def _extract_rare(trace, cfg, n):
    pattern = normalize(trace.arrival_column(cfg.r), Normalization(n, cfg.r))
    return [pattern.count_from(x) for x in cfg.thresholds]


def _aggregate_rare(cfg, per_n):
    rows, verdicts = [], {}
    mean_series = []
    for n, payloads in per_n.items():
        counts = np.array(payloads, dtype=np.int64)
        for k, x in enumerate(cfg.thresholds):
            mean = intensity_mass(cfg.r, x, math.inf)
            res = poisson_count_test(counts[:, k], mean)
            ok = res.p_value >= cfg.significance
            rows.append(_row(cfg, n, f"rare_counts[x={x}]", res.statistic,
                             res.p_value, res.sample_size, ok))
            verdicts[f"rare_pass_n{n}_x{k}"] = ok
            mean_series.append((n, float(x), float(counts[:, k].mean())))
        for k in range(len(cfg.thresholds) - 1):
            x1, x2 = cfg.thresholds[k], cfg.thresholds[k + 1]
            incr = counts[:, k] - counts[:, k + 1]
            mean = intensity_mass(cfg.r, x1, x2)
            res = poisson_count_test(incr, mean)
            ok = res.p_value >= cfg.significance
            rows.append(_row(cfg, n, f"rare_increment[{x1},{x2})", res.statistic,
                             res.p_value, res.sample_size, ok))
            verdicts[f"rare_increment_pass_n{n}_pair{k}"] = ok
    summaries = {"mean_count_series": [
        {"n": n, "x": x, "mean_count": mc} for n, x, mc in mean_series
    ]}
    return rows, summaries, verdicts


def _extract_mismatch(trace, cfg, n):
    a, b = cfg.intervals[0]
    return int(count_mismatch(trace, cfg.r, a, b))


def _aggregate_mismatch(cfg, per_n):
    rows, verdicts = [], {}
    freqs = {}
    for n, payloads in per_n.items():
        freq = float(np.mean(payloads))
        freqs[n] = freq
        rows.append(_row(cfg, n, "mismatch_frequency", freq, None,
                         len(payloads), True))
    summaries = {"mismatch_by_n": {str(n): f for n, f in freqs.items()}}
    grid = sorted(cfg.n_grid)
    mono = True
    for i in range(len(grid) - 1):
        f_lo, f_hi = freqs[grid[i]], freqs[grid[i + 1]]
        slack = 2.0 * math.sqrt(max(f_lo * (1 - f_lo), 1e-12) / cfg.replications)
        if f_hi > f_lo + slack:
            mono = False
    if len(grid) >= 2:
        verdicts["mismatch_nonincreasing"] = mono
    bound_ok = freqs[max(grid)] <= calibration.COUPLING_MISMATCH_BOUND_N1E4
    verdicts["largest_n_below_bound"] = bound_ok
    return rows, summaries, verdicts


def _extract_null_p_value(stream, cfg, n):
    sums = stream.generator().exponential(1.0, (1000, cfg.m + 1)).sum(axis=1)
    return ks_test(-math.lgamma(cfg.r) - np.log(sums), LogGamma(cfg.r, cfg.m).cdf).p_value


def _aggregate_null(cfg, per_n):
    p_values = np.array(per_n[0])
    frac = float(np.mean(p_values < 0.05))
    frac_ok = abs(frac - 0.05) <= 0.05
    unif = ks_statistic(p_values, lambda u: np.clip(u, 0.0, 1.0))
    rows = [
        _row(cfg, 0, "fraction_p_below_0.05", frac, None, len(p_values), frac_ok),
        _row(cfg, 0, "p_value_uniformity_ks", unif, None, len(p_values), True),
    ]
    summaries = {"p_values": [float(p) for p in p_values]}
    return rows, summaries, {"p_fraction_calibrated": frac_ok}


@dataclass(frozen=True)
class Kind:
    """One experiment kind.

    ``r_max(cfg)`` is the number of arrivals per type its traces must track, 0
    for a kind that samples no trace.  ``reads_chain`` says whether the kind
    reads the jump chain, the draw numbers of the discrete scheme.
    ``extract(source, cfg, n)`` reads one replication's payload from its
    source: the :class:`~dixiecup.poissonized.CoupledTrace` when the kind
    reads the jump chain, else the ``(n, r_max)`` array of poissonized arrival
    times, or the :class:`SeedSpec` when r_max is 0.  ``aggregate(cfg, per_n)``
    turns the payloads at each n into ``(rows, summaries, verdicts)``.
    ``battery`` holds the config fields of the kind's experiments in the
    standard suite, replications at scale 1.
    """

    description: str
    r_max: Callable[[ExperimentConfig], int]
    extract: Callable
    aggregate: Callable
    battery: tuple[dict, ...]
    reads_chain: bool = True


_r, _c = attrgetter("r"), attrgetter("c")

KINDS = {
    "poissonized-marginal": Kind(
        "exact finite-n law of the normalized poissonized arrival times",
        _r, _extract_marginal, _aggregate_marginal,
        tuple(dict(n_grid=[100], r=r, replications=100) for r in (1, 2, 3)),
        reads_chain=False),
    "theorem1-counts": Kind(
        "Poisson limit of interval counts of the normalized arrival pattern",
        _r, _extract_counts, _aggregate_counts,
        tuple(dict(n_grid=[100, 10000], r=r,
                   intervals=[(0.0, math.inf), (-1.0, 0.0), (0.0, 1.0)],
                   replications=2000) for r in (1, 2))),
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
                   replications=2000) for r in (1, 2))),
    "coupling-decay": Kind(
        "vanishing mismatch between discrete and poissonized patterns",
        _r, _extract_mismatch, _aggregate_mismatch,
        (dict(n_grid=[100, 1000, 10000], r=1, intervals=[(-2.0, 2.0)],
              replications=2000),)),
    "limit-consistency": Kind(
        "null calibration of the battery against its own limit laws",
        lambda cfg: 0, _extract_null_p_value, _aggregate_null,
        (dict(r=1, m=0, replications=200),), reads_chain=False),
}


# ---------------------------------------------------------------------------
# the trace bank

def _bank_row(configs, task):
    """One trace: the draws of its jump chain and the payload of each config reading it.

    The jump chain is sampled only when a reader at the trace's ``(seed, n)``
    needs it; otherwise the trace is its poissonized times alone (or the bare
    stream when r_max is 0), and it counts no draws.  The times are the
    stream's first draws, so they are the same either way.
    """
    seed, n, j, r_max, chain, readers = task
    stream = SeedSpec(seed, (n << 32) | j)
    kinds = [(KINDS[configs[k].kind], configs[k]) for k in readers]
    if chain:
        trace = run_coupled(n, r_max, stream)
        return trace.total_draws, [
            kind.extract(trace if kind.reads_chain else trace.times, cfg, n) for kind, cfg in kinds]
    source = _poissonized_times(stream.generator(), n, r_max) if r_max else stream
    return 0, [kind.extract(source, cfg, n) for kind, cfg in kinds]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def run_bank(configs: list[ExperimentConfig],
             workers: int = 1) -> tuple[list[dict], list[int], int]:
    """Simulate each trace once and apply the extraction of every config that reads it.

    A trace is identified by ``(master_seed, n, j)`` alone: it is
    ``run_coupled(n, r_max, SeedSpec(master_seed, (n << 32) | j))``, where
    r_max is the largest that any config reading that ``(master_seed, n)``
    needs, and r_max 0 (limit-consistency, n = 0) hands the bare stream to
    the extraction.  Where no config reading a ``(master_seed, n)`` reads the
    jump chain, only the poissonized times are sampled, which are the same
    bytes.  A config reads the traces with its seed, an n in its grid and a j
    below its replication count; discrete kinds read the arrival half.  So a
    config whose r_max is the bank's at each of its ``(seed, n)`` sees the
    payloads it would alone.  Sampling runs serially, or on one pool of at
    most ``workers`` processes, no more than the tasks or the usable CPUs;
    the payloads do not depend on which.

    Returns one ``{n: [payload of each replication]}`` per config, the draws
    of the jump chains sampled for the traces each config read, and the number
    of traces simulated.
    """
    if not configs:
        raise ConfigError("a bank needs at least one config")
    if workers < 1:
        raise ConfigError(f"need workers >= 1, got {workers}")
    for cfg in configs:
        cfg.validate()
    readers: dict[tuple[int, int], list[int]] = {}
    for k, cfg in enumerate(configs):
        for n in cfg.grid:
            readers.setdefault((cfg.master_seed, n), []).append(k)
    tasks = []
    for (seed, n), ks in readers.items():
        r_max = max(KINDS[configs[k].kind].r_max(configs[k]) for k in ks)
        chain = any(KINDS[configs[k].kind].reads_chain for k in ks)
        for j in range(max(configs[k].replications for k in ks)):
            tasks.append((seed, n, j, r_max, chain,
                          [k for k in ks if j < configs[k].replications]))
    work = partial(_bank_row, configs)
    processes = min(workers, len(tasks), _usable_cpus())
    if processes > 1:
        chunk = max(1, len(tasks) // (4 * processes))
        with Pool(processes) as pool:
            outcomes = pool.map(work, tasks, chunksize=chunk)
    else:
        outcomes = [work(t) for t in tasks]

    per_config = [{n: [] for n in cfg.grid} for cfg in configs]
    draws = [0] * len(configs)
    for (_, n, _, _, _, ks), (trace_draws, payloads) in zip(tasks, outcomes):
        for k, payload in zip(ks, payloads):
            per_config[k][n].append(payload)
            draws[k] += trace_draws
    return per_config, draws, len(tasks)


def run_experiments(configs: list[ExperimentConfig], workers: int = 1) -> list[ExperimentReport]:
    """Run the experiments on one trace bank, sampling on ``workers`` processes.

    The report numbers depend only on the configs, not on the worker count.
    """
    start = time.perf_counter()
    per_config, draws, traces = run_bank(configs, workers)
    reports = []
    for cfg, per_n, total_draws in zip(configs, per_config, draws):
        kind = KINDS[cfg.kind]
        rows, summaries, verdicts = kind.aggregate(cfg, per_n)
        reports.append(ExperimentReport(
            config=cfg.to_dict(),
            theorem=kind.description,
            results=rows,
            summaries=summaries,
            verdicts=verdicts,
            passed=all(verdicts.values()),
            telemetry={"total_draws": int(total_draws),
                       "replications": cfg.replications * len(cfg.grid)},
        ))
    # wall-clock goes to stderr, not the reports, so reruns are byte-identical
    replications = sum(cfg.replications * len(cfg.grid) for cfg in configs)
    print(f"{replications} replications from {traces} traces in "
          f"{time.perf_counter() - start:.2f}s (workers={workers})", file=sys.stderr, flush=True)
    return reports


# ---------------------------------------------------------------------------
# persistence

def emit_report(report: ExperimentReport, fmt: str, path: str) -> None:
    """Persist a report as nested JSON or flat CSV rows."""
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        write_rows_csv(report.results, path)
        series = report.summaries.get("mean_count_series")
        if series:
            base, _ = os.path.splitext(path)
            with open(base + ".series.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["n", "x", "mean_count"])
                for item in series:
                    writer.writerow([item["n"], item["x"], item["mean_count"]])
    else:
        raise ConfigError(f"unknown report format {fmt!r}; use csv or json")


def write_rows_csv(rows: list[dict], path: str) -> None:
    """Write result rows as flat CSV; a missing p-value becomes an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            if out["p_value"] is None:
                out["p_value"] = ""
            writer.writerow(out)
