"""Declarative experiment orchestration and report persistence.

Each experiment kind exercises one limit statement: it fans replications out
over workers (replication ``j`` always uses global stream index ``j``, so the
numbers are independent of the worker count), aggregates the per-replication
statistics, runs the relevant goodness-of-fit battery, and renders a
self-contained report.
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from multiprocessing import Pool

import numpy as np

from . import calibration
from .discrete import collection_time, partial_collection_time, run_discrete
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
    "run_experiment",
    "emit_report",
    "read_report_json",
    "read_report_csv",
    "KIND_DESCRIPTIONS",
]

KIND_DESCRIPTIONS = {
    "poissonized-marginal": "exact finite-n law of the normalized poissonized arrival times",
    "theorem1-counts": "Poisson limit of interval counts of the normalized arrival pattern",
    "erdos-renyi": "Gumbel-type limit and exact mean identity for full-collection times",
    "partial-collection": "i.i.d. exponential increments of the last-but-j projections",
    "chi2-law": "chi-square-log / log-gamma limits for partial-collection times",
    "rare-path": "Poisson process limit of the rare-type counting path",
    "coupling-decay": "vanishing mismatch between discrete and poissonized patterns",
    "limit-consistency": "null calibration of the battery against its own limit laws",
}

CSV_COLUMNS = [
    "experiment", "n", "r", "c", "m",
    "statistic_name", "value", "p_value", "sample_size", "verdict",
]


class ConfigError(ValueError):
    """Invalid experiment description."""


def check_keys(d, keys, what: str) -> None:
    """Raise ConfigError unless ``d`` is a dict with exactly the given keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} is not a JSON object")
    missing, unknown = sorted(set(keys) - set(d)), sorted(set(d) - set(keys))
    if missing or unknown:
        raise ConfigError(f"{what} has missing keys {missing} and unknown keys {unknown}")


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
    workers: int = 1

    def validate(self) -> None:
        if self.kind not in KIND_DESCRIPTIONS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; "
                f"choose from {sorted(KIND_DESCRIPTIONS)}"
            )
        if self.kind != "limit-consistency":
            if not self.n_grid:
                raise ConfigError("n_grid must not be empty")
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
        if self.workers < 1:
            raise ConfigError(f"need workers >= 1, got {self.workers}")
        for a, b in self.intervals:
            if not a <= b:
                raise ConfigError(f"interval [{a}, {b}] is empty")
        if any(np.diff(self.thresholds) < 0):
            raise ConfigError("thresholds must be sorted ascending")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["intervals"] = [[a, b] for a, b in self.intervals]
        # worker count is an execution detail, not part of the experiment
        # identity; the persisted report must not depend on it
        d.pop("workers")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        d.setdefault("workers", 1)
        d["intervals"] = [tuple(pair) for pair in d.get("intervals", [])] or [
            (0.0, math.inf)
        ]
        cfg = cls(**d)
        cfg.validate()
        return cfg


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
        check_keys(d, [f.name for f in fields(cls)], "report")
        config_keys = [f.name for f in fields(ExperimentConfig) if f.name != "workers"]
        check_keys(d["config"], config_keys, "report config")
        if not isinstance(d["results"], list):
            raise ConfigError("report results are not a JSON list")
        for row in d["results"]:
            check_keys(row, CSV_COLUMNS, "report row")
        return cls(**d)


# ---------------------------------------------------------------------------
# per-replication work (top-level for pickling)

def _replicate(task):
    kind, n, r, c, m, intervals, thresholds, master_seed, index = task
    stream = SeedSpec(master_seed, index)

    if kind == "poissonized-marginal":
        trace = run_coupled(n, r, stream)
        values = Normalization(n, r).apply(trace.time_column(r))
        return trace.total_draws, values

    if kind == "theorem1-counts":
        trace = run_discrete(n, r, stream)
        pattern = normalize(trace.arrival_column(r), Normalization(n, r))
        counts = [pattern.count(a, b) for a, b in intervals]
        return trace.total_draws, (counts, float(pattern.points[-1]))

    if kind == "erdos-renyi":
        trace = run_discrete(n, c, stream)
        value = float(Normalization(n, c).apply(collection_time(trace, c)))
        return trace.total_draws, (value, collection_time(trace, 1))

    if kind == "partial-collection":
        trace = run_discrete(n, r, stream)
        norm = Normalization(n, r)
        vector = [float(norm.apply(partial_collection_time(trace, r, j)))
                  for j in range(m + 1)]
        return trace.total_draws, vector

    if kind == "chi2-law":
        trace = run_discrete(n, r, stream)
        t_rm = partial_collection_time(trace, r, m)
        if r == 1:
            value = math.log(2 * n) - t_rm / n
        else:
            value = float(Normalization(n, r).apply(t_rm))
        return trace.total_draws, value

    if kind == "rare-path":
        trace = run_discrete(n, r, stream)
        pattern = normalize(trace.arrival_column(r), Normalization(n, r))
        return trace.total_draws, [pattern.count_from(x) for x in thresholds]

    if kind == "coupling-decay":
        trace = run_coupled(n, r, stream)
        a, b = intervals[0]
        return trace.total_draws, int(count_mismatch(trace, r, a, b))

    if kind == "limit-consistency":
        rng = stream.generator()
        sums = rng.exponential(1.0, (1000, m + 1)).sum(axis=1)
        sample = -math.lgamma(r) - np.log(sums)
        return 0, ks_test(sample, LogGamma(r, m)).p_value

    raise ConfigError(f"unknown experiment kind {kind!r}")


# ---------------------------------------------------------------------------
# per-kind aggregation

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


def _aggregate(cfg: ExperimentConfig, per_n: dict):
    rows: list[dict] = []
    verdicts: dict = {}
    summaries: dict = {}
    sig = cfg.significance

    if cfg.kind == "poissonized-marginal":
        for n, payloads in per_n.items():
            pooled = np.concatenate(payloads)
            res = ks_test(pooled, PoissonizedMarginal(n, cfg.r))
            ok = res.p_value >= sig
            rows.append(_row(cfg, n, "ks_statistic", res.statistic, res.p_value,
                             res.sample_size, ok))
            verdicts[f"ks_pass_n{n}"] = ok

    elif cfg.kind == "theorem1-counts":
        first_point_ks = {}
        for n, payloads in per_n.items():
            counts = np.array([p[0] for p in payloads], dtype=np.int64)
            for k, (a, b) in enumerate(cfg.intervals):
                mean = intensity_mass(cfg.r, a, b)
                res = poisson_count_test(counts[:, k], mean)
                ok = res.p_value >= sig
                name = f"poisson_counts[{a},{b}]"
                rows.append(_row(cfg, n, name, res.statistic, res.p_value,
                                 res.sample_size, ok))
                verdicts[f"counts_pass_n{n}_interval{k}"] = ok
            first = np.array([p[1] for p in payloads])
            dist = ks_statistic(first, GumbelType(cfg.r))
            first_point_ks[n] = dist
            rows.append(_row(cfg, n, "first_point_ks", dist, None, len(first), True))
        summaries["first_point_ks"] = {str(n): d for n, d in first_point_ks.items()}
        if len(cfg.n_grid) >= 2:
            lo, hi = min(cfg.n_grid), max(cfg.n_grid)
            ok = first_point_ks[hi] < first_point_ks[lo]
            verdicts["first_point_ks_decreases"] = ok

    elif cfg.kind == "erdos-renyi":
        distances = {}
        tol = calibration.ERDOS_RENYI_KS_TOL.get(cfg.c)
        if tol is None:
            _warn_uncalibrated(f"erdos-renyi c={cfg.c}")
        for n, payloads in per_n.items():
            values = np.array([p[0] for p in payloads])
            t1 = np.array([p[1] for p in payloads], dtype=np.float64)
            dist = ks_statistic(values, GumbelType(cfg.c))
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
        summaries["ks_by_n"] = {str(n): d for n, d in distances.items()}
        grid = sorted(cfg.n_grid)
        mono = all(distances[grid[i + 1]] <= distances[grid[i]]
                   for i in range(len(grid) - 1))
        if len(grid) >= 2:
            verdicts["ks_nonincreasing"] = mono

    elif cfg.kind == "partial-collection":
        for n, payloads in per_n.items():
            vectors = np.array(payloads)
            res = increment_test(vectors, cfg.r, cfg.m)
            ok = res.p_value >= sig
            rows.append(_row(cfg, n, "increment_ks", res.statistic, res.p_value,
                             res.sample_size, ok))
            verdicts[f"increments_pass_n{n}"] = ok
            max_corr = res.details.get("max_abs_increment_correlation")
            if max_corr is not None:
                corr_ok = max_corr <= 3.0 / math.sqrt(len(vectors))
                rows.append(_row(cfg, n, "max_abs_increment_correlation",
                                 max_corr, None, len(vectors), corr_ok))
                verdicts[f"correlations_small_n{n}"] = corr_ok

    elif cfg.kind == "chi2-law":
        tol = calibration.PARTIAL_COLLECTION_KS_TOL.get((cfg.r, cfg.m))
        if tol is None:
            _warn_uncalibrated(f"chi2-law r={cfg.r}, m={cfg.m}")
        for n, payloads in per_n.items():
            values = np.array(payloads)
            law = ChiSqLog(cfg.m) if cfg.r == 1 else LogGamma(cfg.r, cfg.m)
            dist = ks_statistic(values, law)
            ok = tol is not None and dist <= tol
            rows.append(_row(cfg, n, f"ks_vs_{law.name}", dist, None, len(values), ok))
            verdicts[f"ks_within_tolerance_n{n}"] = ok

    elif cfg.kind == "rare-path":
        mean_series = []
        for n, payloads in per_n.items():
            counts = np.array(payloads, dtype=np.int64)
            for k, x in enumerate(cfg.thresholds):
                mean = intensity_mass(cfg.r, x, math.inf)
                res = poisson_count_test(counts[:, k], mean)
                ok = res.p_value >= sig
                rows.append(_row(cfg, n, f"rare_counts[x={x}]", res.statistic,
                                 res.p_value, res.sample_size, ok))
                verdicts[f"rare_pass_n{n}_x{k}"] = ok
                mean_series.append((n, float(x), float(counts[:, k].mean())))
            for k in range(len(cfg.thresholds) - 1):
                x1, x2 = cfg.thresholds[k], cfg.thresholds[k + 1]
                incr = counts[:, k] - counts[:, k + 1]
                mean = intensity_mass(cfg.r, x1, x2)
                res = poisson_count_test(incr, mean)
                ok = res.p_value >= sig
                rows.append(_row(cfg, n, f"rare_increment[{x1},{x2})", res.statistic,
                                 res.p_value, res.sample_size, ok))
                verdicts[f"rare_increment_pass_n{n}_pair{k}"] = ok
        summaries["mean_count_series"] = [
            {"n": n, "x": x, "mean_count": mc} for n, x, mc in mean_series
        ]

    elif cfg.kind == "coupling-decay":
        freqs = {}
        for n, payloads in per_n.items():
            freq = float(np.mean(payloads))
            freqs[n] = freq
            rows.append(_row(cfg, n, "mismatch_frequency", freq, None,
                             len(payloads), True))
        summaries["mismatch_by_n"] = {str(n): f for n, f in freqs.items()}
        grid = sorted(cfg.n_grid)
        reps = cfg.replications
        mono = True
        for i in range(len(grid) - 1):
            f_lo, f_hi = freqs[grid[i]], freqs[grid[i + 1]]
            slack = 2.0 * math.sqrt(max(f_lo * (1 - f_lo), 1e-12) / reps)
            if f_hi > f_lo + slack:
                mono = False
        if len(grid) >= 2:
            verdicts["mismatch_nonincreasing"] = mono
        bound_ok = freqs[max(grid)] <= calibration.COUPLING_MISMATCH_BOUND_N1E4
        verdicts["largest_n_below_bound"] = bound_ok

    elif cfg.kind == "limit-consistency":
        p_values = np.array(per_n[0])
        frac = float(np.mean(p_values < 0.05))
        frac_ok = abs(frac - 0.05) <= 0.05
        rows.append(_row(cfg, 0, "fraction_p_below_0.05", frac, None,
                         len(p_values), frac_ok))
        verdicts["p_fraction_calibrated"] = frac_ok
        unif = ks_statistic(p_values, lambda u: np.clip(u, 0.0, 1.0))
        rows.append(_row(cfg, 0, "p_value_uniformity_ks", unif, None,
                         len(p_values), True))
        summaries["p_values"] = [float(p) for p in p_values]

    return rows, summaries, verdicts


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run one experiment; the report numbers depend only on (config, seed)."""
    config.validate()
    grid = [0] if config.kind == "limit-consistency" else list(config.n_grid)
    reps = config.replications
    tasks = [
        (config.kind, n, config.r, config.c, config.m,
         [tuple(p) for p in config.intervals], list(config.thresholds),
         config.master_seed, gi * reps + j)
        for gi, n in enumerate(grid)
        for j in range(reps)
    ]
    start = time.perf_counter()
    if config.workers > 1:
        chunk = max(1, len(tasks) // (4 * config.workers))
        with Pool(config.workers) as pool:
            outcomes = pool.map(_replicate, tasks, chunksize=chunk)
    else:
        outcomes = [_replicate(t) for t in tasks]
    elapsed = time.perf_counter() - start

    per_n: dict = {}
    total_draws = 0
    for (kind, n, *_rest), (draws, payload) in zip(tasks, outcomes):
        total_draws += draws
        per_n.setdefault(n, []).append(payload)

    rows, summaries, verdicts = _aggregate(config, per_n)
    passed = all(verdicts.values()) if verdicts else True
    report = ExperimentReport(
        config=config.to_dict(),
        theorem=KIND_DESCRIPTIONS[config.kind],
        results=rows,
        summaries=summaries,
        verdicts=verdicts,
        passed=passed,
        telemetry={"total_draws": int(total_draws),
                   "replications": reps * len(grid)},
    )
    # wall-clock goes to the console, not the report, so reruns are byte-identical
    print(f"[{config.kind}] {len(tasks)} replications in {elapsed:.2f}s "
          f"(workers={config.workers})", flush=True)
    return report


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
                writer.writerow(["x", "mean_count"])
                for item in series:
                    writer.writerow([item["x"], item["mean_count"]])
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


def read_report_json(path: str) -> ExperimentReport:
    with open(path) as fh:
        return ExperimentReport.from_dict(json.load(fh))


def read_report_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
