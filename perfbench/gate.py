"""Law-level correctness gate for benchmark outputs.

The gate checks what must hold for any correct sampler, whatever its seed
stream: the shape of every report, invariants of sampled traces, and the two
statistics whose reference law is exact at finite n.  Verdicts the product
itself reports as FAIL (the documented asymptotic gaps, tolerances frozen for
2000 replications applied at a reduced scale) are product output and are not
failures here.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

# An exact-law check fails only past these bounds, so that a correct sampler
# trips it about once in a million runs, while a wrong sampler law or a
# swapped reference CDF (which drives the pooled KS p-value to 0) still does.
EXACT_KS_MIN_P = 1e-6
MEAN_IDENTITY_SIGMAS = 6.0


def expected_verdicts(exp) -> set[str]:
    """Verdict keys an experiment of this shape must report."""
    grid = exp.n_grid
    multi = len(grid) >= 2
    keys: set[str] = set()
    if exp.kind == "poissonized-marginal":
        keys = {f"ks_pass_n{n}" for n in grid}
    elif exp.kind == "theorem1-counts":
        keys = {f"counts_pass_n{n}_interval{k}" for n in grid for k in range(len(exp.intervals))}
        if multi:
            keys.add("first_point_ks_decreases")
    elif exp.kind == "erdos-renyi":
        keys = {f"{p}_n{n}" for n in grid for p in ("ks_within_tolerance", "mean_identity")}
        if multi:
            keys.add("ks_nonincreasing")
    elif exp.kind == "partial-collection":
        keys = {f"increments_pass_n{n}" for n in grid}
        if exp.m >= 1:
            keys |= {f"correlations_small_n{n}" for n in grid}
    elif exp.kind == "chi2-law":
        keys = {f"ks_within_tolerance_n{n}" for n in grid}
    elif exp.kind == "rare-path":
        t = len(exp.thresholds)
        keys = {f"rare_pass_n{n}_x{k}" for n in grid for k in range(t)}
        keys |= {f"rare_increment_pass_n{n}_pair{k}" for n in grid for k in range(t - 1)}
    elif exp.kind == "coupling-decay":
        keys = {"largest_n_below_bound"}
        if multi:
            keys.add("mismatch_nonincreasing")
    elif exp.kind == "limit-consistency":
        keys = {"p_fraction_calibrated"}
    return keys


def rows_per_n(exp) -> int:
    return {
        "poissonized-marginal": 1,
        "theorem1-counts": len(exp.intervals) + 1,
        "erdos-renyi": 2,
        "partial-collection": 1 + (exp.m >= 1),
        "chi2-law": 1,
        "rare-path": 2 * len(exp.thresholds) - 1,
        "coupling-decay": 1,
        "limit-consistency": 2,
    }[exp.kind]


def _coupon_variance(n: int) -> float:
    """Exact variance of the draws needed to see all n types once."""
    ks = range(1, n + 1)
    return n * n * math.fsum(1.0 / (k * k) for k in ks) - n * math.fsum(1.0 / k for k in ks)


def check_experiment(report: dict, exp) -> list[str]:
    """Problems with one experiment report; empty when it is sound."""
    problems = []
    cfg = report.get("config", {})
    for key in ("kind", "r", "c", "m", "replications"):
        if cfg.get(key) != getattr(exp, key):
            problems.append(f"config {key}={cfg.get(key)!r}, asked {getattr(exp, key)!r}")
    if exp.kind != "limit-consistency" and tuple(cfg.get("n_grid", ())) != exp.n_grid:
        problems.append(f"config n_grid={cfg.get('n_grid')!r}, asked {exp.n_grid!r}")
    if problems:
        return problems

    verdicts = report.get("verdicts", {})
    want = expected_verdicts(exp)
    if set(verdicts) != want:
        problems.append(f"verdict keys {sorted(set(verdicts) ^ want)} differ")
    if not all(isinstance(v, bool) for v in verdicts.values()):
        problems.append("non-boolean verdict")
    if report.get("passed") is not all(verdicts.values()):
        problems.append("passed disagrees with the verdicts")
    if report.get("telemetry", {}).get("replications") != exp.replications * len(exp.n_grid):
        problems.append("telemetry.replications does not match the config")

    rows = report.get("results", [])
    for n in exp.n_grid:
        got = sum(1 for row in rows if row.get("n") == n)
        if got != rows_per_n(exp):
            problems.append(f"{got} rows at n={n}, want {rows_per_n(exp)}")
    for row in rows:
        value, p = row.get("value"), row.get("p_value")
        if not isinstance(value, float) or math.isnan(value):
            problems.append(f"row {row.get('statistic_name')} has value {value!r}")
        if p is not None and not 0.0 <= p <= 1.0:
            problems.append(f"row {row.get('statistic_name')} has p-value {p!r}")
        problems += _exact_law(exp, row)
    return problems


def _exact_law(exp, row: dict) -> list[str]:
    name, n, size = row.get("statistic_name"), row.get("n"), row.get("sample_size")
    if exp.kind == "poissonized-marginal" and name == "ks_statistic":
        # pooled normalized times against their exact finite-n gamma law
        if size != exp.replications * n:
            return [f"pooled KS sample {size} at n={n}, want {exp.replications * n}"]
        p = float(special.kolmogorov(math.sqrt(size) * row["value"]))
        if p < EXACT_KS_MIN_P:
            return [f"exact-law KS at n={n}: D={row['value']:.4g}, p={p:.3g}"]
    if exp.kind == "erdos-renyi" and name == "mean_T1_minus_nHn":
        # E T_1 = n H_n exactly; the bound uses the exact variance of T_1
        sigma = math.sqrt(_coupon_variance(n) / exp.replications)
        if abs(row["value"]) > MEAN_IDENTITY_SIGMAS * sigma:
            return [f"mean T1 - nHn at n={n} is {row['value']:.4g}, "
                    f"{abs(row['value']) / sigma:.1f} sigma"]
    return []


def check_command(cmd, code, report: dict | None) -> list[list[str]]:
    """Per-experiment problem lists for one CLI call's exit code and report."""
    if code not in (0, 1) or not isinstance(report, dict):
        return [[f"exit code {code}"]] * len(cmd.experiments)
    if cmd.battery:
        reports = report.get("experiments", [])
        if len(reports) != len(cmd.experiments):
            return [[f"battery has {len(reports)} experiments"]] * len(cmd.experiments)
        passed = all(r.get("passed") for r in reports)
    else:
        reports = [report]
        passed = report.get("passed")
    out = [check_experiment(r, e) for r, e in zip(reports, cmd.experiments)]
    if code != (0 if passed else 1):
        out = [p + [f"exit code {code} but passed={passed}"] for p in out]
    return out


def check_trace(trace, coupled: bool) -> list[str]:
    """Invariants every discrete or coupled trace satisfies."""
    arr = np.asarray(trace.arrivals)
    problems = []
    if arr.shape != (trace.n, trace.r_max):
        return [f"arrival matrix shape {arr.shape}"]
    if arr.min() < 1:
        problems.append("arrival draw below 1")
    if not np.all(np.diff(arr, axis=1) > 0):
        problems.append("a row of arrivals is not strictly increasing")
    if np.unique(arr).size != arr.size:
        problems.append("two arrivals share a draw")
    if int(arr.max()) != trace.total_draws:
        problems.append("matrix maximum differs from total_draws")
    if coupled:
        times = np.asarray(trace.times)
        order = np.argsort(arr, axis=None)
        along = times.ravel()[order]
        # non-strict: two draws a sub-ulp gap apart round to one float64 time
        if not (along[0] > 0 and np.all(np.diff(along) >= 0)):
            problems.append("coupled times do not increase along arrivals")
    return problems
