"""Acceptance gates: one numbered test and one printed verdict line per gate.

Every statistic of a simulated trace comes from ``run_bank``, the package's
one "simulate once, extract many" path: it is the per-trace payload of an
experiment kind.  A trace is keyed by (master seed, n, j): replication j at n
reads stream (n << 32) | j of the seed, with the largest r_max any config
reading that (seed, n) needs, so the n of a grid never share a stream.  Gates
2, 3, 5, 6, 7 and 8 share one bank (``ACCEPT_SEED``, n = 1e2, 1e3, 1e4, 2000
replications, r_max 3 at each n), and their verdicts are correlated through
its traces.  Gates 1 and 4 each run on one bank of their own seed.

The limit theorems hold only as n -> infinity, so where a limit is still far
off at desk-scale n the gate tests the simulation against the exact finite-n
law instead and checks, deterministically, that this law converges to the
limit:

- gates 2 and 7, r=2: the counts at n=1e4 are Poisson-tested around their
  exact mean from the negative-binomial trial-counting law
  (``exact_count_mean``), whose relative gap to the limit mass shrinks along
  n = 1e4, 1e6, 1e8, 1e12;
- gate 8: the mismatch frequency is held to the exact expected number of
  types whose indicator differs between the two schemes
  (``expected_mismatched_types``), which decreases in n and falls below
  0.05 by n = 2e5.

The r=1 count tests are against the limit mass itself.  No reference value
is taken from simulation output.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
"""
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

from dixiecup import calibration
from dixiecup.experiments import ExperimentConfig, run_bank
from dixiecup.gof import increment_test, ks_statistic, ks_test, poisson_count_test
from dixiecup.limitlaws import (
    ChiSqLog,
    GumbelType,
    LogGamma,
    PoissonizedMarginal,
    intensity_mass,
)
from dixiecup.samplers import SeedSpec

from oracles import generator

ACCEPT_SEED = 46
REPS = 2000
GRID = (100, 1000, 10000)
INTERVALS = [(0.0, math.inf), (-1.0, 0.0), (0.0, 1.0)]
THRESHOLDS = [-1.0, 0.0, 1.0, 2.0]
SIG = 1e-3
# n along which the exact r=2 count means must approach the limit mass; below
# 1e4 the gap on [-1, 0] is not yet monotone (0.1910 at 1e2, 0.1927 at 1e3)
LIMIT_GRID = (10**4, 10**6, 10**8, 10**12)
# n along which the exact mismatch bound of gate 8 must decrease
COUPLING_GRID = (100, 1000, 10000, 100000, 200000)
# mismatch frequency on [-2, 2], r=1, 2000 replications, at each n of GRID in
# the first calibration pilot (tools/calibrate.py, master seed 20240817)
COUPLING_MISMATCH_REGRESSION = {100: 0.5635, 1000: 0.315, 10000: 0.131}


def verdict_line(number, ok, description):
    print(f"ACCEPTANCE CRITERION {number}: {'PASS' if ok else 'FAIL'} — {description}")


def exact_count_mean(n, r, a, b=math.inf):
    """E #{types with psi(Y_r) in [a, b]} from the exact trial-counting law."""
    shift = math.log(n) + (r - 1) * math.log(math.log(n))

    def tail_geq(x):  # P{Y >= ceil(n (x + shift))}
        t = math.ceil(n * (x + shift))
        return float(stats.nbinom.sf(t - 1 - r, r, 1.0 / n)) if t > r else 1.0

    upper = 0.0
    if math.isfinite(b):
        t = math.floor(n * (b + shift))
        upper = float(stats.nbinom.sf(t - r, r, 1.0 / n)) if t >= r else 1.0
    return n * (tail_geq(a) - upper)


def expected_mismatched_types(n, r, a, b):
    """Exact E_n: expected number of types counted in [a, b] by one scheme only.

    One type's r-th arrival index K has K - r ~ NegBin(r, 1/n); given K = k the
    poissonized time is G_k ~ Gamma(k, 1), independent of the marks.  With
    s = ln n + (r-1) ln ln n and boundaries t_a = n (a + s), t_b = n (b + s),

        E_n = n * sum_k P(K = k) P(1{k in [t_a, t_b]} != 1{G_k in [t_a, t_b]}).

    The two counts on [a, b] can differ only if some type's indicator
    differs, so by linearity P(mismatch) <= E_n exactly.  G_k has mean k and
    standard deviation sqrt(k), so the sum runs over k within 14 sqrt(t) of
    t_a or t_b; the omitted terms are below double-precision rounding.
    """
    shift = math.log(n) + (r - 1) * math.log(math.log(n))
    t_a, t_b = n * (a + shift), n * (b + shift)
    ks = np.unique(np.concatenate([
        np.arange(max(r, math.floor(t - 14 * math.sqrt(t))),
                  math.ceil(t + 14 * math.sqrt(t)) + 1)
        for t in (t_a, t_b)
    ]))
    p_in = special.gammainc(ks, t_b) - special.gammainc(ks, t_a)
    p_differs = np.where((ks >= t_a) & (ks <= t_b), 1.0 - p_in, p_in)
    return n * float(np.sum(stats.nbinom.pmf(ks - r, r, 1.0 / n) * p_differs))


def exact_mean_approaches_limit(a, b=math.inf):
    """|exact r=2 mean / limit mass - 1| on [a, b] strictly decreases along LIMIT_GRID."""
    gaps = [abs(exact_count_mean(n, 2, a, b) / intensity_mass(2, a, b) - 1)
            for n in LIMIT_GRID]
    return all(hi < lo for lo, hi in zip(gaps, gaps[1:]))


# ---------------------------------------------------------------------------
# the shared simulation bank

def bank_config(kind, **fields):
    return ExperimentConfig(kind, n_grid=list(GRID), replications=REPS,
                            master_seed=ACCEPT_SEED, **fields)


# statistic -> the experiment kind whose per-trace payload it is
BANK = {
    **{("counts", r): bank_config("theorem1-counts", r=r, intervals=INTERVALS)
       for r in (1, 2)},
    **{("rare", r): bank_config("rare-path", r=r, thresholds=THRESHOLDS) for r in (1, 2)},
    **{("T", c): bank_config("erdos-renyi", c=c) for c in (1, 2)},
    **{("psiT", pair): bank_config("chi2-law", r=pair[0], m=pair[1])
       for pair in calibration.PARTIAL_COLLECTION_KS_TOL},
    "vec12": bank_config("partial-collection", r=1, m=2),
    "mismatch": bank_config("coupling-decay", r=1, intervals=[(-2.0, 2.0)]),
}


@pytest.fixture(scope="session")
def bank():
    """statistic -> {n: its payload array, one row per replication}."""
    per_config, _, _, _ = run_bank(list(BANK.values()))
    return dict(zip(BANK, per_config))


def mismatch_freqs(bank):
    return {n: float(np.mean(bank["mismatch"][n])) for n in GRID}


# ---------------------------------------------------------------------------
# 1. exact poissonized marginal law

def test_criterion_01_exact_poissonized_marginal():
    configs = [ExperimentConfig("poissonized-marginal", n_grid=[100], r=r,
                                replications=100, master_seed=ACCEPT_SEED + 2)
               for r in (1, 2, 3)]
    ok = True
    for cfg, per_n in zip(configs, run_bank(configs)[0]):
        pooled = per_n[100].ravel()
        assert len(pooled) == 10_000
        res = ks_test(pooled, PoissonizedMarginal(100, cfg.r).cdf)
        ok = ok and res.p_value >= SIG
    verdict_line(1, ok, "pooled normalized poissonized arrival times match the "
                        "exact finite-n law (KS, r=1,2,3, n=100)")
    assert ok


# ---------------------------------------------------------------------------
# 2. Poisson limit of interval counts

def test_criterion_02_interval_counts_and_first_point(bank):
    ok = True
    for r in (1, 2):
        # a theorem1-counts payload is the count in each interval, then the first point
        counts = bank["counts", r][10000][:, :-1].astype(np.int64)
        for k, (a, b) in enumerate(INTERVALS):
            if r == 1:
                mean = intensity_mass(r, a, b)
            else:
                mean = exact_count_mean(10000, r, a, b)
                ok = ok and exact_mean_approaches_limit(a, b)
            res = poisson_count_test(counts[:, k], mean)
            ok = ok and res.p_value >= SIG
        first_lo = ks_statistic(bank["counts", r][100][:, -1], GumbelType(r).cdf)
        first_hi = ks_statistic(bank["counts", r][10000][:, -1], GumbelType(r).cdf)
        ok = ok and first_hi < first_lo
    verdict_line(2, ok, "interval counts of the normalized pattern at n=1e4 are "
                        "Poisson(limit intensity) for r=1 and Poisson(exact "
                        "finite-n mean) for r=2, the exact r=2 means approach "
                        "the limit over n=1e4..1e12, and the first-point KS "
                        "distance decreases from n=1e2 to n=1e4")
    assert ok, (
        "at n=1e4 the r=1 interval counts must pass the Poisson chi-square "
        "against the limit mass and the r=2 counts against the exact "
        "negative-binomial mean; |exact r=2 mean / limit mass - 1| must "
        "strictly decrease along n=1e4, 1e6, 1e8, 1e12 on each interval; and "
        "the first-point KS distance to the Gumbel-type law must be smaller at "
        "n=1e4 than at n=1e2, for r=1 and r=2"
    )


def test_criterion_02_attainable_subset(bank):
    for k, (a, b) in enumerate(INTERVALS):
        counts = bank["counts", 1][10000][:, :-1].astype(np.int64)
        assert poisson_count_test(counts[:, k], intensity_mass(1, a, b)).p_value >= SIG
    for r in (1, 2):
        first_lo = ks_statistic(bank["counts", r][100][:, -1], GumbelType(r).cdf)
        first_hi = ks_statistic(bank["counts", r][10000][:, -1], GumbelType(r).cdf)
        assert first_hi < first_lo


def test_criterion_02_supplementary_exact_finite_n_means(bank):
    # the same r=2 counts that reject the limit mean match the exact
    # trial-counting-law mean, so the gap is purely asymptotic
    for n in (100, 10000):
        counts = bank["counts", 2][n][:, :-1]
        for k, (a, b) in enumerate(INTERVALS):
            target = exact_count_mean(n, 2, a, b)
            se = counts[:, k].std(ddof=1) / math.sqrt(len(counts))
            assert abs(counts[:, k].mean() - target) <= 4 * se


# ---------------------------------------------------------------------------
# 3. Gumbel-type law for full-collection times

def test_criterion_03_collection_time_limit_law(bank):
    ok = True
    for c in (1, 2):
        # the first column of an erdos-renyi payload is the normalized T_c
        distances = {n: ks_statistic(bank["T", c][n][:, 0], GumbelType(c).cdf) for n in GRID}
        ok = ok and distances[10000] <= calibration.ERDOS_RENYI_KS_TOL[c]
        ok = ok and distances[100] >= distances[1000] >= distances[10000]
    verdict_line(3, ok, "normalized c-collection times approach the "
                        "Gumbel-type law (calibrated KS tolerance at n=1e4, "
                        "nonincreasing over n=1e2..1e4)")
    assert ok


# ---------------------------------------------------------------------------
# 4. exact mean identity for the full collection time

def test_criterion_04_exact_mean_identity():
    ok = True
    configs = [ExperimentConfig("erdos-renyi", n_grid=grid, replications=reps,
                                master_seed=ACCEPT_SEED + 1)
               for grid, reps in (([3], 100_000), ([10, 100], 10_000))]
    for cfg, per_n in zip(configs, run_bank(configs)[0]):
        for n in cfg.n_grid:
            # the second column of an erdos-renyi payload is T_1
            times = per_n[n][:, 1]
            target = n * sum(1.0 / k for k in range(1, n + 1))
            se = times.std(ddof=1) / math.sqrt(cfg.replications)
            ok = ok and abs(times.mean() - target) < 3 * se
    h = sum(1.0 / k for k in range(1, 1001))
    # the asymptotic expectation n ln n + gamma n, with Euler's gamma
    ok = ok and abs(1000 * math.log(1000) + 0.5772156649015329 * 1000 - 1000 * h) < 1.0
    verdict_line(4, ok, "mean collection time equals n H_n within 3 standard "
                        "errors (n=3,10,100) and the asymptotic expectation "
                        "formula is within 1.0 of n H_n at n=1000")
    assert ok


# ---------------------------------------------------------------------------
# 5. chi-square-log and log-gamma laws for partial collection

def test_criterion_05_partial_collection_laws(bank):
    ok = True
    for (r, m), tol in calibration.PARTIAL_COLLECTION_KS_TOL.items():
        # a chi2-law payload is ln(2n) - T/n for r=1 and the normalized T for r>=2
        law = ChiSqLog(m) if r == 1 else LogGamma(r, m)
        ok = ok and ks_statistic(bank["psiT", (r, m)][10000], law.cdf) <= tol
    verdict_line(5, ok, "partial-collection statistics match the "
                        "chi-square-log (r=1) and log-gamma (r>=2) laws "
                        "within calibrated KS tolerances at n=1e4")
    assert ok


# ---------------------------------------------------------------------------
# 6. infinite-dimensional projections via increments

def test_criterion_06_lastbut_increments(bank):
    vectors = bank["vec12"][10000]
    res = increment_test(vectors, 1, 2)
    ok = res.p_value >= SIG
    max_corr = res.details["max_abs_increment_correlation"]
    ok = ok and max_corr <= 3.0 / math.sqrt(len(vectors))
    verdict_line(6, ok, "transformed last-but-j increments are i.i.d. "
                        "exponential (pooled KS) with vanishing cross "
                        "correlations at n=1e4, r=1")
    assert ok


# ---------------------------------------------------------------------------
# 7. rare-type counting process

def test_criterion_07_rare_type_counts(bank):
    ok = True
    for r in (1, 2):
        rare = bank["rare", r][10000]
        if r == 2:
            tail_means = [exact_count_mean(10000, r, x) for x in THRESHOLDS]
            ok = ok and all(exact_mean_approaches_limit(x) for x in THRESHOLDS)
        for k, x in enumerate(THRESHOLDS):
            mean = intensity_mass(r, x, math.inf) if r == 1 else tail_means[k]
            res = poisson_count_test(rare[:, k], mean)
            ok = ok and res.p_value >= SIG
        for k in range(len(THRESHOLDS) - 1):
            incr = rare[:, k] - rare[:, k + 1]
            if r == 1:
                mean = intensity_mass(r, THRESHOLDS[k], THRESHOLDS[k + 1])
            else:
                mean = tail_means[k] - tail_means[k + 1]
            ok = ok and poisson_count_test(incr, mean).p_value >= SIG
    verdict_line(7, ok, "rare-type counts and their increments at n=1e4 are "
                        "Poisson(limit intensity) for r=1 and Poisson(exact "
                        "finite-n mean) for r=2, and the exact r=2 means "
                        "approach the limit over n=1e4..1e12")
    assert ok, (
        "at n=1e4 the r=1 rare-type counts and increments must pass the "
        "Poisson chi-square against the limit mass, and the r=2 ones against "
        "the exact negative-binomial means (an increment's mean is the "
        "difference of the tail means at its two thresholds); "
        "|exact r=2 tail mean / limit mass - 1| must strictly decrease along "
        "n=1e4, 1e6, 1e8, 1e12 at each threshold"
    )


def test_criterion_07_attainable_subset(bank):
    rare = bank["rare", 1][10000]
    for k, x in enumerate(THRESHOLDS):
        assert poisson_count_test(rare[:, k], intensity_mass(1, x, math.inf)).p_value >= SIG
    for k in range(len(THRESHOLDS) - 1):
        incr = rare[:, k] - rare[:, k + 1]
        mean = intensity_mass(1, THRESHOLDS[k], THRESHOLDS[k + 1])
        assert poisson_count_test(incr, mean).p_value >= SIG


def test_criterion_07_supplementary_exact_finite_n_means(bank):
    rare = bank["rare", 2][10000].astype(float)
    for k, x in enumerate(THRESHOLDS):
        target = exact_count_mean(10000, 2, x)
        se = rare[:, k].std(ddof=1) / math.sqrt(len(rare))
        assert abs(rare[:, k].mean() - target) <= 4 * se


# ---------------------------------------------------------------------------
# 8. discrete / poissonized coupling decay

def test_criterion_08_coupling_decay(bank):
    freqs = mismatch_freqs(bank)
    ok = True
    for lo, hi in zip(GRID, GRID[1:]):
        slack = 2.0 * math.sqrt(freqs[lo] * (1 - freqs[lo]) / REPS)
        ok = ok and freqs[hi] <= freqs[lo] + slack
    bounds = {n: expected_mismatched_types(n, 1, -2.0, 2.0) for n in COUPLING_GRID}
    for n in GRID:
        slack = 2.0 * math.sqrt(bounds[n] * (1 - bounds[n]) / REPS)
        ok = ok and freqs[n] <= bounds[n] + slack
    path = [bounds[n] for n in COUPLING_GRID]
    ok = ok and all(hi < lo for lo, hi in zip(path, path[1:]))
    ok = ok and bounds[COUPLING_GRID[-1]] < calibration.COUPLING_MISMATCH_BOUND_N1E4
    verdict_line(8, ok, "pattern mismatch frequency on [-2,2] decays in n, stays "
                        "within the exact bound E_n at n=1e2..1e4, and E_n "
                        "decreases to below 0.05 by n=2e5")
    assert ok, (
        "the mismatch frequency must not rise over n=1e2..1e4 by more than "
        "two binomial standard errors, must be at most E_n plus two binomial "
        "standard errors at each n, and the exact bound E_n must strictly "
        "decrease along n=1e2, 1e3, 1e4, 1e5, 2e5 and end below 0.05; "
        f"frequencies {freqs}, E_n {bounds}"
    )


def test_criterion_08_attainable_subset(bank):
    freqs = mismatch_freqs(bank)
    for lo, hi in zip(GRID, GRID[1:]):
        slack = 2.0 * math.sqrt(freqs[lo] * (1 - freqs[lo]) / REPS)
        assert freqs[hi] <= freqs[lo] + slack
    # regression agreement with the frozen calibration values (different
    # seed, so allow a few binomial standard errors)
    for n in GRID:
        ref = COUPLING_MISMATCH_REGRESSION[n]
        assert abs(freqs[n] - ref) <= 0.05


# ---------------------------------------------------------------------------
# 9. null calibration of the battery

def test_criterion_09_null_calibration():
    low_p = 0
    trials = 200
    for t in range(trials):
        rng = generator(SeedSpec(ACCEPT_SEED + 4, t))
        sample = -np.log(rng.exponential(1.0, 1000))
        if ks_test(sample, GumbelType(1).cdf).p_value < 0.05:
            low_p += 1
    frac = low_p / trials
    ok = abs(frac - 0.05) <= 0.05
    verdict_line(9, ok, "under exact limit sampling the battery's p-values "
                        "are calibrated (fraction below 0.05 within 0.05 of "
                        "0.05 over 200 trials)")
    assert ok


# ---------------------------------------------------------------------------
# 10. byte-identical reports at any worker count

def test_criterion_10_battery_determinism(tmp_path):
    blobs = {}
    for workers in (1, 4, 8):
        for attempt in (0, 1):
            out = tmp_path / f"battery_w{workers}_{attempt}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "dixiecup.cli", "battery",
                 "--seed", "42", "--scale", "0.02",
                 "--workers", str(workers), "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode in (0, 1), proc.stderr
            blobs[(workers, attempt)] = out.read_bytes()
    reference = blobs[(1, 0)]
    ok = all(blob == reference for blob in blobs.values())
    # sanity: the report is a full battery, not an empty shell
    data = json.loads(reference)
    assert len(data["experiments"]) >= 10
    verdict_line(10, ok, "battery reports are byte-identical across reruns "
                         "and worker counts 1, 4, 8 at a fixed seed")
    assert ok
