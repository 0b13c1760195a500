"""Goodness-of-fit machinery: statistics, p-values, cell merging, calibration."""
import math

import numpy as np
import pytest
from scipy import special, stats

from dixiecup.experiments import KINDS
from dixiecup.gof import (
    GofResult,
    _poisson_cells,
    _poisson_probs,
    increment_test,
    ks_statistic,
    ks_test,
    poisson_count_test,
)
from dixiecup.limitlaws import PoissonizedMarginal, intensity_mass
from dixiecup.pointprocess import sample_limit_process
from dixiecup.samplers import SeedSpec


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def test_ks_hand_example():
    # two-point sample {0.25, 0.75} against Uniform(0,1): sup distance 0.25
    assert ks_statistic([0.25, 0.75], uniform_cdf) == pytest.approx(0.25, abs=1e-14)


def test_ks_on_quantile_grid():
    size = 999
    grid = np.arange(1, size + 1) / (size + 1)
    # sample placed exactly at uniform quantiles: distance at most 1/(N+1) + slack
    assert ks_statistic(grid, uniform_cdf) <= 1.0 / (size + 1) + 1e-9


def test_ks_rejects_empty_sample():
    with pytest.raises(ValueError):
        ks_test([], uniform_cdf)


def test_ks_invariant_under_monotone_transform():
    rng = SeedSpec(42, 0).generator()
    sample = rng.exponential(1.0, 5000)

    def exp_cdf(x):
        return -np.expm1(-np.asarray(x, dtype=float))

    d_original = ks_statistic(sample, exp_cdf)
    # probability integral transform maps the problem to Uniform(0,1)
    d_transformed = ks_statistic(exp_cdf(sample), uniform_cdf)
    assert d_original == pytest.approx(d_transformed, abs=1e-12)


def test_ks_null_calibration_against_exact_law():
    # exact gamma marginal samples against their own CDF: p-values uniform
    n, r, law = 10, 2, PoissonizedMarginal(10, 2)
    shift = math.log(n) + (r - 1) * math.log(math.log(n))
    low_p = 0
    trials = 200
    for t in range(trials):
        rng = SeedSpec(90, t).generator()
        z = n * rng.standard_exponential((10_000, r)).sum(axis=1)
        sample = z / n - shift
        if ks_test(sample, law.cdf).p_value < 0.05:
            low_p += 1
    assert abs(low_p / trials - 0.05) <= 0.05


def test_poisson_count_degenerate_mean():
    res = poisson_count_test([0] * 100, 1e-9)
    assert res.p_value == pytest.approx(1.0)


def test_poisson_count_null_calibration():
    fails = 0
    for t in range(50):
        counts = SeedSpec(91, t).generator().poisson(1.0, 5000)
        if poisson_count_test(counts, 1.0).p_value <= 1e-3:
            fails += 1
    assert fails == 0


def test_poisson_count_power():
    counts = SeedSpec(92, 0).generator().poisson(2.0, 5000)
    assert poisson_count_test(counts, 1.0).p_value < 1e-6


def test_poisson_cell_merge_properties():
    for mean in (0.3, 1.0, 7.5):
        counts = SeedSpec(93, 0).generator().poisson(mean, 400)
        observed, expected = _poisson_cells(counts, mean)
        if len(expected) > 1:
            assert expected.min() >= 5.0
        assert observed.sum() == len(counts)
        assert expected.sum() == pytest.approx(len(counts), abs=1e-9)


def battery_count_means():
    """Every Poisson mean the battery's count tests are run against."""
    means = []
    for fields in KINDS["theorem1-counts"].battery:
        means += [intensity_mass(fields["r"], a, b) for a, b in fields["intervals"]]
    for fields in KINDS["rare-path"].battery:
        xs = fields["thresholds"]
        means += [intensity_mass(fields["r"], x, math.inf) for x in xs]
        means += [intensity_mass(fields["r"], a, b) for a, b in zip(xs, xs[1:])]
    return means


def test_poisson_probs_match_scipy_stats_bit_for_bit():
    # the product evaluates the Poisson law through scipy.special; the values
    # must be exactly those of scipy.stats, so no p-value moves
    support = np.arange(81)
    for mean in [*battery_count_means(), *np.geomspace(1e-9, 60.0, 61)]:
        pmf = _poisson_probs(80, mean)[:-1]
        assert np.array_equal(pmf, stats.poisson.pmf(support, mean)), mean
        for k_max in support:
            assert _poisson_probs(k_max, mean)[-1] == stats.poisson.sf(k_max, mean), mean


def test_chi2_tail_matches_scipy_stats_bit_for_bit():
    x = np.append(0.0, np.geomspace(1e-4, 400.0, 200))
    for dof in range(1, 41):
        assert np.array_equal(special.chdtrc(dof, x), stats.chi2.sf(x, dof))


def test_poisson_count_p_value_is_the_chi2_tail():
    for mean in (0.3, 1.0, 7.5, 40.0):
        counts = SeedSpec(96, 0).generator().poisson(mean, 5000)
        res = poisson_count_test(counts, mean)
        dof = len(_poisson_cells(counts, mean)[1]) - 1
        assert res.p_value == float(stats.chi2.sf(res.statistic, dof))


def test_poisson_count_validation():
    with pytest.raises(ValueError):
        poisson_count_test([], 1.0)
    with pytest.raises(ValueError):
        poisson_count_test([1, 2], 0.0)
    with pytest.raises(ValueError):
        poisson_count_test([-1], 1.0)


def test_gof_result_validation():
    with pytest.raises(ValueError):
        GofResult(-0.1, 0.5, 10)
    with pytest.raises(ValueError):
        GofResult(0.1, 1.5, 10)


def test_increment_test_under_true_limit():
    # the last-but-j points of the true limiting pattern have exactly
    # exponential transformed increments
    m = 2
    vectors = []
    rng = SeedSpec(94, 0).generator()
    while len(vectors) < 5000:
        pattern = sample_limit_process(1, -3.0, rng)
        if pattern.mass >= m + 1:
            vectors.append(pattern.last_but(m))
    res = increment_test(np.array(vectors), 1, m)
    assert res.p_value > 1e-3
    assert res.details["max_abs_increment_correlation"] < 3.0 / math.sqrt(len(vectors))


def test_increment_test_transformed_marginal_is_exponential():
    # single-coordinate version: exp(-L_0) for r=1 is Exp(1)
    rng = SeedSpec(95, 0).generator()
    vectors = [sample_limit_process(1, -3.0, rng).last_but(0) for _ in range(10_000)]
    res = increment_test(np.array(vectors), 1, 0)
    assert res.p_value > 1e-3


def test_increment_test_validation():
    with pytest.raises(ValueError):
        increment_test(np.zeros((5, 2)), 1, 2)
    with pytest.raises(ValueError):
        increment_test(np.array([[0.0, 1.0]]), 1, 1)  # increasing row
