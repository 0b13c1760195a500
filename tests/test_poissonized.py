"""Coupled poissonized scheme: coupling identity, marginals, mismatch decay."""
import math

import numpy as np
from scipy import special, stats

from dixiecup.discrete import run_discrete
from dixiecup.poissonized import run_coupled
from dixiecup.samplers import SeedSpec

from oracles import count_mismatch, generator, time_column


def test_coupling_times_are_gamma_given_arrivals():
    # draws arrive at unit rate, so given arrivals[i, k] = a the poissonized
    # time times[i, k] is Gamma(a, 1) and gammainc(a, times[i, k]) is uniform;
    # one entry per trace keeps the pooled sample independent
    pit = []
    for n, r_max in ((20, 2), (50, 3)):
        for j in range(2000):
            trace = run_coupled(n, r_max, SeedSpec(31, j))
            i, k = j % n, (j // n) % r_max
            pit.append(special.gammainc(trace.arrivals[i, k], trace.times[i, k]))
    assert stats.kstest(pit, "uniform").pvalue > 1e-3


def test_times_strictly_increase_with_arrival_index():
    trace = run_coupled(50, 2, SeedSpec(32, 0))
    order = np.argsort(trace.arrivals, axis=None)
    flat_times = trace.times.ravel()[order]
    assert (np.diff(flat_times) > 0).all()
    assert len(np.unique(trace.times)) == trace.times.size


def test_marginal_law_of_first_arrival_times():
    # pooled Z(i, 1) at n=10 over many replications is Exp with mean 10
    pooled = np.concatenate([
        time_column(run_coupled(10, 1, SeedSpec(33, j)), 1) for j in range(1000)
    ])
    d = stats.kstest(pooled, lambda t: stats.expon.cdf(t, scale=10)).statistic
    assert d < 1.36 / math.sqrt(len(pooled))


def test_independence_across_types():
    z1, z2 = [], []
    for j in range(2000):
        trace = run_coupled(10, 1, SeedSpec(34, j))
        z1.append(trace.times[0, 0])
        z2.append(trace.times[1, 0])
    corr = np.corrcoef(z1, z2)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(z1))


def test_marginal_agrees_with_standalone_gamma_sampler():
    # coupled-mode Z(i, r) and a direct Gamma(r, scale n) sample realize the same law
    coupled = np.concatenate([
        time_column(run_coupled(10, 2, SeedSpec(35, j)), 2) for j in range(500)
    ])
    rng = generator(SeedSpec(36, 0))
    standalone = 10 * rng.standard_exponential((len(coupled), 2)).sum(axis=1)
    assert stats.ks_2samp(coupled, standalone).pvalue > 1e-3


def test_coupled_arrivals_equal_discrete_trace():
    # the discrete trace is the arrival half of the coupled one
    for n, r_max in ((2, 1), (25, 2), (300, 3)):
        for j in range(5):
            stream = SeedSpec(37, j)
            coupled = run_coupled(n, r_max, stream)
            assert np.array_equal(coupled.arrivals, run_discrete(n, r_max, stream).arrivals)


def test_count_mismatch_consistency():
    trace = run_coupled(100, 1, SeedSpec(40, 0))
    # the whole real line always agrees: both patterns have n points
    assert count_mismatch(trace, 1, -1e9, 1e9) is False


def test_mismatch_probability_degenerate_interval():
    # an interval far beyond every point holds none of either pattern, so the
    # mismatch frequency over any number of replicates is exactly zero
    mismatches = [
        count_mismatch(run_coupled(50, 1, SeedSpec(38, j)), 1, 1e6, 1e6 + 1)
        for j in range(50)
    ]
    assert sum(mismatches) == 0
