"""Seed streams, and the single-draw laws the trace samplers realize."""
import math

import numpy as np
import pytest
from scipy import stats

from dixiecup import discrete
from dixiecup.samplers import SeedSpec, stream_keys

from oracles import generator, seeded_traces, time_column

SIG = 1e-3


def early_draw_types(n, r_max, reps, seed):
    """1-based types of draws 1..r_max of each discrete trace.

    No type can pass r_max arrivals within r_max draws, so each of these draws
    is a tracked arrival, and their types are i.i.d. uniform on 1..n.
    """
    out = []
    for trace in seeded_traces(n, r_max, reps, seed):
        arrivals = trace.arrivals
        early = arrivals <= r_max
        types = np.zeros(r_max, dtype=np.int64)
        types[arrivals[early] - 1] = np.nonzero(early)[0] + 1
        assert types.min() >= 1  # every early draw is someone's arrival
        out.append(types)
    return np.concatenate(out)


def rth_arrival_draws(n, r, reps, seed):
    """Draw number of one type's r-th arrival, one type per trace so the
    sample is independent; its law is the trial-counting NegBin(r, 1/n)."""
    return np.array([trace.arrivals[j % n, r - 1]
                     for j, trace in enumerate(seeded_traces(n, r, reps, seed))])


def rth_arrival_times(n, r, reps, seed):
    """Coupled r-th arrival times of every type over ``reps`` traces; the types
    of the poissonized scheme are independent, so these are i.i.d. Gamma(r, n)."""
    return np.concatenate([time_column(trace, r) for trace in seeded_traces(n, r, reps, seed)])


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        SeedSpec(0, 2**64)
    SeedSpec(2**64 - 1, 0)  # boundary is fine


@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1])
def test_philox_keys_are_the_seed_sequence_keys(seed):
    """The vectorized hash gives the seed sequence's key of each stream's own
    generator, bit for bit, for one- and two-word seeds and streams, and for
    the bank's streams (n << 32) | j."""
    ns = [2, 3, 100, 2**16, 2**31 - 1, 2**31]
    indices = [0, 1, 2**31, 2**32 - 1, 2**32, 2**64 - 1]
    indices += [(n << 32) | j for n in ns for j in (0, 1, 2**32 - 1)]
    keys = stream_keys(seed, indices)
    assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
    for index, key in zip(indices, keys):
        own = generator(SeedSpec(seed, index)).bit_generator.state["state"]["key"]
        assert np.array_equal(key, own)
    # one stream alone is keyed as within the block
    assert np.array_equal(stream_keys(seed, indices[-1]), keys[-1:])


def test_distinct_streams_differ_and_are_uncorrelated():
    """Two streams keyed on the scratch generator draw what their own
    generators would, and their draws differ and are uncorrelated."""
    streams = [SeedSpec(5, 0), SeedSpec(5, 1)]
    x, y = times = np.empty((2, 100_000))
    discrete._NUMPY.exponentials(stream_keys(5, [0, 1]), times)
    for draws, stream in zip((x, y), streams):
        assert np.array_equal(draws, generator(stream).exponential(1.0, 100_000))
    assert not np.array_equal(x[:100], y[:100])
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(x))


def test_exponential_moments_and_median():
    x = rth_arrival_times(1000, 1, 1000, 11) / 1000
    assert x.mean() == pytest.approx(1.0, abs=0.004)       # 3 std errors of Exp(1) mean
    assert x.var(ddof=1) == pytest.approx(1.0, abs=0.01)
    # P(X > ln 2) = 1/2 exactly
    assert np.mean(x > math.log(2)) == pytest.approx(0.5, abs=0.0015)


def test_uniform_type_frequencies():
    x = early_draw_types(2, 1000, 1000, 12)
    assert set(np.unique(x)) == {1, 2}
    assert np.mean(x == 1) == pytest.approx(0.5, abs=0.0015)


def test_uniform_type_chi_square_gof():
    x = early_draw_types(10, 1000, 200, 13)
    observed = np.bincount(x, minlength=11)[1:]
    _, p = stats.chisquare(observed)
    assert p > SIG


def test_negbin_mean_geometric_case():
    x = rth_arrival_draws(100, 1, 5000, 14)
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - 100.0) < 3 * se


def test_negbin_mean_general_case():
    # E = r * n from the trial-counting negative binomial moment formula
    x = rth_arrival_draws(50, 3, 5000, 15)
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - 150.0) < 3 * se


def test_negbin_support_floor():
    x = np.concatenate([trace.arrivals[:, 3] for trace in seeded_traces(2, 4, 2000, 16)])
    assert x.min() == 4  # counting-trials support starts at r


def test_negbin_two_sampling_paths_same_law():
    # a small and a large n, each against the exact pmf
    for r, n, reps, seed in ((2, 5, 20_000, 17), (2, 500, 5000, 18)):
        x = rth_arrival_draws(n, r, reps, seed)
        kmax = int(np.quantile(x, 0.999))
        support = np.arange(r, kmax + 1)
        # number of failures before the r-th success is the scipy convention
        cell_probs = stats.nbinom.pmf(support - r, r, 1.0 / n)
        observed = np.bincount(x, minlength=kmax + 2)[r:kmax + 1].astype(float)
        observed = np.append(observed, len(x) - observed.sum())
        expected = len(x) * np.append(cell_probs, stats.nbinom.sf(kmax - r, r, 1.0 / n))
        keep = expected >= 5
        if (~keep).any():
            observed = np.append(observed[keep], observed[~keep].sum())
            expected = np.append(expected[keep], expected[~keep].sum())
        _, p = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert p > SIG


def test_gamma_mean():
    x = rth_arrival_times(100, 2, 1000, 19)
    se = x.std(ddof=1) / math.sqrt(len(x))
    assert abs(x.mean() - 200.0) < 3 * se


def test_gamma_variance():
    # variance = shape / rate^2 = 3 * 100
    x = rth_arrival_times(10, 3, 10_000, 20)
    sample_var = x.var(ddof=1)
    # std error of the variance of a gamma sample, via fourth-moment formula
    se = np.sqrt((np.mean((x - x.mean()) ** 4) - sample_var**2) / len(x))
    assert abs(sample_var - 300.0) < 3 * se


def test_gamma_shape_one_is_exponential():
    x = rth_arrival_times(100, 1, 1000, 21)
    d = stats.kstest(x, lambda t: stats.expon.cdf(t, scale=100)).statistic
    assert d < 1.36 / math.sqrt(len(x))
