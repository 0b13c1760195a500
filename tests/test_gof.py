"""Goodness-of-fit machinery: statistics, p-values, cell merging, calibration."""
import math

import numpy as np
import pytest
from scipy import special, stats

from dixiecup import limitlaws
from dixiecup.experiments import KINDS
from dixiecup.gof import (
    GofResult,
    _block_size,
    _poisson_cells,
    _poisson_probs,
    increment_test,
    ks_statistic,
    ks_test,
    poisson_count_test,
)
from dixiecup.limitlaws import (
    ChiSqLog,
    GumbelType,
    LogGamma,
    PoissonizedMarginal,
    intensity_mass,
)
from dixiecup.samplers import SeedSpec

from oracles import generator, last_but, sample_limit_process


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
    rng = generator(SeedSpec(42, 0))
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
        rng = generator(SeedSpec(90, t))
        z = n * rng.standard_exponential((10_000, r)).sum(axis=1)
        sample = z / n - shift
        if ks_test(sample, law.cdf).p_value < 0.05:
            low_p += 1
    assert abs(low_p / trials - 0.05) <= 0.05


# ---------------------------------------------------------------------------
# the pruned KS supremum against the full evaluation

def reference_ks_statistic(sample, cdf) -> float:
    """The full evaluation the product's KS statistic must reproduce bit for
    bit: the reference CDF at every point of the sorted sample."""
    sample = np.sort(np.asarray(sample, dtype=np.float64))
    size = len(sample)
    if size == 0:
        raise ValueError("KS test needs a nonempty sample")
    ref = np.asarray(cdf(sample), dtype=np.float64)
    grid = np.arange(1, size + 1) / size
    d_plus = np.max(grid - ref)
    d_minus = np.max(ref - (grid - 1.0 / size))
    return float(max(d_plus, d_minus, 0.0))


def sup_rank(sample, cdf) -> int:
    """1-based rank of the sorted point where the full evaluation's supremum lies."""
    sample = np.sort(np.asarray(sample, dtype=np.float64))
    size = len(sample)
    ref = cdf(sample)
    grid = np.arange(1, size + 1) / size
    dist = np.maximum(grid - ref, ref - (grid - 1.0 / size))
    return int(np.argmax(dist)) + 1


def exp1_cdf(x):
    return -np.expm1(-np.asarray(x, dtype=float))


def law_samplers():
    """(law, draw(rng, size)) for laws of every class in ``limitlaws``; ``draw``
    samples the law itself."""
    out = []
    for c in (1, 3):
        out.append((GumbelType(c), lambda rng, size, c=c:
                    -np.log(math.factorial(c - 1) * rng.standard_exponential(size))))
    for r, m in ((1, 0), (2, 3)):
        out.append((LogGamma(r, m), lambda rng, size, r=r, m=m:
                    -math.lgamma(r) - np.log(rng.standard_gamma(m + 1, size))))
    for m in (0, 3):
        out.append((ChiSqLog(m), lambda rng, size, m=m:
                    np.log(2.0 * rng.standard_gamma(m + 1, size))))
    for n, r in ((100, 1), (10**5, 3)):
        shift = math.log(n) + (r - 1) * math.log(math.log(n))
        out.append((PoissonizedMarginal(n, r), lambda rng, size, r=r, shift=shift:
                    rng.standard_gamma(r, size) - shift))
    return out


def test_law_samplers_cover_every_law():
    assert {type(law) for law, _ in law_samplers()} == {
        law for law in vars(limitlaws).values()
        if isinstance(law, type) and law.__module__ == limitlaws.__name__
        and hasattr(law, "cdf")}


NULL_SAMPLERS = [(repr(law), law.cdf, draw) for law, draw in law_samplers()] + [
    ("exp1", exp1_cdf, lambda rng, size: rng.standard_exponential(size)),
    ("uniform", uniform_cdf, lambda rng, size: rng.random(size)),
]


# Sample sizes: below one block of 8 points, one block, one knot past it, a
# few blocks and a few dozen; then around 16384, where a block is 12 points,
# with last blocks of several lengths; and far above.
KS_SIZES = [1, 2, 7, 8, 9, 17, 20, 60, 1000,
            16383, 16384, 16385, 16395, 16396, 16397, 16398, 49159, 100_003]


@pytest.mark.parametrize("name,cdf,draw", NULL_SAMPLERS, ids=[t[0] for t in NULL_SAMPLERS])
def test_ks_statistic_equals_full_evaluation(name, cdf, draw):
    rng = generator(SeedSpec(97, 0))
    for size in KS_SIZES:
        null = draw(rng, size)
        # the law itself, a near miss, a gross miss and a rescaled sample
        samples = (null, null + 0.01, null - 0.5, 1.05 * null)
        full = [reference_ks_statistic(sample, cdf) for sample in samples]
        assert [ks_statistic(sample, cdf) for sample in samples] == full, size
        # the samples as the rows of one 2-D sample: one statistic per row
        rows = ks_statistic(np.stack(samples), cdf)
        assert rows.dtype == np.float64 and rows.tolist() == full, size


def positioned_uniform_samples(rng, size):
    """Uniform-scale samples of at least 3 points whose supremum is placed:
    (where, sample).  The "first" sample fits below 1 only from about 450
    points, and is left out below that."""
    jitter = 0.1 * rng.random(size) / size
    # no point below 0.3, five spaced 2/size apart, the rest 0.69/size apart:
    # the supremum is the distance below the fifth point, inside the first block
    first = 0.3 + (8.5 + 0.69 * (np.arange(size) - 5)) / size + jitter
    first[:5] = 0.3 + 2.0 * np.arange(5) / size
    # the last two points far above the rest: the supremum is the distance
    # above the second largest point, inside the last block
    last = 0.6 * (np.arange(size) + 0.5) / (size - 2) + jitter
    last[-2:] = (0.6 + 1e-9, 0.95)
    samples = [("first", np.sort(first))] if first.max() < 1.0 else []
    return samples + [("last", np.sort(last))]


def gumbel_quantile(u):
    return -np.log(-np.log(u))


@pytest.mark.parametrize("size", [size for size in KS_SIZES if size >= 3])
def test_ks_statistic_equals_full_evaluation_at_placed_suprema(size):
    rng = generator(SeedSpec(98, size))
    cdfs = ((uniform_cdf, lambda u: u), (exp1_cdf, lambda u: -np.log1p(-u)),
            (GumbelType(1).cdf, gumbel_quantile))
    for where, u in positioned_uniform_samples(rng, size):
        for cdf, quantile in cdfs:
            sample = quantile(u)
            rank = sup_rank(sample, cdf)
            assert rank == (5 if where == "first" else size - 1)
            assert ks_statistic(sample, cdf) == reference_ks_statistic(sample, cdf)


@pytest.mark.parametrize("size", KS_SIZES)
def test_ks_statistic_equals_full_evaluation_in_the_far_tails(size):
    # where the reference CDF has rounded to exactly 0 or 1 over long runs
    rng = generator(SeedSpec(99, size))
    e = rng.standard_exponential(size)
    cases = [(40.0 * e, exp1_cdf), (-np.log(e) - 40.0, GumbelType(1).cdf),
             (-np.log(e) + 40.0, GumbelType(2).cdf),
             (rng.standard_gamma(2, size) - 30.0, PoissonizedMarginal(10**5, 2).cdf),
             (rng.normal(0.5, 1.0, size), uniform_cdf),
             (np.log(2.0 * rng.standard_gamma(1, size)) + 5.0, ChiSqLog(0).cdf)]
    for sample, cdf in cases:
        assert ks_statistic(sample, cdf) == reference_ks_statistic(sample, cdf)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_pruned_ks_evaluates_a_fifth_of_a_large_null_sample(r):
    # the pooled poissonized-marginal sample of 3 traces at n = 1e5
    n = 10**5
    law = PoissonizedMarginal(n, r)
    shift = math.log(n) + (r - 1) * math.log(math.log(n))
    sample = generator(SeedSpec(100, r)).standard_gamma(r, 3 * n) - shift
    evaluated = []

    def counting_cdf(x):
        evaluated.append(np.size(x))
        return law.cdf(x)

    assert ks_statistic(sample, counting_cdf) == reference_ks_statistic(sample, law.cdf)
    assert sum(evaluated) < 0.2 * len(sample)


def test_pruned_ks_allows_a_cdf_off_monotone_by_a_few_ulps():
    # A stub CDF, flat at c up to a dip of 8 ulps just below a knot.  The
    # supremum is the distance above the dipped point; the block bound falls
    # a few ulps short of it, and the next knot's distance lies in between.
    # The dip is 4 ulps of a distance below 1/2, room for the next knot's in
    # between, so the knot lies near the middle of a sample of several blocks.
    for size in (60, 1000, 32773):
        block = _block_size(size)
        lo = 1 + (size // 2 // block) * block  # a knot's rank
        hi = lo + block
        c = 0.15
        dipped = c - 8 * np.spacing(c)
        bound = (hi - 1) / size - c
        top = (hi - 1) / size - dipped
        assert bound < top
        target = np.nextafter(np.nextafter(bound, 1.0), 1.0)
        at_hi = hi / size - target
        while hi / size - at_hi < target:
            at_hi = np.nextafter(at_hi, 0.0)
        table = np.full(size, c)
        table[hi - 2] = dipped
        table[hi - 1:] = at_hi + 1.5 * np.arange(size - hi + 1) / size
        sample = np.arange(size, dtype=float)

        def stub_cdf(x):
            return table[np.asarray(x).astype(np.int64)]

        assert bound < hi / size - at_hi < top
        assert sup_rank(sample, stub_cdf) == hi - 1
        assert reference_ks_statistic(sample, stub_cdf) == top
        assert ks_statistic(sample, stub_cdf) == top


def test_poisson_count_degenerate_mean():
    res = poisson_count_test([0] * 100, 1e-9)
    assert res.p_value == pytest.approx(1.0)


@pytest.mark.parametrize("total", [0, 30, 50, 75])
def test_poisson_count_single_cell_tests_the_total_exactly(total):
    # one count against mean 50 leaves one merged cell, so the total is tested
    # against Poisson(50) two-sided; a far-off mean used to pass with p = 1
    res = poisson_count_test([total], 50.0)
    tails = stats.poisson.cdf(total, 50.0), stats.poisson.sf(total - 1, 50.0)
    assert res.p_value == pytest.approx(min(1.0, 2 * min(tails)), rel=1e-12)
    assert res.statistic == pytest.approx((total - 50.0) ** 2 / 50.0)
    assert poisson_count_test([20] * 50, 22026.0).p_value < 1e-300


def test_poisson_count_null_calibration():
    fails = 0
    for t in range(50):
        counts = generator(SeedSpec(91, t)).poisson(1.0, 5000)
        if poisson_count_test(counts, 1.0).p_value <= 1e-3:
            fails += 1
    assert fails == 0


def test_poisson_count_power():
    counts = generator(SeedSpec(92, 0)).poisson(2.0, 5000)
    assert poisson_count_test(counts, 1.0).p_value < 1e-6


def test_poisson_cell_merge_properties():
    for mean in (0.3, 1.0, 7.5):
        counts = generator(SeedSpec(93, 0)).poisson(mean, 400)
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
        counts = generator(SeedSpec(96, 0)).poisson(mean, 5000)
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
    rng = generator(SeedSpec(94, 0))
    while len(vectors) < 5000:
        pattern = sample_limit_process(1, -3.0, rng)
        if pattern.mass >= m + 1:
            vectors.append(last_but(pattern, m))
    res = increment_test(np.array(vectors), 1, m)
    assert res.p_value > 1e-3
    assert res.details["max_abs_increment_correlation"] < 3.0 / math.sqrt(len(vectors))


def test_increment_test_transformed_marginal_is_exponential():
    # single-coordinate version: exp(-L_0) for r=1 is Exp(1)
    rng = generator(SeedSpec(95, 0))
    vectors = [last_but(sample_limit_process(1, -3.0, rng), 0) for _ in range(10_000)]
    res = increment_test(np.array(vectors), 1, 0)
    assert res.p_value > 1e-3


def test_increment_test_validation():
    with pytest.raises(ValueError):
        increment_test(np.zeros((5, 2)), 1, 2)
    with pytest.raises(ValueError):
        increment_test(np.array([[0.0, 1.0]]), 1, 1)  # increasing row
