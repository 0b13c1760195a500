"""Point patterns, normalization, counts, order statistics, log maps."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dixiecup.discrete import run_discrete
from dixiecup.pointprocess import Normalization, PointPattern, h_transform
from dixiecup.samplers import SeedSpec

from oracles import (
    arrival_column,
    generator,
    last_but,
    normalize,
    partial_collection_time,
    sample_limit_process,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


def count_open_closed(pattern, a, b):
    """Number of points in the half-open interval (a, b]."""
    return int(np.searchsorted(pattern.points, b, side="right")
               - np.searchsorted(pattern.points, a, side="right"))


def test_normalization_reference_values():
    # x = n ln n maps to 0 for r = 1
    for n in (3, 10, 1000):
        assert Normalization(n, 1).apply(n * math.log(n)) == pytest.approx(0.0, abs=1e-12)
    # frozen high-precision evaluation of -ln 10 - ln ln 10
    assert Normalization(10, 2).apply(0.0) == pytest.approx(-3.136617538242002, abs=1e-12)


def test_normalization_validation_and_inverse():
    with pytest.raises(ValueError):
        Normalization(1, 1)
    with pytest.raises(ValueError):
        Normalization(10, 0)
    norm = Normalization(17, 3)
    x = np.array([-5.0, 0.0, 123.4])
    # apply is x -> x/n - shift, so adding the shift back and scaling by n inverts it
    assert np.allclose((norm.apply(x) + norm.shift) * 17, x)


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_normalize_preserves_mass_and_order(values):
    pattern = normalize(values, Normalization(7, 2))
    assert pattern.mass == len(values)
    assert (np.diff(pattern.points) >= 0).all()


def test_count_examples():
    pattern = PointPattern.from_values([-1.0, 0.5, 2.0])
    assert pattern.count(0, 1) == 1
    assert PointPattern().count(-10, 10) == 0
    assert PointPattern.from_values([0, 0, 1]).count(0, 0) == 2
    with pytest.raises(ValueError):
        pattern.count(1, 0)


@given(
    st.lists(finite_floats, min_size=0, max_size=40),
    st.tuples(finite_floats, finite_floats, finite_floats),
)
def test_count_additivity(values, endpoints):
    a, b, c = sorted(endpoints)
    pattern = PointPattern.from_values(values)
    assert pattern.count(a, b) + count_open_closed(pattern, b, c) == pattern.count(a, c)


def test_last_but_examples():
    pattern = PointPattern.from_values([1, 5, 3])
    assert list(last_but(pattern, 1)) == [5, 3]
    with pytest.raises(ValueError):
        last_but(PointPattern.from_values([1, 2]), 2)


@given(st.lists(finite_floats, min_size=1, max_size=20), st.integers(0, 19))
def test_last_but_matches_sort_oracle(values, m):
    pattern = PointPattern.from_values(values)
    if m + 1 > len(values):
        with pytest.raises(ValueError):
            last_but(pattern, m)
        return
    expected = sorted(values, reverse=True)[: m + 1]
    assert list(last_but(pattern, m)) == pytest.approx(expected)


def test_last_but_equals_partial_collection_times():
    n, r = 40, 2
    trace = run_discrete(n, r, SeedSpec(71, 0))
    norm = Normalization(n, r)
    pattern = normalize(arrival_column(trace, r), norm)
    lastbut = last_but(pattern, 5)
    for j in range(6):
        expected = float(norm.apply(partial_collection_time(trace, r, j)))
        assert lastbut[j] == pytest.approx(expected, rel=1e-12)


def test_h_transform_examples():
    assert h_transform(1.0, 1) == pytest.approx(0.0, abs=1e-14)
    assert h_transform(0.5, 3) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        h_transform(-1.0, 1)


@given(st.floats(1e-6, 1e6), st.integers(1, 6))
def test_h_round_trip(x, r):
    # the inverse map is y -> exp(-y) / (r-1)!
    assert np.exp(-h_transform(x, r) - math.lgamma(r)) == pytest.approx(x, rel=1e-12)


def test_rare_path_examples():
    pattern = PointPattern.from_values([-3.0, -1.0, 0.0, 2.5])
    assert [pattern.count_from(x) for x in (-10.0, -1.0, 1.0, 3.0)] == [4, 3, 1, 0]


def test_rare_path_equals_interval_counts_on_trace():
    n, r = 200, 2
    trace = run_discrete(n, r, SeedSpec(72, 0))
    norm = Normalization(n, r)
    pattern = normalize(arrival_column(trace, r), norm)
    thresholds = [-5.0, -1.0, 0.0, 1.0]
    for x in thresholds:
        # definitional identity with the raw-time threshold form
        raw_cut = n * x + n * math.log(n) + (r - 1) * n * math.log(math.log(n))
        assert pattern.count_from(x) == int(np.sum(arrival_column(trace, r) >= raw_cut))
        assert pattern.count_from(x) == pattern.count(x, math.inf)


def test_limit_process_mean_counts():
    rng = generator(SeedSpec(73, 0))
    counts = np.array([sample_limit_process(1, 0.0, rng).mass for _ in range(50_000)])
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - 1.0) < 3 * se

    rng = generator(SeedSpec(74, 0))
    window = np.array([
        sample_limit_process(3, 0.0, rng).count(0.0, math.log(2)) for _ in range(50_000)
    ])
    se = window.std(ddof=1) / math.sqrt(len(window))
    # quadrature oracle for the intensity mass on [0, ln 2] at r = 3
    from scipy.integrate import quad
    target, _ = quad(lambda x: math.exp(-x) / 2.0, 0.0, math.log(2))
    assert abs(window.mean() - target) < 3 * se


def test_limit_process_disjoint_counts_uncorrelated():
    rng = generator(SeedSpec(75, 0))
    left, right = [], []
    for _ in range(20_000):
        pattern = sample_limit_process(1, -1.0, rng)
        left.append(pattern.count(-1.0, 0.0))
        right.append(count_open_closed(pattern, 0.0, 10.0))
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(len(left))


def test_limit_process_points_stay_in_window():
    rng = generator(SeedSpec(76, 0))
    for _ in range(200):
        pattern = sample_limit_process(2, -1.5, rng)
        if pattern.mass:
            assert pattern.points.min() >= -1.5
