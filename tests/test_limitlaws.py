"""Reference laws: frozen values, cross-law identities, calculus consistency."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from dixiecup.limitlaws import (
    ChiSqLog,
    GumbelType,
    LogGamma,
    PoissonizedMarginal,
    intensity_mass,
)


def test_intensity_mass_values():
    assert intensity_mass(1, 0.0, math.inf) == pytest.approx(1.0, rel=1e-14)
    # quadrature oracle at r=3 on [0, ln 2]
    target, _ = quad(lambda x: math.exp(-x) / 2.0, 0.0, math.log(2))
    assert intensity_mass(3, 0.0, math.log(2)) == pytest.approx(target, rel=1e-10)
    assert intensity_mass(3, 0.0, math.log(2)) == pytest.approx(0.25, rel=1e-14)
    with pytest.raises(ValueError):
        intensity_mass(1, 1.0, 0.0)


def test_intensity_matches_pushforward_of_lebesgue():
    # the image of [a, b] under the inverse log map y -> exp(-y)/(r-1)! has
    # Lebesgue length equal to the intensity mass, for every r
    for r in (1, 2, 4):
        for a, b in ((-1.0, 0.5), (0.0, 3.0)):
            length = np.exp(-a - math.lgamma(r)) - np.exp(-b - math.lgamma(r))
            assert intensity_mass(r, a, b) == pytest.approx(float(length), rel=1e-12)


def test_gumbel_type_values():
    assert GumbelType(1).cdf(0.0) == pytest.approx(0.36787944117144233, rel=1e-14)
    assert GumbelType(3).cdf(0.0) == pytest.approx(0.6065306597126334, rel=1e-14)
    assert GumbelType(2).cdf(50.0) == pytest.approx(1.0, abs=1e-15)
    assert GumbelType(1).cdf(-40.0) == pytest.approx(0.0, abs=1e-15)


def test_gumbel_is_exp_of_negative_intensity_tail():
    xs = np.linspace(-3, 5, 50)
    for c in (1, 2, 4):
        expected = np.exp(-np.array([intensity_mass(c, x, math.inf) for x in xs]))
        assert np.allclose(GumbelType(c).cdf(xs), expected, rtol=1e-12)


def test_log_gamma_values():
    # m=0 reduces exactly to the Gumbel-type law with c = r
    xs = np.linspace(-5, 5, 41)
    for r in (1, 2, 3):
        assert np.allclose(LogGamma(r, 0).cdf(xs), GumbelType(r).cdf(xs), rtol=1e-12)
    # Erlang tail oracle: P(S_2 >= 1) = 2 e^{-1}
    assert LogGamma(1, 1).cdf(0.0) == pytest.approx(0.7357588823428847, rel=1e-13)
    assert LogGamma(1, 1).cdf(-50.0) == pytest.approx(0.0, abs=1e-15)


def test_chisq_log_values_and_identity():
    # chi-square with 2 dof is Exp(mean 2): F(2) = 1 - e^{-1}
    assert ChiSqLog(0).cdf(math.log(2)) == pytest.approx(0.6321205588285577, rel=1e-13)
    assert ChiSqLog(1).cdf(60.0) == pytest.approx(1.0, abs=1e-15)
    # ln(2 S_{m+1}) and the log-chi-square law coincide:
    # F_chisq_log(m, y) = 1 - F_log_gamma(r=1, m)(ln 2 - y)
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(0, 6))
        y = float(rng.uniform(-5, 5))
        lhs = float(ChiSqLog(m).cdf(y))
        rhs = 1.0 - float(LogGamma(1, m).cdf(math.log(2) - y))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_exact_poissonized_marginal():
    # below the support edge the CDF vanishes
    assert PoissonizedMarginal(100, 2).cdf(-20.0) == 0.0
    # r=1 closed form: 1 - exp(-x)/n on the support
    for n in (10, 1000):
        for x in (-1.0, 0.0, 3.0):
            if x >= -math.log(n):
                expected = 1.0 - math.exp(-x) / n
                assert PoissonizedMarginal(n, 1).cdf(x) == pytest.approx(expected, rel=1e-12)


def test_marginal_density_scales_to_intensity():
    # n * density at fixed x converges to exp(-x)/(r-1)!; density via a
    # centered finite difference of the CDF
    eps = 1e-3
    for r in (1, 2, 3):
        for x in (-1.0, 0.0, 2.0):
            limit = math.exp(-x) / math.factorial(r - 1)
            errors = []
            for n in (10**3, 10**6, 10**9):
                hi = PoissonizedMarginal(n, r).cdf(x + eps)
                lo = PoissonizedMarginal(n, r).cdf(x - eps)
                scaled = n * (hi - lo) / (2 * eps)
                errors.append(abs(scaled - limit))
                # independent algebra: the scaled density carries the factor
                # (1 + (r-1) ln ln n / ln n + x / ln n)^(r-1)
                log_n = math.log(n)
                factor = (1 + (r - 1) * math.log(log_n) / log_n + x / log_n) ** (r - 1)
                assert scaled == pytest.approx(limit * factor, rel=1e-3)
            # convergence toward the limit is monotone on this grid, up to the
            # rounding floor of the finite difference at the largest n
            assert all(a > b for a, b in zip(errors, errors[1:])) or errors[-1] < 1e-4


def test_cdfs_monotone_with_unit_limits():
    grid = np.linspace(-20, 20, 10_000)
    for law in (GumbelType(2), LogGamma(2, 1), ChiSqLog(3), PoissonizedMarginal(50, 2)):
        values = np.asarray(law.cdf(grid))
        assert (np.diff(values) >= -1e-12).all()
        assert values[0] < 1e-6 and values[-1] > 1 - 1e-6
        assert ((0.0 <= values) & (values <= 1.0)).all()


def test_density_cdf_consistency():
    # numerical derivative of each CDF against its stated density
    eps = 1e-6
    cases = [
        (GumbelType(2).cdf, lambda x: math.exp(-x) * math.exp(-math.exp(-x))),
        (ChiSqLog(0).cdf, lambda x: 0.5 * math.exp(x) * math.exp(-math.exp(x) / 2)),
        (LogGamma(1, 1).cdf, lambda x: math.exp(-2 * x) * math.exp(-math.exp(-x))),
    ]
    for cdf, density in cases:
        for x in np.linspace(-2, 2, 21):
            numeric = (cdf(x + eps) - cdf(x - eps)) / (2 * eps)
            assert abs(numeric - density(float(x))) < 1e-6


def test_parameter_validation():
    # each law checks its parameters on construction
    for make in (lambda: GumbelType(0), lambda: LogGamma(0, 0), lambda: LogGamma(1, -1),
                 lambda: ChiSqLog(-1), lambda: PoissonizedMarginal(1, 1),
                 lambda: PoissonizedMarginal(10, 0)):
        with pytest.raises(ValueError):
            make()
