"""Closed-form reference laws: limit distributions and exact finite-n laws.

These are the reference side of every goodness-of-fit comparison in the
package.  The regularized incomplete gamma function is delegated to
``scipy.special`` (series/continued-fraction evaluation, relative error well
below 1e-12 for the integer shapes used here).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "EULER_GAMMA",
    "intensity_mass",
    "gumbel_type_cdf",
    "log_gamma_cdf",
    "chisq_log_cdf",
    "exact_poissonized_marginal_cdf",
    "er_expectation",
    "GumbelType",
    "LogGamma",
    "ChiSqLog",
    "PoissonizedMarginal",
]

# Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061


def intensity_mass(r: int, a: float, b: float) -> float:
    """Mass of the measure exp(-x)/(r-1)! dx on [a, b]; b may be +inf."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    return (math.exp(-a) - (0.0 if math.isinf(b) else math.exp(-b))) / math.factorial(r - 1)


def gumbel_type_cdf(c: int, x):
    """CDF exp(-exp(-x)/(c-1)!) of the full-collection limit law."""
    if c < 1:
        raise ValueError(f"need c >= 1, got c={c}")
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(-x) / math.factorial(c - 1))


def log_gamma_cdf(r: int, m: int, x):
    """CDF of -ln (r-1)! - ln S, with S a sum of m+1 unit exponentials.

    Equals the upper regularized incomplete gamma Q(m+1, exp(-x)/(r-1)!).
    """
    if r < 1 or m < 0:
        raise ValueError(f"need r >= 1 and m >= 0, got r={r}, m={m}")
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        arg = np.exp(-x) / math.factorial(r - 1)
    return special.gammaincc(m + 1, arg)


def chisq_log_cdf(m: int, y):
    """CDF of the logarithm of a chi-square variate with 2m+2 degrees of freedom."""
    if m < 0:
        raise ValueError(f"need m >= 0, got m={m}")
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(over="ignore"):
        return special.gammainc(m + 1, np.exp(y) / 2.0)


def exact_poissonized_marginal_cdf(n: int, r: int, x):
    """Exact finite-n CDF of the normalized poissonized r-th arrival time.

    The lower regularized incomplete gamma P(r, x + ln n + (r-1) ln ln n),
    zero below the support edge.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    x = np.asarray(x, dtype=np.float64)
    shifted = x + math.log(n) + (r - 1) * math.log(math.log(n))
    return special.gammainc(r, np.maximum(shifted, 0.0))


def er_expectation(n: int, c: int) -> float:
    """Three-term expectation approximation for the c-collection time."""
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if c < 1:
        raise ValueError(f"need c >= 1, got c={c}")
    log_n = math.log(n)
    return n * log_n + (c - 1) * n * math.log(log_n) + (EULER_GAMMA - math.lgamma(c)) * n


@dataclass(frozen=True)
class GumbelType:
    c: int

    def cdf(self, x):
        return gumbel_type_cdf(self.c, x)

    @property
    def name(self) -> str:
        return f"gumbel-type(c={self.c})"


@dataclass(frozen=True)
class LogGamma:
    r: int
    m: int

    def cdf(self, x):
        return log_gamma_cdf(self.r, self.m, x)

    @property
    def name(self) -> str:
        return f"log-gamma(r={self.r}, m={self.m})"


@dataclass(frozen=True)
class ChiSqLog:
    m: int

    def cdf(self, x):
        return chisq_log_cdf(self.m, x)

    @property
    def name(self) -> str:
        return f"chisq-log(m={self.m})"


@dataclass(frozen=True)
class PoissonizedMarginal:
    n: int
    r: int

    def cdf(self, x):
        return exact_poissonized_marginal_cdf(self.n, self.r, x)

    @property
    def name(self) -> str:
        return f"poissonized-marginal(n={self.n}, r={self.r})"
