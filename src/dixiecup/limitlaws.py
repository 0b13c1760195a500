"""Closed-form reference laws: limit distributions and exact finite-n laws.

These are the reference side of every goodness-of-fit comparison in the
package: each law is a frozen dataclass that checks its parameters on
construction and whose ``cdf`` is passed to the tests.  The regularized incomplete gamma function is delegated to
``scipy.special`` (series/continued-fraction evaluation, relative error well
below 1e-12 for the integer shapes used here).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "intensity_mass",
    "GumbelType",
    "LogGamma",
    "ChiSqLog",
    "PoissonizedMarginal",
]

def intensity_mass(r: int, a: float, b: float) -> float:
    """Mass of the measure exp(-x)/(r-1)! dx on [a, b]; b may be +inf."""
    if r < 1:
        raise ValueError(f"need r >= 1, got r={r}")
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    return (math.exp(-a) - (0.0 if math.isinf(b) else math.exp(-b))) / math.factorial(r - 1)


@dataclass(frozen=True)
class GumbelType:
    """Full-collection limit law, CDF exp(-exp(-x)/(c-1)!)."""

    c: int

    def __post_init__(self) -> None:
        if self.c < 1:
            raise ValueError(f"need c >= 1, got c={self.c}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            return np.exp(-np.exp(-x) / math.factorial(self.c - 1))


@dataclass(frozen=True)
class LogGamma:
    """Law of -ln (r-1)! - ln S, with S a sum of m+1 unit exponentials.

    Its CDF is the upper regularized incomplete gamma Q(m+1, exp(-x)/(r-1)!).
    """

    r: int
    m: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.m < 0:
            raise ValueError(f"need r >= 1 and m >= 0, got r={self.r}, m={self.m}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            arg = np.exp(-x) / math.factorial(self.r - 1)
        return special.gammaincc(self.m + 1, arg)

    @property
    def name(self) -> str:
        return f"log-gamma(r={self.r}, m={self.m})"


@dataclass(frozen=True)
class ChiSqLog:
    """Law of the logarithm of a chi-square variate with 2m+2 degrees of freedom."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"need m >= 0, got m={self.m}")

    def cdf(self, y):
        y = np.asarray(y, dtype=np.float64)
        with np.errstate(over="ignore"):
            return special.gammainc(self.m + 1, np.exp(y) / 2.0)

    @property
    def name(self) -> str:
        return f"chisq-log(m={self.m})"


@dataclass(frozen=True)
class PoissonizedMarginal:
    """Exact finite-n law of the normalized poissonized r-th arrival time.

    Its CDF is the lower regularized incomplete gamma
    P(r, x + ln n + (r-1) ln ln n), zero below the support edge.
    """

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={self.r}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        shifted = x + math.log(self.n) + (self.r - 1) * math.log(math.log(self.n))
        return special.gammainc(self.r, np.maximum(shifted, 0.0))
