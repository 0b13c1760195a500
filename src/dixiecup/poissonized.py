"""Poissonized coupon scheme coupled with the discrete one on shared randomness."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import CollectorTrace, _embed
from .pointprocess import Normalization
from .samplers import SeedSpec

__all__ = ["CoupledTrace", "run_coupled", "count_mismatch"]


@dataclass(frozen=True)
class CoupledTrace(CollectorTrace):
    """One realization of the poissonized scheme and its jump chain.

    ``times[i, k]`` is the continuous time of the (k+1)-th arrival of type
    ``i`` and ``arrivals[i, k]`` is the 1-based draw number of the same
    arrival.  Draws arrive at unit rate, so given ``arrivals[i, k] = a`` the
    time ``times[i, k]`` is Gamma(a, 1).
    """

    times: np.ndarray

    def time_column(self, r: int) -> np.ndarray:
        if not 1 <= r <= self.r_max:
            raise ValueError(f"multiplicity r={r} outside 1..{self.r_max}")
        return self.times[:, r - 1]


def run_coupled(n: int, r_max: int, stream: SeedSpec) -> CoupledTrace:
    """Simulate the coupled discrete/poissonized schemes from one seed.

    Both halves come from one generator: ``arrivals`` equals
    ``run_discrete(n, r_max, stream).arrivals`` and ``times`` are the
    poissonized arrival times they were derived from.
    """
    arrivals, times = _embed(stream.generator(), n, r_max)
    return CoupledTrace(n, r_max, arrivals, times)


def count_mismatch(trace: CoupledTrace, r: int, a: float, b: float) -> bool:
    """Whether the discrete and poissonized normalized patterns disagree on [a, b]."""
    norm = Normalization(trace.n, r)
    discrete_pts = norm.apply(trace.arrival_column(r))
    poisson_pts = norm.apply(trace.time_column(r))

    def inside(x):
        return int(np.count_nonzero((x >= a) & (x <= b)))

    return inside(discrete_pts) != inside(poisson_pts)
