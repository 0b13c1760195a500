"""Poissonized coupon scheme coupled with the discrete one on shared randomness."""
from __future__ import annotations

import numpy as np

from .discrete import CollectorTrace, run_discrete
from .pointprocess import Normalization

__all__ = ["run_coupled", "count_mismatch"]

# A trace holds both schemes of its stream: ``times`` and the jump chain
# ``arrivals`` derived from them, so the coupled sampler is the discrete one.
run_coupled = run_discrete


def count_mismatch(trace: CollectorTrace, r: int, a: float, b: float) -> bool:
    """Whether the discrete and poissonized normalized patterns disagree on [a, b]."""
    norm = Normalization(trace.n, r)
    discrete_pts = norm.apply(trace.arrival_column(r))
    poisson_pts = norm.apply(trace.time_column(r))

    def inside(x):
        return int(np.count_nonzero((x >= a) & (x <= b)))

    return inside(discrete_pts) != inside(poisson_pts)
