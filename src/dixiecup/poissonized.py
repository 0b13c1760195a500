"""Poissonized coupon scheme coupled with the discrete one on shared randomness."""
from __future__ import annotations

from .discrete import run_discrete

__all__ = ["run_coupled"]

# A trace holds both schemes of its stream: ``times`` and the jump chain
# ``arrivals`` derived from them, so the coupled sampler is the discrete one.
run_coupled = run_discrete
