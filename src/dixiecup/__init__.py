"""Coupon-collector / Dixie-cup simulation and limit-law verification toolkit."""

from .samplers import SeedSpec
from .discrete import CollectorTrace, run_discrete
from .poissonized import run_coupled
from .pointprocess import Normalization, PointPattern
from .limitlaws import (
    ChiSqLog,
    GumbelType,
    LogGamma,
    PoissonizedMarginal,
    intensity_mass,
)
from .gof import GofResult, increment_test, ks_statistic, ks_test, poisson_count_test
from .experiments import (
    ExperimentConfig,
    run_bank,
    run_experiments,
)

__version__ = "0.1.0"
