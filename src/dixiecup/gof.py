"""Goodness-of-fit machinery: KS against continuous laws, chi-square for counts.

Every reference law is evaluated with a ``scipy.special`` function:

* Kolmogorov p-value: ``special.kolmogorov``;
* Poisson pmf at k: ``exp(xlogy(k, mean) - gammaln(k + 1) - mean)``;
* Poisson upper tail P(X > k): ``special.pdtrc(k, mean)``;
* chi-square upper tail: ``special.chdtrc(dof, statistic)``.

These are the expressions that scipy's own ``poisson.pmf``, ``poisson.sf`` and
``chi2.sf`` distribution methods evaluate, so every p-value is bit-identical
to theirs.  The ``stats`` subpackage is not imported: loading it costs nearly
a second of start-up and about 45 MB of resident memory in every process
that imports this package, and nothing else in it is used here.

The KS supremum is exact but does not evaluate the reference CDF everywhere.
For a sorted sample of at least ``_PRUNE_MIN_SIZE`` points, the CDF ``F`` is
first evaluated at knots: every ``block``-th rank and the last.  A point of
rank k has ``grid_k = k / size`` and ``lower_k = grid_k - 1 / size``.  Between
two knots lo < hi, every rank k has ``grid_k <= grid_(hi-1)`` and
``lower_k >= lower_(lo+1)`` and, because a CDF is nondecreasing,
``F_lo <= F_k <= F_hi``.  IEEE rounding is monotone too, so the computed
distances obey

    fl(grid_k - F_k) <= fl(grid_(hi-1) - F_lo)
    fl(F_k - lower_k) <= fl(F_hi - lower_(lo+1))

Only the blocks whose bound reaches the largest distance at the knots, less a
slack of a few ulps for a CDF that is not monotone to the last bit, are
evaluated in full.  Every skipped point's distance is at most that largest
one, so the result is the float that evaluating every point gives.  Below
the size threshold the bookkeeping costs more than a cheap CDF saves, and
every point is evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = ["GofResult", "ks_test", "ks_statistic", "poisson_count_test", "increment_test"]

# Minimum expected cell count after merging in the chi-square test.
_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class GofResult:
    statistic: float
    p_value: float
    sample_size: int
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.statistic < 0:
            raise ValueError("statistic must be nonnegative")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p-value must lie in [0, 1]")


# Sample size from which the KS supremum is pruned.  Measured: below it the
# cheapest reference CDFs here (Gumbel, uniform, Exp(1)) are faster evaluated
# at every point; from it on pruning was faster for every law.
_PRUNE_MIN_SIZE = 16384
# Slack of the block bound: a CDF may fall short of monotone by a few ulps.
_SLACK = 8 * np.finfo(np.float64).eps


def _block_size(size: int) -> int:
    """Points per block of the pruned supremum.  A null sample's supremum sits
    a few 1/sqrt(size) above its typical distance, so blocks of about
    sqrt(size)/10 points keep the bound tight enough that few are evaluated."""
    return max(8, math.isqrt(size) // 10)


def _distances(points, ranks, size, cdf):
    """Reference CDF at ``points`` of the sorted sample, whose 1-based ranks
    are ``ranks``, and the empirical CDF's distances above and below it."""
    ref = np.asarray(cdf(points), dtype=np.float64)
    grid = ranks / size
    return ref, grid - ref, ref - (grid - 1.0 / size)


def ks_statistic(sample, cdf) -> float:
    """Two-sided sup-distance between the empirical CDF and the callable ``cdf``.

    ``cdf`` must be nondecreasing and act elementwise.  Large samples are
    evaluated only where the supremum can lie (see the module docstring); the
    result is the same float either way.
    """
    sample = np.sort(np.asarray(sample, dtype=np.float64))
    size = len(sample)
    if size == 0:
        raise ValueError("KS test needs a nonempty sample")
    if size < _PRUNE_MIN_SIZE:
        _, d_plus, d_minus = _distances(sample, np.arange(1, size + 1), size, cdf)
        return float(max(np.max(d_plus), np.max(d_minus), 0.0))
    block = _block_size(size)
    knots = np.arange(1, size + block, block)  # ranks 1, 1 + block, ...
    knots[-1] = size  # ... and the last
    ref, d_plus, d_minus = _distances(sample[knots - 1], knots, size, cdf)
    best = max(np.max(d_plus), np.max(d_minus), 0.0)
    # bound the distances at the ranks strictly between two consecutive knots
    lo, hi = knots[:-1], knots[1:]
    bound = np.maximum((hi - 1) / size - ref[:-1], ref[1:] - ((lo + 1) / size - 1.0 / size))
    ranks = (lo[bound >= best - _SLACK, None] + np.arange(1, block)).ravel()
    ranks = ranks[ranks < size]
    if len(ranks) == 0:
        return float(best)
    _, d_plus, d_minus = _distances(sample[ranks - 1], ranks, size, cdf)
    return float(max(best, np.max(d_plus), np.max(d_minus)))


def ks_test(sample, cdf) -> GofResult:
    """KS test with the asymptotic Kolmogorov p-value.

    The p-value is the tail of the limit law of ``sqrt(size) * statistic``.  At
    the levels used here it exceeds the exact finite-size tail, so the test is
    conservative, most at the smallest samples the battery pools:
    partial-collection pools 60 increments at ``--scale 0.01``, where a nominal
    level of 1e-3 rejects a true null with probability about 7.8e-4.
    """
    statistic = ks_statistic(sample, cdf)
    size = len(np.asarray(sample))
    p_value = float(special.kolmogorov(math.sqrt(size) * statistic))
    return GofResult(statistic, p_value, size)


def _poisson_probs(k_max: int, mean: float) -> np.ndarray:
    """P(X = k) for k = 0..k_max, then P(X > k_max), for X ~ Poisson(mean)."""
    support = np.arange(k_max + 1)
    pmf = np.exp(special.xlogy(support, mean) - special.gammaln(support + 1) - mean)
    return np.append(pmf, max(float(special.pdtrc(k_max, mean)), 0.0))


def _poisson_cells(counts: np.ndarray, mean: float):
    """Observed/expected cells over {0,...,k_max} plus the upper tail, merged so
    every expected count is at least 5.  Probabilities sum to one exactly."""
    total = len(counts)
    k_max = int(counts.max())
    probs = _poisson_probs(k_max, mean)
    observed = np.append(np.bincount(counts, minlength=k_max + 1).astype(float), 0.0)
    expected = total * probs

    obs_cells = list(observed)
    exp_cells = list(expected)
    # Merge right-to-left into the left neighbor, then sweep once more from the
    # left; terminates with every cell >= threshold or a single cell.
    i = len(exp_cells) - 1
    while i > 0:
        if exp_cells[i] < _MIN_EXPECTED:
            exp_cells[i - 1] += exp_cells.pop(i)
            obs_cells[i - 1] += obs_cells.pop(i)
        i -= 1
    while len(exp_cells) > 1 and exp_cells[0] < _MIN_EXPECTED:
        exp_cells[0] += exp_cells.pop(1)
        obs_cells[0] += obs_cells.pop(1)
    return np.asarray(obs_cells), np.asarray(exp_cells)


def poisson_count_test(counts, mean: float) -> GofResult:
    """Chi-square goodness of fit of integer counts against a Poisson mean."""
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) == 0:
        raise ValueError("count test needs a nonempty sample")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if not mean > 0:
        raise ValueError(f"need a positive mean, got {mean}")
    observed, expected = _poisson_cells(counts, mean)
    dof = len(expected) - 1
    if dof == 0:
        return GofResult(0.0, 1.0, len(counts))
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    p_value = float(special.chdtrc(dof, statistic))
    return GofResult(statistic, p_value, len(counts))


def increment_test(lastbut_vectors, r: int, m: int) -> GofResult:
    """Test that transformed gaps between consecutive last-but-j points are Exp(1).

    Each input row holds the m+1 largest normalized points, largest first.  The
    map w_j = (r-1)! exp(-L_j) turns them into partial sums of the limiting
    unit exponentials, whose first differences (and the j=0 term itself) are
    pooled and KS-tested against Exp(1).  The largest absolute pairwise
    increment correlation is reported in ``details``.
    """
    vectors = np.asarray(lastbut_vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != m + 1:
        raise ValueError(f"expected rows of length m+1={m + 1}, got shape {vectors.shape}")
    if np.any(np.diff(vectors, axis=1) > 0):
        raise ValueError("rows must be nonincreasing (largest point first)")
    partial_sums = math.factorial(r - 1) * np.exp(-vectors)
    increments = np.diff(partial_sums, axis=1, prepend=0.0)
    pooled = increments.ravel()

    def exp1_cdf(x):
        return -np.expm1(-np.asarray(x, dtype=np.float64))

    res = ks_test(pooled, exp1_cdf)
    details: dict = {}
    if m >= 1 and len(vectors) >= 2:
        corr = np.corrcoef(increments, rowvar=False)
        off_diag = corr[~np.eye(m + 1, dtype=bool)]
        details["max_abs_increment_correlation"] = float(np.max(np.abs(off_diag)))
    return GofResult(res.statistic, res.p_value, len(vectors), details=details)
