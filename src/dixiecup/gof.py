"""Goodness-of-fit machinery: KS against continuous laws, chi-square for counts.

Every reference law is evaluated with a ``scipy.special`` function:

* Kolmogorov p-value: ``special.kolmogorov``;
* Poisson pmf at k: ``exp(xlogy(k, mean) - gammaln(k + 1) - mean)``;
* Poisson tails P(X <= k) and P(X > k): ``special.pdtr(k, mean)`` and
  ``special.pdtrc(k, mean)``;
* chi-square upper tail: ``special.chdtrc(dof, statistic)``.

These are the expressions that scipy's own ``poisson.pmf``, ``poisson.sf`` and
``chi2.sf`` distribution methods evaluate, so every p-value is bit-identical
to theirs.  The ``stats`` subpackage is not imported: loading it costs nearly
a second of start-up and about 45 MB of resident memory in every process
that imports this package, and nothing else in it is used here.

The KS supremum is exact but does not evaluate the reference CDF everywhere.
The CDF ``F`` of a sorted sample is first evaluated at knots: every
``block``-th rank and the last.  A point of rank k has ``grid_k = k / size``
and ``lower_k = grid_k - 1 / size``.  Between two knots lo < hi, every rank
k has ``grid_k <= grid_(hi-1)`` and ``lower_k >= lower_(lo+1)`` and,
because a CDF is nondecreasing, ``F_lo <= F_k <= F_hi``.  IEEE rounding is
monotone too, so the computed distances obey

    fl(grid_k - F_k) <= fl(grid_(hi-1) - F_lo)
    fl(F_k - lower_k) <= fl(F_hi - lower_(lo+1))

Only the blocks whose bound reaches the largest distance at the knots, less a
slack of a few ulps for a CDF that is not monotone to the last bit, are
evaluated in full.  Every skipped point's distance is at most that largest
one, so the result is the float that evaluating every point gives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = ["GofResult", "ks_test", "ks_statistic", "ks_p_value", "poisson_count_test",
           "increment_test"]

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


def ks_statistic(sample, cdf):
    """Two-sided sup-distance between the empirical CDF and the callable ``cdf``.

    ``cdf`` must be nondecreasing and act elementwise.  It is evaluated only
    where the supremum can lie (see the module docstring); the result is the
    float that evaluating it at every point gives.  A 2-D ``sample`` is one
    sample per row, all of one size, and gives an array of one statistic per
    row, each the float its row alone gives: a 1-D sample is the one-row case.
    """
    sample = np.sort(np.asarray(sample, dtype=np.float64), axis=-1)
    size = sample.shape[-1]
    if size == 0:
        raise ValueError("KS test needs a nonempty sample")
    rows = sample.reshape(-1, size)
    block = _block_size(size)
    knots = np.arange(1, size + block, block)  # ranks 1, 1 + block, ...
    knots[-1] = size  # ... and the last
    ref, d_plus, d_minus = _distances(rows[:, knots - 1], knots, size, cdf)
    best = np.maximum(np.maximum(d_plus.max(axis=1), d_minus.max(axis=1)), 0.0)
    # bound the distances at the ranks strictly between two consecutive knots
    lo, hi = knots[:-1], knots[1:]
    bound = np.maximum((hi - 1) / size - ref[:, :-1], ref[:, 1:] - ((lo + 1) / size - 1.0 / size))
    row, at = np.nonzero(bound >= best[:, None] - _SLACK)
    ranks = lo[at, None] + np.arange(1, block)
    inside = ranks < size
    row, ranks = np.broadcast_to(row[:, None], ranks.shape)[inside], ranks[inside]
    if len(ranks):
        _, d_plus, d_minus = _distances(rows[row, ranks - 1], ranks, size, cdf)
        np.maximum.at(best, row, np.maximum(d_plus, d_minus))
    return float(best[0]) if sample.ndim == 1 else best


def ks_p_value(statistic, size: int):
    """The asymptotic Kolmogorov p-value of a KS statistic, or an array of
    them, of samples of ``size`` points: the tail of the limit law of
    ``sqrt(size) * statistic``."""
    return special.kolmogorov(math.sqrt(size) * statistic)


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
    return GofResult(statistic, float(ks_p_value(statistic, size)), size)


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
    """Chi-square goodness of fit of integer counts against a Poisson mean.

    When merging leaves one cell, which has no degree of freedom, the total S
    is tested exactly against Poisson(size * mean) instead, two-sided: p is
    min(1, 2 min(P(S <= s), P(S >= s))), and the statistic is the one-cell
    chi-square distance.
    """
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
        total, lam = int(counts.sum()), len(counts) * mean
        # P(S >= 0) is 1, and pdtrc(-1, lam) is nan
        above = special.pdtrc(total - 1, lam) if total else 1.0
        p_value = min(1.0, 2.0 * float(min(special.pdtr(total, lam), above)))
        return GofResult((total - lam) ** 2 / lam, p_value, len(counts))
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    p_value = float(special.chdtrc(dof, statistic))
    return GofResult(statistic, p_value, len(counts))


def increment_test(lastbut_vectors, r: int, m: int) -> GofResult:
    """Test that transformed gaps between consecutive last-but-j points are Exp(1).

    Each input row holds the m+1 largest normalized points, largest first.  The
    map w_j = (r-1)! exp(-L_j) turns them into partial sums of the limiting
    unit exponentials, whose first differences (and the j=0 term itself) are
    pooled and KS-tested against Exp(1).  The largest absolute pairwise
    increment correlation is reported in ``details``, unless some increment
    is the same in every row.

    Where a partial sum overflows, its increment is formed in log space, as
    exp(log (r-1)! - L_j + log(1 - exp(L_j - L_(j-1)))), which subtracts no
    infinities.  An increment that still overflows lies beyond the float
    range, where the Exp(1) tail is 0 in floating point, so the p-value is 0
    and no correlation is reported.
    """
    vectors = np.asarray(lastbut_vectors, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[1] != m + 1:
        raise ValueError(f"expected rows of length m+1={m + 1}, got shape {vectors.shape}")
    if np.any(np.diff(vectors, axis=1) > 0):
        raise ValueError("rows must be nonincreasing (largest point first)")
    with np.errstate(over="ignore", invalid="ignore"):
        partial_sums = math.factorial(r - 1) * np.exp(-vectors)
        increments = np.diff(partial_sums, axis=1, prepend=0.0)
    overflowed = ~np.isfinite(increments)
    if overflowed.any():
        # L_j - L_(j-1) <= 0, and -inf before the first point
        with np.errstate(over="ignore", divide="ignore"):
            log_gaps = np.log(-np.expm1(np.diff(vectors, axis=1, prepend=np.inf)))
            logs = math.lgamma(r) - vectors + log_gaps
            increments[overflowed] = np.exp(logs[overflowed])
    pooled = increments.ravel()
    res = ks_test(pooled, lambda x: -np.expm1(-x))  # the Exp(1) CDF
    finite = bool(np.isfinite(pooled).all())
    details: dict = {}
    # a column that never varies, as in a lone replication, has no correlation
    if m >= 1 and finite and np.ptp(increments, axis=0).all():
        corr = np.corrcoef(increments, rowvar=False)
        off_diag = corr[~np.eye(m + 1, dtype=bool)]
        details["max_abs_increment_correlation"] = float(np.max(np.abs(off_diag)))
    return GofResult(res.statistic, res.p_value if finite else 0.0, len(vectors),
                     details=details)
