"""Frozen pass thresholds for the asymptotic acceptance gates.

The limit statements verified by this package come with no convergence rates,
so the pass thresholds for fixed-n KS distances and mismatch frequencies were
calibrated once from pilot runs (``tools/calibrate.py``: n up to 1e5, 2000
replications, master seed 20240817) and frozen here.  The comment above each
threshold gives the pilot values behind it; to check for drift, rerun
``PYTHONPATH=src python3 tools/calibrate.py`` and compare its output with them.

The tolerances are the pilot distance at the gated n plus headroom for the
sampling noise of a 2000-replication empirical CDF (about 0.02-0.03).  The
r >= 2 statistics carry a slowly vanishing ln ln n / ln n centering bias, so
their pilot distances -- and hence their tolerances -- are an order of
magnitude larger than the r = 1 ones at desk-scale n.
"""
from __future__ import annotations

# KS distance of the normalized c-collection time against its Gumbel-type
# limit, gated at n = 1e4.  Pilot distances (2000 reps): c=1 0.0270 at n=1e4,
# 0.0155 at n=1e5; c=2 0.1283 at n=1e4, 0.1202 at n=1e5.
ERDOS_RENYI_KS_TOL: dict[int, float] = {1: 0.06, 2: 0.17}

# KS distance of the partial-collection statistic against the chi-square-log
# law (r=1) and the log-gamma law (r>=2), keyed by (r, m), gated at n = 1e4.
# Pilot distances (2000 reps) at n=1e4 and n=1e5: (1, 0) 0.0270, 0.0155;
# (1, 1) 0.0323, 0.0309; (1, 3) 0.0174, 0.0160; (2, 0) 0.1283, 0.1202;
# (2, 1) 0.1447, 0.1444; (3, 2) 0.4590, 0.4102.
PARTIAL_COLLECTION_KS_TOL: dict[tuple[int, int], float] = {
    (1, 0): 0.06,
    (1, 1): 0.07,
    (1, 3): 0.06,
    (2, 0): 0.17,
    (2, 1): 0.19,
    (3, 2): 0.52,
}

# Upper bound for the n=1e4 gate on the mismatch frequency between the discrete
# and poissonized normalized patterns on [-2, 2], r=1, 2000 replications.  It
# is a design target, not a calibrated value: the pilot frequency at n=1e4 is
# 0.131.  The poissonized time of draw k is Gamma(k, 1), about sqrt(k) from k,
# so each normalized point moves by about sqrt(ln n / n).  The exact expected
# number of types counted by one scheme only, an upper bound on the mismatch
# probability, is 0.162 at n=1e4 and falls below 0.05 at about n = 1.4e5.
COUPLING_MISMATCH_BOUND_N1E4: float = 0.05
