#!/usr/bin/env python3
"""One-off calibration pilot for the frozen regression constants.

Runs the n-grid pilots behind ``dixiecup.calibration`` and prints the raw
numbers as one JSON object; the chosen thresholds are then frozen by hand into
that module.  Both pilots are experiment configs of ``PILOT_SEED`` on one
trace bank: replication ``j`` at ``n`` reads stream ``(n << 32) | j`` with the
largest r_max any pilot needs at that n, so where their grids overlap the KS
and mismatch pilots read the same traces.

Usage, from the root of a source checkout::

    PYTHONPATH=src python3 tools/calibrate.py
"""
from __future__ import annotations

import json

from dixiecup.experiments import ExperimentConfig, run_experiments

PILOT_SEED = 20240817
REPS = 2000
PAIRS = [(1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (3, 2)]
# n grids of the KS-distance pilot and of the coupling-mismatch pilot
DISCRETE_GRID = (100, 1000, 10000, 100000)
MISMATCH_GRID = (100, 1000, 10000)


def pilot(kind: str, grid, **fields) -> ExperimentConfig:
    return ExperimentConfig(kind, n_grid=list(grid), replications=REPS,
                            master_seed=PILOT_SEED, **fields)


def main() -> None:
    pilots = {f"erdos_renyi_ks_c{c}": pilot("erdos-renyi", DISCRETE_GRID, c=c)
              for c in (1, 2)}
    pilots.update({f"partial_ks_r{r}_m{m}": pilot("chi2-law", DISCRETE_GRID, r=r, m=m)
                   for r, m in PAIRS})
    pilots["mismatch"] = pilot("coupling-decay", MISMATCH_GRID, r=1, intervals=[(-2.0, 2.0)])

    results: dict = {f"discrete_n{n}": {} for n in DISCRETE_GRID}
    for name, report in zip(pilots, run_experiments(list(pilots.values()))):
        for row in report["results"]:
            if name == "mismatch":
                results[f"mismatch_n{row['n']}"] = row["value"]
            # the KS distance of each n; erdos-renyi adds a mean-identity row
            elif row["statistic_name"].startswith("ks"):
                results[f"discrete_n{row['n']}"][name] = row["value"]
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()
