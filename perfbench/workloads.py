"""The benchmark's workloads and what each one is expected to stress.

A workload is a list of ``dixiecup`` command lines that together form one
*pass*.  Each command writes one report; the expected shape of every
experiment in that report travels with the command so the correctness gate
can check it without asking the product what it meant to do.

All inputs derive from the master seed a pass is given; runs of the same
inputs must give byte-identical reports.  Why each
workload was chosen, and its predicted dominant layer, is recorded in
``BENCHMARK.json``; the traced run checks the prediction.

Which end-to-end metric each layer's metrics should move, and on which
workload:

- discrete: wall_s and cpu_s on battery-slice; nothing on coupled-large-n.
- poissonized: wall_s and peak_rss_mb on coupled-large-n.  run_coupled shares
  the private _fill_arrivals, so a change there moves both samplers.
- samplers: replications_per_s on small-n-pool; about zero on battery-slice.
- pointprocess, limitlaws, gof: small-n-pool and nothing else.
- experiments: wall_s and cpu_s on small-n-pool.
- cli: negligible everywhere.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

# The battery's scale for ``battery-slice``: every 2000-replication config runs
# 20 replications, so one pass takes about 4 s on a 2-vCPU box while keeping
# the battery's n grid, r_max range and config mix.
BATTERY_SCALE = 0.01

# Replications for ``small-n-pool``: half the battery's full counts, so a pass
# is a few seconds and per-config pool start-up stays a visible share.
SMALL_N_REPS = 1000

# Replications for ``coupled-large-n``: one n=1e5 coupled trace costs about
# 0.2 s, so each call takes well under a second and a run times many of them.
LARGE_N_REPS = 3

# One small call made before timing, so first-call costs stay out of passes.
WARM_UP = ["verify", "--kind", "poissonized-marginal", "--n", "100", "--reps", "20",
           "--seed", "0"]

T1_INTERVALS = [(0.0, math.inf), (-1.0, 0.0), (0.0, 1.0)]
RARE_THRESHOLDS = [-1.0, 0.0, 1.0, 2.0]


@dataclass(frozen=True)
class Experiment:
    """What one experiment in a report must look like."""

    kind: str
    n_grid: tuple[int, ...]
    replications: int
    r: int = 1
    c: int = 1
    m: int = 0
    intervals: tuple[tuple[float, float], ...] = ((0.0, math.inf),)
    thresholds: tuple[float, ...] = tuple(RARE_THRESHOLDS)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass and the experiments its report holds."""

    report: str
    argv: tuple[str, ...]
    experiments: tuple[Experiment, ...]
    battery: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # layer whose self time should dominate the traced pass
    dominant_layer: str
    # (scheme, n, r_max) of the traces whose invariants are sampled after the
    # timed section; scheme is "discrete" or "coupled"
    traces: tuple[tuple[str, int, int], ...]
    # (seed, report directory, workers or None for the workload's own) -> commands
    commands: Callable[[int, str, int | None], list[Command]] = field(repr=False)


def _battery_experiments(scale: float) -> tuple[Experiment, ...]:
    def reps(base: int) -> int:
        return max(20, int(round(base * scale)))

    t1 = tuple(T1_INTERVALS)
    out = [Experiment("poissonized-marginal", (100,), reps(100), r=r) for r in (1, 2, 3)]
    out += [Experiment("theorem1-counts", (100, 10000), reps(2000), r=r, intervals=t1)
            for r in (1, 2)]
    out += [Experiment("erdos-renyi", (100, 1000, 10000), reps(2000), c=c) for c in (1, 2)]
    out += [Experiment("partial-collection", (10000,), reps(2000), r=1, m=2)]
    out += [Experiment("chi2-law", (10000,), reps(2000), r=r, m=m)
            for r, m in ((1, 0), (1, 1), (1, 3), (2, 0), (2, 1), (3, 2))]
    out += [Experiment("rare-path", (10000,), reps(2000), r=r) for r in (1, 2)]
    out += [Experiment("coupling-decay", (100, 1000, 10000), reps(2000), r=1,
                       intervals=((-2.0, 2.0),))]
    out += [Experiment("limit-consistency", (0,), reps(200), r=1, m=0)]
    return tuple(out)


def _verify(seed: int, out_dir: str, workers: int, index: int, exp: Experiment) -> Command:
    report = f"{index:02d}-{exp.kind}.json"
    argv = ["verify", "--kind", exp.kind, "--r", str(exp.r), "--c", str(exp.c),
            "--m", str(exp.m), "--reps", str(exp.replications),
            "--seed", str(seed + index), "--workers", str(workers),
            "--out", f"{out_dir}/{report}"]
    if exp.kind != "limit-consistency":
        argv += ["--n", ",".join(map(str, exp.n_grid))]
    for a, b in exp.intervals:
        argv.append(f"--interval={a},{b}")
    return Command(report, tuple(argv), (exp,))


def _battery_slice(seed, out_dir, workers):
    argv = ("battery", "--workers", str(workers or 1), "--scale", str(BATTERY_SCALE),
            "--seed", str(seed), "--out", f"{out_dir}/battery.json")
    return [Command("battery.json", argv, _battery_experiments(BATTERY_SCALE), battery=True)]


SMALL_N_EXPERIMENTS = (
    *(Experiment("poissonized-marginal", (100,), 100, r=r) for r in (1, 2, 3)),
    *(Experiment("erdos-renyi", (100, 1000), SMALL_N_REPS, c=c) for c in (1, 2)),
    Experiment("coupling-decay", (100, 1000), SMALL_N_REPS, r=1, intervals=((-2.0, 2.0),)),
    *(Experiment("theorem1-counts", (100,), SMALL_N_REPS, r=r, intervals=tuple(T1_INTERVALS))
      for r in (1, 2)),
    Experiment("limit-consistency", (0,), 200, r=1, m=0),
)


def _small_n_pool(seed, out_dir, workers):
    return [_verify(seed, out_dir, workers or 2, i, exp)
            for i, exp in enumerate(SMALL_N_EXPERIMENTS)]


LARGE_N_EXPERIMENTS = (
    Experiment("coupling-decay", (10000, 100000), LARGE_N_REPS, r=1, intervals=((-2.0, 2.0),)),
    *(Experiment("poissonized-marginal", (10000, 100000), LARGE_N_REPS, r=r) for r in (1, 2, 3)),
)


def _coupled_large_n(seed, out_dir, workers):
    return [_verify(seed, out_dir, workers or 1, i, exp)
            for i, exp in enumerate(LARGE_N_EXPERIMENTS)]


WORKLOADS = {
    w.name: w for w in (
        Workload("battery-slice", "discrete",
                 (("discrete", 100, 2), ("discrete", 1000, 2), ("discrete", 10000, 3),
                  ("coupled", 100, 3), ("coupled", 10000, 1)),
                 _battery_slice),
        Workload("small-n-pool", "discrete",
                 (("discrete", 100, 2), ("discrete", 1000, 2), ("coupled", 100, 3),
                  ("coupled", 1000, 1)),
                 _small_n_pool),
        Workload("coupled-large-n", "poissonized",
                 (("coupled", 10000, 3), ("coupled", 100000, 3)),
                 _coupled_large_n),
    )
}
