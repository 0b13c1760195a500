"""Experiment orchestration: determinism, aggregation, persistence."""
import csv
import functools
import importlib.util
import json
import math
import multiprocessing
import operator
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from dixiecup import calibration, discrete, experiments, samplers
from dixiecup.cli import _verify_config, battery_configs, build_parser
from dixiecup.discrete import CollectorTrace, block_size, run_discrete
from dixiecup.experiments import (
    CSV_COLUMNS,
    ConfigError,
    KINDS,
    ExperimentConfig,
    check_report,
    run_bank,
    run_experiments,
    write_csv,
    write_json,
)
from dixiecup.samplers import SeedSpec

from oracles import EXTRACT


def run_one(config, workers=1):
    (report,) = run_experiments([config], workers)
    return report


def small_config(kind, **kwargs):
    defaults = dict(kind=kind, n_grid=[20], replications=30, master_seed=5)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# configuration

def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="nonsense").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="erdos-renyi", n_grid=[]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="erdos-renyi", n_grid=[1]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="erdos-renyi", n_grid=[20, 20]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="chi2-law", r=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="chi2-law", m=-1).validate()
    # a trace of n types has no last-but-m point for m >= n
    for kind in ("partial-collection", "chi2-law"):
        with pytest.raises(ConfigError, match="m < n"):
            ExperimentConfig(kind=kind, n_grid=[5], m=6).validate()
        with pytest.raises(ConfigError, match="m < n"):
            ExperimentConfig(kind=kind, n_grid=[100, 5], m=5).validate()
        ExperimentConfig(kind=kind, n_grid=[5], m=4).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="chi2-law", replications=0).validate()
    # a master seed keys its streams as a 64-bit unsigned word
    for kind in ("erdos-renyi", "limit-consistency"):
        for seed in (-1, 2**64):
            with pytest.raises(ConfigError, match="master_seed"):
                ExperimentConfig(kind=kind, master_seed=seed).validate()
        ExperimentConfig(kind=kind, master_seed=2**64 - 1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="chi2-law", significance=0.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="theorem1-counts", intervals=[(1.0, 0.0)]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="rare-path", thresholds=[1.0, 0.0]).validate()
    # a threshold at +-inf or nan gives a zero, infinite or nan Poisson mean
    for thresholds in ([0.0, math.inf], [math.nan], [-math.inf, 0.0]):
        with pytest.raises(ConfigError, match="thresholds"):
            ExperimentConfig(kind="rare-path", thresholds=thresholds).validate()
    # an experiment with nothing to test would pass with no verdicts
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="theorem1-counts", intervals=[]).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="rare-path", thresholds=[]).validate()


@pytest.mark.parametrize("kind,field,value,window", [
    ("theorem1-counts", "intervals", [(-1000.0, 0.0)], "[-1000.0, 0.0]"),
    ("theorem1-counts", "intervals", [(0.0, 1.0), (-math.inf, 0.0)], "[-inf, 0.0]"),
    ("theorem1-counts", "intervals", [(-math.inf, -math.inf)], "[-inf, -inf]"),
    ("theorem1-counts", "intervals", [(1.0, 1.0)], "[1.0, 1.0]"),
    ("theorem1-counts", "intervals", [(800.0, math.inf)], "[800.0, inf]"),
    ("rare-path", "thresholds", [-1000.0, 0.0], "[-1000.0, inf]"),
    ("rare-path", "thresholds", [0.0, 0.0], "[0.0, 0.0]"),
])
def test_counting_kinds_need_a_finite_positive_limit_mass(kind, field, value, window):
    """The limit mass of a window is the Poisson mean its counts are tested
    against, so one that overflows, is infinite or is zero fails validation."""
    cfg = ExperimentConfig(kind=kind, r=2, **{field: value})
    with pytest.raises(ConfigError, match=re.escape(window)):
        cfg.validate()


def test_coupling_decay_takes_infinite_endpoints():
    for interval in ((-math.inf, 0.0), (-math.inf, math.inf), (-1000.0, 0.0)):
        ExperimentConfig(kind="coupling-decay", intervals=[interval]).validate()


def test_every_kind_has_a_description():
    assert set(KINDS) == {
        "poissonized-marginal", "theorem1-counts", "erdos-renyi",
        "partial-collection", "chi2-law", "rare-path", "coupling-decay",
        "limit-consistency",
    }
    assert all(isinstance(k.description, str) and k.description for k in KINDS.values())


# ---------------------------------------------------------------------------
# determinism

def test_same_seed_gives_identical_report():
    cfg = small_config("erdos-renyi", n_grid=[15, 30])
    a = run_one(cfg)
    b = run_one(small_config("erdos-renyi", n_grid=[15, 30]))
    assert a == b


def test_worker_count_does_not_change_the_report(monkeypatch):
    # fork helpers even for a bank this small, so the parallel runs start real ones
    monkeypatch.setattr(experiments, "_POOL_MIN_COST", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    # chi2-law samples whole traces, poissonized-marginal alone only their times;
    # 600 replications at n = 20 and 30 are several blocks for the helpers to claim
    for fields in (dict(kind="chi2-law", r=1, m=1), dict(kind="poissonized-marginal", r=2),
                   dict(kind="chi2-law", r=2, m=1, n_grid=[20, 30], replications=600)):
        serial = run_one(small_config(**fields))
        for workers in (2, 3):
            assert run_one(small_config(**fields), workers=workers) == serial


def test_worker_count_below_one_is_rejected():
    with pytest.raises(ConfigError):
        run_bank(bank_configs(), workers=0)
    with pytest.raises(ConfigError):
        run_bank([])
    with pytest.raises(ConfigError):
        run_one(small_config("erdos-renyi"), workers=0)


def test_different_seed_changes_statistics():
    a = run_one(small_config("erdos-renyi"))
    b = run_one(small_config("erdos-renyi", master_seed=6))
    assert a["results"][0]["value"] != b["results"][0]["value"]


# ---------------------------------------------------------------------------
# the trace bank

def bank_configs(**shared):
    return [
        small_config("chi2-law", r=3, m=1, **shared),
        small_config("theorem1-counts", r=1, intervals=[(0.0, math.inf), (-1.0, 0.0)],
                     **shared),
        small_config("coupling-decay", r=2, intervals=[(-2.0, 2.0)], **shared),
        small_config("erdos-renyi", c=2, **shared),
    ]


# configs that share no seed, no grid or no replication count with bank_configs
MIXED = [dict(master_seed=6), dict(n_grid=[21]), dict(replications=31),
         dict(kind="limit-consistency")]


@pytest.fixture(scope="module")
def mixed_bank():
    """bank_configs at n = 15, 30 and one rare-path config per MIXED case, on one bank."""
    configs = bank_configs(n_grid=[15, 30]) + [
        small_config(**{"kind": "rare-path", "n_grid": [15, 30], **other}) for other in MIXED]
    return configs, run_bank(configs)


def bank_r_max(configs, cfg, n):
    """The r_max of the traces at (cfg's seed, n) on a bank of these configs."""
    return max(KINDS[c.kind].r_max(c) for c in configs
               if c.master_seed == cfg.master_seed and n in c.grid)


def test_bank_config_at_the_bank_r_max_sees_its_own_payloads(mixed_bank):
    configs, (per_config, draws, _, _) = mixed_bank
    alike = [k for k, cfg in enumerate(configs)
             if all(bank_r_max(configs, cfg, n) == KINDS[cfg.kind].r_max(cfg)
                    for n in cfg.grid)]
    # chi2-law r=3 and the MIXED configs of another seed, another grid, no trace
    assert alike == [0, 4, 5, 7]
    for k in alike:
        (alone,), (alone_draws,), _, _ = run_bank([configs[k]])
        assert typed(per_config[k]) == typed(alone) and draws[k] == alone_draws
    # bank_configs read the same 2 x 30 traces, so they count the same draws
    assert len(set(draws[:4])) == 1


def test_bank_worker_count_does_not_change_payloads(monkeypatch):
    monkeypatch.setattr(experiments, "_POOL_MIN_COST", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    # the second bank is several blocks at each n, for the helpers to claim
    for shared in ({}, dict(n_grid=[15, 30], replications=600)):
        serial = run_bank(bank_configs(**shared))
        for workers in (2, 3):
            parallel = run_bank(bank_configs(**shared), workers=workers)
            assert parallel[3] == workers
            assert typed(serial[:3]) == typed(parallel[:3])


def test_marginal_reads_the_same_times_without_the_jump_chain(monkeypatch):
    marginal = small_config("poissonized-marginal", r=2, n_grid=[15, 30])
    shared_per_config, shared_draws, traces, _ = run_bank(
        [marginal, small_config("chi2-law", r=2, m=0, n_grid=[15, 30])])
    # alone, no reader reads the jump chain, so none is derived: every block
    # derives its chain through its row sampler's chain, on either sampler
    def no_chain(self, states, times):
        raise AssertionError("the jump chain was derived")

    for rows in (discrete._NumpyRows, discrete._CompiledRows):
        monkeypatch.setattr(rows, "chain", no_chain)
    (alone,), draws, alone_traces, _ = run_bank([marginal])
    assert draws == [0] < shared_draws[:1] and alone_traces == traces
    assert typed(alone) == typed(shared_per_config[0])


def typed(value):
    """``value`` as nested (type, value) pairs, a float as its hex and an
    array as its bytes: two values are equal only if their types and bits are."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, dict):
        return "dict", [(key, typed(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [typed(item) for item in value]
    return type(value).__name__, value.hex() if isinstance(value, float) else value


def oracle_configs():
    """One config of every kind, on one bank: r_max 3 at each n of the grid,
    m up to n - 1, an infinite interval and several thresholds, and blocks
    that one config reads further than another."""
    grid = dict(n_grid=[5, 60], replications=300)
    return [
        small_config("poissonized-marginal", r=3, **grid),
        small_config("theorem1-counts", r=2, intervals=[(0.0, math.inf), (-1.0, 0.0)], **grid),
        small_config("erdos-renyi", c=2, **grid),
        small_config("partial-collection", r=2, m=4, **grid),
        small_config("chi2-law", r=1, m=2, n_grid=[5, 60], replications=200),
        small_config("chi2-law", r=3, m=1, **grid),
        small_config("rare-path", r=2, thresholds=[-1.0, 0.0, 1.0, 2.0], **grid),
        small_config("coupling-decay", r=1, intervals=[(-math.inf, 1.0)], **grid),
        small_config("limit-consistency", r=2, m=1, replications=20),
    ]


@pytest.fixture(scope="module")
def oracle_bank():
    configs = oracle_configs()
    return configs, run_bank(configs)


def test_block_payloads_are_the_per_trace_oracles(oracle_bank):
    """Each kind reads a whole block in array passes; row j must be the
    payload row that its per-trace oracle reads from the lone trace (or, at
    r_max 0, the stream) of replication j, and the payload array, in dtype,
    shape and bits, the oracle's rows as one array."""
    configs, (per_config, _, _, _) = oracle_bank
    assert {cfg.kind for cfg in configs} == set(KINDS)
    lone = {}
    for cfg, per_n in zip(configs, per_config):
        for n, payloads in per_n.items():
            r_max = bank_r_max(configs, cfg, n)
            for j in range(cfg.replications):
                if (n, j) not in lone:
                    stream = SeedSpec(cfg.master_seed, (n << 32) | j)
                    lone[n, j] = run_discrete(n, r_max, stream) if r_max else stream
            rows = [EXTRACT[cfg.kind](lone[n, j], cfg) for j in range(cfg.replications)]
            assert typed(payloads) == typed(np.array(rows))


def test_block_payloads_do_not_depend_on_the_block_size(oracle_bank, monkeypatch):
    configs, bank = oracle_bank
    monkeypatch.setattr(experiments, "block_size", lambda n, r_max: 1)
    alone = run_bank(configs)
    assert typed(alone[:3]) == typed(bank[:3])


def test_bank_builds_no_trace_objects(monkeypatch):
    """The bank extracts from whole blocks: it builds no per-trace object."""
    def no_trace(self, *args, **kwargs):
        raise AssertionError("the bank built a CollectorTrace")

    monkeypatch.setattr(CollectorTrace, "__init__", no_trace)
    configs = battery_configs(7, 0.01)
    per_config, *_ = run_bank(configs)
    assert [sum(map(len, per_n.values())) for per_n in per_config] == [
        cfg.replications * len(cfg.grid) for cfg in configs]


def test_a_bank_keys_each_seed_and_n_once(monkeypatch):
    """A bank keys the streams of each ``(seed, n)`` it reads in one hash
    call, before it samples any block, and builds no SeedSpec per replication."""
    discrete.row_sampler()  # its load check keys streams of its own
    calls = []

    def stream_keys(seeds, indices):
        calls.append(len(indices))
        return samplers.stream_keys(seeds, indices)

    def no_spec(self):
        raise AssertionError("the bank built a SeedSpec")

    monkeypatch.setattr(experiments, "stream_keys", stream_keys)
    monkeypatch.setattr(SeedSpec, "__post_init__", no_spec)
    configs = battery_configs(7, 0.01) + [small_config("erdos-renyi", master_seed=8,
                                                       n_grid=[100], replications=300)]
    reads = {}
    for cfg in configs:
        for n in cfg.grid:
            reads[cfg.master_seed, n] = max(reads.get((cfg.master_seed, n), 0), cfg.replications)
    run_bank(configs)
    assert sorted(calls) == sorted(reads.values())


def test_benchmark_banks_keep_their_process_counts(monkeypatch):
    """The banks of the benchmark's workloads, at their own worker counts,
    sample on the processes their timings were measured at: a change to the
    cost model that moves one of them changes what the benchmark measures."""
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    processes = {}
    for name, workload in workloads.WORKLOADS.items():
        for command in workload.commands(1, "reports", None):
            args = build_parser().parse_args(command.argv)
            configs = (battery_configs(args.seed, args.scale) if args.command == "battery"
                       else [_verify_config(args)])
            processes.setdefault(name, []).append(experiments._plan(configs, args.workers)[2])
    assert processes == {"battery-slice": [1], "small-n-pool": [1, 1, 1, 2, 2, 2, 1, 1, 1],
                         "coupled-large-n": [1, 1, 1, 1]}


def test_readers_of_one_block_get_what_each_reads_alone():
    """The battery configs of every kind that reads traces all read one
    block: the statistics they share, computed once per r for the largest m
    among them, give each the payloads it gets reading the block alone."""
    configs = [cfg for cfg in battery_configs(7, 0.01) if KINDS[cfg.kind].r_max(cfg)]
    for cfg in configs:
        cfg.n_grid = [60]
    r_max = max(KINDS[cfg.kind].r_max(cfg) for cfg in configs)
    task = (60, experiments.replication_keys(7, 60, 0, block_size(60, r_max)), r_max)
    together, _ = experiments._bank_block(configs, (*task, list(range(len(configs)))))
    assert len(together) == len(configs)
    for k, payloads in enumerate(together):
        (alone,), _ = experiments._bank_block(configs, (*task, [k]))
        assert typed(payloads) == typed(alone)


def record_bank_sizes(monkeypatch) -> list[int]:
    """Record the processes each parallel bank samples on, the parent and the
    helpers it starts, one entry per bank; the helpers still run."""
    sizes = []

    class Helper(multiprocessing.context.ForkProcess):
        def start(self):
            sizes[-1] += 1
            super().start()

    class Context(multiprocessing.context.ForkContext):
        Process = Helper

    def get_context(method):
        assert method == "fork"
        sizes.append(1)
        return Context()

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return sizes


def test_bank_starts_no_more_processes_than_tasks_or_cpus(monkeypatch):
    monkeypatch.setattr(experiments, "_POOL_MIN_COST", 0)
    sizes = record_bank_sizes(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    configs = bank_configs()
    assert typed(run_bank(configs, workers=5000)[:3]) == typed(run_bank(configs)[:3])
    # one config of one replication is one task, which runs serially
    run_bank([small_config("erdos-renyi", replications=1)], workers=5000)
    run_bank(configs, workers=2)
    assert sizes == [3, 2]
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    run_bank(configs, workers=5000)
    assert sizes == [3, 2]


def test_small_bank_starts_no_pool(monkeypatch):
    sizes = record_bank_sizes(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    # 4 configs reading 30 traces at n = 20: a bank far below the helpers' cost
    *_, processes = run_bank(bank_configs(), workers=2)
    assert sizes == [] and processes == 1
    # 300 traces of n * r_max = 2000 cost more than starting a helper
    *_, processes = run_bank([small_config("erdos-renyi", c=2, n_grid=[1000], replications=300)],
                             workers=2)
    assert sizes == [2] and processes == 2


# 300 traces at n = 1000 are 19 blocks, enough for the parent and a helper
FORKED_BANK = dict(n_grid=[1000], replications=300)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("error,raised,message", [
    (KeyError("helper block"), KeyError, "helper block"),
    (Unpicklable("helper block"), RuntimeError, r"Unpicklable\('helper block'\)"),
], ids=["picklable", "unpicklable"])
def test_helper_error_is_raised_in_the_parent(faults, error, raised, message):
    def fail():
        raise error

    faults(fail)
    with pytest.raises(raised, match=message):
        run_bank([small_config("erdos-renyi", **FORKED_BANK)], workers=2)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("other", MIXED)
def test_bank_rejects_configs_that_do_not_share_its_streams(mixed_bank, other):
    """A config of another seed, grid, replication count or a traceless kind
    used to be rejected by a bank of bank_configs; it is now served beside
    them on one bank, with the traces of its own (seed, n, j)."""
    configs, (per_config, _, traces, _) = mixed_bank
    # (5, n, j < 31) and (6, n, j < 30) at n = 15, 30; (5, 21, j < 30); (5, 0, j < 30)
    assert traces == 2 * 31 + 2 * 30 + 30 + 30
    k = len(configs) - len(MIXED) + MIXED.index(other)
    assert list(per_config[k]) == configs[k].grid
    assert all(len(payloads) == configs[k].replications
               for payloads in per_config[k].values())


# ---------------------------------------------------------------------------
# per-kind smoke runs and aggregation shape

@pytest.mark.parametrize("kind,extra", [
    ("poissonized-marginal", dict(r=2)),
    ("theorem1-counts", dict(r=1, intervals=[(0.0, math.inf), (-1.0, 0.0)])),
    ("erdos-renyi", dict(c=2)),
    ("partial-collection", dict(r=1, m=1)),
    ("chi2-law", dict(r=2, m=0)),
    ("rare-path", dict(r=1, thresholds=[-1.0, 0.0, 1.0])),
    ("coupling-decay", dict(r=1, intervals=[(-2.0, 2.0)])),
    ("limit-consistency", dict(r=1, m=0)),
])
def test_kind_smoke_produces_well_formed_rows(kind, extra):
    report = run_one(small_config(kind, **extra))
    assert report["theorem"] == KINDS[kind].description
    assert report["results"]
    for row in report["results"]:
        assert set(row) == set(CSV_COLUMNS)
        assert isinstance(row["verdict"], bool)
        assert row["p_value"] is None or 0.0 <= row["p_value"] <= 1.0
    assert report["passed"] == all(report["verdicts"].values())
    assert report["telemetry"]["replications"] > 0


def test_reports_of_one_bank_count_what_each_config_read(mixed_bank):
    configs, (_, draws, _, _) = mixed_bank
    reports = run_experiments(configs)
    for cfg, report, read in zip(configs, reports, draws):
        assert report["config"] == cfg.to_dict()
        assert report["telemetry"] == {"total_draws": read,
                                       "replications": cfg.replications * len(cfg.grid)}
    # limit-consistency reads bare streams, no trace
    assert draws[-1] == 0 < min(draws[:-1])


def test_telemetry_counts_no_draws_where_no_jump_chain_is_sampled():
    report = run_one(small_config("poissonized-marginal", r=3))
    assert report["telemetry"] == {"total_draws": 0, "replications": 30}


def test_telemetry_counts_every_draw():
    cfg = small_config("theorem1-counts", r=1, n_grid=[10], replications=5)
    report = run_one(cfg)
    # T_1 >= n per replication, so at least n * reps draws were consumed
    assert report["telemetry"]["total_draws"] >= 10 * 5
    assert report["telemetry"]["replications"] == 5


def test_limit_consistency_is_calibrated_at_small_scale():
    report = run_one(
        small_config("limit-consistency", r=1, m=0, replications=100)
    )
    assert report["verdicts"]["p_fraction_calibrated"]


def test_rare_path_mean_series_matches_rows():
    cfg = small_config("rare-path", r=1, n_grid=[50],
                       thresholds=[0.0, 1.0], replications=40)
    report = run_one(cfg)
    series = report["summaries"]["mean_count_series"]
    assert [item["x"] for item in series] == [0.0, 1.0]
    assert all(item["mean_count"] >= 0.0 for item in series)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 999, 1000, 2999, 10_000, 100_000])
def test_harmonic_is_the_sequential_sum_on_every_python(n):
    """H_n of the n * H_n identity is summed in order, the float that a
    sequential sum gives on every Python (since 3.12 the builtin ``sum`` of
    floats compensates, which moved the last bits at n = 1000 and 10000)."""
    sequential = functools.reduce(operator.add, (1.0 / k for k in range(1, n + 1)), 0.0)
    assert experiments._harmonic(n).hex() == sequential.hex()


# ---------------------------------------------------------------------------
# persistence

def test_json_round_trip(tmp_path):
    report = run_one(small_config("erdos-renyi"))
    path = tmp_path / "report.json"
    write_json(report, str(path))
    with open(path) as fh:
        loaded = check_report(json.load(fh))
    assert loaded == report


def test_json_output_is_byte_stable(tmp_path):
    report = run_one(small_config("chi2-law", r=1, m=0))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(report, str(p1))
    write_json(report, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip(tmp_path):
    report = run_one(
        small_config("theorem1-counts", r=1, intervals=[(0.0, math.inf)])
    )
    path = tmp_path / "report.csv"
    write_csv([report], str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report["results"])
    assert list(rows[0]) == CSV_COLUMNS
    for raw, original in zip(rows, report["results"]):
        assert raw["experiment"] == original["experiment"]
        assert float(raw["value"]) == pytest.approx(original["value"])
        if original["p_value"] is None:
            assert raw["p_value"] == ""


def test_csv_rare_path_writes_series_sidecar(tmp_path):
    report = run_one(
        small_config("rare-path", r=1, n_grid=[40, 60], thresholds=[0.0, 1.0])
    )
    path = tmp_path / "rare.csv"
    write_csv([report], str(path))
    sidecar = tmp_path / "rare.series.csv"
    assert sidecar.exists()
    with open(sidecar, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["n", "x", "mean_count"]
    assert [(int(row["n"]), float(row["x"])) for row in rows] == [
        (40, 0.0), (40, 1.0), (60, 0.0), (60, 1.0)]
    assert len(rows) == len(report["summaries"]["mean_count_series"])


def test_empty_report_gives_header_only_csv(tmp_path):
    empty = {"config": {}, "theorem": "", "results": [], "summaries": {},
             "verdicts": {}, "passed": True, "telemetry": {}}
    path = tmp_path / "empty.csv"
    write_csv([empty], str(path))
    assert path.read_text().strip() == ",".join(CSV_COLUMNS)
    with open(path, newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_report_json_is_sorted_and_newline_terminated(tmp_path):
    report = run_one(small_config("erdos-renyi"))
    path = tmp_path / "report.json"
    write_json(report, str(path))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == json.loads(
        json.dumps(report, sort_keys=True)
    )


def test_calibration_pilot_prints_every_statistic(monkeypatch, capsys):
    """The tool's pilots are named by the (r, m) keys of the frozen KS
    tolerances, one each: a tolerance with no pilot fails, and so does a
    pilot under any other name, such as a second one of the same statistic."""
    path = Path(__file__).resolve().parents[1] / "tools" / "calibrate.py"
    spec = importlib.util.spec_from_file_location("calibrate", path)
    calibrate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(calibrate)
    monkeypatch.setattr(calibrate, "DISCRETE_GRID", (20,))
    monkeypatch.setattr(calibrate, "MISMATCH_GRID", (20, 40))
    monkeypatch.setattr(calibrate, "REPS", 5)
    calibrate.main()
    results = json.loads(capsys.readouterr().out)
    assert set(results) == {"discrete_n20", "mismatch_n20", "mismatch_n40"}
    assert sorted(results["discrete_n20"]) == sorted(
        f"partial_ks_r{r}_m{m}" for r, m in calibration.PARTIAL_COLLECTION_KS_TOL)
    assert all(0.0 <= d <= 1.0 for d in results["discrete_n20"].values())
