"""Command-line interface: subcommands, exit codes, config files, rendering."""
import argparse
import ast
import copy
import csv
import ctypes
import dataclasses
import hashlib
import importlib.metadata
import importlib.util
import io
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dixiecup
from dixiecup import cli, discrete, experiments
from dixiecup.cli import (
    EXIT_PASS,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    _verify_config,
    battery_configs,
    build_parser,
    main,
)
from dixiecup.discrete import block_size, run_discrete
from dixiecup.samplers import SeedSpec


TIMING = re.compile(r"\d+ replications from \d+ traces in [\d.]+s")


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# simulate

def test_simulate_discrete_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = run_cli("simulate", "--scheme", "discrete", "--n", "6",
                   "--rmax", "2", "--reps", "3", "--seed", "11",
                   "--out", str(out))
    assert code == EXIT_PASS
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 3 * 6 * 2
    assert set(rows[0]) == {"replication", "type", "multiplicity", "arrival_draw"}
    # the CSV must reproduce the bank's trace (seed 11, n 6, replication 0)
    trace = run_discrete(6, 2, SeedSpec(11, 6 << 32))
    first = [r for r in rows if r["replication"] == "0"]
    for row in first:
        i, k = int(row["type"]) - 1, int(row["multiplicity"]) - 1
        assert int(row["arrival_draw"]) == trace.arrivals[i, k]


def test_simulate_rows_are_the_bank_traces_across_blocks(tmp_path):
    out = tmp_path / "coupled.csv"
    reps = block_size(3, 2) + 5  # a full block and part of the next
    code = run_cli("simulate", "--scheme", "coupled", "--n", "3", "--rmax", "2",
                   "--reps", str(reps), "--seed", "11", "--out", str(out))
    assert code == EXIT_PASS
    rows = list(csv.reader(out.read_text().splitlines()))[1:]
    want = []
    for j in range(reps):
        trace = run_discrete(3, 2, SeedSpec(11, (3 << 32) | j))
        want += [[str(j), str(i + 1), str(k + 1), str(trace.arrivals[i, k]),
                  repr(float(trace.times[i, k]))] for i in range(3) for k in range(2)]
    assert rows == want


@pytest.mark.parametrize("scheme", ["discrete", "coupled"])
def test_simulate_writes_the_csv_writer_bytes_across_blocks(scheme, tmp_path):
    """The lines are formatted a block at a time, to the byte what csv.writer
    writes for the rows of each lone trace."""
    out = tmp_path / "trace.csv"
    reps = block_size(4, 3) + 5  # a full block and part of the next
    code = run_cli("simulate", "--scheme", scheme, "--n", "4", "--rmax", "3",
                   "--reps", str(reps), "--seed", "12", "--out", str(out))
    assert code == EXIT_PASS
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["replication", "type", "multiplicity", "arrival_draw"]
                    + ["arrival_time"] * (scheme == "coupled"))
    for j in range(reps):
        trace = run_discrete(4, 3, SeedSpec(12, (4 << 32) | j))
        for i in range(4):
            for k in range(3):
                row = [j, i + 1, k + 1, int(trace.arrivals[i, k])]
                if scheme == "coupled":
                    row.append(float(trace.times[i, k]))
                writer.writerow(row)
    assert out.read_bytes() == want.getvalue().encode()


def test_simulate_coupled_adds_time_column(tmp_path):
    out = tmp_path / "coupled.csv"
    code = run_cli("simulate", "--scheme", "coupled", "--n", "5",
                   "--out", str(out))
    assert code == EXIT_PASS
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert "arrival_time" in rows[0]
    times = [float(r["arrival_time"]) for r in rows]
    assert all(t > 0 for t in times)


def test_simulate_small_n_warns(tmp_path, capsys):
    run_cli("simulate", "--n", "2", "--out", str(tmp_path / "x.csv"))
    assert "warning" in capsys.readouterr().err


def test_simulate_unwritable_path_is_usage_error():
    code = run_cli("simulate", "--n", "5", "--out", "/nonexistent/dir/x.csv")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("--reps", "-2"),
    ("--reps", "0"),
    ("--rmax", "0"),
    ("--n", "1"),
    ("--seed", "-1"),
    ("--seed", str(2**64)),
], ids=["reps-negative", "reps-0", "rmax-0", "n-1", "seed-negative", "seed-2**64"])
def test_simulate_bad_arguments_write_no_file(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli("simulate", "--n", "5", *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv,field", [
    (("simulate", "--n", "4294967296"), "--n"),
    (("simulate", "--n", "5", "--reps", "4294967297"), "--reps"),
    (("verify", "--kind", "erdos-renyi", "--n", "4294967296", "--reps", "1"), "n_grid"),
    (("verify", "--kind", "erdos-renyi", "--n", "100", "--reps", "4294967297"), "replications"),
    (("verify", "--kind", "limit-consistency", "--reps", "4294967297"), "replications"),
], ids=["simulate-n", "simulate-reps", "verify-n", "verify-reps", "verify-no-trace-reps"])
def test_stream_key_fields_beyond_32_bits_are_usage_errors(argv, field, tmp_path, capsys):
    """Replication j at n reads stream (n << 32) | j, so n must be below 2**32
    and j must fit in 32 bits: both are rejected before any file is opened."""
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and "2**32" in err
    assert not out.exists()


# the address space of a child whose allocations must fail at once
MEMORY_CAP = 2 * 1024**3

OUT_OF_MEMORY = """
import sys
from dixiecup.cli import main
print(main(["verify", "--kind", "erdos-renyi", "--n", "3000000000", "--reps", "1"]))
print(main(["verify", "--kind", "limit-consistency", "--m", "100000000", "--reps", "1"]))
print(main(["simulate", "--n", "3000000000", "--reps", "1", "--out", sys.argv[1]]))
"""


def cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def test_failed_allocation_is_a_usage_error(tmp_path):
    """An array too large for memory ends in an error line and exit 2, not a
    traceback, and a failed ``simulate`` leaves no file.  Run only in a child
    whose address space is capped, so that the allocations fail at once
    instead of growing until the machine runs out of memory."""
    src = os.path.dirname(os.path.dirname(dixiecup.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = tmp_path / "oom.csv"
    done = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY, str(out)], env=env,
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(EXIT_USAGE)] * 3
    errors = done.stderr.splitlines()
    assert len(errors) == 3 and all(line.startswith("error: Unable to allocate") for line in errors)
    assert not out.exists()


# ---------------------------------------------------------------------------
# heap policy

class FakeLibc:
    """A libc whose ``mallopt`` records its calls and answers ``answer``."""

    def __init__(self, answer):
        self.answer = answer
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.answer


@pytest.fixture
def libc(monkeypatch):
    """``libc(found)`` makes ``found`` what ``ctypes.CDLL(None)`` gives, or
    raises, in a process whose heap policy is not yet set."""
    def install(found):
        def load(name):
            if isinstance(found, Exception):
                raise found
            return found

        monkeypatch.setattr(ctypes, "CDLL", load)
        cli._keep_freed_memory.cache_clear()

    yield install
    cli._keep_freed_memory.cache_clear()


# a command that ends in a usage error before it samples
NO_SAMPLE = ("battery", "--scale", "0")


@pytest.mark.parametrize("answer, calls", [
    (1, [(-3, 32 << 20), (-1, 64 << 20)]),
    # a refused mmap threshold leaves glibc's own adjustment of both on
    (0, [(-3, 32 << 20)]),
])
def test_the_heap_policy_is_set_once_per_process(libc, answer, calls, capsys):
    fake = FakeLibc(answer)
    libc(fake)
    assert run_cli(*NO_SAMPLE) == EXIT_USAGE
    assert fake.calls == calls
    assert run_cli(*NO_SAMPLE) == EXIT_USAGE
    assert fake.calls == calls


@pytest.mark.parametrize("found", [OSError("no libc"), TypeError("no path"), object()])
def test_a_libc_without_mallopt_is_left_alone(libc, found, capsys):
    libc(found)
    assert run_cli(*NO_SAMPLE) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: scale must be finite and positive, got 0.0"]


# the minor page faults of a second verify, after a first one of the same size
SECOND_RUN_FAULTS = """
import contextlib, io, resource
from dixiecup.cli import main
argv = ["verify", "--kind", "coupling-decay", "--r", "1", "--n", "100000", "--reps", "4"]
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_a_second_run_reuses_the_heap_of_the_first():
    """A CLI process keeps the arrays a trace block frees for the next block.
    glibc's default unmaps or trims them, and faulting them back in cost about
    800 minor faults per n = 1e5 trace; with them kept, a few in all."""
    src = os.path.dirname(os.path.dirname(dixiecup.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", SECOND_RUN_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 200 * 4


FORKED_VERIFY = ("verify", "--kind", "erdos-renyi", "--c", "1", "--n", "1000",
                 "--reps", "300", "--workers", "2")


def test_helper_out_of_memory_is_a_usage_error(faults, capsys):
    """A MemoryError in a forked helper ends the command as it would serially."""
    def out_of_memory():
        raise MemoryError

    faults(out_of_memory)
    assert run_cli(*FORKED_VERIFY) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: out of memory"]


FORKED_FAULT = """
import dataclasses, multiprocessing, os, signal, sys
import numpy as np
from dixiecup import experiments
from dixiecup.cli import main

scenario, workers = sys.argv[1], int(sys.argv[2])
context = multiprocessing.get_context("fork")
pid, first, ready = os.getpid(), [True], context.Semaphore(0)
kind = experiments.KINDS["erdos-renyi"]

def kill():  # as the OOM killer would
    os.kill(os.getpid(), signal.SIGKILL)

def killed_parent():  # names its helpers first, for the test to watch
    print(*(helper.pid for helper in multiprocessing.active_children()), flush=True)
    kill()

def extract(block, cfg):
    if os.getpid() != pid:  # a helper
        if first[0]:
            first[0] = False
            ready.release()
        if scenario == "killed-in-block":
            kill()
        if scenario in ("parent-fault", "parent-killed"):  # more than a pipe holds
            return np.zeros(20_000)
    elif first[0]:  # the parent's first block waits for every helper
        first[0] = False
        for _ in range(workers - 1):
            assert ready.acquire(timeout=60)
        if scenario == "parent-fault":
            raise ValueError("parent block")
        if scenario == "parent-killed":
            killed_parent()
    return kind.extract(block, cfg)

def holding_the_counter(configs, tasks, counter, *_):
    counter.get_lock().acquire()
    ready.release()
    kill()

drain = experiments._drain

def parent_holding_the_counter(configs, tasks, counter, *args):
    if os.getpid() == pid:  # once every helper has claimed a block
        for _ in range(workers - 1):
            assert ready.acquire(timeout=60)
        counter.get_lock().acquire()
        killed_parent()
    return drain(configs, tasks, counter, *args)

experiments.KINDS["erdos-renyi"] = dataclasses.replace(kind, extract=extract)
if scenario == "killed-holding-the-counter":
    experiments._helper = holding_the_counter
if scenario == "parent-killed-holding-the-counter":
    experiments._drain = parent_holding_the_counter
experiments._POOL_MIN_COST = 0
experiments._usable_cpus = lambda: workers
print(main(["verify", "--kind", "erdos-renyi", "--c", "1", "--n", "1000", "--reps", "1000",
            "--workers", str(workers)]))
print(len(multiprocessing.active_children()))
"""

KILLED = "error: a sampling helper ended with exit code -9 before sending its blocks"


def gone(pid: int) -> bool:
    """Whether process ``pid`` has ended: it no longer exists, or it is a
    zombie that its new parent has not reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("scenario,workers,error", [
    ("killed-in-block", 2, KILLED),
    ("killed-in-block", 3, KILLED),
    ("killed-holding-the-counter", 2, KILLED),
    ("parent-fault", 3, "error: parent block"),
    ("parent-killed", 2, None),
    ("parent-killed", 3, None),
    ("parent-killed-holding-the-counter", 3, None),
], ids=["killed-in-block-2", "killed-in-block-3", "killed-holding-the-counter", "parent-fault-3",
        "parent-killed-2", "parent-killed-3", "parent-killed-holding-the-counter"])
def test_forked_bank_fault_fails_the_bank_and_leaves_no_process(scenario, workers, error):
    """A helper killed inside its block, or while it holds the block counter,
    or a parent that raises while its helpers still have blocks to send, used
    to leave the bank waiting forever; each runs in a child with a timeout, so
    a hang fails the test.  A parent killed in its block, or while it holds
    the counter, used to leave its helpers running: each must be gone within
    15 s."""
    src = os.path.dirname(os.path.dirname(dixiecup.__file__))
    # a session of its own, so that the child's helpers are ended with it
    with subprocess.Popen([sys.executable, "-c", FORKED_FAULT, scenario, str(workers)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": src},
                          start_new_session=True) as child:
        try:
            if error is None:
                assert child.wait(timeout=60) == -signal.SIGKILL
                # it printed before it died, and a helper may still hold stdout open
                assert select.select([child.stdout], [], [], 5)[0], "no helper pids printed"
                helpers = [int(pid) for pid in child.stdout.readline().split()]
                assert len(helpers) == workers - 1
                deadline = time.monotonic() + 15
                while not all(map(gone, helpers)) and time.monotonic() < deadline:
                    time.sleep(0.1)
                assert all(map(gone, helpers)), "a helper outlived its killed parent"
                return
            out, err = child.communicate(timeout=60)
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert child.returncode == 0, err
    assert out.split() == [str(EXIT_USAGE), "0"]
    assert err.splitlines() == [error]


# ---------------------------------------------------------------------------
# verify

def test_verify_flags_only_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    # the frozen KS tolerance assumes enough replications that sampling noise
    # is well below it, so this needs a moderately sized run
    code = run_cli("verify", "--kind", "erdos-renyi", "--n", "100", "--c", "1",
                   "--reps", "1000", "--seed", "3", "--out", str(out))
    assert code == EXIT_PASS
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    # the wall-clock line goes to stderr, once per simulation
    assert not TIMING.search(captured.out)
    assert len(TIMING.findall(captured.err)) == 1
    data = json.loads(out.read_text())
    assert data["config"]["kind"] == "erdos-renyi"
    assert "workers" not in data["config"]


def test_verify_missing_kind_is_usage_error(capsys):
    code = run_cli("verify", "--n", "20")
    assert code == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_verify_bad_parameters_are_usage_errors():
    assert run_cli("verify", "--kind", "erdos-renyi", "--n", "1") == EXIT_USAGE
    assert run_cli("verify", "--kind", "chi2-law", "--reps", "0") == EXIT_USAGE
    assert run_cli("verify", "--kind", "chi2-law", "--sig", "2.0") == EXIT_USAGE
    assert run_cli("verify", "--kind", "chi2-law", "--workers", "0") == EXIT_USAGE
    # no thresholds would leave no verdicts, and an empty verdict set passes
    assert run_cli("verify", "--kind", "rare-path", "--n", "100", "--reps", "20",
                   "--thresholds", "") == EXIT_USAGE


@pytest.mark.parametrize("thresholds", ["--thresholds=0,inf", "--thresholds=nan",
                                        "--thresholds=-inf,0"])
def test_verify_non_finite_thresholds_fail_before_sampling(thresholds, capsys):
    code = run_cli("verify", "--kind", "rare-path", "--n", "1000", "--reps", "200",
                   thresholds)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: thresholds")
    assert not TIMING.search(err)  # printed only after the traces are drawn


@pytest.mark.parametrize("kind,window,endpoint", [
    ("theorem1-counts", "--interval=-1000,0", "-1000.0"),
    ("theorem1-counts", "--interval=-inf,0", "-inf"),
    ("rare-path", "--thresholds=-1000,0", "-1000.0"),
])
def test_verify_extreme_limit_masses_fail_before_sampling(kind, window, endpoint, capsys):
    """A limit mass that overflows or is infinite used to raise OverflowError
    (exit 1, a traceback) or fail only after sampling; it is a usage error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("verify", "--kind", kind, window, "--n", "100", "--reps", "20")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and endpoint in err
    assert "Traceback" not in err
    assert not TIMING.search(err)  # printed only after the traces are drawn


@pytest.mark.parametrize("argv", [
    ("--kind", "rare-path", "--thresholds=-10,-5", "--n", "20", "--reps", "50"),
    ("--kind", "theorem1-counts", "--interval=-8,inf", "--n", "1000"),
], ids=["rare-path", "theorem1-counts"])
def test_verify_single_cell_count_test_fails_a_far_off_mean(argv, capsys):
    """Limit means of 22026 and 2981, where each count is at most n, merge
    into one chi-square cell; that test used to pass with p = 1."""
    assert run_cli("verify", *argv) == EXIT_STAT_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_verify_prints_the_processes_it_started(monkeypatch, capsys):
    # fork a helper even for a bank this small, so the first run starts one
    monkeypatch.setattr(experiments, "_POOL_MIN_COST", 0)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    argv = ("verify", "--kind", "chi2-law", "--r", "1", "--m", "1", "--n", "20", "--reps", "30")
    run_cli(*argv, "--workers", "5000")
    assert "(workers=2)" in capsys.readouterr().err
    run_cli(*argv, "--reps", "1", "--workers", "5000")
    assert "(workers=1)" in capsys.readouterr().err
    # where processes cannot be forked, every bank runs serially
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    run_cli(*argv, "--workers", "5000")
    assert "(workers=1)" in capsys.readouterr().err


def test_verify_statistical_failure_exits_one(capsys):
    # a KS p-value verdict must reach --sig, which 0.999 all but rules out
    code = run_cli("verify", "--kind", "poissonized-marginal", "--n", "100",
                   "--reps", "20", "--seed", "1", "--sig", "0.999")
    assert code == EXIT_STAT_FAIL
    assert "FAIL  poissonized-marginal: ks_pass_n100" in capsys.readouterr().out
    # a law mismatch: chi2-law at tiny n has KS far above the frozen tolerance
    code = run_cli("verify", "--kind", "chi2-law", "--n", "5", "--r", "2",
                   "--m", "0", "--reps", "200", "--seed", "5")
    assert code == EXIT_STAT_FAIL
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("--kind", "erdos-renyi", "--c", "7"),
    ("--kind", "chi2-law", "--r", "3", "--m", "0"),
])
def test_verify_uncalibrated_tolerance_fails(argv, capsys):
    # no frozen KS tolerance exists for these parameters, so there is no
    # bound to meet and the KS verdict must not pass
    code = run_cli("verify", *argv, "--n", "20", "--reps", "25", "--seed", "6")
    captured = capsys.readouterr()
    assert code == EXIT_STAT_FAIL
    assert "FAIL" in captured.out
    assert captured.err.count("uncalibrated") == 1


@pytest.mark.parametrize("argv", [
    ("--kind", "erdos-renyi", "--c", "172"),
    ("--kind", "chi2-law", "--r", "172"),
    ("--kind", "partial-collection", "--r", "172"),
    ("--kind", "limit-consistency", "--r", "172"),
], ids=["erdos-renyi", "chi2-law", "partial-collection", "limit-consistency"])
def test_verify_factorial_beyond_float_range_fails_before_sampling(argv, capsys):
    """(171)! is beyond the float range; the limit laws and the increment test
    used to raise OverflowError (exit 1, a traceback) after every trace was drawn."""
    code = run_cli("verify", *argv, "--n", "20", "--reps", "20")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "172" in err
    assert not TIMING.search(err)  # printed only after the traces are drawn


def test_verify_largest_float_factorial_still_runs(capsys):
    # (170)! is a float, so c = 171 samples and fails only as uncalibrated
    code = run_cli("verify", "--kind", "erdos-renyi", "--c", "171", "--n", "20", "--reps", "20")
    assert code == EXIT_STAT_FAIL
    assert TIMING.search(capsys.readouterr().err)


def test_verify_one_replication_fails_the_mean_identity_without_warnings(tmp_path, capsys):
    """One replication has no standard error: std(ddof=1) used to print two
    RuntimeWarnings, and the verdict failed only because NaN compares false."""
    out = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("verify", "--kind", "erdos-renyi", "--n", "10", "--reps", "1",
                       "--out", str(out))
    assert code == EXIT_STAT_FAIL
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    captured = capsys.readouterr()
    assert "RuntimeWarning" not in captured.err
    assert "FAIL  erdos-renyi: mean_identity_n10" in captured.out
    (row,) = [row for row in json.loads(out.read_text())["results"]
              if row["statistic_name"] == "mean_T1_minus_nHn"]
    assert row["verdict"] is False and math.isfinite(row["value"])


def test_verify_increments_beyond_float_range_fail_cleanly(tmp_path, capsys):
    """At r = 171 the partial sums (r-1)! exp(-L) overflow, and their
    differences used to be inf - inf: a NaN p-value, two warnings and exit 2."""
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("verify", "--kind", "partial-collection", "--r", "171", "--m", "1",
                       "--n", "20", "--reps", "20", "--out", str(out))
    assert code == EXIT_STAT_FAIL
    assert "FAIL  partial-collection: increments_pass_n20" in capsys.readouterr().out
    (row,) = json.loads(out.read_text())["results"]
    assert row["p_value"] == 0.0 and math.isfinite(row["value"])
    assert "NaN" not in out.read_text()


def test_verify_constant_increment_column_reports_no_correlation(tmp_path, capsys):
    """At m = n - 1 the two smallest points are nearly always draws 1 and 2,
    so their increment is the same in every replication and has no
    correlation: the report holds no correlation row, and no NaN, and numpy
    divides by no zero variance."""
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("verify", "--kind", "partial-collection", "--n", "100", "--m", "99",
                       "--reps", "5", "--out", str(out))
    assert code == EXIT_STAT_FAIL
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert "NaN" not in out.read_text()
    (row,) = json.loads(out.read_text())["results"]
    assert row["statistic_name"] == "increment_ks"


def test_verify_ini_config_with_overrides(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[theorem1-counts]\n"
        "n_grid = 25\n"
        "r = 1\n"
        "intervals = 0, inf; -1, 0\n"
        "replications = 30\n"
        "master_seed = 9\n"
    )
    out = tmp_path / "rep.json"
    code = run_cli("verify", "--config", str(ini), "--reps", "40",
                   "--out", str(out))
    data = json.loads(out.read_text())
    assert data["config"]["replications"] == 40  # flag overrides file
    assert data["config"]["intervals"] == [[0.0, math.inf], [-1.0, 0.0]]
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)


def test_verify_ini_unknown_key_is_usage_error(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[erdos-renyi]\nbogus = 1\n")
    assert run_cli("verify", "--config", str(ini)) == EXIT_USAGE


def test_verify_malformed_ini_is_usage_error(tmp_path, capsys):
    no_header = "kind = erdos-renyi\n"
    bad_interval = "[theorem1-counts]\nintervals = 1\n"
    no_intervals = "[theorem1-counts]\nintervals = ;\n"
    for k, text in enumerate((no_header, bad_interval, no_intervals)):
        ini = tmp_path / f"bad{k}.ini"
        ini.write_text(text)
        assert run_cli("verify", "--config", str(ini)) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_ini_value_that_does_not_parse_names_its_file_and_key(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[erdos-renyi]\nreplications = abc\n")
    assert run_cli("verify", "--config", str(ini)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {str(ini)!r}, key 'replications': ")
    assert "'abc'" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "erdos-renyi", "--n", "100", "--reps", "5"],
    ["battery", "--scale", "0.01"],
    ["simulate", "--n", "100", "--reps", "5"],
], ids=["verify", "battery", "simulate"])
def test_missing_out_directory_fails_before_sampling(tmp_path, capsys, monkeypatch, argv):
    def sampled(*args):
        raise AssertionError("a block was sampled")

    # simulate samples through TraceBlock, a bank through _bank_block
    monkeypatch.setattr(cli, "TraceBlock", sampled)
    monkeypatch.setattr(experiments, "_bank_block", sampled)
    # a file in a directory that does not exist, a path that is a directory,
    # and an empty path
    for out, why in ((tmp_path / "missing" / "x.json", "missing"), (tmp_path, "is a directory"),
                     ("", "empty")):
        code = run_cli(*argv, "--out", str(out))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        # no verdict line, and no bank ran: run_experiments reports each bank on stderr
        assert captured.out == ""
        assert "replications from" not in captured.err
        assert captured.err.startswith("error: ") and why in captured.err


def test_verify_section_without_config_fails_before_sampling(capsys):
    code = run_cli("verify", "--kind", "erdos-renyi", "--n", "100", "--reps", "5",
                   "--section", "erdos-renyi")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "replications from" not in captured.err
    assert captured.err.startswith("error: ") and "--section" in captured.err


def test_every_verify_option_reaches_the_config_or_the_command():
    """_verify_config passes on each option whose dest is an ExperimentConfig
    field and drops any other, so every other dest is one the command reads."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for action in sub.choices["verify"]._actions} - {"help"}
    fields = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    assert dests - fields <= {"config", "section", "workers", "out"}


INI_KEYS = ["kind", "n_grid", "r", "c", "m", "intervals", "thresholds",
            "replications", "master_seed", "significance", "workers", "bogus"]
INI_CHARS = st.sampled_from("0123456789 ,;.-+eE:=[]%()nfia\t\n")
INI_LINES = st.one_of(
    st.sampled_from(["[erdos-renyi]", "[limit-consistency]", "[x]", "[DEFAULT]", ""]),
    st.builds("{} = {}".format, st.sampled_from(INI_KEYS), st.one_of(
        st.sampled_from(["erdos-renyi", "limit-consistency", "1, 2", "0, inf; -1, 0"]),
        st.text(INI_CHARS, max_size=10))),
    st.text(INI_CHARS, max_size=16),
)


@settings(max_examples=200, deadline=None)
@given(text=st.lists(INI_LINES, max_size=8).map("\n".join),
       section=st.sampled_from([None, "erdos-renyi", "x", "DEFAULT"]))
def test_verify_config_from_any_ini_raises_only_value_errors(tmp_path_factory, text, section):
    # parse and validate only; main maps a ValueError (ConfigError is one) to exit 2
    ini = tmp_path_factory.getbasetemp() / "fuzz.ini"
    ini.write_text(text)
    argv = ["verify", "--config", str(ini)] + (["--section", section] if section else [])
    try:
        _verify_config(build_parser().parse_args(argv))
    except ValueError:
        pass


def test_verify_missing_config_file_is_usage_error(tmp_path):
    assert run_cli("verify", "--config", str(tmp_path / "none.ini")) == EXIT_USAGE


def test_verify_ini_two_sections_needs_selector(tmp_path):
    ini = tmp_path / "multi.ini"
    ini.write_text("[a]\nkind = erdos-renyi\n[b]\nkind = chi2-law\n")
    assert run_cli("verify", "--config", str(ini)) == EXIT_USAGE
    code = run_cli("verify", "--config", str(ini), "--section", "a",
                   "--n", "15", "--reps", "25", "--seed", "2")
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)


# ---------------------------------------------------------------------------
# battery

def test_battery_configs_cover_every_kind():
    configs = battery_configs(seed=42, scale=1.0)
    kinds = {cfg.kind for cfg in configs}
    assert kinds == {
        "poissonized-marginal", "theorem1-counts", "erdos-renyi",
        "partial-collection", "chi2-law", "rare-path", "coupling-decay",
        "limit-consistency",
    }
    # one seed, so experiments reading one (seed, n) share its traces
    assert all(cfg.master_seed == 42 for cfg in configs)


def test_battery_scale_floors_replications():
    configs = battery_configs(seed=0, scale=0.0001)
    assert all(cfg.replications >= 20 for cfg in configs)


@pytest.mark.parametrize("argv", [
    ("--workers", "0"),
    ("--scale", "inf"),
    ("--scale", "nan"),
    ("--scale", "0"),
    ("--scale", "-1"),
    ("--scale", "1e306"),
    ("--scale", repr(sys.float_info.max)),
], ids=["workers-0", "scale-inf", "scale-nan", "scale-0", "scale-negative", "scale-1e306",
        "scale-float-max"])
def test_battery_bad_arguments_are_usage_errors(argv, tmp_path, capsys):
    code = run_cli("battery", *argv, "--out", str(tmp_path / "battery.json"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# the sha256 of `battery --seed 42 --scale 0.02`, as README documents it: a
# change meant to alter the report bytes updates it there too
BATTERY_002_SHA256 = "f6ba9b0924d75ba2dce4b9b9152cbfcc7ad011ff8a7c697724f9f3a4da71cbca"

# the failure message of every pinned digest: numpy does not promise the same
# draws across feature releases (NEP 19), so a digest names what it holds for
PINNED_ON = (f"digests measured on numpy 2.4.6 and scipy 1.17.1; installed: numpy "
             f"{importlib.metadata.version('numpy')}, scipy {importlib.metadata.version('scipy')}")


def sha256_of(paths) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def test_battery_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "battery.json"
    code = run_cli("battery", "--seed", "42", "--scale", "0.02", "--workers", "1",
                   "--out", str(out))
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    assert sha256_of([out]) == {"battery.json": BATTERY_002_SHA256}, PINNED_ON
    # its CSV rendering: the rows of every experiment, and no series sidecar
    assert run_cli("report", str(out), "--format", "csv") == code
    assert sha256_of(tmp_path.glob("*.csv")) == {
        "battery.csv": "f66a45a8c0c3c300eedd4e648d16b17063dfffc4dd97013862321c541e4d32ee",
    }, PINNED_ON


def test_battery_report_bytes_are_pinned_on_numpys_row_sampler(tmp_path, numpy_path, capsys):
    out = tmp_path / "battery.json"
    code = run_cli("battery", "--seed", "42", "--scale", "0.02", "--workers", "1",
                   "--out", str(out))
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    assert sha256_of([out]) == {"battery.json": BATTERY_002_SHA256}, PINNED_ON
    assert "(sampler=numpy)" in capsys.readouterr().err


def test_a_failed_build_samples_on_numpy_in_the_same_bytes(tmp_path, monkeypatch, capsys):
    """Where the compiled sampler cannot be built, the numpy row sampler draws
    the same report, and the command says so, and why, only in its timing
    line."""
    argv = ("verify", "--kind", "coupling-decay", "--n", "100,1000", "--reps", "300",
            "--seed", "5", "--out")
    run_cli(*argv, str(tmp_path / "default.json"))
    assert f"(sampler={discrete.row_sampler().name})" in capsys.readouterr().err
    # a compiler that is not there, and a cache that holds no library
    monkeypatch.setattr(discrete, "_rows", None)
    monkeypatch.setattr(discrete, "_CC", str(tmp_path / "no-such-compiler"))
    monkeypatch.setattr(discrete, "_CACHE", tmp_path / "cache")
    code = run_cli(*argv, str(tmp_path / "numpy.json"))
    captured = capsys.readouterr()
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    assert discrete.row_sampler().name == "numpy"
    assert list((tmp_path / "cache").iterdir()) == []
    why = f"no C compiler {tmp_path / 'no-such-compiler'}"
    assert TIMING.search(captured.err) and f"(sampler=numpy) ({why})" in captured.err
    assert "error" not in captured.err.lower() and "warning" not in captured.err.lower()
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "default.json").read_bytes()


def can_build_the_sampler():
    return (shutil.which(discrete._CC) is not None
            and (discrete._RANDOM_LIB / "libnpyrandom.a").is_file())


@pytest.mark.parametrize("case", ["no-compiler", "no-library", "unwritable-cache",
                                  "check-mismatch"])
def test_the_bank_line_says_why_numpy_drew(case, tmp_path, monkeypatch, capsys):
    """Each reason the compiled sampler cannot draw is named on the bank's
    timing line; only a check mismatch, which means numpy's generator changed
    under the package, is also a warning."""
    monkeypatch.setattr(discrete, "_rows", None)
    monkeypatch.setattr(discrete, "_CACHE", tmp_path / "cache")
    if case == "no-compiler":
        monkeypatch.setattr(discrete, "_CC", str(tmp_path / "no-cc"))
        why = f"no C compiler {tmp_path / 'no-cc'}"
    elif case == "no-library":
        monkeypatch.setattr(discrete, "_RANDOM_LIB", tmp_path)
        why = f"no libnpyrandom.a in {tmp_path}"
    elif case == "unwritable-cache":
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(discrete, "_CACHE", tmp_path / "file" / "cache")
        why = f"unwritable cache {tmp_path / 'file' / 'cache'}: Not a directory"
    else:
        if not can_build_the_sampler():
            pytest.skip("no C compiler or libnpyrandom.a to build the sampler with")
        monkeypatch.setattr(discrete, "_verified", lambda rows: False)
        why = "check mismatch"
    code = run_cli("verify", "--kind", "erdos-renyi", "--n", "20", "--reps", "5")
    err = capsys.readouterr().err
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    assert discrete.row_sampler().name == "numpy"
    assert TIMING.search(err) and f"(sampler=numpy) ({why})" in err
    assert ("warning: the compiled row sampler draws other values than numpy" in err) == (
        case == "check-mismatch")


def test_a_failed_compile_is_not_run_again(tmp_path, monkeypatch, capsys):
    """A compile that fails leaves its reason in the cache, under the build's
    tag: a later process samples on numpy for that reason and builds nothing."""
    if not (discrete._RANDOM_LIB / "libnpyrandom.a").is_file():
        pytest.skip("no libnpyrandom.a, so no compile is tried")
    compiler = tmp_path / "failing-cc"
    compiler.write_text("#!/bin/sh\necho 'fatal: no such header' >&2\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setattr(discrete, "_rows", None)
    monkeypatch.setattr(discrete, "_CACHE", tmp_path / "cache")
    monkeypatch.setattr(discrete, "_CC", str(compiler))
    why = discrete.row_sampler().why
    assert why == f"{compiler} failed: fatal: no such header"
    assert [path.suffix for path in (tmp_path / "cache").iterdir()] == [".failed"]
    assert run_cli("verify", "--kind", "erdos-renyi", "--n", "20", "--reps", "5") in (
        EXIT_PASS, EXIT_STAT_FAIL)
    assert f"(sampler=numpy) ({why})" in capsys.readouterr().err
    # as in a new process, with a compiler that would build the sampler
    monkeypatch.setattr(discrete, "_rows", None)
    monkeypatch.setattr(discrete, "_CC", "cc")

    def build(path):
        raise AssertionError("the failed build was tried again")

    monkeypatch.setattr(discrete, "_build", build)
    assert discrete.row_sampler().why == why


def test_an_installed_copy_whose_cache_cannot_be_written_samples_on_numpy(tmp_path):
    """A copy of the package whose ``__pycache__`` cannot be written, as in a
    read-only site-packages, samples on numpy's row sampler, says why, and
    writes the bytes of the same command run from the source tree.  A regular
    file stands in for a read-only directory, since a test run as root
    ignores permission bits."""
    source = Path(discrete.__file__).parent
    installed = tmp_path / "site" / "dixiecup"
    installed.mkdir(parents=True)
    for path in [*source.glob("*.py"), source / "_sampler.c"]:
        shutil.copy(path, installed)
    (installed / "__pycache__").write_text("")
    runs = {}
    for name, root in (("installed", installed.parent), ("source", source.parent)):
        path = os.pathsep.join(filter(None, [str(root), os.environ.get("PYTHONPATH")]))
        runs[name] = subprocess.run(
            [sys.executable, "-m", "dixiecup.cli", "verify", "--kind", "coupling-decay",
             "--n", "100,1000", "--reps", "300", "--seed", "5", "--out", f"{name}.json"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True, timeout=300)
        assert runs[name].returncode in (EXIT_PASS, EXIT_STAT_FAIL), runs[name].stderr
    why = f"unwritable cache {installed / '__pycache__'}: File exists"
    assert f"(sampler=numpy) ({why})" in runs["installed"].stderr
    assert (tmp_path / "installed.json").read_bytes() == (tmp_path / "source.json").read_bytes()


def test_verify_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "lc.json"
    code = run_cli("verify", "--kind", "limit-consistency", "--r", "2", "--m", "3",
                   "--reps", "60", "--seed", "3", "--out", str(out))
    assert code in (EXIT_PASS, EXIT_STAT_FAIL)
    assert sha256_of([out]) == {
        "lc.json": "b5fa3af992afac4dc77b42240ec78bd84f081d22711ed9e52628bf37a2a349f8"}, PINNED_ON


def test_report_csv_of_a_single_report_is_pinned(tmp_path):
    out = tmp_path / "rare.json"
    code = run_cli("verify", "--kind", "rare-path", "--n", "100,1000", "--reps", "50",
                   "--seed", "4", "--out", str(out))
    # the rows beside the report, and the mean-count series beside the rows
    assert run_cli("report", str(out), "--format", "csv") == code
    assert sha256_of(sorted(tmp_path.iterdir())) == {
        "rare.json": "3a0c3204ebcfc0bb2ef375dac224796cacaf39ab56edb5afb5e758e234c0588b",
        "rare.csv": "10decb29de88ccea1d1f234eea202919c82b660ca83fb455d3f20718a2648752",
        "rare.series.csv": "f33e8ed4dd1b7ddeffb7325bfc4823e93be5a58a73ba0b43aa2d80baaa6d2b5f",
    }, PINNED_ON


def test_report_rendering_round_trip(tmp_path, capsys):
    out = tmp_path / "rep.json"
    run_cli("verify", "--kind", "erdos-renyi", "--n", "100", "--reps", "1000",
            "--seed", "3", "--out", str(out))
    capsys.readouterr()

    code = run_cli("report", str(out))
    text = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "erdos-renyi" in text and "overall" in text

    csv_out = tmp_path / "rep.csv"
    code = run_cli("report", str(out), "--format", "csv", "--out", str(csv_out))
    assert code == EXIT_PASS
    rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    assert rows and rows[0]["experiment"] == "erdos-renyi"


def test_report_renders_battery(tmp_path, capsys):
    out = tmp_path / "battery.json"
    battery_code = run_cli("battery", "--seed", "3", "--scale", "0.01",
                           "--out", str(out))
    capsys.readouterr()
    data = json.loads(out.read_text())

    code = run_cli("report", str(out))
    text = capsys.readouterr().out
    assert code == battery_code == (EXIT_PASS if data["passed"] else EXIT_STAT_FAIL)
    assert text.count("experiment: ") == len(data["experiments"])
    assert f"battery: {'PASS' if data['passed'] else 'FAIL'}" in text

    csv_out = tmp_path / "battery.csv"
    run_cli("report", str(out), "--format", "csv", "--out", str(csv_out))
    rows = list(csv.DictReader(csv_out.read_text().splitlines()))
    assert len(rows) == sum(len(exp["results"]) for exp in data["experiments"])


def test_report_bad_schema_is_usage_error(tmp_path, capsys):
    single = tmp_path / "rep.json"
    run_cli("verify", "--kind", "erdos-renyi", "--n", "15", "--reps", "25",
            "--seed", "4", "--out", str(single))
    report = json.loads(single.read_text())
    missing = {k: v for k, v in report.items() if k != "verdicts"}
    unknown = dict(report, extra=1)
    bad_row = dict(report, results=[{"n": 15}])
    bad_config = dict(report, config={})
    battery_missing = {"master_seed": 0, "experiments": [report]}
    battery_unknown = {"master_seed": 0, "scale": 1.0, "experiments": [report],
                       "passed": True, "extra": 1}
    battery_bad_entry = {"master_seed": 0, "scale": 1.0, "experiments": [missing],
                         "passed": True}
    bad_value = dict(report, results=[dict(report["results"][0], n={})])
    passed_text = dict(report, passed="yes")
    passed_wrong = dict(report, passed=not report["passed"])
    battery_passed_wrong = {"master_seed": 0, "scale": 1.0, "experiments": [report],
                            "passed": not report["passed"]}
    series_of_numbers = dict(report, summaries={"mean_count_series": [1, 2]})
    series_missing_keys = dict(report, summaries={"mean_count_series": [{"n": 100}]})
    # an empty conjunction would pass, but run_experiments writes neither
    no_verdicts = dict(report, verdicts={}, passed=True)
    no_experiments = {"master_seed": 1, "scale": 1.0, "experiments": [], "passed": True}
    cases = [missing, unknown, bad_row, bad_config, battery_missing,
             battery_unknown, battery_bad_entry, [report], "text", bad_value,
             passed_text, passed_wrong, battery_passed_wrong, series_of_numbers,
             series_missing_keys, no_verdicts, no_experiments]
    capsys.readouterr()
    for k, case in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(case))
        assert run_cli("report", str(path)) == EXIT_USAGE, case
        assert capsys.readouterr().err.startswith("error: ")


def test_report_missing_file_is_usage_error():
    assert run_cli("report", "/nonexistent/report.json") == EXIT_USAGE


def test_report_of_deeply_nested_json_is_usage_error(tmp_path, capsys):
    """JSON nested deeper than the parser can recurse is refused, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert run_cli("report", str(path)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {path}: JSON nested too deeply")


@pytest.mark.parametrize("name,out", [("rep.csv", None), ("rep.json", "rep.json"),
                                      ("rep.series.csv", "rep.csv")])
def test_report_refuses_to_write_over_its_input(name, out, tmp_path, monkeypatch, capsys):
    """The CSV (by default the input's stem plus ``.csv``), or its series
    sidecar, that would be the input report is refused before anything is
    written, so the report survives."""
    monkeypatch.chdir(tmp_path)
    run_cli("verify", "--kind", "rare-path", "--n", "15", "--reps", "25", "--seed", "4",
            "--out", name)
    report = (tmp_path / name).read_bytes()
    capsys.readouterr()
    argv = ["report", name, "--format", "csv"] + (["--out", out] if out else [])
    assert run_cli(*argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write '{name}'")
    assert sorted(path.name for path in tmp_path.iterdir()) == [name]
    assert (tmp_path / name).read_bytes() == report


def test_report_out_with_the_text_format_is_usage_error(small_report, tmp_path, capsys):
    """``--out`` names the CSV file, so with the text format, given or by
    default, it is refused before anything is printed or written."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(small_report))
    for argv in ([], ["--format", "text"]):
        assert run_cli("report", str(path), *argv, "--out", str(tmp_path / "o.txt")) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--out" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.json"]


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("small") / "rep.json"
    run_cli("verify", "--kind", "rare-path", "--n", "15", "--reps", "25",
            "--seed", "4", "--out", str(out))
    return json.loads(out.read_text())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(where=st.sampled_from(["report", "config", "row", "verdicts", "summaries",
                              "series"]),
       index=st.integers(0, 20), value=JSON_VALUES)
def test_report_of_mutated_values_exits_cleanly(small_report, tmp_path_factory, where,
                                                index, value):
    report = copy.deepcopy(small_report)
    series = report["summaries"]["mean_count_series"]
    target = {"report": report, "config": report["config"],
              "row": report["results"][index % len(report["results"])],
              "verdicts": report["verdicts"], "summaries": report["summaries"],
              "series": series[index % len(series)]}[where]
    target[sorted(target)[index % len(target)]] = value
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(report))
    csv_out = tmp_path_factory.getbasetemp() / "mutated.csv"
    for fmt in (["--format", "text"], ["--format", "csv", "--out", str(csv_out)]):
        assert run_cli("report", str(path), *fmt) in (EXIT_PASS, EXIT_STAT_FAIL, EXIT_USAGE)


# ---------------------------------------------------------------------------
# import graph

IMPORT_PROBE = """
import sys
from dixiecup.cli import main
out = sys.argv[1]
main(["verify", "--kind", "theorem1-counts", "--n", "100", "--reps", "200",
      "--seed", "1", "--out", out])
main(["verify", "--kind", "poissonized-marginal", "--n", "100", "--reps", "20",
      "--seed", "0"])
main(["report", out])
print("scipy.stats" in sys.modules)
"""


def test_cli_runs_never_import_scipy_stats(tmp_path):
    # a fresh interpreter, since this test session imports scipy.stats itself;
    # the calls cover the chi-square path, the KS path and report rendering
    src = os.path.dirname(os.path.dirname(dixiecup.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(tmp_path / "rep.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "poisson_counts[0.0,inf]" in done.stdout
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("module", ["dixiecup.samplers", "dixiecup.discrete",
                                    "dixiecup.pointprocess"])
def test_sampler_modules_import_without_the_verifier(module):
    """The package imports nothing itself, so a sampler module loads only
    the modules below it: no scipy, and no experiment layer."""
    src = os.path.dirname(os.path.dirname(dixiecup.__file__))
    probe = (f"import sys, {module}\n"
             "print(sorted(m for m in ('scipy', 'dixiecup.experiments') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_benchmark_harness_imports_resolve():
    """Every ``from dixiecup... import name`` in the benchmark harness names a
    module or attribute the package has, checked without running the harness."""
    harness = Path(__file__).resolve().parents[1] / "perfbench"
    imported, missing = [], []
    for path in sorted(harness.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dixiecup"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append(alias.name)
                    # a name is an attribute, or a submodule of a package
                    submodule = hasattr(module, "__path__") and importlib.util.find_spec(
                        f"{node.module}.{alias.name}")
                    if not (hasattr(module, alias.name) or submodule):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
    assert {"cli", "PointPattern", "run_discrete", "SeedSpec"} <= set(imported)
    assert missing == []


def test_no_module_imports_a_private_name_from_a_sibling():
    """A name starting with an underscore is private to its module: the
    package's modules import only each other's public names."""
    package = Path(dixiecup.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "dixiecup")
            if sibling:
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == []
