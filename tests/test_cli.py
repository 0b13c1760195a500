"""Command-line interface: subcommands, exit codes, config files, rendering."""
import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dixiecup
from dixiecup.cli import (
    EXIT_PASS,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    _verify_config,
    battery_configs,
    build_parser,
    main,
)
from dixiecup.discrete import run_discrete
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
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 3 * 6 * 2
    assert set(rows[0]) == {"replication", "type", "multiplicity", "arrival_draw"}
    # the CSV must reproduce the library trace for the same seed spec
    trace = run_discrete(6, 2, SeedSpec(11, 0))
    first = [r for r in rows if r["replication"] == "0"]
    for row in first:
        i, k = int(row["type"]) - 1, int(row["multiplicity"]) - 1
        assert int(row["arrival_draw"]) == trace.arrivals[i, k]


def test_simulate_coupled_adds_time_column(tmp_path):
    out = tmp_path / "coupled.csv"
    code = run_cli("simulate", "--scheme", "coupled", "--n", "5",
                   "--out", str(out))
    assert code == EXIT_PASS
    rows = list(csv.DictReader(out.open()))
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
], ids=["reps-negative", "reps-0", "rmax-0", "n-1"])
def test_simulate_bad_arguments_write_no_file(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = run_cli("simulate", "--n", "5", *argv, "--out", str(out))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
], ids=["workers-0", "scale-inf", "scale-nan", "scale-0", "scale-negative"])
def test_battery_bad_arguments_are_usage_errors(argv, tmp_path, capsys):
    code = run_cli("battery", *argv, "--out", str(tmp_path / "battery.json"))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


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
    rows = list(csv.DictReader(csv_out.open()))
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
    rows = list(csv.DictReader(csv_out.open()))
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
    cases = [missing, unknown, bad_row, bad_config, battery_missing,
             battery_unknown, battery_bad_entry, [report], "text", bad_value,
             passed_text, passed_wrong, battery_passed_wrong, series_of_numbers,
             series_missing_keys]
    capsys.readouterr()
    for k, case in enumerate(cases):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(case))
        assert run_cli("report", str(path)) == EXIT_USAGE, case
        assert capsys.readouterr().err.startswith("error: ")


def test_report_missing_file_is_usage_error():
    assert run_cli("report", "/nonexistent/report.json") == EXIT_USAGE


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
