"""Command-line front end.

Subcommands: ``simulate`` (raw traces to CSV), ``verify`` (one experiment
kind), ``battery`` (the full verification suite), ``report`` (re-render a
persisted JSON report).  Exit codes: 0 all verdicts pass, 1 statistical
failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import configparser
import copy
import csv
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys

from .discrete import TraceBlock, block_size
from .experiments import (
    KEY_LIMIT,
    KINDS,
    SEED_LIMIT,
    ConfigError,
    ExperimentConfig,
    check_battery,
    check_report,
    replication_keys,
    run_experiments,
    write_csv,
    write_json,
)

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_USAGE = 2

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_interval(text: str) -> tuple[float, float]:
    parts = _parse_floats(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"interval needs two endpoints, got {text!r}")
    return parts[0], parts[1]


def _parse_intervals(text: str) -> list[tuple[float, float]]:
    return [_parse_interval(part) for part in text.split(";") if part.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dixiecup",
        description="Coupon-collector simulation and limit-law verification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write raw simulation traces to CSV")
    sim.add_argument("--scheme", choices=["discrete", "coupled"], default="discrete")
    sim.add_argument("--n", type=int, required=True, help="number of coupon types")
    sim.add_argument("--rmax", type=int, default=1, help="arrivals tracked per type")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run one experiment kind")
    ver.add_argument("--config", help="INI file with key = value experiment sections")
    ver.add_argument("--section", help="section of the config file to run")
    # the dest of each experiment flag is its ExperimentConfig field
    ver.add_argument("--kind", choices=sorted(KINDS))
    ver.add_argument("--n", dest="n_grid", metavar="N", type=_parse_ints,
                     help="comma-separated n grid")
    ver.add_argument("--r", type=int)
    ver.add_argument("--c", type=int)
    ver.add_argument("--m", type=int)
    ver.add_argument("--interval", dest="intervals", metavar="INTERVAL",
                     type=_parse_interval, action="append", help="interval 'a,b' (repeatable)")
    ver.add_argument("--thresholds", type=_parse_floats)
    ver.add_argument("--reps", dest="replications", metavar="REPS", type=int)
    ver.add_argument("--seed", dest="master_seed", metavar="SEED", type=int)
    ver.add_argument("--sig", dest="significance", metavar="SIG", type=float)
    ver.add_argument("--workers", type=int, default=1)
    ver.add_argument("--out", help="write the JSON report here")

    bat = sub.add_parser("battery", help="run the full verification suite")
    bat.add_argument("--seed", type=int, default=42)
    bat.add_argument("--workers", type=int, default=1)
    bat.add_argument("--scale", type=float, default=1.0,
                     help="replication scale factor (1.0 = full suite)")
    bat.add_argument("--out", default="battery_report.json")

    rep = sub.add_parser("report", help="re-render a persisted JSON report")
    rep.add_argument("input")
    rep.add_argument("--format", choices=["csv", "text"], default="text")
    rep.add_argument("--out")

    return parser


# ---------------------------------------------------------------------------
# simulate

def _csv_cells(values) -> list[str]:
    """Each entry of the array ``values``, in row order, as csv writes it: the
    str of a list holds the repr of each item, which is what csv writes for an
    int or a float, and a number needs no quotes."""
    return str(values.ravel().tolist())[1:-1].split(", ")


def _cmd_simulate(args) -> int:
    for flag, value, least in (("--n", args.n, 2), ("--rmax", args.rmax, 1),
                               ("--reps", args.reps, 1)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    # replication j at n reads stream (n << 32) | j, as in the bank
    for flag, value, most in (("--n", args.n, KEY_LIMIT - 1), ("--reps", args.reps, KEY_LIMIT)):
        if value > most:
            raise ValueError(f"{flag} must be at most {most}, since n and j must each be "
                             f"below 2**32 in a stream index; got {value}")
    if not 0 <= args.seed < SEED_LIMIT:
        raise ValueError(f"--seed must lie in [0, 2**64), got {args.seed}")
    _check_out_dir(args.out)
    if args.n < 3:
        print(f"warning: n={args.n} is below the recommended minimum of 3; "
              "the centering uses ln ln n", file=sys.stderr)
    coupled = args.scheme == "coupled"
    size = block_size(args.n, args.rmax)

    def block_columns(start):
        """The csv cells of each column of the block from replication start:
        the bank's traces (seed, n, j), which verify --seed reads."""
        keys = replication_keys(args.seed, args.n, start, min(start + size, args.reps))
        block = TraceBlock(args.n, args.rmax, keys)
        columns = [_csv_cells(block.arrivals)]
        if coupled:
            columns.append(_csv_cells(block.times))
        return columns

    # the first block's arrays before the row labels and the file: a run too
    # big for memory fails at their allocation at once and leaves no file
    first = block_columns(0)
    # "type,multiplicity" of each arrival of a trace, in row order
    positions = [f"{i},{k}" for i in range(1, args.n + 1) for k in range(1, args.rmax + 1)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["replication", "type", "multiplicity", "arrival_draw"]
        if coupled:
            header.append("arrival_time")
        writer.writerow(header)
        # the lines csv.writer would write: "replication,type,multiplicity",
        # the draw and, if coupled, the time; formatting them a block at a time
        # costs a fraction of a writerow per line
        line = "{},{},{}" if coupled else "{},{}"
        line += writer.dialect.lineterminator
        for start in range(0, args.reps, size):
            columns = block_columns(start) if start else first
            keys = [f"{j},{position}" for j in range(start, min(start + size, args.reps))
                    for position in positions]
            fh.writelines(map(line.format, keys, *columns))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify

_CONFIG_KEYS = {
    "kind": str,
    "n_grid": _parse_ints,
    "r": int,
    "c": int,
    "m": int,
    "intervals": _parse_intervals,
    "thresholds": _parse_floats,
    "replications": int,
    "master_seed": int,
    "significance": float,
}


def _config_from_ini(path: str, section: str | None) -> dict:
    ini = configparser.ConfigParser()
    if not ini.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    if section is None:
        if len(ini.sections()) != 1:
            raise ConfigError(
                f"config file has sections {ini.sections()}; pick one with --section"
            )
        section = ini.sections()[0]
    if section not in ini:
        raise ConfigError(f"no section {section!r} in {path!r}")
    out: dict = {}
    for key, value in ini[section].items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config file {path!r}, key {key!r}: {exc}") from exc
    out.setdefault("kind", section)
    return out


def _verify_config(args) -> ExperimentConfig:
    """The validated experiment config of a ``verify`` command line."""
    fields: dict = {}
    if args.section is not None and not args.config:
        raise ConfigError("--section picks a section of a config file; give one with --config")
    if args.config:
        try:
            fields = _config_from_ini(args.config, args.section)
        except configparser.Error as exc:
            raise ConfigError(f"config file {args.config!r}: {exc}") from exc
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    fields.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    if "kind" not in fields:
        raise ConfigError("an experiment kind is required (--kind or config file)")
    config = ExperimentConfig(**fields)
    config.validate()
    return config


def _check_out_dir(path: str) -> None:
    """Raise unless ``path`` names a file in a directory that exists, so a
    run fails before it samples rather than after."""
    if not path:
        raise ConfigError("cannot write '': the path is empty")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path!r}: no directory {directory!r}")
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: it is a directory")


def _cmd_verify(args) -> int:
    config = _verify_config(args)
    if args.out is not None:
        _check_out_dir(args.out)
    if 0 < min(config.grid) < 3:
        print("warning: n below 3 makes the ln ln n centering negative",
              file=sys.stderr)

    (report,) = run_experiments([config], args.workers)
    for name, ok in sorted(report["verdicts"].items()):
        print(f"{'PASS' if ok else 'FAIL'}  {config.kind}: {name}")
    if args.out is not None:
        write_json(report, args.out)
        print(f"report written to {args.out}")
    return EXIT_PASS if report["passed"] else EXIT_STAT_FAIL


# ---------------------------------------------------------------------------
# battery

def battery_configs(seed: int, scale: float) -> list[ExperimentConfig]:
    """The standard suite: each kind's battery experiments, in registry order.

    Every experiment gets the battery seed, so experiments that read one
    ``(seed, n)`` share its traces and their verdicts are correlated.
    """
    if not 0.0 < scale < math.inf:
        raise ConfigError(f"scale must be finite and positive, got {scale}")
    configs: list[ExperimentConfig] = []
    for kind, entry in KINDS.items():
        for fields in entry.battery:
            cfg = ExperimentConfig(kind, master_seed=seed, **copy.deepcopy(fields))
            scaled = cfg.replications * scale
            # replication j reads stream (n << 32) | j, so j must fit in 32 bits
            if scaled > KEY_LIMIT:
                raise ConfigError(f"scale {scale} gives {kind} {scaled:.4g} replications; "
                                  f"at most 2**32 fit a stream index")
            cfg.replications = max(20, round(scaled))
            configs.append(cfg)
    return configs


def _cmd_battery(args) -> int:
    configs = battery_configs(args.seed, args.scale)
    _check_out_dir(args.out)
    reports = run_experiments(configs, args.workers)
    for cfg, report in zip(configs, reports):
        status = "PASS" if report["passed"] else "FAIL"
        print(f"{status}  {cfg.kind}(r={cfg.r}, c={cfg.c}, m={cfg.m})")
    all_pass = all(report["passed"] for report in reports)
    combined = {
        "master_seed": args.seed,
        "scale": args.scale,
        "experiments": reports,
        "passed": all_pass,
    }
    write_json(combined, args.out)
    print(f"battery report written to {args.out}")
    return EXIT_PASS if all_pass else EXIT_STAT_FAIL


# ---------------------------------------------------------------------------
# report

def _cmd_report(args) -> int:
    if args.out is not None and args.format != "csv":
        raise ConfigError("--out names the CSV file; give it with --format csv")
    with open(args.input) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{args.input}: JSON nested too deeply to read") from None
    battery = isinstance(data, dict) and "experiments" in data
    reports = check_battery(data) if battery else [check_report(data)]
    passed = all(report["passed"] for report in reports)
    if args.format == "csv":
        out = args.out or os.path.splitext(args.input)[0] + ".csv"
        write_csv(reports, out, source=args.input)
        print(f"CSV written to {out}")
    else:
        for report in reports:
            print(f"experiment: {report['config']['kind']}")
            print(f"verifies:   {report['theorem']}")
            for row in report["results"]:
                p = "" if row["p_value"] is None else f" p={row['p_value']:.4g}"
                status = "PASS" if row["verdict"] else "FAIL"
                print(f"  {status}  n={row['n']:>6}  {row['statistic_name']}"
                      f" = {row['value']:.6g}{p}")
            print(f"overall: {'PASS' if report['passed'] else 'FAIL'}")
        if battery:
            print(f"battery: {'PASS' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_STAT_FAIL


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep the arrays a block frees for the next block, rather than
    unmap them and fault them back in, once per process; forked helpers
    inherit it.  Allocations of up to 32 MiB (glibc's 64-bit ceiling) come
    from the heap, which returns free memory to the OS only beyond 64 MiB.
    Setting either threshold turns off glibc's own adjustment of both, so
    both are set, or neither where the first is refused.  A libc without
    ``mallopt`` is left as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "verify": _cmd_verify,
        "battery": _cmd_battery,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (MemoryError, OSError, ValueError) as exc:
        # a MemoryError raised by the interpreter itself has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
