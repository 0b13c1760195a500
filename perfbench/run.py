"""Benchmark of the dixiecup toolkit: time-to-verdicts on three workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload battery-slice --seed 1 --seconds 30 --trace 0

The product is imported from ``src/`` and driven in-process through
``dixiecup.cli.main(argv)``, closed-loop with one caller.  An end-to-end run
repeats the workload's pass (a fixed list of CLI calls) with fresh inputs
derived from ``--seed`` and the pass number until ``--seconds`` have elapsed,
times every call, and reports for each call the mean over passes.  Every
report is checked by the law-level gate in ``gate.py``, and sampled traces are
checked for their invariants after the timed section.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate,
single-process traced run: it times untraced passes at one and two workers,
then a pass with the product's public functions wrapped (``spans.py``), all on
the inputs of pass 0, whose reports must then be byte-identical, and prints
the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it repeat the metrics with their units, the report
SHA-256 digests and the ``getrusage`` deltas, which also go to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# set-up is timed in fresh processes; the median of these many is reported
SETUP_PROBES = 3
# pass p of a run feeds the product the master seed seed + p * PASS_SEED_STRIDE,
# past every offset a pass adds to it (7919 per battery experiment, 1 per
# verify command), so no two passes of a run share a replication stream
PASS_SEED_STRIDE = 1_000_000
# passes an end-to-end run completes whatever --seconds says
MIN_PASSES = 3
# sampled replications per (scheme, n, r_max) for the trace invariants
TRACE_SAMPLES = 2


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def cpu_seconds(pair) -> float:
    return sum(u.ru_utime + u.ru_stime for u in pair)


def usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))



def call_cli(main, argv) -> int | str:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash of the run
        traceback.print_exc(file=sys.stderr)
        return "traceback"


class Runner:
    """Runs passes of one workload and checks what they produce."""

    def __init__(self, workload, seed: int, out_dir: Path, tally: Tally):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.tally = tally
        # SHA-256 of each report of pass 0, whose inputs are the run's seed
        self.digests: dict[str, str] = {}
        # per report of the latest pass: replications delivered, bytes written
        self.replications: dict[str, int] = {}
        self.report_bytes: dict[str, int] = {}

    def run_pass(self, index: int = 0, workers: int | None = None, main=None,
                 stop: float = math.inf) -> list[tuple[str, float, float]]:
        """Pass ``index``, one command at a time, starting none once the clock
        passes ``stop``; returns (report, wall seconds, cpu seconds) per command."""
        from dixiecup import cli

        main = main or cli.main
        seed = self.seed + PASS_SEED_STRIDE * index
        timings = []
        for cmd in self.workload.commands(seed, str(self.out_dir), workers):
            if time.perf_counter() >= stop:
                break
            (self.out_dir / cmd.report).unlink(missing_ok=True)
            before = usage()
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = call_cli(main, cmd.argv)
            wall = time.perf_counter() - start
            timings.append((cmd.report, wall, cpu_seconds(usage()) - cpu_seconds(before)))
            self.check(cmd, code, first_pass=index == 0)
        return timings

    def check(self, cmd, code, first_pass: bool) -> None:
        from gate import check_command

        path = self.out_dir / cmd.report
        raw = path.read_bytes() if path.is_file() else None
        try:
            report = json.loads(raw) if raw else None
        except ValueError:
            report = None
        problems = check_command(cmd, code, report)
        if raw:
            self.report_bytes[cmd.report] = len(raw)
            if first_pass:
                digest = hashlib.sha256(raw).hexdigest()
                if self.digests.setdefault(cmd.report, digest) != digest:
                    problems = [p + ["report differs from an earlier run of its inputs"]
                                for p in problems]
            parts = report.get("experiments", [report]) if isinstance(report, dict) else []
            self.replications[cmd.report] = sum(
                p.get("telemetry", {}).get("replications", 0) for p in parts)
        for exp, found in zip(cmd.experiments, problems):
            self.tally.add(f"{cmd.report} {exp.kind}", found)

    def check_traces(self) -> None:
        from dixiecup.discrete import run_discrete
        from dixiecup.poissonized import run_coupled
        from dixiecup.samplers import SeedSpec
        from gate import check_trace

        for scheme, n, r_max in self.workload.traces:
            sampler = run_coupled if scheme == "coupled" else run_discrete
            for j in range(TRACE_SAMPLES):
                what = f"{scheme} trace n={n} r_max={r_max} stream {j}"
                try:
                    trace = sampler(n, r_max, SeedSpec(self.seed, j))
                except Exception as exc:  # noqa: BLE001 - reported as a failed operation
                    self.tally.add(what, [repr(exc)])
                    continue
                self.tally.add(what, check_trace(trace, scheme == "coupled"))


def pass_wall(timings) -> float:
    return sum(wall for _, wall, _ in timings)


def warm_up() -> None:
    from dixiecup import cli
    from workloads import WARM_UP

    with contextlib.redirect_stdout(io.StringIO()):
        call_cli(cli.main, WARM_UP)


def setup_times(tally: Tally) -> list[float]:
    """Seconds from launching a fresh interpreter to product-ready, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "ready.py"), str(SRC)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
        tally.add("set-up probe", [] if line == "ready" else [line or "no output"])
        times.append(elapsed)
    return times


def rusage_delta(before, after) -> dict:
    out = {}
    for who, b, a in zip(("self", "children"), before, after):
        out[who] = {"user_s": a.ru_utime - b.ru_utime, "sys_s": a.ru_stime - b.ru_stime,
                    "minflt": a.ru_minflt - b.ru_minflt, "maxrss_kb": a.ru_maxrss}
    return out


def end_to_end(runner: Runner, seconds: float, tally: Tally, info: dict) -> dict:
    """Passes with fresh inputs until ``seconds`` have elapsed.  A pass's wall
    and cpu time are reported as the sum over its commands of each command's
    mean over the run, which counts a pass the deadline cut short.

    Means, not medians: on a shared host each virtual CPU switches between a
    fast and a slow state (up to 1.45x apart, every 10 to 30 s), so call times
    are bimodal and their median jumps from one mode to the other between
    runs, while the mean moves only with the share of time spent slow."""
    walls: dict[str, list[float]] = defaultdict(list)
    cpus: dict[str, list[float]] = defaultdict(list)
    before = usage()
    stop = time.perf_counter() + seconds
    index = 0
    while index < MIN_PASSES or time.perf_counter() < stop:
        for report, wall, cpu in runner.run_pass(index, stop=stop if index >= MIN_PASSES else math.inf):
            walls[report].append(wall)
            cpus[report].append(cpu)
        index += 1
    after = usage()
    runner.check_traces()
    setup = setup_times(tally)
    wall_s = sum(statistics.fmean(w) for w in walls.values())
    info.update(passes=index, command_walls_s=walls, command_cpus_s=cpus,
                setup_samples_s=setup, rusage=rusage_delta(before, after))
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "replications_per_s": sum(runner.replications.values()) / wall_s,
        "cpu_s": sum(statistics.fmean(c) for c in cpus.values()),
        "peak_rss_mb": max(after[0].ru_maxrss, after[1].ru_maxrss) / 1024.0,
    }


def per_layer(runner: Runner, seconds: float, info: dict) -> dict:
    """Untraced passes at one and two workers, then a traced one, all on the
    inputs of pass 0, until ``seconds`` of passes have been timed."""
    from dixiecup import cli
    from spans import Tracer, layer_metrics, probe_grid

    one, two, traced = [], [], []
    before = usage()
    while not traced or sum(one) + sum(two) + sum(traced) < seconds:
        one.append(pass_wall(runner.run_pass(workers=1)))
        two.append(pass_wall(runner.run_pass(workers=2)))
        tracer = Tracer()
        with tracer:
            traced.append(pass_wall(runner.run_pass(
                workers=1, main=tracer.wrap("cli", "main", cli.main))))
    after = usage()
    runner.check_traces()
    metrics, shares = layer_metrics(tracer, traced[-1])
    predicted = runner.workload.dominant_layer
    dominant = max(shares, key=shares.get)
    metrics.update(
        probe_grid(runner.seed),
        **{"experiments.pool_speedup": statistics.median(one) / statistics.median(two),
           "cli.report_bytes": sum(runner.report_bytes.values()),
           "trace_overhead_s": statistics.median(traced) - statistics.median(one),
           "dominant_layer_share": shares.get(predicted, 0.0)})
    info.update(passes=len(traced), untraced_w1_s=one, untraced_w2_s=two, traced_s=traced,
                layer_shares=shares, predicted_dominant_layer=predicted,
                dominant_layer=dominant, rusage=rusage_delta(before, after))
    spans_path = OUT / f"spans-{runner.workload.name}-seed{runner.seed}.json"
    spans_path.write_text(json.dumps(tracer.spans))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "dixiecup" / "__init__.py").is_file():
        print(f"error: no dixiecup sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT))
    tally = Tally()
    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        warm_up()
        runner = Runner(WORKLOADS[args.workload], args.seed, out_dir, tally)
        if args.trace:
            values = per_layer(runner, args.seconds, info)
        else:
            values = end_to_end(runner, args.seconds, tally, info)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info.update(attempted=tally.attempted, failed=tally.failed,
                failed_ratio=tally.failed / tally.attempted, problems=tally.problems,
                report_sha256=runner.digests,
                reports_sha256=hashlib.sha256(
                    "".join(runner.digests[k] for k in sorted(runner.digests)).encode()
                ).hexdigest(),
                metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2, sort_keys=True) + "\n")

    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_ratio':<40} {info['failed_ratio']:.6g} "
          f"({tally.failed}/{tally.attempted} operations)")
    if args.trace:
        dominant, predicted = info["dominant_layer"], info["predicted_dominant_layer"]
        verdict = "as predicted" if dominant == predicted else "MISMATCH"
        print(f"dominant layer {dominant} (predicted {predicted}): {verdict}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, digest in sorted(runner.digests.items()):
        print(f"sha256 {digest}  {name}")
    print("rusage " + json.dumps(info["rusage"], sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
