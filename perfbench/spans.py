"""Span tracing of the product's public functions, from outside the product.

While a :class:`Tracer` is installed, each traced function is replaced at the
place the product looks it up (a module global at its call site, or a class
attribute) by a wrapper that records a span (layer, name, start, end, parent)
and a call count.  Spans stay in memory; a layer's self time is the summed
duration of its spans minus the time their child spans cover.  Targets the
product no longer has are skipped, so a refactor shows up as zero counts
rather than a crash.
"""
from __future__ import annotations

import resource
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

# fields of one span record
LAYER, NAME, START, END, PARENT = range(5)

# sampler entry points whose page faults and draws are counted
SAMPLER_CALLS = {"run_discrete", "run_coupled"}


def targets():
    """(owner, attribute, layer) for every traced public function."""
    from dixiecup import cli, experiments, limitlaws
    from dixiecup.pointprocess import Normalization, PointPattern
    from dixiecup.samplers import SeedSpec

    out = [(experiments, name, layer) for name, layer in (
        ("run_discrete", "discrete"),
        ("collection_time", "discrete"),
        ("partial_collection_time", "discrete"),
        ("run_coupled", "poissonized"),
        ("count_mismatch", "poissonized"),
        ("normalize", "pointprocess"),
        ("ks_test", "gof"),
        ("ks_statistic", "gof"),
        ("poisson_count_test", "gof"),
        ("increment_test", "gof"),
    )]
    out += [(SeedSpec, "generator", "samplers"),
            (Normalization, "apply", "pointprocess"),
            (PointPattern, "count", "pointprocess"),
            (PointPattern, "count_from", "pointprocess"),
            (cli, "run_experiment", "experiments")]
    out += [(law, "cdf", "limitlaws") for law in vars(limitlaws).values()
            if isinstance(law, type) and law.__module__ == limitlaws.__name__
            and callable(getattr(law, "cdf", None))]
    return [t for t in out if hasattr(t[0], t[1])]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.faults: Counter = Counter()
        self.draws = 0
        self.cdf_points = 0
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, layer: str, name: str, fn):
        def traced(*args, **kwargs):
            sampler = name in SAMPLER_CALLS
            if sampler:
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            span = [layer, name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            self.calls[name] += 1
            if sampler:
                self.faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt
                if name == "run_discrete":
                    self.draws += result.total_draws
            elif name == "cdf":
                self.cdf_points += int(np.size(args[1]))
            return result
        return traced

    def __enter__(self):
        for owner, attr, layer in targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, covered):
            out[span[LAYER]] += span[END] - span[START] - child
        return out

    def inclusive(self, name: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)


def layer_metrics(tracer: Tracer, traced_wall: float):
    """Per-layer metrics of one traced pass, and each layer's share of its wall."""
    self_s = tracer.self_times()
    calls, faults = tracer.calls, tracer.faults
    layer_calls = Counter(span[LAYER] for span in tracer.spans)

    def per(total, count):
        return total / count if count else 0.0

    discrete_s = tracer.inclusive("run_discrete")
    sim_s = discrete_s + tracer.inclusive("run_coupled")
    run_s = tracer.inclusive("run_experiment")
    return {
        "discrete.calls": calls["run_discrete"],
        "discrete.self_s": self_s["discrete"],
        "discrete.draws_per_s": per(tracer.draws, discrete_s),
        "discrete.minflt_per_trace": per(faults["run_discrete"], calls["run_discrete"]),
        "poissonized.calls": calls["run_coupled"],
        "poissonized.self_s": self_s["poissonized"],
        "poissonized.minflt_per_trace": per(faults["run_coupled"], calls["run_coupled"]),
        "samplers.generator_calls": calls["generator"],
        "samplers.self_s": self_s["samplers"],
        "pointprocess.calls": layer_calls["pointprocess"],
        "pointprocess.self_s": self_s["pointprocess"],
        "limitlaws.cdf_points": tracer.cdf_points,
        "limitlaws.self_s": self_s["limitlaws"],
        "gof.calls": layer_calls["gof"],
        "gof.self_s": self_s["gof"],
        "experiments.runs": calls["run_experiment"],
        "experiments.self_s": self_s["experiments"],
        "experiments.sim_share": per(sim_s, run_s),
        "cli.self_s": self_s["cli"],
    }, {layer: t / traced_wall for layer, t in self_s.items()}


def probe_grid(seed: int, min_seconds: float = 0.25, min_calls: int = 3) -> dict[str, float]:
    """Median milliseconds per trace for the sampler probe grid."""
    from dixiecup.discrete import run_discrete
    from dixiecup.poissonized import run_coupled
    from dixiecup.samplers import SeedSpec

    cells = [("discrete", run_discrete, n, r) for n in (100, 1000, 10000, 100000) for r in (1, 3)]
    cells += [("poissonized", run_coupled, n, r) for n in (10000, 100000) for r in (1, 3)]
    out = {}
    for layer, sampler, n, r in cells:
        times: list[float] = []
        j = 0
        while len(times) < min_calls or sum(times) < min_seconds:
            t0 = time.perf_counter()
            sampler(n, r, SeedSpec(seed, j))
            times.append(time.perf_counter() - t0)
            j += 1
        out[f"{layer}.ms_per_trace.n{n}.r{r}"] = 1e3 * statistics.median(times)
    return out
