"""Per-layer metrics computed from the spans of one traced job.

``LAYER_METRICS`` is the layer-to-metric-to-workload map: for each metric,
what it counts and which end-to-end metric it should move on which workload.
The names are the ``per_layer`` names of ``BENCHMARK.json``, so later changes
can cite them. A metric whose traced function no longer exists is absent:
its ``compute`` returns None and the metric is left out of the result.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from tracer import OBJECTIVE_SPAN, ROOT_SPAN

MB = float(2 ** 20)
RV_ROUTINES = ("robustness.rv", "robustness.rv_estimate_only")


class Trace:
    """Spans of one job, indexed by name, with each span's child time."""

    def __init__(self, payload: dict):
        names = payload["names"]
        self.spans = [(names[i], start, end, parent, info or {})
                      for i, start, end, parent, info in payload["spans"]]
        self.absent = set(payload.get("absent_spans", ()))
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.child_s = [0.0] * len(self.spans)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            self.by_name[name].append(idx)
            if parent >= 0:
                self.child_s[parent] += end - start

    def present(self, *names: str) -> bool:
        return not any(name in self.absent for name in names)

    def duration(self, idx: int) -> float:
        _, start, end, _, _ = self.spans[idx]
        return end - start

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield parent
            parent = self.spans[parent][3]

    def calls(self, name: str) -> int | None:
        return len(self.by_name.get(name, ())) if self.present(name) else None

    def total_s(self, name: str) -> float | None:
        """Wall time inside ``name``; a call nested in another call of the
        same name is not counted twice."""
        if not self.present(name):
            return None
        return sum(self.duration(i) for i in self.by_name.get(name, ())
                   if all(self.spans[a][0] != name for a in self.ancestors(i)))

    def self_s(self, name: str) -> float | None:
        """Time inside ``name`` not covered by traced child spans."""
        if not self.present(name):
            return None
        return sum(self.duration(i) - self.child_s[i]
                   for i in self.by_name.get(name, ()))

    def info_sum(self, name: str, key: str):
        """Sum of a count read at the boundary of ``name`` spans; None when
        the layer is absent or no longer exposes the count."""
        if not self.present(name):
            return None
        total = 0
        for idx in self.by_name.get(name, ()):
            info = self.spans[idx][4]
            if info.get("raised"):
                continue
            if key not in info:
                return None
            total += info[key]
        return total


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _searches_per_rv(t: Trace):
    routines = [d for d in RV_ROUTINES if t.present(d)]
    if not routines or not t.present("optimize.direct"):
        return None
    roots = set()
    for d in routines:
        for idx in t.by_name.get(d, ()):
            if not any(t.spans[a][0] in RV_ROUTINES for a in t.ancestors(idx)):
                roots.add(idx)
    searches = sum(1 for idx in t.by_name.get("optimize.direct", ())
                   if any(a in roots for a in t.ancestors(idx)))
    return _ratio(searches, len(roots))


def _budget_hit_frac(t: Trace):
    if not t.present("optimize.direct"):
        return None
    hits = 0
    searches = t.by_name.get("optimize.direct", ())
    for idx in searches:
        info = t.spans[idx][4]
        if "n_evals" not in info:
            return None
        hits += info["n_evals"] >= info["budget"] - (2 * info["dims"] + 1)
    return _ratio(hits, len(searches))


def _polish_win_frac(t: Trace):
    if not t.present("optimize.polish"):
        return None
    wins = [t.spans[i][4]["win"] for i in t.by_name.get("optimize.polish", ())
            if "win" in t.spans[i][4]]
    return _ratio(sum(wins), len(wins))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    kind: str       # "time": median over traced jobs; "count": must repeat exactly
    counts: str     # what it counts
    moves: str      # the end-to-end metric and workloads it should move
    compute: Callable[[Trace], float | None]


P50 = "job_rel"
LAYER_METRICS = (
    LayerMetric(
        "cli.load_csv_s", "s", "lower", "time", "time in load_csv_columns",
        f"{P50} on effects_large_n; about 0 elsewhere",
        lambda t: t.total_s("cli.load_csv")),
    LayerMetric(
        "cli.self_s", "s", "lower", "time",
        "job span minus child spans (argparse, JSON and CSV writing)",
        f"{P50} on all workloads, small", lambda t: t.self_s(ROOT_SPAN)),
    LayerMetric(
        "mediation.fit_observed.calls", "count", "lower", "count",
        "fit_observed calls, those inside the bootstrap included",
        f"{P50} on effects_large_n", lambda t: t.calls("mediation.fit_observed")),
    LayerMetric(
        "mediation.fit_observed_s", "s", "lower", "time",
        "time in fit_observed, inside the bootstrap included",
        f"{P50} on effects_large_n", lambda t: t.total_s("mediation.fit_observed")),
    LayerMetric(
        "inference.bootstrap_s", "s", "lower", "time", "bootstrap_moments span",
        f"{P50} on effects_large_n (dominant) and benchmark_delta",
        lambda t: t.total_s("inference.bootstrap")),
    LayerMetric(
        "inference.resamples", "count", "lower", "count",
        "resamples of the returned plans", f"{P50} on effects_large_n and benchmark_delta",
        lambda t: t.info_sum("inference.bootstrap", "resamples")),
    LayerMetric(
        "inference.redraws", "count", "lower", "count",
        "singular resamples redrawn, read from the returned plans",
        f"{P50} on effects_large_n",
        lambda t: t.info_sum("inference.bootstrap", "redraws")),
    LayerMetric(
        "inference.resamples_per_s", "1/s", "higher", "time",
        "resamples divided by bootstrap_moments time",
        f"{P50} on effects_large_n",
        lambda t: _ratio(t.info_sum("inference.bootstrap", "resamples"),
                         t.total_s("inference.bootstrap"))),
    LayerMetric(
        "inference.indices_mb", "MB", "lower", "count",
        "plan.indices.nbytes of the returned plans, in MiB",
        "peak_rss_mb on effects_large_n",
        lambda t: _ratio(t.info_sum("inference.bootstrap", "indices_bytes"), MB)),
    LayerMetric(
        "inference.bootstrap_se_s", "s", "lower", "time",
        "per-estimator loops over resamples", f"{P50} on effects_large_n",
        lambda t: t.total_s("inference.bootstrap_se")),
    LayerMetric(
        "inference.bootstrap_se.calls", "count", "lower", "count",
        "bootstrap_se calls", f"{P50} on effects_large_n",
        lambda t: t.calls("inference.bootstrap_se")),
    LayerMetric(
        "robustness.rv_s", "s", "lower", "time", "robustness_value span",
        "none: no workload runs `bksens rv`", lambda t: t.total_s("robustness.rv")),
    LayerMetric(
        "robustness.rho_points", "count", "lower", "count",
        "length of the curves robustness_value returns", "none: no workload runs `bksens rv`",
        lambda t: t.info_sum("robustness.rv", "rho_points")),
    LayerMetric(
        "robustness.objective_build_s", "s", "lower", "time",
        "EffectObjective.for_direct and for_indirect", f"{P50} on simulate_grid, small",
        lambda t: t.total_s("robustness.objective_build")),
    LayerMetric(
        "robustness.rv_estimate_only_s", "s", "lower", "time",
        "bisection RV routine span", f"{P50} on simulate_grid",
        lambda t: t.total_s("robustness.rv_estimate_only")),
    LayerMetric(
        "robustness.rv_estimate_only.calls", "count", "lower", "count",
        "bisection RV routine calls", f"{P50} on simulate_grid",
        lambda t: t.calls("robustness.rv_estimate_only")),
    LayerMetric(
        "robustness.searches_per_rv", "count", "lower", "count",
        "DIRECT searches inside RV routines divided by RV routine calls",
        f"{P50} on simulate_grid", _searches_per_rv),
    LayerMetric(
        "optimize.direct_s", "s", "lower", "time", "direct_optimize span",
        f"{P50} on simulate_grid and benchmark_delta",
        lambda t: t.total_s("optimize.direct")),
    LayerMetric(
        "optimize.direct.calls", "count", "lower", "count", "direct_optimize calls",
        f"{P50} on simulate_grid and benchmark_delta",
        lambda t: t.calls("optimize.direct")),
    LayerMetric(
        "optimize.direct.self_s", "s", "lower", "time",
        "direct_optimize time outside objective calls (bookkeeping)",
        f"{P50} on simulate_grid and benchmark_delta",
        lambda t: t.self_s("optimize.direct")),
    LayerMetric(
        "optimize.evals", "count", "lower", "count",
        "points passed to the objective of direct_optimize",
        f"{P50} on simulate_grid and benchmark_delta",
        lambda t: t.info_sum(OBJECTIVE_SPAN, "points")),
    LayerMetric(
        "optimize.objective.calls", "count", "lower", "count",
        "calls of the objective of direct_optimize",
        f"{P50} on simulate_grid and benchmark_delta",
        lambda t: t.calls(OBJECTIVE_SPAN)),
    LayerMetric(
        "optimize.points_per_call", "count", "higher", "count",
        "objective points per objective call (1 when unvectorized)",
        f"{P50} on simulate_grid (vectorized) and benchmark_delta (1 point per call)",
        lambda t: _ratio(t.info_sum(OBJECTIVE_SPAN, "points"),
                         t.calls(OBJECTIVE_SPAN))),
    LayerMetric(
        "optimize.objective_s", "s", "lower", "time",
        "time in the objective of direct_optimize",
        f"{P50} on simulate_grid and benchmark_delta",
        lambda t: t.total_s(OBJECTIVE_SPAN)),
    LayerMetric(
        "optimize.budget_hit_frac", "ratio", "lower", "count",
        "searches ending within 2d+1 evaluations of their budget, per search",
        "accuracy versus budget (ROADMAP 3f)", _budget_hit_frac),
    LayerMetric(
        "optimize.polish_s", "s", "lower", "time",
        "scipy minimize as named in bksens.robustness",
        f"{P50} on simulate_grid (about half)",
        lambda t: t.total_s("optimize.polish")),
    LayerMetric(
        "optimize.polish.calls", "count", "lower", "count", "polish calls",
        f"{P50} on simulate_grid",
        lambda t: t.calls("optimize.polish")),
    LayerMetric(
        "optimize.polish.nfev", "count", "lower", "count",
        "objective evaluations of the polishes", f"{P50} on simulate_grid",
        lambda t: t.info_sum("optimize.polish", "nfev")),
    LayerMetric(
        "optimize.polish_win_frac", "ratio", "higher", "count",
        "polishes that beat the DIRECT value, per polish",
        f"{P50} on simulate_grid", _polish_win_frac),
    LayerMetric(
        "benchmarking.stacks_s", "s", "lower", "time", "prepare_benchmark_stacks span",
        f"{P50} on benchmark_delta", lambda t: t.total_s("benchmarking.stacks")),
    LayerMetric(
        "benchmarking.stacks.calls", "count", "lower", "count",
        "prepare_benchmark_stacks calls (3 per job at the seed commit)",
        f"{P50} on benchmark_delta", lambda t: t.calls("benchmarking.stacks")),
    LayerMetric(
        "benchmarking.benchmark_moments.calls", "count", "lower", "count",
        "per-resample leave-one-out anchors", f"{P50} on benchmark_delta",
        lambda t: t.calls("benchmarking.benchmark_moments")),
    LayerMetric(
        "benchmarking.benchmark_moments_s", "s", "lower", "time",
        "time in benchmark_moments", f"{P50} on benchmark_delta",
        lambda t: t.total_s("benchmarking.benchmark_moments")),
    LayerMetric(
        "benchmarking.worst_s", "s", "lower", "time", "benchmark_worst span",
        f"{P50} on benchmark_delta", lambda t: t.total_s("benchmarking.worst")),
    LayerMetric(
        "benchmarking.worst.calls", "count", "lower", "count", "benchmark_worst calls",
        f"{P50} on benchmark_delta", lambda t: t.calls("benchmarking.worst")),
    LayerMetric(
        "benchmarking.critical_delta_s", "s", "lower", "time", "critical_delta span",
        f"{P50} on benchmark_delta", lambda t: t.total_s("benchmarking.critical_delta")),
    LayerMetric(
        "benchmarking.delta_points", "count", "lower", "count",
        "points of the delta curves critical_delta returns", f"{P50} on benchmark_delta",
        lambda t: t.info_sum("benchmarking.critical_delta", "delta_points")),
    LayerMetric(
        "simulation.simulate_design_s", "s", "lower", "time",
        "data draws and scale calibration", f"{P50} on simulate_grid",
        lambda t: t.total_s("simulation.simulate_design")),
    LayerMetric(
        "simulation.simulate_design.calls", "count", "lower", "count",
        "simulate_design calls", f"{P50} on simulate_grid",
        lambda t: t.calls("simulation.simulate_design")),
)

# Reported per workload by the benchmark itself, not computed from spans.
OVERHEAD_METRIC = LayerMetric(
    "trace.overhead_frac", "ratio", "lower", "time",
    "traced job_s.p50 relative to untraced, minus 1", "none", lambda t: None)

ALL_LAYER_METRICS = (*LAYER_METRICS, OVERHEAD_METRIC)


def job_layer_metrics(payload: dict) -> dict[str, float]:
    """Metric name -> value for one traced job; absent metrics left out."""
    trace = Trace(payload)
    out = {}
    for metric in LAYER_METRICS:
        value = metric.compute(trace)
        if value is not None:
            out[metric.name] = float(value)
    return out
