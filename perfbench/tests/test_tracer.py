"""The tracing shim on a stand-in package, and on bksens itself."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from benchpaths import BENCH_DIR, REPO_ROOT
import tracer
from layers import LAYER_METRICS, job_layer_metrics
from workloads import write_study_csv

# A package shaped like bksens after a refactor: prepare_benchmark_stacks,
# rv_estimate_only and EffectObjective are gone, and the bootstrap plan no
# longer carries row indices.
STAND_IN = {
    "__init__.py": "",
    "mediation.py": """
        def fit_observed(x):
            return x + 1
    """,
    "inference.py": """
        from .mediation import fit_observed

        class Plan:
            n_resamples = 4
            n_redraws = 0

        def bootstrap_moments(x):
            for _ in range(4):
                fit_observed(x)
            return Plan()

        def bootstrap_se(plan, estimator):
            return 0.5
    """,
    "optimize.py": """
        class Result:
            def __init__(self, x, fun, n_evals):
                self.x, self.fun, self.n_evals = x, fun, n_evals

        def direct_optimize(objective, lower, upper, budget=9, vectorized=False):
            best = min(objective([v]) for v in (0.1, 0.2, 0.3))
            return Result([0.1], best, 3)
    """,
    "robustness.py": """
        from .optimize import direct_optimize

        class Report:
            curve = [(0.1, 1.0), (0.2, 0.5)]

        def minimize(fun, x0):
            class R:
                fun = -1.0
                nfev = 7
            return R()

        def robustness_value(x):
            for _ in range(2):
                res = direct_optimize(lambda p: p[0], [0.0], [1.0])
                minimize(None, res.x)
            return Report()
    """,
    "benchmarking.py": """
        def benchmark_moments(x, j):
            return j
    """,
    "simulation.py": "",
    "cli.py": """
        from .inference import bootstrap_moments, bootstrap_se
        from .robustness import robustness_value

        def load_csv_columns(path):
            return {}

        def main(argv):
            load_csv_columns(argv[0])
            bootstrap_se(bootstrap_moments(1), None)
            robustness_value(1)
            return 0 if argv[0] == "ok" else 2
    """,
}


@pytest.fixture
def stand_in(tmp_path, monkeypatch):
    pkg = tmp_path / "standin"
    pkg.mkdir()
    for name, body in STAND_IN.items():
        (pkg / name).write_text(textwrap.dedent(body))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "standin"
    for key in [k for k in sys.modules if k == "standin" or k.startswith("standin.")]:
        del sys.modules[key]


def test_missing_targets_are_absent_not_failures(stand_in, tmp_path):
    spans = tmp_path / "spans.json"
    assert tracer.run(str(spans), "job-1", ["ok"], package=stand_in) == 0
    payload = json.loads(spans.read_text())
    assert payload["job"] == "job-1"
    assert set(payload["absent_targets"]) == {
        "benchmarking:prepare_benchmark_stacks", "benchmarking:benchmark_worst",
        "benchmarking:critical_delta", "robustness:rv_estimate_only",
        "robustness:EffectObjective.for_direct",
        "robustness:EffectObjective.for_indirect",
        "simulation:simulate_design"}
    assert "robustness.objective_build" in payload["absent_spans"]

    values = job_layer_metrics(payload)
    for name in ("benchmarking.stacks_s", "benchmarking.stacks.calls",
                 "robustness.objective_build_s", "robustness.rv_estimate_only.calls",
                 "inference.indices_mb", "simulation.simulate_design_s"):
        assert name not in values
    assert values["mediation.fit_observed.calls"] == 4
    assert values["inference.resamples"] == 4
    assert values["inference.redraws"] == 0
    assert values["inference.bootstrap_se.calls"] == 1
    assert values["benchmarking.benchmark_moments.calls"] == 0
    assert values["robustness.rho_points"] == 2
    assert values["optimize.direct.calls"] == 2
    assert values["optimize.objective.calls"] == 6
    assert values["optimize.evals"] == 6
    assert values["optimize.points_per_call"] == 1
    assert values["optimize.budget_hit_frac"] == 0
    assert values["robustness.searches_per_rv"] == 2
    assert values["optimize.polish.nfev"] == 14
    assert values["optimize.polish_win_frac"] == 1
    assert set(values) <= {m.name for m in LAYER_METRICS}


def test_exit_code_and_spans_survive_an_error_exit(stand_in, tmp_path):
    spans = tmp_path / "spans.json"
    assert tracer.run(str(spans), "job-2", ["bad"], package=stand_in) == 2
    payload = json.loads(spans.read_text())
    assert payload["names"][payload["spans"][0][0]] == tracer.ROOT_SPAN


def test_traced_job_output_is_byte_identical(tmp_path):
    csv_path = tmp_path / "in.csv"
    write_study_csv(csv_path, seed=5, n=60)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    args = ["benchmark", "--data", str(csv_path), "--outcome", "y", "--exposure", "a",
            "--mediators", "m1,m2", "--covariates", "c1,c2,c3", "--bootstrap", "20",
            "--j", "c1", "--delta-grid", "0.5:1:0.5", "--out", "report.json"]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    subprocess.run([sys.executable, "-m", "bksens.cli", *args], cwd=plain, env=env,
                   check=True, timeout=300)
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), "t",
                    "--", *args], cwd=traced, env=env, check=True, timeout=300)
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    payload = json.loads(spans.read_text())
    assert payload["absent_targets"] == []
    values = job_layer_metrics(payload)
    assert values["benchmarking.stacks.calls"] >= 1
    assert values["optimize.points_per_call"] == 1
