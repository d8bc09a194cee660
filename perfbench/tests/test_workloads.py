"""Generated inputs and the benchmark definition."""

import json

import numpy as np

from benchpaths import REPO_ROOT
from checks import Oracle
from layers import ALL_LAYER_METRICS
from run import END_TO_END
from workloads import WORKLOADS, study_columns, write_study_csv


def test_csv_is_a_pure_function_of_the_seed(tmp_path):
    first = write_study_csv(tmp_path / "a.csv", seed=7, n=200)
    again = write_study_csv(tmp_path / "b.csv", seed=7, n=200)
    other = write_study_csv(tmp_path / "c.csv", seed=8, n=200)
    assert first == again
    assert first["csv_sha256"] != other["csv_sha256"]


def test_sample_moments_do_not_depend_on_the_seed(tmp_path):
    covs = [np.cov(study_columns(seed, 300), rowvar=False) for seed in (1, 2)]
    np.testing.assert_allclose(covs[0], covs[1], rtol=1e-10, atol=1e-12)
    effects = []
    for seed in (1, 2):
        path = tmp_path / f"{seed}.csv"
        write_study_csv(path, seed=seed, n=300)
        oracle = Oracle(str(path))
        effects.append((oracle.direct, oracle.indirect))
    np.testing.assert_allclose(effects[0], effects[1], rtol=1e-10)
    np.testing.assert_allclose(effects[0][0], 0.3, rtol=1e-10)


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in ALL_LAYER_METRICS]
    assert spec["paths"] == ["perfbench"]
