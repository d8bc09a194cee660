"""Span arithmetic of the per-layer metrics."""

import pytest

import benchpaths  # noqa: F401
from layers import Trace, job_layer_metrics


def payload(spans, absent=()):
    names = sorted({s[0] for s in spans})
    return {"names": names, "absent_spans": list(absent),
            "spans": [[names.index(n), a, b, p, info] for n, a, b, p, info in spans]}


SPANS = [
    ("cli.main", 0.0, 10.0, -1, None),                                   # 0
    ("robustness.rv", 1.0, 9.0, 0, {"rho_points": 3}),                   # 1
    ("optimize.direct", 1.0, 5.0, 1, {"budget": 10, "dims": 2, "n_evals": 9}),  # 2
    ("optimize.objective", 1.5, 2.5, 2, {"points": 4}),                  # 3
    ("optimize.objective", 3.0, 3.5, 2, {"points": 2}),                  # 4
    ("optimize.polish", 5.0, 6.0, 1, {"nfev": 11, "win": False}),         # 5
    ("optimize.direct", 6.0, 8.0, 1, {"budget": 10, "dims": 2, "n_evals": 4}),  # 6
    ("mediation.fit_observed", 9.0, 9.5, 0, None),                        # 7
    ("mediation.fit_observed", 9.1, 9.2, 7, None),                        # 8
]


def test_self_time_subtracts_child_spans():
    t = Trace(payload(SPANS))
    assert t.self_s("cli.main") == pytest.approx(10.0 - 8.0 - 0.5)
    assert t.self_s("optimize.direct") == pytest.approx((4.0 - 1.5) + 2.0)


def test_nested_calls_of_one_layer_are_not_counted_twice():
    t = Trace(payload(SPANS))
    assert t.calls("mediation.fit_observed") == 2
    assert t.total_s("mediation.fit_observed") == pytest.approx(0.5)


def test_ratios_and_counts():
    values = job_layer_metrics(payload(SPANS))
    assert values["optimize.evals"] == 6
    assert values["optimize.objective.calls"] == 2
    assert values["optimize.points_per_call"] == 3
    assert values["optimize.budget_hit_frac"] == 0.5   # 9 >= 10 - 5, 4 < 5
    assert values["robustness.searches_per_rv"] == 2
    assert values["optimize.polish_win_frac"] == 0
    assert values["robustness.rho_points"] == 3
    # layers the job never entered read zero, not absent
    assert values["benchmarking.stacks.calls"] == 0
    assert values["inference.resamples_per_s"] == 0


def test_absent_layer_is_left_out():
    values = job_layer_metrics(payload(SPANS, absent=["robustness.rv"]))
    assert "robustness.rv_s" not in values
    assert "robustness.rho_points" not in values
    assert "optimize.direct_s" in values
    # searches per RV stays while either RV routine remains
    assert "robustness.searches_per_rv" in values
    values = job_layer_metrics(payload(
        SPANS, absent=["robustness.rv", "robustness.rv_estimate_only"]))
    assert "robustness.searches_per_rv" not in values
