"""Output checks: strict JSON and the structure of reports."""

import json

import pytest

import benchpaths  # noqa: F401
from checks import CheckFailed, check_outputs, strict_json


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}',
                                  '{"a": 1', '[1, 2]'])
def test_strict_json_rejects(text):
    with pytest.raises(CheckFailed):
        strict_json(text)


def simulate_report(rv_scalar, rv_vector):
    report = {"schema_version": 1, "command": "simulate",
              "cells": [{"dim_m": 2, "r2_am": 0.3, "r2_ym": 0.3,
                         "rv_scalar": rv_scalar, "rv_vector": rv_vector,
                         "ratio": rv_vector / rv_scalar}],
              "mean_ratio": rv_vector / rv_scalar}
    table = ("dim_m,r2_am,r2_ym,rv_scalar,rv_vector,ratio\n"
             f"2,0.3,0.3,{rv_scalar!r},{rv_vector!r},{rv_vector / rv_scalar!r}\n")
    return {"report.json": json.dumps(report).encode(),
            "report_table.csv": table.encode()}


def test_simulate_vector_rv_may_not_exceed_scalar():
    check_outputs("simulate", simulate_report(0.2, 0.1), None, None, 0)
    with pytest.raises(CheckFailed, match="rv_vector > rv_scalar"):
        check_outputs("simulate", simulate_report(0.1, 0.2), None, None, 0)


def test_missing_field_is_a_check_failure():
    files = {"report.json": b'{"schema_version": 1, "command": "simulate"}'}
    with pytest.raises(CheckFailed, match="lacks an expected field"):
        check_outputs("simulate", files, None, None, 0)


class FixedOracle:
    direct, indirect = 0.5, 0.25

    def direct_se(self, n_resamples, seed):
        return 0.1


def rv_report(curve_direct):
    grid = [0.1, 0.3, 0.5]
    curve = [{"rho": r, "min_t_direct": d, "min_t_indirect": 1.0}
             for r, d in zip(grid, curve_direct)]
    report = {"schema_version": 1, "command": "rv", "config": {"rho_grid": "0.1:0.5:0.2"},
              "curve": curve,
              "direct": {"estimate": 0.5, "std_err": 0.1, "observed_t": 5.0,
                         "rv_estimate": 0.5, "rv_ci": 0.3},
              "indirect": {"estimate": 0.25, "std_err": 0.5, "observed_t": 0.5,
                           "rv_estimate": 1.0, "rv_ci": 0.0}}
    rows = "".join(f"{p['rho']!r},{p['min_t_direct']!r},{p['min_t_indirect']!r}\n"
                   for p in curve)
    return {"report.json": json.dumps(report).encode(),
            "report_curve.csv": ("rho,min_t_direct,min_t_indirect\n" + rows).encode()}


def test_rv_structure():
    check_outputs("rv", rv_report([3.0, 1.0, -1.0]), FixedOracle(), 10, 0)
    with pytest.raises(CheckFailed, match="non-increasing"):
        check_outputs("rv", rv_report([3.0, 1.0, 2.0]), FixedOracle(), 10, 0)
    with pytest.raises(CheckFailed, match="rv_estimate"):
        check_outputs("rv", rv_report([3.0, -1.0, -2.0]), FixedOracle(), 10, 0)
