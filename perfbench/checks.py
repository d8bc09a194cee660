"""Checks of a job's outputs against plain-numpy oracles and report structure.

Every check raises :class:`CheckFailed` with a one-line reason. The oracles
use only ``numpy.loadtxt`` and ``numpy.linalg.lstsq`` on the generated CSV,
never the package, so agreement is a real cross-check.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import COLUMNS, MEDIATORS

EST_RTOL = 1e-9
SE_RTOL = 1e-8
IDENTITY_TOL = 1e-12
CI_MULTIPLIER = 1.96


class CheckFailed(Exception):
    """A job's output is wrong."""


def strict_json(text: str) -> dict:
    """Parse a report as strict JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise CheckFailed(f"report holds {token}, which is not JSON")
    try:
        payload = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise CheckFailed("report is not a JSON object")
    return payload


def _close(actual, expected, rtol, what):
    if not isinstance(actual, (int, float)) or not math.isclose(
            actual, expected, rel_tol=rtol, abs_tol=rtol * 1e-3):
        raise CheckFailed(f"{what}: {actual!r} != {expected!r} (rel tol {rtol})")


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


class Oracle:
    """Observed effects and the direct effect's bootstrap SE, from numpy."""

    def __init__(self, csv_path: str):
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        col = {name: table[:, i] for i, name in enumerate(COLUMNS)}
        self.n = table.shape[0]
        ones = np.ones(self.n)
        q = len(MEDIATORS)
        self.y = col["y"]
        mediators = np.column_stack([col[m] for m in MEDIATORS])
        covariates = np.column_stack([col[c] for c in COLUMNS[2 + q:]])
        self.outcome_design = np.column_stack([ones, col["a"], mediators, covariates])
        coef_y = np.linalg.lstsq(self.outcome_design, self.y, rcond=None)[0]
        med_design = np.column_stack([ones, col["a"], covariates])
        coef_m = np.linalg.lstsq(med_design, mediators, rcond=None)[0]
        self.direct = float(coef_y[1])
        self.indirect = float(coef_m[1] @ coef_y[2:2 + q])
        self._se = {}

    def direct_se(self, n_resamples: int, seed: int) -> float:
        """SE over resamples drawn by the documented rule: resample i uses
        default_rng(SeedSequence(entropy=seed, spawn_key=(i,))) and then
        integers(0, n, n). Continuous data make singular resamples, which
        the program would redraw, impossible in practice."""
        key = (n_resamples, seed)
        if key not in self._se:
            values = np.empty(n_resamples)
            for i in range(n_resamples):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                idx = rng.integers(0, self.n, size=self.n)
                coef = np.linalg.lstsq(self.outcome_design[idx], self.y[idx],
                                       rcond=None)[0]
                values[i] = coef[1]
            self._se[key] = float(values.std(ddof=1))
        return self._se[key]


def _read_csv(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _grid(spec: str) -> list[float]:
    lo, hi, step = (float(v) for v in spec.split(":"))
    count = int(round((hi - lo) / step)) + 1
    return [round(lo + k * step, 10) for k in range(count)]


def _first_at_or_below(points, threshold):
    for x, value in points:
        if value <= threshold:
            return x
    return None


def check_effects(report, files, oracle, bootstrap, seed):
    _close(report["observed"]["direct"], oracle.direct, EST_RTOL, "observed direct")
    _close(report["observed"]["indirect"], oracle.indirect, EST_RTOL,
           "observed indirect")
    for kind in ("direct", "indirect"):
        rep = report[kind]
        est, se = rep["estimate"], rep["std_err"]
        _require(se > 0, f"{kind}: std_err {se} is not positive")
        _close(rep["ci_lower"], est - CI_MULTIPLIER * se, IDENTITY_TOL, f"{kind} ci_lower")
        _close(rep["ci_upper"], est + CI_MULTIPLIER * se, IDENTITY_TOL, f"{kind} ci_upper")
        _close(rep["t_stat"], est / se, IDENTITY_TOL, f"{kind} t_stat")


def check_rv(report, files, oracle, bootstrap, seed):
    _close(report["direct"]["estimate"], oracle.direct, EST_RTOL, "direct estimate")
    _close(report["indirect"]["estimate"], oracle.indirect, EST_RTOL, "indirect estimate")
    _close(report["direct"]["std_err"], oracle.direct_se(bootstrap, seed), SE_RTOL,
           "direct bootstrap SE")
    grid = _grid(report["config"]["rho_grid"])
    rows = _read_csv(files["report_curve.csv"])
    _require(rows[0] == ["rho", "min_t_direct", "min_t_indirect"], "curve CSV header")
    _require(len(rows) - 1 == len(report["curve"]), "curve CSV and JSON lengths differ")
    for row, point in zip(rows[1:], report["curve"]):
        _require(float(row[0]) == point["rho"]
                 and float(row[1]) == point["min_t_direct"]
                 and float(row[2]) == point["min_t_indirect"],
                 f"curve CSV row {row} differs from the JSON curve")
    _require([p["rho"] for p in report["curve"]] == grid, "curve does not cover the grid")
    for kind in ("direct", "indirect"):
        points = [(p["rho"], p[f"min_t_{kind}"]) for p in report["curve"]]
        values = [v for _, v in points]
        _require(all(b <= a for a, b in zip(values, values[1:])),
                 f"{kind} min-t curve is not non-increasing")
        rep = report[kind]
        for field, threshold in (("rv_estimate", 0.0), ("rv_ci", CI_MULTIPLIER)):
            if rep["observed_t"] <= threshold:
                expected = 0.0
            else:
                hit = _first_at_or_below(points, threshold)
                expected = 1.0 if hit is None else hit
            _close(rep[field], expected, IDENTITY_TOL, f"{kind} {field}")
        _require(rep["rv_ci"] <= rep["rv_estimate"], f"{kind}: rv_ci > rv_estimate")


def check_benchmark(report, files, oracle, bootstrap, seed):
    observed = {"direct": oracle.direct, "indirect": oracle.indirect}
    sign = {}
    for row in report["worst_cases"]:
        kind = row["effect_kind"]
        _close(row["observed_estimate"], observed[kind], EST_RTOL,
               f"{kind} observed estimate")
        sign[kind] = math.copysign(1.0, row["observed_estimate"])
        _require(sign[kind] * row["worst_t"] <= sign[kind] * row["observed_t"],
                 f"{kind}: worst t {row['worst_t']} beats observed t {row['observed_t']}")
        if kind == "direct":
            _close(row["observed_estimate"] / row["observed_t"],
                   oracle.direct_se(bootstrap, seed), SE_RTOL, "direct bootstrap SE")
    _require(sorted(sign) == ["direct", "indirect"], "worst_cases lacks an effect kind")
    rows = _read_csv(files["report_delta.csv"])
    _require(rows[0] == ["delta", "worst_estimate_direct", "worst_estimate_indirect"],
             "delta CSV header")
    grid = _grid(report["config"]["delta_grid"])
    for col, kind in ((1, "direct"), (2, "indirect")):
        curve = [(float(r[0]), float(r[col])) for r in rows[1:] if r[col] != "''"]
        _require([d for d, _ in curve] == grid[:len(curve)],
                 f"{kind} delta curve does not follow the grid")
        hit = _first_at_or_below([(d, sign[kind] * v) for d, v in curve], 0.0)
        _require(hit is not None and hit == curve[-1][0],
                 f"{kind} delta curve does not stop at its first hit")
        deltas = report["critical_delta"][kind]
        _require(deltas["critical_delta_estimate"] == hit,
                 f"{kind} critical delta {deltas['critical_delta_estimate']} "
                 f"disagrees with the curve ({hit})")
        _require(deltas["critical_delta_ci"] in grid, f"{kind} critical delta (CI) off grid")


def check_simulate(report, files, oracle, bootstrap, seed):
    cells = report["cells"]
    rows = _read_csv(files["report_table.csv"])
    _require(len(rows) - 1 == len(cells) > 0, "table CSV and JSON cells differ")
    for cell, row in zip(cells, rows[1:]):
        _require(cell["rv_vector"] <= cell["rv_scalar"],
                 f"dim_m={cell['dim_m']}: rv_vector > rv_scalar")
        _require(float(row[3]) == cell["rv_scalar"] and float(row[4]) == cell["rv_vector"],
                 f"table CSV row {row} differs from the JSON cell")
    _close(report["mean_ratio"], float(np.mean([c["ratio"] for c in cells])),
           IDENTITY_TOL, "mean_ratio")


CHECKS = {
    "effects": check_effects,
    "rv": check_rv,
    "benchmark": check_benchmark,
    "simulate": check_simulate,
}


def check_outputs(command: str, files: dict[str, bytes], oracle, bootstrap, seed):
    """Check one job's report and sidecar CSVs; raises CheckFailed."""
    if "report.json" not in files:
        raise CheckFailed("no report was written")
    try:
        texts = {name: data.decode("utf-8") for name, data in files.items()}
    except UnicodeDecodeError:
        raise CheckFailed("an output is not UTF-8") from None
    report = strict_json(texts["report.json"])
    _require(report.get("schema_version") == 1, "unexpected schema_version")
    _require(report.get("command") == command, "report names another command")
    try:
        CHECKS[command](report, texts, oracle, bootstrap, seed)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckFailed(f"report lacks an expected field: {exc!r}") from None
