import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bksens
from bksens import cli, inference, robustness, simulation
from bksens.cli import _parse_grid, main
from bksens.inference import bootstrap_moments
from bksens.mediation import (
    MediationData,
    NaturalSensitivity,
    direct_adjusted,
    fit_observed,
    indirect_adjusted_product,
    observed_indirect,
)
from bksens.robustness import EffectObjective

from conftest import make_data, rare_exposure_data


def write_csv(path, data, extra=None):
    q = data.q
    header = ["y", "a"] + [f"m{i + 1}" for i in range(q)] + \
        [f"c{i + 1}" for i in range(data.p_user)]
    rows = np.column_stack([data.y, data.a, data.m] +
                           ([data.c[:, 1:]] if data.p_user else []))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    return header


@pytest.fixture
def csv_file(tmp_path, rng):
    data = make_data(rng, n=80, p=2, q=2)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    return path, data


def base_args(path):
    return ["--data", str(path), "--outcome", "y", "--exposure", "a",
            "--mediators", "m1,m2", "--covariates", "c1,c2"]


def test_effects_matches_library(csv_file, tmp_path, capsys):
    path, data = csv_file
    out = tmp_path / "report.json"
    code = main(["effects", *base_args(path), "--ry", "0.6", "--rm", "0.5,0.5",
                 "--ra", "0", "--bootstrap", "60", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["seed"] == 3

    s = NaturalSensitivity(r_y=0.6, r_m=np.array([0.5, 0.5]), r_a=0.0)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=60, seed=3)
    vals = np.array([direct_adjusted(m, s) for m in plan.moments])
    assert payload["direct"]["estimate"] == pytest.approx(
        direct_adjusted(mm, s), rel=1e-9)
    assert payload["direct"]["std_err"] == pytest.approx(vals.std(ddof=1), rel=1e-9)
    assert payload["indirect"]["estimate"] == pytest.approx(
        indirect_adjusted_product(mm, s), rel=1e-9)


def test_effects_zero_sensitivity_is_observed(csv_file, tmp_path):
    path, data = csv_file
    out = tmp_path / "zero.json"
    assert main(["effects", *base_args(path), "--bootstrap", "40",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    mm = fit_observed(data)
    assert payload["direct"]["estimate"] == pytest.approx(mm.theta1_obs)
    assert payload["observed"]["direct"] == pytest.approx(mm.theta1_obs)


@pytest.mark.parametrize("seed", [0, 4, 5])
def test_effects_observed_equals_zero_sensitivity_estimate(tmp_path, seed):
    # the observed effects and the estimates at zero sensitivity are one
    # number each, not two expressions that may differ in the last bit
    data = make_data(np.random.default_rng(seed), n=80, p=2, q=2)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    out = tmp_path / "zero.json"
    assert main(["effects", *base_args(path), "--bootstrap", "20",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for kind in ("direct", "indirect"):
        assert payload["observed"][kind] == payload[kind]["estimate"]
    mm = fit_observed(data)
    assert observed_indirect(mm) == EffectObjective.for_indirect(mm, None).observed


def test_effects_deterministic_output(csv_file, tmp_path):
    path, _ = csv_file
    out = tmp_path / "report.json"
    args = ["effects", *base_args(path), "--ry", "0.2", "--rm", "0.1,0.1",
            "--bootstrap", "50", "--seed", "9", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_missing_column_exits_2(csv_file, capsys):
    path, _ = csv_file
    code = main(["effects", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "nope"])
    assert code == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"y,a,m1\n1.0,2.0,3.0\n4.0,,6.0\n", "bad.csv:3: missing value in column 'a'"),
    (b"y,a,m1\n1,2,3\n4,5\n", "bad.csv:3: expected 3 cells, got 2"),
    (b"y,a,m1\n1,2,3\n\n4,5,6\n", "bad.csv:3: expected 3 cells, got 0"),
    (b"y,a,m1\n1,2,3\n4,5,6\n\n", "bad.csv:4: expected 3 cells, got 0"),
    (b"y,a,m1\n1,2,x3\n", "bad.csv:2: column 'm1': cannot parse 'x3' as a number"),
    (b"y,a,m1\n1, ,3\n", "bad.csv:2: missing value in column 'a'"),
    (b"y,a,y \n1,2,3\n", "bad.csv: duplicate column names in header"),
    (b"", "bad.csv: empty file"),
    (b"y,a,m1\n", "bad.csv: no data rows"),
    (b"y,a,m1\n1,2,\xff\n", "bad.csv: not UTF-8: byte 0xff at offset 11"),
], ids=["missing-cell", "ragged-row", "blank-line", "trailing-blank-line",
        "unparsable-cell", "whitespace-cell", "duplicate-header", "empty-file",
        "header-only", "not-utf8"])
def test_malformed_csv_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    code = main(["effects", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "m1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("quoting, terminator", [
    (csv.QUOTE_MINIMAL, "\r\n"), (csv.QUOTE_ALL, "\n"), (csv.QUOTE_ALL, "\r\n")],
    ids=["crlf", "quoted", "quoted-crlf"])
def test_quoted_and_crlf_csv_read_as_plain(tmp_path, rng, quoting, terminator):
    data = make_data(rng, n=40, p=2, q=2)
    plain = tmp_path / "plain.csv"
    header = write_csv(plain, data)
    plain.write_bytes(plain.read_bytes().replace(b"\r\n", b"\n"))
    assert b"\r" not in plain.read_bytes() and b'"' not in plain.read_bytes()
    with open(plain, newline="") as handle:
        rows = list(csv.reader(handle))
    variant = tmp_path / "variant.csv"
    with open(variant, "w", newline="") as handle:
        csv.writer(handle, quoting=quoting, lineterminator=terminator).writerows(rows)
    expected = cli.load_csv_columns(str(plain))
    got = cli.load_csv_columns(str(variant))
    assert list(got) == list(expected) == header
    assert all(got[k].tobytes() == expected[k].tobytes() for k in header)
    assert np.array_equal(got["y"], data.y) and np.array_equal(got["m2"], data.m[:, 1])


def test_overlapping_roles_exit_2(csv_file, capsys):
    path, _ = csv_file
    code = main(["effects", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "a,m1"])
    assert code == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    # mediator duplicates the exposure: joint residual covariance singular
    rng = np.random.default_rng(0)
    n = 40
    a = rng.normal(size=n)
    y = a + rng.normal(size=n)
    path = tmp_path / "degenerate.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "a", "m1"])
        for yi, ai in zip(y, a):
            writer.writerow([repr(float(yi)), repr(float(ai)), repr(float(ai))])
    code = main(["effects", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "m1"])
    assert code == 3


@pytest.mark.parametrize("defect", ["constant mediator", "constant outcome",
                                    "constant exposure", "covariate collinear with a"])
def test_singular_full_sample_reported_by_every_command(tmp_path, capsys, defect):
    # benchmark fits the full sample before it bootstraps, as effects and rv
    # do, so all three name the full sample's collapse, not a resample's; a
    # constant column given c leaves rounding noise, which is no variable
    rng = np.random.default_rng(3)
    data = make_data(rng, n=60, p=2, q=2)
    path = tmp_path / "singular.csv"
    column, value = {"constant mediator": ("m2", "1.5"), "constant outcome": ("y", "0.1"),
                     "constant exposure": ("a", "0.1"),
                     "covariate collinear with a": ("c2", None)}[defect]
    write_csv(path, data)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    at = rows[0].index(column)
    for row in rows[1:]:
        row[at] = value or repr(2.0 * float(row[1]))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    errs = []
    for command in ("effects", "rv", "benchmark"):
        code = main([command, *base_args(path), "--bootstrap", "20",
                     "--out", str(tmp_path / f"{command}.json")])
        errs.append(capsys.readouterr().err)
        assert code == 3
        assert not (tmp_path / f"{command}.json").exists()
    assert errs[0].startswith("numerical error: (y, a, m) given c ")
    assert "resample" not in errs[0]
    assert errs[1] == errs[2] == errs[0]


def test_rare_exposure_resamples_are_redrawn(tmp_path):
    # resamples that draw none of the three exposed rows have a constant
    # exposure; they are redrawn, so the SE and t are those of the data
    path = tmp_path / "rare.csv"
    write_csv(path, rare_exposure_data())
    argv = ["--data", str(path), "--outcome", "y", "--exposure", "a",
            "--mediators", "m1", "--covariates", "c1", "--bootstrap", "400", "--seed", "5"]
    assert main(["effects", *argv, "--out", str(tmp_path / "effects.json")]) == 0
    effects = json.loads((tmp_path / "effects.json").read_text())
    assert 0.0 < effects["direct"]["std_err"] < 1.0
    assert main(["rv", *argv, "--rho-grid", "0.1:0.9:0.4",
                 "--out", str(tmp_path / "rv.json")]) == 0
    rv = json.loads((tmp_path / "rv.json").read_text())
    assert rv["direct"]["observed_t"] == pytest.approx(1.79, abs=0.01)
    assert main(["benchmark", *argv, "--j", "c1", "--out", str(tmp_path / "b.json")]) == 0


def test_rv_command(tmp_path, rng):
    data = make_data(rng, n=100, p=1, q=1)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    out = tmp_path / "rv.json"
    code = main(["rv", "--data", str(path), "--outcome", "y", "--exposure", "a",
                 "--mediators", "m1", "--covariates", "c1",
                 "--rho-grid", "0.05:0.95:0.05", "--bootstrap", "120",
                 "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    for kind in ("direct", "indirect"):
        assert 0.0 <= payload[kind]["rv_ci"] <= payload[kind]["rv_estimate"] <= 1.0

    curve_file = tmp_path / "rv_curve.csv"
    with open(curve_file) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["rho", "min_t_direct", "min_t_indirect"]
    rhos = [float(r[0]) for r in rows[1:]]
    assert rhos == sorted(rhos)
    tvals = [float(r[1]) for r in rows[1:] if r[1]]
    assert all(a >= b - 1e-9 for a, b in zip(tvals, tvals[1:]))


def test_rv_insignificant_effect_reports_zero_ci(tmp_path):
    rng = np.random.default_rng(7)
    n = 200
    a = rng.normal(size=n)
    m = 0.5 * a + rng.normal(size=n)
    y = 0.01 * a + 0.02 * m + rng.normal(size=n)
    data = MediationData.from_arrays(y=y, a=a, m=m[:, None])
    path = tmp_path / "weak.csv"
    write_csv(path, data)
    out = tmp_path / "rv.json"
    code = main(["rv", "--data", str(path), "--outcome", "y", "--exposure", "a",
                 "--mediators", "m1", "--bootstrap", "150", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["direct"]["rv_ci"] == 0.0


def test_benchmark_command(tmp_path, rng):
    data = make_data(rng, n=100, p=2, q=1)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    out = tmp_path / "bench.json"
    code = main(["benchmark", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "m1", "--covariates", "c1,c2",
                 "--bootstrap", "80", "--seed", "4", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    rows = payload["worst_cases"]
    # one direct and one indirect row per non-intercept covariate
    assert len(rows) == 4
    assert {r["covariate"] for r in rows} == {"c1", "c2"}
    for row in rows:
        flip = -1 if row["observed_estimate"] < 0 else 1
        assert flip * row["worst_estimate"] <= flip * row["observed_estimate"] + 1e-9


def test_benchmark_randomized_pins_ka(tmp_path, rng):
    data = make_data(rng, n=100, p=2, q=1)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    out = tmp_path / "bench.json"
    code = main(["benchmark", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "m1", "--covariates", "c1,c2",
                 "--j", "c1", "--randomized", "--bootstrap", "60",
                 "--delta-grid", "1:3:1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["k_a_effective"] == 0.0
    for row in payload["worst_cases"]:
        assert row["k_ratios"]["k_a"] == 0.0
    assert "critical_delta" in payload


def test_simulate_command(tmp_path):
    out = tmp_path / "sim.json"
    code = main(["simulate", "--dim-m", "2", "--r2-am", "0.3", "--r2-ym", "0.3",
                 "--reps", "2", "--n", "250", "--seed", "5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    cell = payload["cells"][0]
    assert cell["ratio"] <= 1.0
    table = tmp_path / "sim_table.csv"
    with open(table) as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["dim_m", "r2_am", "r2_ym"]
    assert len(rows) == 2


def test_benchmark_sidecar_files_coexist(tmp_path, rng):
    data = make_data(rng, n=90, p=2, q=1)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    out = tmp_path / "bench.json"
    code = main(["benchmark", "--data", str(path), "--outcome", "y",
                 "--exposure", "a", "--mediators", "m1", "--covariates", "c1,c2",
                 "--j", "c1", "--bootstrap", "50", "--delta-grid", "1:2:1",
                 "--out", str(out)])
    assert code == 0
    assert (tmp_path / "bench_worst.csv").exists()
    assert (tmp_path / "bench_delta.csv").exists()


def test_malformed_numeric_flags_exit_2(csv_file, capsys):
    path, _ = csv_file
    code = main(["effects", *base_args(path), "--rm", "0.5,oops"])
    assert code == 2
    assert "oops" in capsys.readouterr().err
    code = main(["simulate", "--dim-m", "two"])
    assert code == 2


def _python(args, unbuffered=False, **kwargs):
    """Run a fresh interpreter that imports this bksens, with ``args`` after
    the executable; ``kwargs`` go to ``subprocess.run``. Its stdout on a
    pipe is block-buffered, as a user's is, unless ``unbuffered`` sets
    PYTHONUNBUFFERED."""
    env = dict(os.environ)
    src = str(Path(bksens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("timeout", 120)
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *args], text=True, env=env, **kwargs)


def _run_cli(args, **kwargs):
    """Run the CLI in a fresh interpreter, as a user would."""
    return _python(["-m", "bksens.cli", *args], **kwargs)


@pytest.mark.parametrize("command, flags", [
    ("benchmark", ["--km", "-1"]),
    ("benchmark", ["--ka", "-1"]),
    ("benchmark", ["--ky", "-0.5"]),
    ("effects", ["--bootstrap", "0"]),
    ("effects", ["--bootstrap", "1"]),
    ("rv", ["--rho-grid", "0:1:0.25"]),
    ("benchmark", ["--j", "c1", "--delta-grid", "0:1:0.5"]),
    ("simulate", ["--dim-m", "1"]),
    ("effects", ["--seed", "-1"]),
    ("rv", ["--seed", "-1"]),
    ("benchmark", ["--seed", "-1"]),
    ("simulate", ["--seed", "-1"]),
    ("simulate", ["--reps", "0"]),
    ("simulate", ["--n", "5"]),
    ("simulate", ["--r2-am", "1.5"]),
    ("benchmark", ["--delta-grid", "0.5:2:0.5"]),
    ("benchmark", ["--j", "nope"]),
    ("rv", ["--rho-grid", "nan:0.5:0.1"]),
    ("rv", ["--rho-grid=-inf:0.5:0.1"]),
    ("rv", ["--rho-grid", "0.1:inf:0.1"]),
    ("rv", ["--rho-grid", "0.1:0.5:1e-12"]),
    ("benchmark", ["--j", "c1", "--delta-grid", "0.5:1:inf"]),
    ("effects", ["--ry", "nan"]),
    ("effects", ["--rm", "nan,0"]),
    ("effects", ["--ra", "nan"]),
    ("benchmark", ["--j", "c1", "--delta-grid", "0.5:10000.5:1"]),  # 10,001 points
    ("rv", ["--rho-grid=-1.7e308:1.7e308:1"]),  # hi - lo overflows to inf
    # sizes numpy cannot allocate or cannot even express as an array
    ("simulate", ["--dim-m", "2", "--reps", "1", "--n", "10000000000000000"]),
    ("simulate", ["--dim-m", "2", "--reps", "1", "--n", "100000000000000000000"]),
    ("effects", ["--bootstrap", "100000000000000000"]),
    ("simulate", ["--dim-m", "2", "--reps", "1", "--n", str(cli.MAX_COUNT + 1)]),
    ("rv", ["--bootstrap", str(cli.MAX_COUNT + 1)]),
])
def test_invalid_option_values_exit_2(csv_file, tmp_path, command, flags):
    path, _ = csv_file
    data_args = [] if command == "simulate" else [*base_args(path), "--bootstrap", "20"]
    proc = _run_cli([command, *data_args, *flags, "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_unknown_benchmark_covariate_rejected_before_bootstrap(csv_file, monkeypatch,
                                                             capsys):
    path, _ = csv_file

    def refuse(*args, **kwargs):
        raise AssertionError("bootstrap drawn before --j was checked")

    monkeypatch.setattr(inference, "bootstrap_moments", refuse)
    assert main(["benchmark", *base_args(path), "--j", "nope"]) == 2
    assert capsys.readouterr().err == "error: --j 'nope' is not one of the covariates\n"


@pytest.mark.parametrize("command", ["effects", "rv", "benchmark", "simulate"])
def test_out_in_missing_directory_rejected_before_any_work(csv_file, tmp_path,
                                                           monkeypatch, capsys, command):
    # the job would run in full and then fail to write its report
    path, _ = csv_file

    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(inference, "bootstrap_moments", refuse)
    monkeypatch.setattr(simulation, "rv_ratio_study", refuse)
    out = tmp_path / "nodir" / "report.json"
    argv = [command, "--out", str(out)]
    if command != "simulate":
        argv += base_args(path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"error: --out: {out.parent} is not an existing directory\n"


def test_unwritable_out_exits_2(csv_file, tmp_path, capsys):
    # a directory as --out passes the parent check; the write itself fails
    path, _ = csv_file
    assert main(["effects", *base_args(path), "--bootstrap", "20",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write: ") and str(tmp_path) in err


@pytest.mark.parametrize("flag", ["--ka", "--km", "--ky"])
@pytest.mark.parametrize("value", ["inf", "1e400", "-inf", "nan"])
def test_non_finite_benchmark_cap_rejected_before_reading_data(csv_file, monkeypatch,
                                                               capsys, flag, value):
    # an infinite cap would run every search and only then fail on the
    # config echo; 1e308 is a valid cap, clamped like any large one
    path, _ = csv_file

    def refuse(*args, **kwargs):
        raise AssertionError(f"data read before {flag} was checked")

    monkeypatch.setattr(cli, "load_csv_columns", refuse)
    assert main(["benchmark", *base_args(path), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be finite and nonnegative")


@pytest.mark.parametrize("spec, expected", [
    ("0.5:0.99:0.3", [0.5, 0.8]),
    ("0.5:2.1:0.6", [0.5, 1.1, 1.7]),
    ("0.5:2:0.5", [0.5, 1.0, 1.5, 2.0]),
    ("0.05:0.6:0.05", [round(0.05 * k, 10) for k in range(1, 13)]),
    ("0.01:0.99:0.01", [round(0.01 * k, 10) for k in range(1, 100)]),
    ("0.3:0.3:0.1", [0.3]),
    ("1:10000:1", [float(k) for k in range(1, 10_001)]),  # the most points allowed
])
def test_grid_ends_at_last_point_not_past_hi(spec, expected):
    assert _parse_grid(spec, "--grid") == expected


# far above what a job needs, far below the floats of a billion-point grid
ADDRESS_SPACE = 1 << 30


@pytest.mark.parametrize("command, flags", [
    ("rv", ["--rho-grid", "0.1:0.9:1e-10"]),
    ("benchmark", ["--j", "c1", "--delta-grid", "0.5:1e6:1e-4"]),
])
def test_grid_over_the_point_limit_exits_2(csv_file, tmp_path, command, flags):
    # each step is legal but the grids hold 8e9 and 1e10 points; the child's
    # capped address space and the timeout make a grid that is listed before
    # it is counted fail fast instead of exhausting the machine's memory
    resource = pytest.importorskip("resource")
    path, _ = csv_file
    proc = _run_cli(
        [command, *base_args(path), "--bootstrap", "20", *flags,
         "--out", str(tmp_path / "r.json")], timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (ADDRESS_SPACE, ADDRESS_SPACE)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (f"error: {flags[-2]}: more than the limit of "
                           f"{cli.MAX_GRID_POINTS} grid points\n")


def test_rv_reports_grid_values_unrounded(csv_file, tmp_path, monkeypatch):
    # f"{1.5e-05}" has 5 characters after its ".", though the value needs 6
    # decimals; an RV is a grid value and must reach the report unrounded
    path, _ = csv_file
    from bksens import robustness

    def fake(mm, plan, kind, rho_grid, **kwargs):
        return robustness.RVReport(
            rv_estimate=1.5e-05, rv_ci=1e-05, curve=[(r, 1.0) for r in rho_grid],
            confounder_mode="scalar_u", effect_kind=kind, sign_flip=False,
            observed_t=3.0)

    monkeypatch.setattr(robustness, "robustness_value", fake)
    out = tmp_path / "rv.json"
    assert main(["rv", *base_args(path), "--bootstrap", "20",
                 "--rho-grid", "0.000005:0.00002:0.000005", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for kind in ("direct", "indirect"):
        assert payload[kind]["rv_estimate"] == 1.5e-05
        assert payload[kind]["rv_ci"] == 1e-05


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_unattained_critical_delta_is_null(tmp_path):
    data = make_data(np.random.default_rng(11), n=100, p=2, q=2)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    out = tmp_path / "bench.json"
    code = main(["benchmark", *base_args(path), "--j", "c1", "--bootstrap", "40",
                 "--delta-grid", "0.1:0.2:0.1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    values = [v for kind in payload["critical_delta"].values() for v in kind.values()]
    assert None in values
    assert all(v is None or v in (0.0, 0.1, 0.2) for v in values)


def test_non_finite_report_exits_3(csv_file, monkeypatch, capsys):
    import bksens.cli as cli

    path, _ = csv_file
    monkeypatch.setattr(EffectObjective, "observed", property(lambda self: float("inf")))
    code = main(["effects", *base_args(path), "--bootstrap", "20"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite" in captured.err


SIDECAR_JOBS = {
    "rv": ["--bootstrap", "20", "--rho-grid", "0.1:0.2:0.1"],
    "benchmark": ["--bootstrap", "20", "--j", "c1", "--delta-grid", "0.5:1:0.5"],
    "simulate": ["--dim-m", "2", "--reps", "1", "--n", "60"],
}


def _sidecar_argv(command, data_path, out):
    data_args = [] if command == "simulate" else base_args(data_path)
    return [command, *data_args, *SIDECAR_JOBS[command], "--out", str(out)]


@pytest.mark.parametrize("command", sorted(SIDECAR_JOBS))
def test_unwritable_report_leaves_no_sidecar(csv_file, tmp_path, capsys, command):
    # the report is written first, so a report that cannot be written
    # stops the job before any sidecar CSV exists
    out_dir = tmp_path / "out"
    (out_dir / "d.json").mkdir(parents=True)
    assert main(_sidecar_argv(command, csv_file[0], out_dir / "d.json")) == 2
    assert capsys.readouterr().err.startswith("error: cannot write: ")
    assert [p.name for p in out_dir.iterdir()] == ["d.json"]


def _non_finite_rv(mm, plan, kind, rho_grid, **kwargs):
    return robustness.RVReport(
        rv_estimate=0.5, rv_ci=0.5, curve=[(r, float("nan")) for r in rho_grid],
        confounder_mode="scalar_u", effect_kind=kind, sign_flip=False,
        observed_t=3.0)


def _non_finite_study(designs, replications, base_seed):
    return [simulation.RVStudyRow(
        dim_m=2, r2_am=0.3, r2_ym=0.3, replications=replications,
        rv_scalar=0.0, rv_vector=0.0, ratio=float("nan"))]


@pytest.mark.parametrize("command, module, name, fake", [
    ("rv", robustness, "robustness_value", _non_finite_rv),
    ("simulate", simulation, "rv_ratio_study", _non_finite_study),
])
def test_non_finite_report_leaves_no_file(csv_file, tmp_path, monkeypatch, capsys,
                                          command, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(_sidecar_argv(command, csv_file[0], out_dir / "r.json")) == 3
    assert "non-finite" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command, module, name", [
    ("effects", inference, "bootstrap_moments"),
    ("simulate", simulation, "rv_ratio_study"),
])
def test_out_of_memory_exits_2(csv_file, tmp_path, monkeypatch, capsys,
                               command, module, name):
    # a stage that cannot allocate its arrays; nothing here allocates them
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 PiB for an array")

    monkeypatch.setattr(module, name, exhausted)
    argv = [command, "--out", str(tmp_path / "r.json")]
    if command != "simulate":
        argv += [*base_args(csv_file[0]), "--bootstrap", "20"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 72.8 PiB for an array\n")
    assert not (tmp_path / "r.json").exists()
