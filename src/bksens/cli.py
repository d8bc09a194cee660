"""Batch command-line interface.

Subcommands: ``effects`` (bias-adjusted direct/indirect effects at given
sensitivity parameters), ``rv`` (robustness values plus the strength-to-t
curve), ``benchmark`` (worst cases against observed covariates), and
``simulate`` (the scalar-versus-vector robustness-value study).

Input is a headered CSV with ``.`` decimals and no missing cells; output is
a versioned JSON report (plus curve/table CSVs), a pure function of the
input bytes, flags and seed. Exit codes: 0 ok, 2 input error, 3 numerical
error.

A CLI job runs BLAS on one thread: unless one of ``BLAS_THREAD_VARS`` is
set, importing this module sets ``OPENBLAS_NUM_THREADS=1`` before numpy
loads. numpy's OpenBLAS otherwise starts a thread per core whose idle worker
spins, which costs CPU time and buys no wall time on these problem sizes,
and its threaded matrix products round differently with the core count.
Setting any of those variables keeps the user's choice. The library modules
leave the environment alone.

A CLI process ends through ``run``, which skips the interpreter's teardown:
a full garbage collection and the unloading of every module, numpy's above
all, which costs tens of milliseconds of CPU after the report is written.
That is safe because every output file is closed before ``main`` returns,
``run`` calls the ``atexit`` handlers and flushes stdout and stderr itself,
and no job leaves a thread working. Under a profiler or tracer the process
exits normally. ``main(argv)`` is the in-process API and returns the exit
code.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

# read by the BLAS builds numpy ships or links; any of them set means the
# user chose the thread count
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if not any(name in os.environ for name in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads its BLAS

import numpy as np  # noqa: E402 - after the thread policy

from .errors import BkSensError
from .mediation import (
    EffectReport,
    MediationData,
    NaturalSensitivity,
    _objective,
    _phis_at,
    fit_observed,
)

SCHEMA_VERSION = 1


class InputError(Exception):
    """Invalid file contents or option combination (exit code 2)."""


class NonFiniteOutput(BkSensError):
    """A report value is NaN or infinite, which strict JSON cannot hold."""


MAX_GRID_POINTS = 10_000  # --rho-grid runs a search per point; the default has 99
# the most rows (--n) or resamples (--bootstrap) a job takes: the bootstrap
# keeps its row counts as int32
MAX_COUNT = 2**31 - 1


def load_csv_columns(path: str) -> dict[str, np.ndarray]:
    """Strict CSV reader: header row, UTF-8, '.' decimals, no missing cells.

    Plain files (no quotes, no CR, no blank line, a unique header) are
    parsed from their bytes by one ``np.loadtxt`` call, which decodes a line
    at a time, so the job holds the file once plus its parsed values: about
    2-3 times the file size. Every other file, and any file that ``loadtxt``
    rejects or reads with another shape, is decoded and goes through
    ``_strict_columns``, which decides the columns or the error.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if not raw.isascii():
        try:
            raw.decode("utf-8")  # validated only: the plain parse decodes by line
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8: byte 0x{raw[exc.start]:02x} "
                             f"at offset {exc.start}") from None
    return _plain_columns(raw) or _strict_columns(path, raw.decode("utf-8"))


def _plain_columns(raw: bytes) -> dict[str, np.ndarray] | None:
    """The columns of a UTF-8 file that needs no CSV quoting rules, or None.

    The checks run on the bytes: none of the bytes of '"', CR or LF occurs
    inside a UTF-8 multibyte sequence."""
    if b'"' in raw or b"\r" in raw or b"\n\n" in raw or raw.startswith(b"\n"):
        return None
    end = raw.find(b"\n")
    if not 0 <= end < len(raw) - 1:  # no body
        return None
    header = [h.strip() for h in raw[:end].decode("utf-8").split(",")]
    if len(set(header)) != len(header):
        return None
    try:
        values = np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, skiprows=1,
                            encoding="utf-8", ndmin=2, dtype=float)
    except ValueError:
        return None
    rows = raw.count(b"\n", end + 1) + (not raw.endswith(b"\n"))
    if values.shape != (rows, len(header)):  # loadtxt skipped no line
        return None
    # one array per column, as the strict reader returns
    return {name: values[:, i].copy() for i, name in enumerate(header)}


def _strict_columns(path: str, text: str) -> dict[str, np.ndarray]:
    """The csv module's excel dialect and one ``float`` call per cell."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise InputError(f"{path}: duplicate column names in header")
        columns = {name: [] for name in header}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise InputError(
                        f"{path}:{lineno}: missing value in column '{name}'")
                try:
                    columns[name].append(float(cell))
                except ValueError:
                    raise InputError(
                        f"{path}:{lineno}: column '{name}': "
                        f"cannot parse '{cell}' as a number") from None
    except csv.Error as exc:   # e.g. a cell over the csv module's field limit
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    if not columns or not next(iter(columns.values())):
        raise InputError(f"{path}: no data rows")
    return {name: np.asarray(vals) for name, vals in columns.items()}


def _split_names(value: str | None) -> list[str]:
    if not value:
        return []
    return [v.strip() for v in value.split(",") if v.strip()]


def build_data(args) -> tuple[MediationData, list[str]]:
    from .inference import MIN_BOOTSTRAP

    if not MIN_BOOTSTRAP <= args.bootstrap <= MAX_COUNT:
        raise InputError(f"--bootstrap must be from {MIN_BOOTSTRAP} to {MAX_COUNT}, "
                         f"got {args.bootstrap}")
    columns = load_csv_columns(args.data)
    mediators = _split_names(args.mediators)
    covariates = _split_names(args.covariates)
    if not mediators:
        raise InputError("--mediators must name at least one column")
    roles = [args.outcome, args.exposure, *mediators, *covariates]
    if len(set(roles)) != len(roles):
        raise InputError("outcome/exposure/mediators/covariates must be disjoint")
    for name in roles:
        if name not in columns:
            raise InputError(f"column '{name}' not found in {args.data}")
    y = columns[args.outcome]
    a = columns[args.exposure]
    m = np.column_stack([columns[name] for name in mediators])
    c = np.column_stack([columns[name] for name in covariates]) if covariates else None
    try:
        data = MediationData.from_arrays(y=y, a=a, m=m, c=c)
    except BkSensError as exc:
        raise InputError(str(exc)) from exc
    return data, covariates


def _parse_grid(spec: str, name: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise InputError(f"{name} must look like lo:hi:step") from None
    # written so that a NaN or an infinity fails it
    if not (math.isfinite(lo) and lo <= hi < math.inf and 0 < step < math.inf):
        raise InputError(f"{name}: need finite lo <= hi and step > 0")
    # a smaller step repeats points at 10 decimals; checked before listing them
    if step < 1e-10:
        raise InputError(f"{name}: step too small for 10-decimal grid points")
    # the last point not past hi, allowing for rounding in (hi - lo) / step;
    # counted before any point is listed (an infinite span counts as too many)
    span = (hi - lo) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise InputError(f"{name}: more than the limit of {MAX_GRID_POINTS} grid points")
    count = math.floor(span) + 1
    grid = [round(lo + k * step, 10) for k in range(count)]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError(f"{name}: step too small for 10-decimal grid points")
    return grid


def _parse_numbers(value: str | None, flag: str, cast=float) -> list:
    out = []
    for item in _split_names(value):
        try:
            out.append(cast(item))
        except ValueError:
            raise InputError(f"{flag}: cannot parse '{item}'") from None
    return out


def _sensitivity_from_args(args, q: int) -> NaturalSensitivity:
    r_m = _parse_numbers(args.rm, "--rm") if args.rm else [0.0] * q
    if len(r_m) != q:
        raise InputError(f"--rm needs {q} comma-separated values, got {len(r_m)}")
    r_a = 0.0 if args.randomized else (args.ra or 0.0)
    try:
        return NaturalSensitivity(r_y=args.ry or 0.0, r_m=np.asarray(r_m), r_a=r_a)
    except BkSensError as exc:
        raise InputError(str(exc)) from exc


def _report_dict(rep: EffectReport) -> dict:
    return {k: v for k, v in vars(rep).items() if k != "signs"}


def _config_echo(args, extra=None) -> dict:
    skip = {"func"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if extra:
        config.update(extra)
    return config


def _emit_json(payload: dict, out: str | None) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"the report holds a non-finite number: {exc}") from None
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _sidecar_path(out: str | None, default: str, suffix: str) -> Path:
    if out:
        base = Path(out)
        return base.with_name(f"{base.stem}_{suffix}.csv")
    return Path(default)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _effect_report(obj, s: NaturalSensitivity) -> EffectReport:
    """The effect of ``obj`` at ``s`` and its bootstrap SE, the robustness
    values' t denominator."""
    phis = _phis_at(obj.kind, s)
    return EffectReport.from_estimate(obj.point_estimates(*phis)[0], obj.std_errs(*phis)[0],
                                      obj.kind, "product")


def cmd_effects(args) -> int:
    from .inference import bootstrap_moments

    data, _ = build_data(args)
    s = _sensitivity_from_args(args, data.q)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=args.bootstrap, seed=args.seed)
    objs = {kind: _objective(kind, mm, plan) for kind in ("direct", "indirect")}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "effects",
        "config": _config_echo(args),
        "observed": {kind: obj.observed for kind, obj in objs.items()},
        **{kind: _report_dict(_effect_report(obj, s)) for kind, obj in objs.items()},
    }
    _emit_json(payload, args.out)
    return 0


def cmd_rv(args) -> int:
    from .inference import bootstrap_moments
    from .robustness import DEFAULT_RHO_GRID, robustness_value

    grid = _parse_grid(args.rho_grid, "--rho-grid") if args.rho_grid \
        else list(DEFAULT_RHO_GRID)
    if not 0.0 < grid[0] <= grid[-1] < 1.0:
        raise InputError("--rho-grid must lie strictly inside (0, 1)")
    data, _ = build_data(args)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=args.bootstrap, seed=args.seed)
    mode = "vector_u" if args.vector_u else "scalar_u"
    reports, summaries = {}, {}
    for kind in ("direct", "indirect"):
        reports[kind] = robustness_value(mm, plan, kind, rho_grid=grid,
                                         confounder_mode=mode, randomized=args.randomized,
                                         full_curve=True)
        summaries[kind] = _effect_report(_objective(kind, mm, plan),
                                         NaturalSensitivity.zeros(data.q))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "rv",
        "config": _config_echo(args, {"confounder_mode": mode}),
        "sign_flip": {k: reports[k].sign_flip for k in reports},
        "curve": [
            {"rho": rho, "min_t_direct": t_direct, "min_t_indirect": t_indirect}
            for (rho, t_direct), (_, t_indirect)
            in zip(reports["direct"].curve, reports["indirect"].curve)
        ],
    }
    for kind in ("direct", "indirect"):
        payload[kind] = {
            "estimate": summaries[kind].estimate,
            "std_err": summaries[kind].std_err,
            "t_stat": summaries[kind].t_stat,
            "rv_estimate": reports[kind].rv_estimate,
            "rv_ci": reports[kind].rv_ci,
            "observed_t": reports[kind].observed_t,
        }
    _emit_json(payload, args.out)
    _write_csv(_sidecar_path(args.out, "rv_curve.csv", "curve"),
               ["rho", "min_t_direct", "min_t_indirect"],
               ([row["rho"], repr(row["min_t_direct"]), repr(row["min_t_indirect"])]
                for row in payload["curve"]))
    return 0


def cmd_benchmark(args) -> int:
    from .benchmarking import BenchmarkSpec, benchmark_covariate
    from .inference import bootstrap_moments

    for flag, value in (("--ka", args.ka), ("--km", args.km), ("--ky", args.ky)):
        if not 0.0 <= value < math.inf:
            raise InputError(f"{flag} must be finite and nonnegative, got {value}")
    if args.delta_grid and args.j is None:
        raise InputError("--delta-grid needs --j")
    grid = _parse_grid(args.delta_grid, "--delta-grid") if args.delta_grid else None
    if grid is not None and grid[0] <= 0.0:
        raise InputError("--delta-grid must be positive")
    if args.j is not None and args.j not in _split_names(args.covariates):
        raise InputError(f"--j '{args.j}' is not one of the covariates")
    data, covariates = build_data(args)
    if not covariates:
        raise InputError("benchmarking needs at least one covariate")
    plan = bootstrap_moments(data, n_resamples=args.bootstrap, seed=args.seed)
    k_a = 0.0 if args.randomized else args.ka
    rows = []
    sweeps = {}
    for name in covariates if args.j is None else [args.j]:
        spec = BenchmarkSpec(j=covariates.index(name), k_a_bound=k_a,
                             k_m_bound=args.km, k_y_bound=args.ky)
        worst, sweeps = benchmark_covariate(data, spec, plan, delta_grid=grid)
        for kind, res in worst.items():
            rows.append({
                "covariate": name,
                "effect_kind": kind,
                "observed_estimate": res.observed_estimate,
                "observed_t": res.observed_t,
                "worst_estimate": res.worst_estimate.value,
                "worst_t": res.worst_t.t_stat,
                "k_ratios": res.worst_t.k_ratios,
            })
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "benchmark",
        "config": _config_echo(args, {"k_a_effective": k_a}),
        "worst_cases": rows,
    }
    delta_curves = {}
    if sweeps:
        deltas = {}
        for kind, ((d_est, curve_est), (d_ci, _)) in sweeps.items():
            # null: no grid point attains the threshold
            deltas[kind] = {"critical_delta_estimate": _finite_or_none(d_est),
                            "critical_delta_ci": _finite_or_none(d_ci)}
            delta_curves[kind] = dict(curve_est)
        payload["critical_delta"] = deltas
    _emit_json(payload, args.out)

    _write_csv(_sidecar_path(args.out, "benchmark_worst.csv", "worst"),
               ["covariate", "effect_kind", "worst_estimate", "worst_t"],
               ([row["covariate"], row["effect_kind"], repr(row["worst_estimate"]),
                 repr(row["worst_t"])] for row in rows))
    if delta_curves:
        merged = sorted(set(delta_curves["direct"]) | set(delta_curves["indirect"]))
        _write_csv(_sidecar_path(args.out, "benchmark_delta.csv", "delta"),
                   ["delta", "worst_estimate_direct", "worst_estimate_indirect"],
                   ([delta, repr(delta_curves["direct"].get(delta, "")),
                     repr(delta_curves["indirect"].get(delta, ""))]
                    for delta in merged))
    return 0


def cmd_simulate(args) -> int:
    from .simulation import S4Design, rv_ratio_study

    dims = _parse_numbers(args.dim_m, "--dim-m", int) or [2]
    r2_ams = _parse_numbers(args.r2_am, "--r2-am") or [0.3]
    r2_yms = _parse_numbers(args.r2_ym, "--r2-ym") or [0.3]
    for flag, ok, need in (
            ("--dim-m", min(dims) >= 2, "at least 2: the design needs two mediators"),
            ("--reps", args.reps >= 1, "at least 1"),
            ("--n", max(dims) + 4 <= args.n <= MAX_COUNT,
             f"at least the largest --dim-m plus 4 and at most {MAX_COUNT}"),
            ("--r2-am", all(0.0 < v < 1.0 for v in r2_ams), "inside (0, 1)"),
            ("--r2-ym", all(0.0 < v < 1.0 for v in r2_yms), "inside (0, 1)")):
        if not ok:
            raise InputError(f"{flag} must be {need}")
    designs = [S4Design(dim_m=d, r2_am=ram, r2_ym=rym, n=args.n)
               for d in dims for ram in r2_ams for rym in r2_yms]
    rows = rv_ratio_study(designs, replications=args.reps, base_seed=args.seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config": _config_echo(args),
        "cells": [{
            "dim_m": r.dim_m, "r2_am": r.r2_am, "r2_ym": r.r2_ym,
            "rv_scalar": r.rv_scalar, "rv_vector": r.rv_vector, "ratio": r.ratio,
        } for r in rows],
        "mean_ratio": float(np.mean([r.ratio for r in rows])),
    }
    _emit_json(payload, args.out)
    _write_csv(_sidecar_path(args.out, "simulate_table.csv", "table"),
               ["dim_m", "r2_am", "r2_ym", "rv_scalar", "rv_vector", "ratio"],
               ([r.dim_m, r.r2_am, r.r2_ym, repr(r.rv_scalar), repr(r.rv_vector),
                 repr(r.ratio)] for r in rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of its help, usage or
    error text raises: argparse drops the OSError, so with unbuffered stdout
    ``--help`` into a closed pipe would exit 0 having written nothing.
    Subparsers are made of the same class."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bksens",
        description="Sensitivity analysis for Baron-Kenny mediation under "
                    "unmeasured confounding")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p):
        p.add_argument("--data", required=True, help="input CSV path")
        p.add_argument("--outcome", required=True)
        p.add_argument("--exposure", required=True)
        p.add_argument("--mediators", required=True,
                       help="comma-separated mediator columns")
        p.add_argument("--covariates", default="",
                       help="comma-separated covariate columns")
        p.add_argument("--bootstrap", type=int, default=1000, metavar="B")
        p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--randomized", action="store_true",
                       help="exposure is randomized (no exposure-confounder channel)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="JSON report path (stdout when omitted)")

    p_eff = sub.add_parser("effects", help="adjusted effects at given parameters")
    add_data_args(p_eff)
    p_eff.add_argument("--ry", type=float, default=0.0)
    p_eff.add_argument("--rm", default=None,
                       help="comma-separated mediator-confounder correlations")
    p_eff.add_argument("--ra", type=float, default=0.0)
    p_eff.set_defaults(func=cmd_effects)

    p_rv = sub.add_parser("rv", help="robustness values and min-t curve")
    add_data_args(p_rv)
    p_rv.add_argument("--rho-grid", dest="rho_grid", default=None,
                      metavar="lo:hi:step")
    p_rv.add_argument("--vector-u", dest="vector_u", action="store_true")
    p_rv.set_defaults(func=cmd_rv)

    p_bench = sub.add_parser("benchmark", help="worst cases against covariates")
    add_data_args(p_bench)
    p_bench.add_argument("--j", default=None, metavar="NAME",
                         help="single covariate to benchmark against")
    p_bench.add_argument("--ka", type=float, default=1.0)
    p_bench.add_argument("--km", type=float, default=1.0)
    p_bench.add_argument("--ky", type=float, default=1.0)
    p_bench.add_argument("--delta-grid", dest="delta_grid", default=None,
                         metavar="lo:hi:step")
    p_bench.set_defaults(func=cmd_benchmark)

    p_sim = sub.add_parser("simulate", help="scalar vs vector robustness values")
    p_sim.add_argument("--dim-m", dest="dim_m", default="2")
    p_sim.add_argument("--r2-am", dest="r2_am", default="0.3")
    p_sim.add_argument("--r2-ym", dest="r2_ym", default="0.3")
    p_sim.add_argument("--reps", type=int, default=20)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=None, metavar="PATH")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise InputError(f"--seed must be nonnegative, got {args.seed}")
        if args.out and not (parent := Path(args.out).parent).is_dir():
            raise InputError(f"--out: {parent} is not an existing directory")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a read error is an InputError already: a failed write
        print(f"error: cannot write: {exc}", file=sys.stderr)
        return 2
    except BkSensError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # sizes within the flags' bounds, too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


def _watched() -> bool:
    """A profiler, tracer, debugger or coverage tool is installed; it may
    report when the interpreter exits."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile uses it
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def run() -> None:
    """The process entry of ``bksens`` and ``python -m bksens.cli``: ``main``,
    the ``atexit`` handlers and a flush of stdout and stderr, then
    ``os._exit`` with no interpreter teardown (see the module docstring). A
    failed write, such as to a closed pipe, exits 2, whether it fails in the
    flush or, with unbuffered streams, in argparse's own output."""
    if _watched():
        sys.exit(main())
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        if not isinstance(exc.code, int):
            raise
        code = exc.code
    except OSError as exc:  # argparse's text could not be written (``_Parser``)
        code = _cannot_write(exc)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = _cannot_write(exc)
    os._exit(code)


def _cannot_write(exc: OSError) -> int:
    """Report a failed write on stderr, if it can still be written; the
    exit code 2."""
    try:
        print(f"error: cannot write: {exc}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return 2


if __name__ == "__main__":
    run()
