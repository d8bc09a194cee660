"""Run one bksens CLI job with every layer wrapped in a timing span.

Usage::

    python perfbench/tracer.py SPANS_JSON JOB_ID -- <bksens CLI arguments>

The shim imports ``bksens``, replaces each traced function on the modules
where its callers look it up, calls ``bksens.cli.main(argv)`` inside a root
span and writes the spans as JSON when the job ends. It exits with the CLI's
own exit code, and an exception in the program propagates unchanged, so a
traced job fails exactly when the untraced job does.

A span is ``[name, start, end, parent, info]``: start and end come from
``time.perf_counter``, parent is the index of the enclosing span (-1 for the
root) and info holds counts read at the layer boundary. A target that no
longer exists is listed under ``absent_targets`` instead of failing the job, so the
benchmark keeps running when a refactor folds or deletes a traced function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "bksens"
ROOT_SPAN = "cli.main"

# (module, attribute, span name). "Class.method" names a classmethod. Every
# module of the package that holds the same object gets the wrapper, so the
# span is recorded wherever the function is called from.
TARGETS = (
    ("cli", "load_csv_columns", "cli.load_csv"),
    ("mediation", "fit_observed", "mediation.fit_observed"),
    ("inference", "bootstrap_moments", "inference.bootstrap"),
    ("inference", "bootstrap_se", "inference.bootstrap_se"),
    ("robustness", "robustness_value", "robustness.rv"),
    ("robustness", "rv_estimate_only", "robustness.rv_estimate_only"),
    ("robustness", "EffectObjective.for_direct", "robustness.objective_build"),
    ("robustness", "EffectObjective.for_indirect", "robustness.objective_build"),
    ("optimize", "direct_optimize", "optimize.direct"),
    ("robustness", "minimize", "optimize.polish"),
    ("benchmarking", "prepare_benchmark_stacks", "benchmarking.stacks"),
    ("benchmarking", "benchmark_moments", "benchmarking.benchmark_moments"),
    ("benchmarking", "benchmark_worst", "benchmarking.worst"),
    ("benchmarking", "critical_delta", "benchmarking.critical_delta"),
    ("simulation", "simulate_design", "simulation.simulate_design"),
)
OBJECTIVE_SPAN = "optimize.objective"


class Recorder:
    """Spans of one job, kept in memory until the job ends."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.last_direct_fun = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if info:
            span[4] = info
        self.stack.pop()

    def call(self, name, fn, args, kwargs, describe=None):
        idx = self.open(name)
        info = None
        try:
            result = fn(*args, **kwargs)
            if describe is not None:
                info = describe(result)
            return result
        except BaseException:
            info = {"raised": True}
            raise
        finally:
            self.close(idx, info)


def _plan_info(plan) -> dict:
    info = {}
    for key, attr in (("resamples", "n_resamples"), ("redraws", "n_redraws")):
        if hasattr(plan, attr):
            info[key] = int(getattr(plan, attr))
    indices = getattr(plan, "indices", None)
    if indices is not None and hasattr(indices, "nbytes"):
        info["indices_bytes"] = int(indices.nbytes)
    return info


def _rv_info(report) -> dict:
    curve = getattr(report, "curve", None)
    return {} if curve is None else {"rho_points": len(curve)}


def _delta_info(result) -> dict:
    try:
        return {"delta_points": len(result[1])}
    except (TypeError, IndexError):
        return {}


def _make_wrapper(rec: Recorder, name: str, fn):
    """Wrapper recording one span per call, with layer-specific counts."""
    if name == "optimize.direct":
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            objective = bound.arguments["objective"]

            def traced_objective(x, *a, **kw):
                idx = rec.open(OBJECTIVE_SPAN)
                try:
                    return objective(x, *a, **kw)
                finally:
                    shape = getattr(x, "shape", ())
                    rec.close(idx, {"points": int(shape[0]) if len(shape) == 2 else 1})

            bound.arguments["objective"] = traced_objective
            dims = len(bound.arguments["lower"]) if hasattr(
                bound.arguments["lower"], "__len__") else 1

            def describe(res):
                fun = getattr(res, "fun", None)
                rec.last_direct_fun = None if fun is None else float(fun)
                info = {"budget": int(bound.arguments["budget"]), "dims": dims}
                if hasattr(res, "n_evals"):
                    info["n_evals"] = int(res.n_evals)
                return info

            return rec.call(name, fn, bound.args, bound.kwargs, describe)
        return wrapper

    describe = {
        "inference.bootstrap": _plan_info,
        "robustness.rv": _rv_info,
        "benchmarking.critical_delta": _delta_info,
    }.get(name)
    if name == "optimize.polish":
        def describe(res):
            info = {"nfev": int(getattr(res, "nfev", 0))}
            if rec.last_direct_fun is not None:
                info["win"] = bool(float(res.fun) < rec.last_direct_fun)
            return info

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, describe)
    return wrapper


def install(rec: Recorder, package: str = PACKAGE, targets=TARGETS) -> list[str]:
    """Wrap every target found; returns the "module:attribute" targets that
    no longer exist."""
    modules = {}
    absent = []
    for mod_name, _, _ in targets:
        if mod_name in modules:
            continue
        try:
            modules[mod_name] = importlib.import_module(f"{package}.{mod_name}")
        except ImportError:
            modules[mod_name] = None
    loaded = [m for key, m in list(sys.modules.items())
              if m is not None and (key == package or key.startswith(package + "."))]
    for mod_name, attr, name in targets:
        module = modules[mod_name]
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if module is None or owner is None:
            absent.append(f"{mod_name}:{attr}")
            continue
        if owner_name:
            raw = inspect.getattr_static(owner, method, None)
            if not isinstance(raw, classmethod):
                absent.append(f"{mod_name}:{attr}")
                continue
            setattr(owner, method, classmethod(_make_wrapper(rec, name, raw.__func__)))
            continue
        original = getattr(owner, attr, None)
        if not callable(original):
            absent.append(f"{mod_name}:{attr}")
            continue
        wrapper = _make_wrapper(rec, name, original)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return absent


def span_names_absent(absent_targets, targets=TARGETS) -> list[str]:
    """Span names all of whose targets are absent; objective spans exist
    only inside direct_optimize."""
    missing = set(absent_targets)
    by_name: dict[str, list[str]] = {}
    for mod_name, attr, name in targets:
        by_name.setdefault(name, []).append(f"{mod_name}:{attr}")
    absent = {name for name, keys in by_name.items() if all(k in missing for k in keys)}
    if "optimize.direct" in absent:
        absent.add(OBJECTIVE_SPAN)
    return sorted(absent)


def run(spans_path: str, job_id: str, argv: list[str], package: str = PACKAGE,
        targets=TARGETS) -> int:
    rec = Recorder()
    absent = install(rec, package, targets)
    cli = importlib.import_module(f"{package}.cli")
    root = rec.open(ROOT_SPAN)
    try:
        code = cli.main(argv)
    finally:
        rec.close(root)
        names = sorted({s[0] for s in rec.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "job": job_id,
            "absent_targets": absent,
            "absent_spans": span_names_absent(absent, targets),
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in rec.spans],
        }
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON JOB_ID -- <bksens CLI arguments>",
              file=sys.stderr)
        return 2
    return run(argv[0], argv[1], argv[3:])


if __name__ == "__main__":
    sys.exit(main())
