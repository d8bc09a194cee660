"""bksens benchmark: closed-loop CLI jobs, end-to-end metrics, traced layers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all``. Each workload
is a closed loop: one job at a time, each a fresh ``python -m bksens.cli``
process, so every job pays interpreter start-up and cold memory as a user
does. A run writes the workload's input from the seed, runs one unmeasured
warm-up job (which fills the .pyc and page caches and gives the reference
outputs), then for about ``--seconds`` runs jobs (at least three), each
after a run of ``yardstick.py``, with fresh interpreters that time ``import
bksens.cli`` spread among them.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``peak_rss_mb``,
and the jobs' wall and CPU time relative to the yardstick's (``job_rel``,
``job_cpu_rel``; see ``measure``). The raw ``job_s.p50``, ``jobs_per_s`` and
``job_cpu_s.p50`` are printed too, marked as not gated, because the shared
machine's speed drifts too much between runs for raw seconds to catch a
regression. ``--trace 1`` alternates jobs run through ``tracer.py`` with
untraced ones and reports the per-layer metrics of ``layers.py``, plus the
tracing overhead.

Every job's outputs are checked: the warm-up job's against numpy oracles and
the report structure (``checks.py``), every other job's for byte-identity
with the warm-up's. A job fails on a nonzero exit, a traceback on stderr, or
outputs that fail these checks; traced jobs also fail when their per-layer
counts differ from the first traced job's. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print each metric with its unit and a record
of the machine, the libraries and the inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import CheckFailed, Oracle, check_outputs
from layers import LAYER_METRICS, OVERHEAD_METRIC, job_layer_metrics
from workloads import WORKLOADS, write_study_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
MIN_JOBS = 3
RUN_DEADLINE_S = 165.0     # a run must end within 180 s
COUNT_METRICS = {m.name for m in LAYER_METRICS if m.kind == "count"}
END_TO_END = (
    ("setup_s", "s"),
    ("job_rel", "ratio"),
    ("job_cpu_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit code 2, no result)."""


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    files: dict[str, bytes] = field(repr=False)
    error: str | None = None   # why the job failed; None when it passed


class Runner:
    """Runs the jobs of one workload run inside its own work directory."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.job_dir = work / "job"
        self.csv_path = work / "input.csv"
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["TMPDIR"] = str(work)

    def spawn(self, argv: list[str], cwd: Path) -> tuple[float, int, object]:
        """Run one child to completion: (wall seconds, exit code, rusage)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "stdout.txt", "wb") as out, \
                open(self.work / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def setup_sample(self) -> float:
        wall, code, _ = self.spawn([sys.executable, "-c", "import bksens.cli"], self.work)
        if code != 0:
            raise BenchmarkError("`import bksens.cli` failed: "
                                 + (self.work / "stderr.txt").read_text(errors="replace"))
        return wall

    def yardstick_sample(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of ``yardstick.py``."""
        wall, code, usage = self.spawn([sys.executable, str(HERE / "yardstick.py")],
                                       self.work)
        if code != 0:
            raise BenchmarkError("yardstick.py failed: "
                                 + (self.work / "stderr.txt").read_text(errors="replace"))
        return wall, usage.ru_utime + usage.ru_stime

    def run_job(self, spans_path: Path | None = None) -> Job:
        shutil.rmtree(self.job_dir, ignore_errors=True)
        self.job_dir.mkdir()
        cli_args = self.workload.argv(self.seed, str(self.csv_path), "report.json")
        if spans_path is None:
            argv = [sys.executable, "-m", "bksens.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                    f"{self.workload.name}-{self.seed}", "--", *cli_args]
        wall, code, usage = self.spawn(argv, self.job_dir)
        files = {p.name: p.read_bytes() for p in sorted(self.job_dir.iterdir())}
        stderr = (self.work / "stderr.txt").read_text(errors="replace")
        error = None
        if code != 0:
            error = f"exit code {code}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            error = "traceback on stderr"
        return Job(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                   rss_mb=usage.ru_maxrss / 1024.0, files=files, error=error)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, at its default setting."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                 "openblas configuration")},
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(),
    }


def _median(values):
    return float(statistics.median(values))


def _reference(runner: Runner, oracle) -> Job:
    """Warm-up job whose outputs, once checked, every other job must match."""
    job = runner.run_job()
    if job.error is None:
        try:
            check_outputs(runner.workload.command, job.files, oracle,
                          runner.workload.bootstrap, runner.seed)
        except CheckFailed as exc:
            job.error = f"output check: {exc}"
    return job


def _judge(job: Job, ref: Job) -> None:
    if job.error is not None:
        return
    if ref.error is not None:
        job.error = "the reference job failed"
    elif job.files != ref.files:
        differ = sorted(k for k in set(job.files) | set(ref.files)
                        if job.files.get(k) != ref.files.get(k))
        job.error = f"outputs differ from the reference job: {differ}"


def _loop(runner: Runner, seconds: float, next_step, done, step_cost) -> float:
    """Take steps until ``done()`` and one more step, expected to take
    ``step_cost()`` seconds, would end past ``seconds``; returns the elapsed
    wall time. Stopping before a step that would overrun keeps a run's length
    near ``seconds`` whatever the job size."""
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + step_cost() >= seconds and done():
            return elapsed
        if time.monotonic() >= runner.deadline:
            return elapsed
        next_step(elapsed)


def measure(runner: Runner, seconds: float, oracle) -> tuple[dict, list, Job, dict]:
    """End-to-end metrics of one run.

    The machine is shared, and its speed drifts by up to about 2x between
    runs made minutes apart, so raw job seconds of two runs of the same code
    differ by more than a regression worth catching. The run therefore
    alternates ``yardstick.py``, a fixed program that no change to ``src/``
    affects, with the jobs (yardstick, job, yardstick, ..., job, yardstick),
    and the gated job metrics are the jobs' mean wall (CPU) time divided by
    the yardstick's mean wall (CPU) time. Means rather than medians, because
    from one process to the next the machine's speed jumps between a fast
    and a slow state, and with a few jobs a median lands on either state
    while a mean weighs them by how long each lasted. The raw seconds are
    printed beside them and kept in the record.
    """
    ref = _reference(runner, oracle)
    setup: list[float] = []
    jobs: list[Job] = []
    sticks: list[tuple[float, float]] = []

    def next_step(elapsed):
        # Set-up samples are spread over the run, one before the first job
        # and one each time another 1/SETUP_SAMPLES of the run has passed,
        # so that their median covers the same stretch of time as the jobs.
        if len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * seconds / SETUP_SAMPLES:
            setup.append(runner.setup_sample())
            return
        sticks.append(runner.yardstick_sample())
        job = runner.run_job()
        _judge(job, ref)
        jobs.append(job)

    _loop(runner, seconds, next_step,
          lambda: len(jobs) >= MIN_JOBS and len(setup) == SETUP_SAMPLES,
          lambda: _median([j.wall_s + w for j, (w, _) in zip(jobs, sticks)]) if jobs else 0.0)
    if not jobs or not setup:
        raise BenchmarkError("the run deadline passed before any measured job")
    sticks.append(runner.yardstick_sample())
    stick_wall = statistics.fmean(w for w, _ in sticks)
    stick_cpu = statistics.fmean(c for _, c in sticks)
    metrics = {
        "setup_s": _median(setup),
        "job_rel": statistics.fmean(j.wall_s for j in jobs) / stick_wall,
        "job_cpu_rel": statistics.fmean(j.cpu_s for j in jobs) / stick_cpu,
        "peak_rss_mb": max(j.rss_mb for j in jobs),
    }
    units = dict(END_TO_END)
    raw = {
        "job_s.p50": (_median([j.wall_s for j in jobs]), "s"),
        "jobs_per_s": (len(jobs) / sum(j.wall_s for j in jobs), "1/s"),
        "job_cpu_s.p50": (_median([j.cpu_s for j in jobs]), "s"),
        "yardstick_s.mean": (stick_wall, "s"),
    }
    detail = {"raw": raw, "setup_s.samples": setup,
              "job_s.samples": [j.wall_s for j in jobs],
              "job_cpu_s.samples": [j.cpu_s for j in jobs],
              "yardstick_s.samples": [w for w, _ in sticks],
              "yardstick_cpu_s.samples": [c for _, c in sticks]}
    return {k: (v, units[k]) for k, v in metrics.items()}, jobs, ref, detail


def measure_traced(runner: Runner, seconds: float, oracle) -> tuple[dict, list, Job, dict]:
    ref = _reference(runner, oracle)
    traced: list[Job] = []
    untraced: list[Job] = []
    per_job: list[dict] = []
    absent: list[str] = []
    spans_path = runner.work / "spans.json"

    def next_step(_elapsed):
        if len(traced) <= len(untraced):
            spans_path.unlink(missing_ok=True)
            job = runner.run_job(spans_path)
            _judge(job, ref)
            traced.append(job)
            if job.error is None:
                try:
                    payload = json.loads(spans_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    job.error = f"unreadable spans: {exc}"
                    return
                absent[:] = payload["absent_targets"]
                values = job_layer_metrics(payload)
                if per_job and _counts(values) != _counts(per_job[0]):
                    job.error = "per-layer counts differ from the first traced job"
                per_job.append(values)
        else:
            job = runner.run_job()
            _judge(job, ref)
            untraced.append(job)

    _loop(runner, seconds, next_step, lambda: len(traced) >= 2 and len(untraced) >= 1,
          lambda: _median([j.wall_s for j in traced + untraced]) if traced else 0.0)
    metrics = {}
    for metric in LAYER_METRICS:
        values = [v[metric.name] for v in per_job if metric.name in v]
        if not values or len(values) < len(per_job):
            continue
        value = _median(values) if metric.kind == "time" else values[0]
        metrics[metric.name] = (value, metric.unit)
    if traced and untraced:
        overhead = (_median([j.wall_s for j in traced])
                    / _median([j.wall_s for j in untraced]) - 1.0)
        metrics[OVERHEAD_METRIC.name] = (overhead, OVERHEAD_METRIC.unit)
    detail = {"traced_jobs": len(traced), "untraced_jobs": len(untraced),
              "absent_targets": absent,
              "absent_metrics": sorted(m.name for m in LAYER_METRICS
                                       if m.name not in metrics)}
    return metrics, traced + untraced, ref, detail


def _counts(values: dict) -> dict:
    return {k: v for k, v in values.items() if k in COUNT_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, work, time.monotonic() + RUN_DEADLINE_S)
        inputs = {"workload": name, "seed": seed, **workload.describe()}
        oracle = None
        if workload.reads_csv:
            inputs.update(write_study_csv(runner.csv_path, seed, workload.n))
            oracle = Oracle(str(runner.csv_path))
        measure_fn = measure_traced if trace else measure
        metrics, jobs, ref, detail = measure_fn(runner, seconds, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    failed = [j for j in jobs if j.error is not None]
    attempted = len(jobs)
    print(f"# workload {name}, seed {seed}, trace {int(trace)}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<40} {value:>14.6g} {unit}")
    for key, (value, unit) in detail.get("raw", {}).items():
        print(f"{key:<40} {value:>14.6g} {unit} (raw, not gated)")
    print(f"{'fail_frac':<40} {len(failed) / attempted:>14.6g} "
          f"({len(failed)} of {attempted} jobs)")
    errors = sorted({j.error for j in failed})
    if ref.error is not None:
        errors.insert(0, f"reference: {ref.error}")
    record = {"inputs": inputs, "environment": environment(), **detail,
              "errors": errors}
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": ref.error is None and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception so that the job running is killed
    # and waited for (Runner.spawn) and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.seed < 0:
            raise BenchmarkError("--seed must be nonnegative")
        if not (ROOT / "src" / "bksens" / "cli.py").is_file():
            raise BenchmarkError(f"no bksens sources under {ROOT / 'src'}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
