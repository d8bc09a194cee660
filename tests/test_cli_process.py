"""The CLI as a process: ``bksens`` and ``python -m bksens.cli`` end
through ``cli.run``, which flushes and exits without interpreter teardown.
Each test runs a fresh interpreter and checks what its user sees: the exit
code, a complete report on a pipe or in files, and a profiler's report."""

import csv
import importlib
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from bksens import cli
from bksens.cli import main

from conftest import make_data
from test_cli import _python, _run_cli, _sidecar_argv, write_csv

ROOT = Path(__file__).resolve().parents[1]
SIMULATE = ["simulate", "--dim-m", "2", "--reps", "2", "--n", "60", "--seed", "5"]


def test_piped_report_is_complete(tmp_path, monkeypatch, capsys):
    # stdout on a pipe is block-buffered: the report reaches the reader only
    # through the flush before the process ends
    proc = _run_cli(SIMULATE, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "simulate"
    sidecar = (tmp_path / "simulate_table.csv").read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main(SIMULATE) == 0
    assert capsys.readouterr().out == proc.stdout
    assert (tmp_path / "simulate_table.csv").read_bytes() == sidecar


@pytest.fixture
def csv_data(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, make_data(np.random.default_rng(8), n=80, p=2, q=2))
    return path


@pytest.mark.parametrize("command, files", [
    ("rv", ["r.json", "r_curve.csv"]),
    ("benchmark", ["r.json", "r_delta.csv", "r_worst.csv"]),
    ("simulate", ["r.json", "r_table.csv"]),
])
def test_report_and_sidecars_are_complete_at_exit(csv_data, tmp_path, command, files):
    # the process's files hold what the same job writes in process
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _sidecar_argv(command, csv_data, out_dir / "r.json")
    proc = _run_cli(argv)
    assert proc.returncode == 0, proc.stderr
    written = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(written) == files
    assert main(argv) == 0
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == written


@pytest.fixture
def degenerate_csv(tmp_path):
    # the mediator duplicates the exposure: a singular residual covariance
    rng = np.random.default_rng(0)
    a = rng.normal(size=40)
    y = a + rng.normal(size=40)
    path = tmp_path / "degenerate.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "a", "m1"])
        writer.writerows([repr(float(yi)), repr(float(ai)), repr(float(ai))]
                         for yi, ai in zip(y, a))
    return path


@pytest.mark.parametrize("case, code, stream, start", [
    ("help", 0, "stdout", "usage: bksens"),
    ("usage", 2, "stderr", "usage: bksens"),
    ("numerical", 3, "stderr", "numerical error: "),
])
def test_exit_codes_are_kept(degenerate_csv, tmp_path, case, code, stream, start):
    argv = {
        "help": ["--help"],
        "usage": ["simulate", "--nope"],
        "numerical": ["effects", "--data", str(degenerate_csv), "--outcome", "y",
                      "--exposure", "a", "--mediators", "m1", "--bootstrap", "20",
                      "--out", str(tmp_path / "r.json")],
    }[case]
    proc = _run_cli(argv, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).startswith(start)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [SIMULATE, ["--help"]], ids=["report", "help"])
def test_closed_stdout_exits_2(tmp_path, argv):
    # the reader is gone before the buffered output is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(argv, cwd=tmp_path, capture_output=False,
                        stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write: [Errno 32] Broken pipe\n"


def test_run_calls_atexit_handlers():
    code = ("import atexit, sys\n"
            "from bksens.cli import run\n"
            "atexit.register(print, 'atexit handler ran')\n"
            "sys.argv = ['bksens', '--help']\n"
            "run()\n")
    proc = _python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bksens")
    assert proc.stdout.endswith("atexit handler ran\n")


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    module, _, name = project["project"]["scripts"]["bksens"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run


def test_profiled_job_prints_its_stats(tmp_path):
    # under a profiler the process exits normally, and cProfile reports
    proc = _python(["-m", "cProfile", "-m", "bksens.cli", *SIMULATE,
                    "--out", str(tmp_path / "r.json")])
    assert proc.returncode == 0, proc.stderr
    assert "function calls" in proc.stdout
    assert json.loads((tmp_path / "r.json").read_text())["command"] == "simulate"
