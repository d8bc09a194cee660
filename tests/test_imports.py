"""Start-up cost: scipy is loaded only by the code that calls it.

The Nelder-Mead polish of ``rv`` and the confounder construction import
scipy when they first run; no other CLI job loads it. Each check runs in a
fresh interpreter, as a CLI job does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bksens

from conftest import make_data
from test_cli import base_args, write_csv


def _fresh(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the scipy modules it left loaded."""
    env = dict(os.environ)
    src = str(Path(bksens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = code + ("\nimport sys\nprint(sorted(m for m in sys.modules"
                    " if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _main(argv) -> str:
    return f"from bksens.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(path, make_data(np.random.default_rng(8), n=80, p=2, q=2))
    return path


@pytest.mark.parametrize("module", ["bksens", "bksens.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh(f"import {module}") == []


@pytest.mark.parametrize("command, flags", [
    ("effects", ["--ry", "0.3", "--rm", "0.2,0.2"]),
    ("benchmark", ["--j", "c1", "--delta-grid", "0.5:1:0.5"]),
])
def test_data_jobs_load_no_scipy(small_csv, tmp_path, command, flags):
    argv = [command, *base_args(small_csv), "--bootstrap", "20", *flags,
            "--out", str(tmp_path / "r.json")]
    assert _fresh(_main(argv)) == []


def test_simulate_loads_no_scipy(tmp_path):
    argv = ["simulate", "--dim-m", "2,3", "--reps", "1",
            "--out", str(tmp_path / "s.json")]
    assert _fresh(_main(argv)) == []


def test_vector_rv_loads_scipy_when_it_polishes(small_csv, tmp_path):
    argv = ["rv", *base_args(small_csv), "--bootstrap", "20", "--vector-u",
            "--rho-grid", "0.1:0.2:0.1", "--out", str(tmp_path / "rv.json")]
    assert "scipy.optimize" in _fresh(_main(argv))
