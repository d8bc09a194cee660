"""Start-up cost: scipy, and each bksens module, is loaded only by the code
that calls it.

The Nelder-Mead polish of ``rv`` and the confounder construction import
scipy when they first run; no other CLI job loads it. ``import bksens``
loads no submodule until one of its names is looked up, and the CLI loads
``benchmarking`` and ``simulation`` only in their own commands. Each check
runs in a fresh interpreter, as a CLI job does.
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


def _fresh(code: str, package: str = "scipy") -> list[str]:
    """Run ``code`` in a fresh interpreter; the modules of ``package`` it
    left loaded."""
    env = dict(os.environ)
    src = str(Path(bksens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = code + ("\nimport sys\nprint(sorted(m for m in sys.modules"
                    f" if m.split('.')[0] == {package!r}))")
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


UNUSED_BY_DATA_JOBS = {"bksens.benchmarking", "bksens.simulation",
                       "bksens.confounders", "bksens.ovb"}


def test_import_bksens_loads_no_submodule():
    assert _fresh("import bksens", "bksens") == ["bksens"]


def test_import_cli_loads_only_what_every_command_needs():
    loaded = set(_fresh("import bksens.cli", "bksens"))
    assert "bksens.cli" in loaded
    assert not loaded & UNUSED_BY_DATA_JOBS


def test_effects_job_loads_neither_benchmarking_nor_simulation(small_csv, tmp_path):
    argv = ["effects", *base_args(small_csv), "--bootstrap", "20",
            "--ry", "0.3", "--rm", "0.2,0.2", "--out", str(tmp_path / "r.json")]
    loaded = set(_fresh(_main(argv), "bksens"))
    assert {"bksens.cli", "bksens.inference", "bksens.mediation"} <= loaded
    assert not loaded & UNUSED_BY_DATA_JOBS


def test_star_import_binds_every_public_name():
    assert sorted(bksens._SUBMODULE) == sorted(bksens.__all__)
    namespace = {}
    exec("from bksens import *", namespace)
    assert set(bksens.__all__) <= set(namespace)
    assert set(bksens.__all__) <= set(dir(bksens))
    for name in bksens.__all__:
        assert namespace[name] is getattr(bksens, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        bksens.nope
