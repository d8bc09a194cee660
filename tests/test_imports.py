"""Start-up cost: scipy, and each bksens module, is loaded only by the code
that calls it.

The Nelder-Mead polish of ``rv`` and the confounder construction import
scipy when they first run; no other CLI job loads it. ``import bksens``
loads no submodule until one of its names is looked up, and the CLI loads
``benchmarking``, ``simulation`` and ``robustness`` only in the commands that
use them. ``robustness`` loads ``optimize`` when it runs its first search,
so a ``simulate`` job, which runs none, never loads it; nor does it load the
bootstrap code of ``inference``, which only the data commands import. Only
a multi-worker bootstrap loads the thread pool. Each check runs in a fresh
interpreter, as a CLI job does.

Importing the library changes no environment variable; importing
``bksens.cli`` sets ``OPENBLAS_NUM_THREADS=1`` when no BLAS thread variable
is set, so a CLI job runs BLAS on one thread unless the user chose otherwise.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bksens
from bksens.cli import BLAS_THREAD_VARS

from conftest import make_data
from test_cli import base_args, write_csv


def _run(code: str, thread_vars: dict | None = None):
    """Run ``code`` in a fresh interpreter; the value of its last output
    line. With ``thread_vars``, the child's BLAS thread variables are
    exactly those."""
    env = dict(os.environ)
    src = str(Path(bksens.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if thread_vars is not None:
        for name in (*BLAS_THREAD_VARS, "MKL_NUM_THREADS"):
            env.pop(name, None)
        env.update(thread_vars)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _fresh(code: str, package: str = "scipy") -> list[str]:
    """Run ``code`` in a fresh interpreter; the modules of ``package`` it
    left loaded."""
    return _run(code + ("\nimport sys\nprint(sorted(m for m in sys.modules"
                        f" if m.split('.')[0] == {package!r}))"))


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
SEARCH_CODE = {"bksens.robustness", "bksens.optimize"}


def test_simulate_job_loads_no_search_code(tmp_path):
    argv = ["simulate", "--dim-m", "2,3", "--reps", "1",
            "--out", str(tmp_path / "s.json")]
    loaded = set(_fresh(_main(argv), "bksens"))
    assert {"bksens.simulation", "bksens.robustness"} <= loaded
    assert "bksens.optimize" not in loaded


def test_simulate_job_loads_no_bootstrap_code(tmp_path):
    argv = ["simulate", "--dim-m", "2,3", "--reps", "1",
            "--out", str(tmp_path / "s.json")]
    assert "bksens.inference" not in _fresh(_main(argv), "bksens")


def test_import_cli_loads_no_bootstrap_code():
    assert "bksens.inference" not in _fresh("import bksens.cli", "bksens")


def test_import_bksens_loads_no_submodule():
    assert _fresh("import bksens", "bksens") == ["bksens"]


def test_import_cli_loads_only_what_every_command_needs():
    loaded = set(_fresh("import bksens.cli", "bksens"))
    assert "bksens.cli" in loaded
    assert not loaded & (UNUSED_BY_DATA_JOBS | SEARCH_CODE)


def test_effects_job_loads_neither_benchmarking_nor_simulation(small_csv, tmp_path):
    argv = ["effects", *base_args(small_csv), "--bootstrap", "20",
            "--ry", "0.3", "--rm", "0.2,0.2", "--out", str(tmp_path / "r.json")]
    loaded = set(_fresh(_main(argv), "bksens"))
    assert {"bksens.cli", "bksens.inference", "bksens.mediation"} <= loaded
    # the effect reports evaluate the coefficient form of ``mediation``
    # directly, so no search code either
    assert not loaded & (UNUSED_BY_DATA_JOBS | SEARCH_CODE)


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


@pytest.mark.parametrize("package", ["concurrent", "logging"])
def test_effects_job_loads_no_thread_pool(small_csv, tmp_path, package):
    # only bootstrap_moments(n_workers > 1) builds a pool, and no CLI job
    # asks for one; concurrent.futures loads logging
    argv = ["effects", *base_args(small_csv), "--bootstrap", "20",
            "--ry", "0.3", "--rm", "0.2,0.2", "--out", str(tmp_path / "r.json")]
    assert _fresh(_main(argv), package) == []


# every library module imported, then the CLI; the environment variables
# each step changed
ENV_CHANGES = """
import os, pkgutil
before = dict(os.environ)
import bksens
for info in pkgutil.iter_modules(bksens.__path__):
    if info.name != "cli":
        __import__(f"bksens.{info.name}")
library = dict(os.environ)
import bksens.cli
keys = set(before) | set(library) | set(os.environ)
print([{k: env.get(k) for k in sorted(keys) if env.get(k) != old.get(k)}
       for old, env in ((before, library), (library, os.environ))])
"""


def test_only_the_cli_sets_a_thread_count():
    library, cli = _run(ENV_CHANGES, thread_vars={})
    assert library == {}
    assert cli == {"OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("name", BLAS_THREAD_VARS)
def test_cli_keeps_a_thread_count_the_user_set(name):
    assert _run(ENV_CHANGES, thread_vars={name: "3"}) == [{}, {}]


# an effects job through ``main``; the threads of the process after it,
# counted in /proc. Importing ``bksens.cli`` runs the same thread policy as
# ``python -m bksens.cli``, whose process ends before it could count.
THREADS_AFTER_JOB = """
import os
from bksens.cli import main
assert main({argv!r}) == 0
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("thread_vars, threads", [
    ({}, 1),
    pytest.param({"OPENBLAS_NUM_THREADS": "2"}, 2, marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="OpenBLAS starts one thread per core at most")),
    # numpy's OpenBLAS ignores MKL_NUM_THREADS, so the CLI still sets its count
    pytest.param({"MKL_NUM_THREADS": "1"}, 1, marks=pytest.mark.skipif(
        (os.cpu_count() or 1) < 2, reason="one core runs one thread either way")),
])
def test_cli_job_runs_blas_threads(small_csv, tmp_path, thread_vars, threads):
    argv = ["effects", *base_args(small_csv), "--bootstrap", "20",
            "--out", str(tmp_path / "r.json")]
    assert _run(THREADS_AFTER_JOB.format(argv=argv), thread_vars) == threads
