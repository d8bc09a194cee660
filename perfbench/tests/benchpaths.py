"""Paths of the benchmark and the repository; puts the benchmark's modules
on sys.path. Imported first by every test module here (a conftest.py would
clash with the one in the repository's tests/ when both run together)."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))
