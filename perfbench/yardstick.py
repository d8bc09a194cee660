"""Yardstick: a fixed program that the benchmark runs between measured jobs.

It does the kinds of work a bksens job does, in fixed amounts and without
importing bksens: interpreter start-up, the numpy and scipy imports, bootstrap
least-squares fits, a pure-Python loop and a Nelder-Mead polish. No change to
``src/`` changes what it does, so its time tracks only how fast the shared
machine runs during a benchmark run, and the jobs' mean time divided by the
yardstick's mean time in the same run measures the program rather than the
machine's load.

Run it as ``python3 perfbench/yardstick.py``; it prints nothing and exits 0.
"""

import numpy as np
from scipy.optimize import minimize, rosen

ROWS, COLS, RESAMPLES = 2000, 8, 750
LOOP = 1_200_000
POLISH_EVALS = 6000


def main() -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((ROWS, COLS))
    y = x @ np.arange(COLS, dtype=float) + rng.standard_normal(ROWS)
    for _ in range(RESAMPLES):
        idx = rng.integers(0, ROWS, ROWS)
        np.linalg.lstsq(x[idx], y[idx], rcond=None)
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    minimize(rosen, np.zeros(6), method="Nelder-Mead",
             options={"maxfev": POLISH_EVALS, "xatol": 1e-14, "fatol": 1e-16})


if __name__ == "__main__":
    main()
