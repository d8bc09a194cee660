"""The three benchmark workloads and the input data they are run on.

Every workload is one ``bksens`` CLI invocation. The CSV workloads read a
file generated here from the workload seed; ``simulate_grid`` reads no file
and passes the seed to the program instead.

The generated studies have exactly fixed sample moments: the columns are
fixed linear combinations of seven centred, orthonormalised normal draws, so
every full-sample regression coefficient and residual variance is the same
for every seed and only the rows (and so the bootstrap resamples) change.
This keeps the work a job does, such as where a critical-delta sweep stops,
independent of the seed, so that runs at different seeds measure the same
job and their spread is the machine's, not the input's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

COLUMNS = ("y", "a", "m1", "m2", "c1", "c2", "c3")
MEDIATORS = ("m1", "m2")
COVARIATES = ("c1", "c2", "c3")

# Structural coefficients of the generated study. c1 enters every equation
# with weight C1_WEIGHT; that weight puts the critical multiplier of both
# point estimates at delta = 1.5, the third of the four points of the
# benchmark_delta grid, for every seed. At n=250 the worst t statistics sit
# well clear of 1.96 at every grid point, so the CI sweeps stop at the same
# points (0.5 direct, 1.0 indirect) whatever the bootstrap draws.
C1_WEIGHT = 0.44
EXPOSURE_ON_C = (C1_WEIGHT, 0.4, -0.3)
MEDIATORS_ON_A = (0.5, 0.3)
MEDIATORS_ON_C = ((C1_WEIGHT, 0.2, 0.1), (C1_WEIGHT, -0.1, 0.2))
MEDIATOR_NOISE_MIX = 0.5       # m2 noise shares this much of m1's noise
OUTCOME_ON_A = 0.3
OUTCOME_ON_M = (0.4, 0.3)
OUTCOME_ON_C = (C1_WEIGHT, 0.3, 0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str               # bksens subcommand
    n: int                     # rows of the generated CSV (simulate: --n)
    bootstrap: int | None      # --bootstrap B, None when the command has none
    flags: tuple[str, ...]     # remaining flags, fixed for every seed

    @property
    def reads_csv(self) -> bool:
        return self.command != "simulate"

    def argv(self, seed: int, csv_path: str | None, out: str) -> list[str]:
        """bksens CLI arguments of one job (without the program name)."""
        args = [self.command]
        if self.reads_csv:
            args += ["--data", csv_path, "--outcome", "y", "--exposure", "a",
                     "--mediators", ",".join(MEDIATORS),
                     "--covariates", ",".join(COVARIATES),
                     "--bootstrap", str(self.bootstrap)]
        args += [*self.flags, "--seed", str(seed), "--out", out]
        return args

    def describe(self) -> dict:
        """Input sizes and grids, recorded with every result."""
        return {
            "command": self.command, "n": self.n,
            "p": len(COVARIATES) if self.reads_csv else 0,
            "q": len(MEDIATORS) if self.reads_csv else None,
            "B": self.bootstrap, "flags": list(self.flags),
        }


# No workload runs `bksens rv`. An RV-curve workload (n=500, B=200, five rho
# points) was tried: on a shared 2-core host its run-to-run spread stayed
# near half the 0.25 bound however it was timed, while the three kept here
# sit well inside it. `rv` runs the same optimize and robustness code that
# simulate_grid and benchmark_delta exercise.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="effects_large_n",
        why="bootstrap and CSV parsing at n=10,000 with no optimizer at all: "
            "the GEMM bootstrap target and the bypass for search changes",
        command="effects", n=10_000, bootstrap=200,
        flags=("--ry", "0.3", "--rm", "0.2,0.2", "--ra", "0.2")),
    Workload(
        name="benchmark_delta",
        why="benchmarking: leave-one-out stacks and unvectorized worst-case "
            "searches over a delta sweep that stops past mid-grid",
        command="benchmark", n=250, bootstrap=100,
        flags=("--j", "c1", "--ka", "1", "--km", "1", "--ky", "1",
               "--delta-grid", "0.5:2:0.5")),
    Workload(
        name="simulate_grid",
        why="simulation: cheap B-free objectives, bisection RVs and "
            "Nelder-Mead polish on boxes of up to 8 dimensions",
        command="simulate", n=500, bootstrap=None,
        flags=("--dim-m", "2,4", "--r2-am", "0.3", "--r2-ym", "0.3",
               "--reps", "1", "--n", "500")),
)}


def study_columns(seed: int, n: int) -> np.ndarray:
    """(n, 7) array in COLUMNS order; a pure function of (seed, n)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, len(COLUMNS)))
    g -= g.mean(axis=0)
    g = np.linalg.qr(g)[0] * np.sqrt(n)   # centred, orthonormal columns
    c = g[:, :3]
    a = c @ np.array(EXPOSURE_ON_C) + g[:, 3]
    noise_m = np.column_stack([g[:, 4], MEDIATOR_NOISE_MIX * g[:, 4] + g[:, 5]])
    m = np.outer(a, MEDIATORS_ON_A) + c @ np.array(MEDIATORS_ON_C).T + noise_m
    y = (OUTCOME_ON_A * a + m @ np.array(OUTCOME_ON_M)
         + c @ np.array(OUTCOME_ON_C) + g[:, 6])
    return np.column_stack([y, a, m, c])


def write_study_csv(path, seed: int, n: int) -> dict:
    """Write the generated study as CSV; returns its size and content hash."""
    rows = study_columns(seed, n)
    lines = [",".join(COLUMNS)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    return {"csv_bytes": len(data), "csv_sha256": hashlib.sha256(data).hexdigest()}
