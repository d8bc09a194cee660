"""Synthetic designs for studying scalar- versus vector-confounder
robustness values with several mediators.

The exposure is standard normal; mediators load on it through a ramp of
coefficients with banded noise covariance (0.5^|i-j|); the outcome adds the
mediators through a second ramp with unit noise. The two scale factors that
make the population explained-variance fractions hit requested targets have
closed forms. The study's robustness values are for the point estimate,
whose worst case has a closed form, so a replication runs no numerical search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import RootFindFailed
from .mediation import MediationData, fit_observed
from .robustness import rv_estimate_only

DEFAULT_N = 500


def mediator_noise_cov(dim_m: int) -> np.ndarray:
    idx = np.arange(dim_m)
    return 0.5 ** np.abs(idx[:, None] - idx[None, :])


def exposure_loadings(dim_m: int) -> np.ndarray:
    """Unit-scale ramp 0, 1/(d-1), ..., 1 multiplying the exposure."""
    if dim_m < 2:
        raise ValueError("the design needs at least two mediators")
    return np.arange(dim_m) / (dim_m - 1)


def outcome_loadings(dim_m: int) -> np.ndarray:
    """Unit-scale ramp 1, 1-1.5/(d-1), ..., -0.5 multiplying the mediators."""
    if dim_m < 2:
        raise ValueError("the design needs at least two mediators")
    return 1.0 - 1.5 * np.arange(dim_m) / (dim_m - 1)


def _scale(target: float, s: float) -> float:
    """The scale lam at which lam^2 s / (1 + lam^2 s), the form both
    population R^2 take, equals ``target``."""
    if not 0.0 < target < 1.0:
        raise RootFindFailed(f"target R^2 {target} not in (0, 1)")
    return float(np.sqrt(target / ((1.0 - target) * s)))


@dataclass(frozen=True)
class S4Design:
    """One cell of the simulation grid."""

    dim_m: int
    r2_am: float       # target population R^2 of exposure on mediators
    r2_ym: float       # target population partial R^2 of outcome on mediators
    n: int = DEFAULT_N
    seed: int = 0


def design_scales(design: S4Design) -> tuple[float, float]:
    """(lam1, lam2) hitting the design's targets: with unit-scale ramps w1
    and w2, the exposure R^2 has s = w1' Sigma^-1 w1 (Sherman-Morrison) and
    the outcome R^2 s = w2' Sigma w2."""
    sigma = mediator_noise_cov(design.dim_m)
    w1, w2 = exposure_loadings(design.dim_m), outcome_loadings(design.dim_m)
    return (_scale(design.r2_am, w1 @ np.linalg.solve(sigma, w1)),
            _scale(design.r2_ym, w2 @ sigma @ w2))


def simulate_design(design: S4Design) -> MediationData:
    """Draw one dataset from the design (no covariates beyond the intercept)."""
    lam1, lam2 = design_scales(design)
    alpha1 = lam1 * exposure_loadings(design.dim_m)
    alpha2 = lam2 * outcome_loadings(design.dim_m)
    rng = np.random.default_rng(design.seed)
    a = rng.normal(size=design.n)
    chol = np.linalg.cholesky(mediator_noise_cov(design.dim_m))
    m = np.outer(a, alpha1) + rng.normal(size=(design.n, design.dim_m)) @ chol.T
    y = a + m @ alpha2 + rng.normal(size=design.n)
    return MediationData.from_arrays(y=y, a=a, m=m)


@dataclass(frozen=True)
class RVStudyRow:
    dim_m: int
    r2_am: float
    r2_ym: float
    replications: int
    rv_scalar: float
    rv_vector: float
    ratio: float
    rv_scalar_all: list = field(repr=False, default_factory=list)
    rv_vector_all: list = field(repr=False, default_factory=list)


def rv_ratio_study(designs, replications: int = 20,
                   base_seed: int = 0) -> list[RVStudyRow]:
    """Average indirect-effect robustness values (for the point estimate)
    under scalar and vector confounders, per design cell.

    The same simulated datasets feed both modes; the vector-mode
    candidates include the scalar-mode minimizers, so the vector value is
    never the larger.
    """
    if replications < 1:
        raise ValueError("replications must be at least 1")
    rows = []
    for cell, design in enumerate(designs):
        scalars, vectors = [], []
        for rep in range(replications):
            data = simulate_design(replace(design, seed=base_seed + 1000 * cell + rep))
            mm = fit_observed(data)
            scalars.append(rv_estimate_only(mm, "indirect", confounder_mode="scalar_u"))
            vectors.append(rv_estimate_only(mm, "indirect", confounder_mode="vector_u"))
        mean_s = float(np.mean(scalars))
        mean_v = float(np.mean(vectors))
        rows.append(RVStudyRow(
            dim_m=design.dim_m, r2_am=design.r2_am, r2_ym=design.r2_ym,
            replications=replications, rv_scalar=mean_s, rv_vector=mean_v,
            ratio=mean_v / mean_s if mean_s > 0 else 1.0,
            rv_scalar_all=scalars, rv_vector_all=vectors))
    return rows
