"""Explicit construction of confounder columns with prescribed strengths.

Given observed columns, these routines build a new column (or block) U whose
sample partial correlations with each observed block equal prescribed values
*exactly*. The construction stacks residualized observed directions plus a
vector from the orthogonal complement of the observed column span, with
weights solved from the sequential covariance factorization. It is the
ground-truth engine behind the formula tests: a regression that includes the
constructed U reproduces whatever the bias-adjusted estimators predict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryR, InfeasibleTarget, InsufficientSamples
from .linalg import add_intercept, as_matrix, residual_cov, residualize, sym_inv_sqrt, sym_sqrt
from .mediation import NaturalSensitivity
from .ovb import cov_u_update


def _as_r_block(r, d_x: int, d_u: int, name: str) -> np.ndarray:
    r = np.asarray(r, dtype=float).reshape(d_x, d_u)
    if np.linalg.norm(r, 2) >= 1.0:
        raise BoundaryR(f"{name} must lie strictly inside the unit ball")
    return r


def construct_confounder_blocks(c, blocks, cov_u=None) -> np.ndarray:
    """Build U (n x d_u) achieving prescribed sequential R-measures.

    Parameters
    ----------
    c : (n, p) covariate block or None; the intercept is added internally.
        U is orthogonal to the span of (1, c) by construction, so its
        residual covariance given the covariates equals ``cov_u``.
    blocks : list of (X_k, R_k)
        X_k is an (n, d_k) observed block, R_k the prescribed R-measure of
        X_k with U conditional on the covariates and all earlier blocks.
    cov_u : (d_u, d_u) target covariance of U given the covariates
        (default identity).

    Returns
    -------
    (n, d_u) array U. The achieved sample R-measures equal the prescribed
    ones up to floating-point error. Raises SingularCovariance where a
    block has no residual variance (``linalg.residual_cov``).
    """
    if not blocks:
        raise InfeasibleTarget("need at least one block")
    n = as_matrix(blocks[0][0]).shape[0]
    design = add_intercept(c, n=n)
    xs = [as_matrix(x) for x, _ in blocks]
    if cov_u is None:
        d_u = np.asarray(blocks[0][1]).reshape(xs[0].shape[1], -1).shape[1]
        cov_u = np.eye(d_u)
    cov_u = np.atleast_2d(np.asarray(cov_u, dtype=float))
    d_u = cov_u.shape[0]

    rs = [_as_r_block(r, x.shape[1], d_u, f"R[{k}]")
          for k, ((_, r), x) in enumerate(zip(blocks, xs))]

    total_cols = design.shape[1] + sum(x.shape[1] for x in xs)
    if n < total_cols + d_u:
        raise InsufficientSamples(
            f"need n >= {total_cols + d_u} rows to embed a {d_u}-column confounder")

    u = np.zeros((n, d_u))
    q = cov_u.copy()
    for k, (x, r) in enumerate(zip(xs, rs)):
        w = np.linalg.eigvalsh(q)
        if w[0] <= 1e-12 * max(abs(w[-1]), 1.0):
            raise InfeasibleTarget("implied confounder covariance lost positive definiteness")
        cov_x = residual_cov(x, design, f"block {k} given c and the blocks before it")
        u = u + residualize(x, design) @ (sym_inv_sqrt(cov_x) @ r @ sym_sqrt(q))
        q = cov_u_update(q, r)
        design = np.column_stack([design, x])

    w = np.linalg.eigvalsh(q)
    if w[0] <= 1e-12 * max(abs(w[-1]), 1.0):
        raise InfeasibleTarget("no variance left for the orthogonal completion")

    # Deterministic orthogonal completion: first null-space basis vectors of
    # the observed column span under a fixed SVD factorization order, its
    # rank by scipy's null_space rule: singular values above s_max eps max(shape)
    _, sv, vh = np.linalg.svd(design.T)
    basis = vh[int(np.sum(sv > sv.max() * np.finfo(float).eps * max(design.shape))):].T
    if basis.shape[1] < d_u:
        raise InsufficientSamples("observed columns leave no orthogonal completion")
    v = basis[:, :d_u]
    u = u + v @ (np.sqrt(n - 1) * sym_sqrt(q))
    return u


@dataclass(frozen=True)
class ConfounderTarget(NaturalSensitivity):
    """Prescribed natural sensitivity strengths for a scalar confounder,
    with its residual variance given the covariates."""

    var_u_perp_c: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.var_u_perp_c > 0.0:  # written so that a NaN fails it
            raise InfeasibleTarget("var_u_perp_c must be positive")


def construct_confounder(data, target: ConfounderTarget) -> np.ndarray:
    """Single confounder column achieving the natural mediation parameters.

    The achieved sample values of (R of a~U given c, R of m~U given a,c,
    R of y~U given a,m,c) equal ``target`` exactly, as does the residual
    variance of U given the covariates.
    """
    q = data.m.shape[1]
    blocks = [
        (data.a, np.array([[target.r_a]])),
        (data.m, target.r_m.reshape(q, 1)),
        (data.y, np.array([[target.r_y]])),
    ]
    u = construct_confounder_blocks(data.c_user, blocks,
                                    cov_u=np.array([[target.var_u_perp_c]]))
    return u[:, 0]
