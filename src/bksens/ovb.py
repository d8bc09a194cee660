"""Omitted-variable bias adjusters for least squares with vector responses.

Given the short-regression coefficient of the exposure block and the two
residual covariances, these functions return the long-regression coefficient
implied by partial-correlation sensitivity parameters for a scalar or vector
unmeasured confounder. With sample moments the formulas are exact identities,
not approximations: appending a confounder column that realizes the stated
R parameters reproduces the adjusted coefficient bit-for-bit up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryR, ConfounderCovarianceDegenerate, DimensionMismatch
from .linalg import PSD_TOL, add_intercept, as_matrix, ols_fit, residual_cov, sym_inv_sqrt, sym_sqrt
from .mediation import BOUNDARY_TOL


@dataclass(frozen=True)
class OvbMoments:
    """Observed moments consumed by the adjusters.

    theta_obs : (d_y, d_a) short-regression coefficient of the exposure block
    cov_y_res : covariance of the outcome residuals given (exposure, controls)
    cov_a_res : covariance of the exposure residuals given controls
    """

    theta_obs: np.ndarray
    cov_y_res: np.ndarray
    cov_a_res: np.ndarray


def ovb_moments(y, a, c=None) -> OvbMoments:
    """Compute :class:`OvbMoments` from raw columns.

    ``c`` is the covariate block without the intercept; the intercept is
    always added internally. Raises SingularCovariance where the outcome or
    exposure has no residual variance (``linalg.residual_cov``).
    """
    y = as_matrix(y)
    a = as_matrix(a)
    c_int = add_intercept(c, n=y.shape[0])
    ac = np.column_stack([a, c_int])
    theta_obs = ols_fit(y, ac)[0][: a.shape[1], :].T  # (d_y, d_a)
    cov_y_res = residual_cov(y, ac, "outcome given exposure and controls")
    cov_a_res = residual_cov(a, c_int, "exposure given controls")
    return OvbMoments(theta_obs=theta_obs, cov_y_res=cov_y_res, cov_a_res=cov_a_res)


def _spectral_norm(r: np.ndarray) -> float:
    return float(np.linalg.norm(r, 2)) if r.size else 0.0


def _check_open_ball(r: np.ndarray, name: str) -> None:
    if _spectral_norm(r) >= 1.0 - BOUNDARY_TOL:
        raise BoundaryR(f"{name} has spectral norm >= 1")


def adjust_scalar_u(m: OvbMoments, r_y_u, r_a_u) -> np.ndarray:
    """Long-regression coefficient under a scalar confounder: the d_u = 1
    case of :func:`adjust_vector_u`.

    r_y_u : (d_y,) partial correlations of the outcome block with u given
        (exposure, controls)
    r_a_u : (d_a,) partial correlations of the exposure block with u given
        controls
    """
    return adjust_vector_u(m, np.reshape(r_y_u, (-1, 1)), np.reshape(r_a_u, (-1, 1)))


def cov_u_update(cov_u, r) -> np.ndarray:
    """Residual covariance of u after additionally conditioning on a block
    whose R-measure against u is ``r`` (d x d_u)."""
    cov_u = np.asarray(cov_u, dtype=float)
    if cov_u.ndim == 0:
        cov_u = cov_u.reshape(1, 1)
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if r.shape[1] != cov_u.shape[0]:
        raise DimensionMismatch(f"r has {r.shape[1]} columns, cov_u is {cov_u.shape[0]}x{cov_u.shape[0]}")
    _check_open_ball(r, "r")
    root = sym_sqrt(cov_u)
    out = cov_u - root @ r.T @ r @ root
    return 0.5 * (out + out.T)


def adjust_vector_u(m: OvbMoments, r_y_u, r_a_u, cov_u_perp_c=None) -> np.ndarray:
    """Long-regression coefficient under a vector confounder.

    r_y_u : (d_y, d_u) R-measure of the outcome block with u given
        (exposure, controls)
    r_a_u : (d_a, d_u) R-measure of the exposure block with u given controls
    cov_u_perp_c : (d_u, d_u) covariance of u residualized on controls;
        defaults to the identity.
    """
    r_y_u = np.atleast_2d(np.asarray(r_y_u, dtype=float))
    r_a_u = np.atleast_2d(np.asarray(r_a_u, dtype=float))
    theta = np.asarray(m.theta_obs, dtype=float)
    d_u = r_y_u.shape[1]
    if r_a_u.shape[1] != d_u:
        raise DimensionMismatch("r_y_u and r_a_u disagree on dim(u)")
    if theta.shape != (r_y_u.shape[0], r_a_u.shape[0]):
        raise DimensionMismatch("theta_obs shape does not match r_y_u/r_a_u")
    if cov_u_perp_c is None:
        cov_u_perp_c = np.eye(d_u)
    cov_u_perp_c = np.atleast_2d(np.asarray(cov_u_perp_c, dtype=float))
    _check_open_ball(r_y_u, "r_y_u")
    _check_open_ball(r_a_u, "r_a_u")
    if not r_y_u.any():
        return theta.copy()
    cov_u_ac = cov_u_update(cov_u_perp_c, r_a_u)
    w = np.linalg.eigvalsh(cov_u_ac)
    if w[0] <= PSD_TOL * max(abs(w[-1]), 1.0):
        raise ConfounderCovarianceDegenerate(
            "cov(u | exposure, controls) is not positive definite")
    bias = (sym_sqrt(m.cov_y_res) @ r_y_u @ sym_inv_sqrt(cov_u_ac)
            @ sym_sqrt(cov_u_perp_c) @ r_a_u.T @ sym_inv_sqrt(m.cov_a_res))
    return theta - bias
