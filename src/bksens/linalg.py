"""Dense least-squares primitives shared by every estimator.

All routines are pure functions of ndarray inputs. Vectors may be passed as
1-D arrays; they are treated as single columns. Sample covariances use the
n-1 divisor throughout. ``_unit`` and ``_distinct`` serve the search boxes'
candidates, in robustness values and formal benchmarking alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateResponse,
    DimensionMismatch,
    NegativeEigenvalue,
    NotSymmetric,
    RankDeficient,
    SingularCovariance,
)

RANK_RTOL = 1e-10
PSD_TOL = 1e-10


def as_matrix(x) -> np.ndarray:
    """Return ``x`` as a 2-D float array, promoting 1-D input to one column."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionMismatch(f"expected 1-D or 2-D array, got ndim={x.ndim}")
    return x


def add_intercept(x: np.ndarray | None, n: int | None = None) -> np.ndarray:
    """Prepend a column of ones to ``x`` (or return just the intercept)."""
    if x is None:
        if n is None:
            raise DimensionMismatch("need n when x is None")
        return np.ones((n, 1))
    x = as_matrix(x)
    return np.column_stack([np.ones(x.shape[0]), x])


@dataclass(frozen=True)
class LsFit:
    """Sample least-squares fit: response = design @ coefficients + residuals."""

    coefficients: np.ndarray  # (d, k)
    fitted: np.ndarray        # (n, k)
    residuals: np.ndarray     # (n, k)


def _check_full_rank(design: np.ndarray, what: str = "design") -> None:
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficient(f"{what} is numerically rank deficient "
                            f"(smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e})")


def standardized(x, what: str = "design") -> np.ndarray:
    """Columns of ``x`` centred and scaled to unit sample variance.

    This is the rank check that does not depend on column location or
    scale: a column whose centred norm is at most RANK_RTOL of its raw norm
    counts as constant, and the standardized columns must have singular
    values within RANK_RTOL of each other. Raises RankDeficient otherwise.
    """
    x = as_matrix(x)
    xc = x - x.mean(axis=0)
    ss_c = (xc * xc).sum(axis=0)
    if np.any(ss_c <= RANK_RTOL ** 2 * (x * x).sum(axis=0)):
        raise RankDeficient(f"{what} has a constant column")
    z = xc / np.sqrt(ss_c / (x.shape[0] - 1))
    _check_full_rank(z, what)
    return z


def schur(s: np.ndarray, keep, given) -> np.ndarray:
    """Schur complement ``s[keep, keep] - s[keep, given] s[given, given]^-1
    s[given, keep]`` over any leading axes: the residual covariance of the
    ``keep`` columns after regressing out the ``given`` ones."""
    keep, given = list(keep), list(given)
    out = s[..., keep, :][..., keep]
    if not given:
        return out
    cross = s[..., given, :][..., keep]
    return out - np.swapaxes(cross, -1, -2) @ np.linalg.solve(
        s[..., given, :][..., given], cross)


def ols_fit(response, design) -> LsFit:
    """Least squares of ``response`` on ``design`` (no intercept added here).

    Raises RankDeficient if the design is numerically singular and
    DimensionMismatch if the row counts differ.
    """
    y = as_matrix(response)
    x = as_matrix(design)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"row counts differ: {y.shape[0]} vs {x.shape[0]}")
    _check_full_rank(x)
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    fitted = x @ coef
    return LsFit(coefficients=coef, fitted=fitted, residuals=y - fitted)


def residualize(target, controls) -> np.ndarray:
    """Residuals of ``target`` after regressing out ``controls``."""
    return ols_fit(target, controls).residuals


def sample_cov(x, y=None) -> np.ndarray:
    """Sample covariance (divisor n-1) of columns of ``x`` with columns of ``y``."""
    x = as_matrix(x)
    y = x if y is None else as_matrix(y)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch("row counts differ in sample_cov")
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    return xc.T @ yc / (n - 1)


def _check_symmetric(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        s = s.reshape(1, 1)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise NotSymmetric(f"expected square matrices, got shape {s.shape}")
    t = np.swapaxes(s, -1, -2)
    scale = np.maximum(np.abs(s).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(s - t).max(axis=(-2, -1)) > 1e-8 * scale):
        raise NotSymmetric("matrix is not symmetric")
    return 0.5 * (s + t)


def _flag(fails, bad) -> bool:
    """The checks below run over any leading axes. Without a mask ``bad``
    this returns whether any matrix ``fails``, for the caller to raise; with
    one it marks them in it and returns False, and the marked matrices hold
    unspecified values (compute under ``np.errstate``)."""
    if bad is None:
        return bool(np.any(fails))
    bad |= fails
    return False


def sym_sqrt(s, margin: float = 0.0, bad=None) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_TOL*scale, 0) are clamped to 0; anything more
    negative raises NegativeEigenvalue. A positive ``margin`` raises the
    threshold by ``margin`` times the largest eigenvalue.
    """
    s = _check_symmetric(s)
    w, v = np.linalg.eigh(s)
    top = np.abs(w[..., -1])
    if _flag(w[..., 0] < -PSD_TOL * np.maximum(top, 1.0) + margin * top, bad):
        raise NegativeEigenvalue(f"eigenvalue {np.min(w[..., 0]):.3e} below tolerance")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (root + np.swapaxes(root, -1, -2))


def sym_inv_sqrt(s, margin: float = 0.0, bad=None) -> np.ndarray:
    """Inverse symmetric square root of a positive definite matrix; the
    smallest eigenvalue must exceed (PSD_TOL + margin) times the largest."""
    s = _check_symmetric(s)
    w, v = np.linalg.eigh(s)
    scale = np.abs(w[..., -1])
    if _flag((scale == 0.0) | (w[..., 0] <= (PSD_TOL + margin) * scale), bad):
        raise SingularCovariance(f"matrix not positive definite (eigenvalues in "
                                 f"[{np.min(w[..., 0]):.3e}, {np.max(w[..., -1]):.3e}])")
    inv_root = (v / np.sqrt(w)[..., None, :]) @ np.swapaxes(v, -1, -2)
    return 0.5 * (inv_root + np.swapaxes(inv_root, -1, -2))


def _require_pd(s: np.ndarray, rtol: float, what: str, bad=None) -> None:
    """Raise SingularCovariance unless the correlation-scaled copy
    D^-1/2 s D^-1/2 (D the diagonal of ``s``) has its smallest eigenvalue
    above ``rtol`` times its largest: a test that does not depend on the
    units of the variables."""
    sd = np.sqrt(np.diagonal(s, axis1=-2, axis2=-1))
    positive = np.all(sd > 0.0, axis=-1)
    if _flag(~positive, bad):
        raise SingularCovariance(f"{what} has a variance that is not positive")
    sd = np.where(positive[..., None], sd, 1.0)
    w = np.linalg.eigvalsh(s / (sd[..., :, None] * sd[..., None, :]))
    if _flag(w[..., 0] <= rtol * w[..., -1], bad):
        raise SingularCovariance(f"{what} is numerically singular")


def _require_kept(s: np.ndarray, x, what: str) -> None:
    """Raise SingularCovariance unless each diagonal entry of the residual
    covariance ``s`` keeps more than 1e-12 of the centred variance of the
    matching column of ``x``, the columns before regression. A column that
    is numerically a linear combination of the regressors leaves rounding
    noise, which the test of ``_require_pd`` would take for a variable."""
    if np.any(np.diagonal(s) <= 1e-12 * np.var(as_matrix(x), axis=0, ddof=1)):
        raise SingularCovariance(f"{what} has a residual variance that collapsed to zero")


def r_from_cov(joint: np.ndarray, ny: int, margin: float = 0.0, bad=None) -> np.ndarray:
    """Partial-correlation matrix cov_yy^{-1/2} cov_yx cov_xx^{-1/2} from the
    joint residual covariance of (y, x), whose first ``ny`` columns are y.

    Raises SingularCovariance unless the joint covariance, scaled to unit
    diagonal, is positive definite with smallest eigenvalue above
    (PSD_TOL + margin) times the largest. The scaling hides a residual that
    is rounding noise, so the caller checks that no variance collapsed
    (``_require_kept``).
    """
    _require_pd(0.5 * (joint + np.swapaxes(joint, -1, -2)), PSD_TOL + margin,
                "joint residual covariance", bad)
    return (sym_inv_sqrt(joint[..., :ny, :ny], margin, bad) @ joint[..., :ny, ny:]
            @ sym_inv_sqrt(joint[..., ny:, ny:], margin, bad))


def r_matrix(y_cols, x_cols, z_cols) -> np.ndarray:
    """Partial-correlation matrix of y and x given z.

    Residualizes both blocks on ``z`` (which must include the intercept
    column, so the residuals are centered) and returns
    cov(y|z)^{-1/2} cov(y|z, x|z) cov(x|z)^{-1/2}. Scalar blocks give the
    usual sample partial correlation coefficient.
    """
    ry = residualize(y_cols, z_cols)
    rx = residualize(x_cols, z_cols)
    cov_yx = sample_cov(ry, rx)
    joint = np.block([[sample_cov(ry), cov_yx], [cov_yx.T, sample_cov(rx)]])
    _require_kept(joint, np.column_stack([as_matrix(y_cols), as_matrix(x_cols)]),
                  "the (y, x) block given z")
    return r_from_cov(joint, ry.shape[1])


def partial_r2(y, x_cols, z_cols) -> float:
    """Sample partial R-squared of scalar ``y`` on ``x`` given ``z``."""
    y = as_matrix(y)
    if y.shape[1] != 1:
        raise DimensionMismatch("partial_r2 expects a single response column")
    ry = residualize(y, z_cols)
    var_yz = float(sample_cov(ry)[0, 0])
    if var_yz <= PSD_TOL:
        raise DegenerateResponse("response has no residual variance given z")
    xz = np.column_stack([as_matrix(x_cols), as_matrix(z_cols)])
    ryxz = residualize(y, xz)
    var_yxz = float(sample_cov(ryxz)[0, 0])
    return float(np.clip(1.0 - var_yxz / var_yz, 0.0, 1.0))


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v|, or the first axis when v is zero."""
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else np.eye(len(v))[0]


def _distinct(rows) -> tuple:
    """Argument tuples with a leading batch axis -> one batch holding each
    row once, at its first position."""
    args = [np.concatenate(col) for col in zip(*rows)]
    flat = np.column_stack([a.reshape(len(a), -1) for a in args])
    same = (flat[:, None, :] == flat[None, :, :]).all(2)
    keep = ~np.tril(same, -1).any(1)   # no equal row before it
    return tuple(a[keep] for a in args)
