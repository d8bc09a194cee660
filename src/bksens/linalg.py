"""Dense least-squares primitives shared by every estimator.

All routines are pure functions of ndarray inputs. Vectors may be passed as
1-D arrays; they are treated as single columns. Sample covariances use the
n-1 divisor throughout; ``residual_cov`` holds the one degeneracy rule of
residual covariances. ``_unit`` and ``_distinct`` serve the search boxes'
candidates, and ``_grid`` checks the strength grids, in robustness values
and formal benchmarking alike.
"""

from __future__ import annotations

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


def _check_rank(sv: np.ndarray, what: str) -> None:
    """Raise RankDeficient unless singular values ``sv`` lie within RANK_RTOL."""
    if sv[0] == 0.0 or sv[-1] <= RANK_RTOL * sv[0]:
        raise RankDeficient(f"{what} is numerically rank deficient "
                            f"(smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e})")


def _centred(x: np.ndarray):
    """Columns of ``x`` centred, their squared norms, and which are
    constant: a centred norm at most RANK_RTOL of the raw norm."""
    xc = x - x.mean(axis=0)
    ss_c = (xc * xc).sum(axis=0)
    return xc, ss_c, ss_c <= RANK_RTOL ** 2 * (x * x).sum(axis=0)


def standardized(x, what: str = "design") -> np.ndarray:
    """Columns of ``x`` centred and scaled to unit sample variance.

    This is the rank check that does not depend on column location or
    scale: no column may be constant (``_centred``), and the standardized
    columns must have singular values within RANK_RTOL of each other.
    Raises RankDeficient otherwise.
    """
    x = as_matrix(x)
    xc, ss_c, constant = _centred(x)
    if np.any(constant):
        raise RankDeficient(f"{what} has a constant column")
    z = xc / np.sqrt(ss_c / (x.shape[0] - 1))
    _check_rank(np.linalg.svd(z, compute_uv=False), what)
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


def ols_fit(response, design) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of ``response`` on ``design`` (no intercept added here):
    the (d, k) coefficients and the (n, k) residuals.

    Raises RankDeficient if the design is numerically singular, judged on
    the singular values the solve computes, and DimensionMismatch if the
    row counts differ.
    """
    y = as_matrix(response)
    x = as_matrix(design)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"row counts differ: {y.shape[0]} vs {x.shape[0]}")
    coef, _, _, sv = np.linalg.lstsq(x, y, rcond=None)
    _check_rank(sv, "design")
    return coef, y - x @ coef


def residualize(target, controls) -> np.ndarray:
    """Residuals of ``target`` after regressing out ``controls``."""
    return ols_fit(target, controls)[1]


def sample_cov(x) -> np.ndarray:
    """Sample covariance (divisor n-1) of the columns of ``x``. The product
    is of two centred copies: numpy evaluates ``xc.T @ xc`` as a symmetric
    rank-k update, which rounds differently."""
    x = as_matrix(x)
    xc = x - x.mean(axis=0)
    return xc.T @ (x - x.mean(axis=0)) / (x.shape[0] - 1)


def residual_cov(x, design, what: str) -> np.ndarray:
    """Sample covariance of the residuals of ``x`` after least squares on
    ``design`` (with the intercept column), under the one degeneracy rule
    that the bootstrap's Gram certificate mirrors: SingularCovariance where
    a column of ``x`` is constant (``_centred``) or keeps at most 1e-12 of
    its centred variance. Either leaves a residual of rounding noise, which
    the unit-free tests of ``_require_pd`` would take for a variable."""
    x = as_matrix(x)
    s = sample_cov(residualize(x, design))
    _, ss_c, constant = _centred(x)
    if np.any(constant):
        raise SingularCovariance(f"{what} has a constant column")
    if np.any(np.diagonal(s) <= 1e-12 * ss_c / (x.shape[0] - 1)):
        raise SingularCovariance(f"{what} has a residual variance that collapsed to zero")
    return s


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


def r_from_cov(joint: np.ndarray, ny: int, margin: float = 0.0, bad=None) -> np.ndarray:
    """Partial-correlation matrix cov_yy^{-1/2} cov_yx cov_xx^{-1/2} from the
    joint residual covariance of (y, x), whose first ``ny`` columns are y.

    Raises SingularCovariance unless the joint covariance, scaled to unit
    diagonal, is positive definite with smallest eigenvalue above
    (PSD_TOL + margin) times the largest. The scaling hides a residual that
    is rounding noise, so the caller checks that no variance collapsed:
    ``residual_cov`` on the exact path, the Gram certificate on the
    bootstrap's.
    """
    _require_pd(0.5 * (joint + np.swapaxes(joint, -1, -2)), PSD_TOL + margin,
                "joint residual covariance", bad)
    return (sym_inv_sqrt(joint[..., :ny, :ny], margin, bad) @ joint[..., :ny, ny:]
            @ sym_inv_sqrt(joint[..., ny:, ny:], margin, bad))


def r_matrix(y_cols, x_cols, z_cols) -> np.ndarray:
    """Partial-correlation matrix of y and x given z.

    Residualizes the stacked (y, x) block on ``z`` (which must include the
    intercept column) and returns cov(y|z)^{-1/2} cov(y|z, x|z)
    cov(x|z)^{-1/2}. Scalar blocks give the usual sample partial
    correlation coefficient. Raises SingularCovariance where a column of
    either block has no residual variance (``residual_cov``).
    """
    y = as_matrix(y_cols)
    joint = residual_cov(np.column_stack([y, as_matrix(x_cols)]), z_cols,
                         "the (y, x) block given z")
    return r_from_cov(joint, y.shape[1])


def partial_r2(y, x_cols, z_cols) -> float:
    """Sample partial R-squared of scalar ``y`` on ``x`` given ``z``: the
    squared norm of their R-measure (``r_matrix``). Raises
    DegenerateResponse where ``y`` has no residual variance given ``z``."""
    y = as_matrix(y)
    if y.shape[1] != 1:
        raise DimensionMismatch("partial_r2 expects a single response column")
    try:
        residual_cov(y, z_cols, "response given z")
    except SingularCovariance as exc:
        raise DegenerateResponse(str(exc)) from exc
    return float(np.clip(np.sum(r_matrix(y, x_cols, z_cols) ** 2), 0.0, 1.0))


def _grid(values, name: str, hi: float) -> list[float]:
    """``values`` as floats, which must be a nonempty, strictly increasing
    grid inside (0, hi): rho's (hi = 1) or delta's (hi = inf)."""
    grid = [float(v) for v in values]
    if not grid or any(not 0.0 < v < hi for v in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be nonempty, finite, strictly increasing "
                         f"and inside (0, {hi:g})")
    return grid


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
