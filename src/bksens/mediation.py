"""Baron-Kenny fitting and bias-adjusted direct/indirect effects.

The observed fit residualizes (y, a, m) on the covariates once and reduces
every regression to Schur complements of the joint residual covariance;
``moments_from_cov`` is that reduction, shared with the bootstrap, which
takes its resamples' residual covariances as Schur complements of their
certified (c, a, m, y) covariances instead of least squares and reduces
them in one call over a leading resample axis (see ``inference``). The
least squares is ``_ls_residual_cov``, which also gives formal
benchmarking its exact anchors. The covariates enter centred and scaled,
so neither the fit nor its rank check depends on their location or scale.
All adjusted estimators consume :class:`MediationMoments`; with sample
moments the adjustment formulas are exact, so appending a confounder column
that realizes the stated parameters reproduces them to rounding error.

The product-method effects are written once, as a coefficient form in the
phi pairs that ``_phis`` builds from the natural parameters.
:class:`EffectObjective` is its one evaluator: the public effect functions
and every other module read estimates, bootstrap SEs, t statistics and the
effect's flip from it (``_objective`` builds one). An effect is linear in
the coefficient rows, so its bootstrap SE at a phi pair is a quadratic form
in their covariance over the resamples (``_effect_se``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BoundaryR,
    DegenerateObservedR,
    DimensionMismatch,
    InsufficientSamples,
    SingularCovariance,
)
from .linalg import (
    _flag,
    _require_kept,
    _require_pd,
    add_intercept,
    as_matrix,
    residualize,
    sample_cov,
    standardized,
    sym_inv_sqrt,
    sym_sqrt,
)

BOUNDARY_TOL = 1e-12
DEFAULT_CI_MULTIPLIER = 1.96


@dataclass(frozen=True)
class MediationData:
    """Columns for one mediation analysis.

    y : (n,) outcome; a : (n,) exposure; m : (n, q) mediators;
    c : (n, p+1) covariates with the intercept column prepended.
    Callers never supply the intercept; use :meth:`from_arrays`.
    """

    y: np.ndarray
    a: np.ndarray
    m: np.ndarray
    c: np.ndarray

    @classmethod
    def from_arrays(cls, y, a, m, c=None) -> "MediationData":
        y = np.asarray(y, dtype=float).reshape(-1)
        a = np.asarray(a, dtype=float).reshape(-1)
        m = as_matrix(m)
        n = y.size
        if a.size != n or m.shape[0] != n:
            raise DimensionMismatch("y, a and m must have the same number of rows")
        c_int = add_intercept(c, n=n)
        if c_int.shape[0] != n:
            raise DimensionMismatch("covariates must have the same number of rows")
        for name, arr in (("y", y), ("a", a), ("m", m), ("c", c_int)):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch(f"{name} contains non-finite values")
        p_user = c_int.shape[1] - 1
        q = m.shape[1]
        if n < p_user + q + 4:
            raise InsufficientSamples(
                f"need n >= p + q + 4 = {p_user + q + 4} rows, got {n}")
        return cls(y=y, a=a, m=m, c=c_int)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def q(self) -> int:
        return self.m.shape[1]

    @property
    def p_user(self) -> int:
        return self.c.shape[1] - 1

    @property
    def c_user(self) -> np.ndarray | None:
        """Covariates without the intercept column (None when empty)."""
        return self.c[:, 1:] if self.c.shape[1] > 1 else None

    def subset(self, rows) -> "MediationData":
        """Row-indexed copy (used by the bootstrap; no revalidation)."""
        return MediationData(y=self.y[rows], a=self.a[rows],
                             m=self.m[rows], c=self.c[rows])


@dataclass(frozen=True)
class NaturalSensitivity:
    """Partial-correlation sensitivity parameters in the DAG factorization.

    r_y : outcome-confounder partial correlation given (a, m, c)
    r_m : (q,) mediator-confounder R-measure given (a, c)
    r_a : exposure-confounder partial correlation given c
    """

    r_y: float
    r_m: np.ndarray
    r_a: float

    def __post_init__(self):
        object.__setattr__(self, "r_y", float(self.r_y))
        object.__setattr__(self, "r_a", float(self.r_a))
        object.__setattr__(self, "r_m", np.atleast_1d(np.asarray(self.r_m, dtype=float)))
        # written so that a NaN fails it
        if not (abs(self.r_y) < 1.0 and abs(self.r_a) < 1.0
                and np.linalg.norm(self.r_m) < 1.0):
            raise BoundaryR("sensitivity parameters must lie strictly inside the unit balls")

    @classmethod
    def zeros(cls, q: int) -> "NaturalSensitivity":
        return cls(r_y=0.0, r_m=np.zeros(q), r_a=0.0)


@dataclass(frozen=True)
class MediationMoments:
    """Observed coefficients and residual moments behind every adjuster.
    Fields after q may carry a leading resample axis: ``mm[i]`` is resample
    i's moments, and ``mm[None]`` gives a single fit an axis of one."""

    n: int
    p_user: int
    q: int
    beta1_obs: np.ndarray       # (q,) exposure coefficients in the mediator fit
    theta1_obs: float           # exposure coefficient in the outcome fit
    theta3_obs: np.ndarray      # (q,) mediator coefficients in the outcome fit
    gamma1_obs: float           # exposure coefficient without the mediators
    var_y_res_amc: float
    var_a_res_mc: float
    var_a_res_c: float
    var_y_res_ac: float
    cov_m_res_ac: np.ndarray    # (q, q)
    cov_m_res_c: np.ndarray     # (q, q)
    r_m_a_c: np.ndarray         # (q,) observed R of m ~ a given c
    r_y_m_ac: np.ndarray        # (q,) observed R of y ~ m given (a, c)
    # derived square roots, precomputed once per fit
    cov_m_res_ac_sqrt: np.ndarray = field(repr=False, default=None)
    cov_m_res_ac_inv_sqrt: np.ndarray = field(repr=False, default=None)
    mix_c_ac: np.ndarray = field(repr=False, default=None)  # cov(m|c)^{-1/2} cov(m|a,c)^{1/2}

    def __len__(self) -> int:
        return len(self.theta1_obs)

    def __getitem__(self, i) -> "MediationMoments":
        # each field indexed once, without re-running the dataclass __init__
        out = object.__new__(MediationMoments)
        src, dst = self.__dict__, out.__dict__
        dst["n"], dst["p_user"], dst["q"] = self.n, self.p_user, self.q
        for name in _RESAMPLED:
            dst[name] = src[name][i]
        return out


_RESAMPLED = tuple(f.name for f in fields(MediationMoments))[3:]  # after q


def _response(p_user: int, q: int) -> list:
    """Positions of (y, a, m) in the (c, a, m, y) column layout that every
    residual covariance is indexed by."""
    return [p_user + q + 1, p_user, *range(p_user + 1, p_user + q + 1)]


def _ls_residual_cov(data: MediationData, regressors: np.ndarray, what: str):
    """The exact path's residual covariances: ``resid_cov(keep, given)`` is
    the sample covariance of columns ``keep`` of (c, a, m, y), covariates
    standardized, after least squares on the intercept and columns ``given``.
    Column i of ``regressors`` stands for column i of that layout: the
    standardized covariates, then any standardized (a, m) regressors.

    Raises RankDeficient where a design is singular and SingularCovariance
    where a residual variance collapsed (``linalg._require_kept``).
    """
    cols = np.column_stack([regressors[:, :data.p_user], data.a, data.m, data.y])

    def resid_cov(keep, given):
        design = add_intercept(regressors[:, given], n=data.n) if given \
            else np.ones((data.n, 1))
        s = sample_cov(residualize(cols[:, keep], design))
        _require_kept(s, cols[:, keep], what)
        return s
    return resid_cov


def fit_observed(data: MediationData) -> MediationMoments:
    """Observed Baron-Kenny fit reduced to residual-covariance algebra."""
    p, q = data.p_user, data.q
    z_c = standardized(data.c_user, "covariate block") if p else np.empty((data.n, 0))
    s = _ls_residual_cov(data, z_c, "(y, a, m) given c")(_response(p, q), range(p))
    return moments_from_cov(s, data.n, p, q)


def moments_from_cov(s: np.ndarray, n: int, p_user: int, q: int,
                     margin: float = 0.0, bad=None) -> MediationMoments:
    """The fit's moments from the joint residual covariance ``s`` of
    (y, a, m) given the covariates, of shape (..., 2+q, 2+q); the moments
    carry the same leading axes.

    Raises SingularCovariance when ``s`` is numerically singular, judged on
    ``s`` scaled to unit diagonal so that the units of y, a and m do not
    matter; that test cannot tell a residual of rounding noise from a
    variable, so the caller first checks that no variance collapsed
    (``fit_observed`` with ``linalg._require_kept``, the bootstrap's Gram
    path with its certificate). A positive ``margin`` raises every
    eigenvalue threshold by ``margin`` times the largest eigenvalue
    involved, which certifies that the unmargined checks pass on any matrix
    within rounding of ``s``. A mask ``bad`` works as in ``linalg._flag``.
    """
    _require_pd(s, 1e-12 + margin, "joint residual covariance of (y, a, m) given c", bad)
    if bad is not None:  # no solve below may meet a singular matrix
        s = np.where(bad[..., None, None], np.eye(2 + q), s)

    im = slice(2, 2 + q)
    s_yy, s_ya, s_aa = s[..., 0, 0], s[..., 0, 1], s[..., 1, 1]
    s_am = s[..., 1, im]
    s_ym = s[..., 0, im]
    s_mm = s[..., im, im]

    beta1 = s_am / s_aa[..., None]
    cov_m_ac = s_mm - s_am[..., :, None] * s_am[..., None, :] / s_aa[..., None, None]
    gamma1 = s_ya / s_aa
    var_y_ac = s_yy - s_ya ** 2 / s_aa

    g_vec = s[..., 1:, 0]
    sol = np.linalg.solve(s[..., 1:, 1:], g_vec[..., None])[..., 0]
    theta1 = sol[..., 0]
    theta3 = sol[..., 1:]
    var_y_amc = s_yy - (g_vec[..., None, :] @ sol[..., :, None])[..., 0, 0]

    var_a_mc = s_aa - (s_am[..., None, :] @ np.linalg.solve(s_mm, s_am[..., None]))[..., 0, 0]
    if _flag((var_y_amc <= 0) | (var_a_mc <= 0) | (var_y_ac <= 0), bad):
        raise SingularCovariance("a residual variance collapsed to zero")

    cmc_inv_sqrt = sym_inv_sqrt(s_mm, margin, bad)
    cmac_sqrt = sym_sqrt(cov_m_ac, margin, bad)
    cmac_inv_sqrt = sym_inv_sqrt(cov_m_ac, margin, bad)
    r_m_a_c = (cmc_inv_sqrt @ s_am[..., None])[..., 0] / np.sqrt(s_aa)[..., None]
    cov_y_m_ac = s_ym - s_ya[..., None] * s_am / s_aa[..., None]
    r_y_m_ac = (cov_y_m_ac[..., None, :] @ cmac_inv_sqrt)[..., 0, :] \
        / np.sqrt(var_y_ac)[..., None]

    # [()] turns a single fit's 0-d arrays into NumPy scalars
    return MediationMoments(
        n=n, p_user=p_user, q=q,
        beta1_obs=beta1, theta1_obs=theta1[()], theta3_obs=theta3,
        gamma1_obs=gamma1[()],
        var_y_res_amc=var_y_amc[()], var_a_res_mc=var_a_mc[()],
        var_a_res_c=s_aa[()], var_y_res_ac=var_y_ac[()],
        cov_m_res_ac=cov_m_ac, cov_m_res_c=s_mm,
        r_m_a_c=r_m_a_c, r_y_m_ac=r_y_m_ac,
        cov_m_res_ac_sqrt=cmac_sqrt, cov_m_res_ac_inv_sqrt=cmac_inv_sqrt,
        mix_c_ac=cmc_inv_sqrt @ cmac_sqrt,
    )


# ---------------------------------------------------------------------------
# Coefficient form: the direct effect is affine and the indirect bilinear in a
# phi pair, with one column of coefficients per resample (B=1 for one fit).
# ---------------------------------------------------------------------------

def _phis(kind: str, r_y, r_m, r_a):
    """Natural parameters of shapes (k, B), (k, B, q), (k, B) -> the effect's
    (phi_a, phi_b) pair, of shapes (k, B, 1 or q) and (k, B, q)."""
    root_m = np.sqrt(1.0 - (r_m * r_m).sum(axis=-1))
    root_a = np.sqrt(1.0 - r_a ** 2)
    phi_b = (r_y / root_m)[..., None] * r_m
    if kind == "direct":
        return (r_y * r_a / (root_a * root_m))[..., None], phi_b
    return (r_a / root_a)[..., None] * r_m, phi_b


def _phis_at(kind: str, s: NaturalSensitivity):
    """The effect's phi pair at one setting, as a batch of one."""
    return _phis(kind, np.array([s.r_y]), s.r_m[None, :], np.array([s.r_a]))


def _direct_coeffs(m: MediationMoments) -> tuple:
    """(s0, w_a, w_b, None) with the direct effect s0 + phi_1 w_a + phi_2 w_b,
    of shapes (B,), (1, B), (q, B), from moments with a leading axis of B."""
    root = np.sqrt(1.0 - np.einsum("bi,bi->b", m.r_m_a_c, m.r_m_a_c))
    scale = np.sqrt(m.var_y_res_amc / m.var_a_res_mc)
    return (m.theta1_obs, (-root * scale)[None, :],
            scale * np.einsum("bji,bj->ib", m.mix_c_ac, m.r_m_a_c) / root, None)


def _indirect_coeffs(m: MediationMoments) -> tuple:
    """(s0, w_a, w_b, cross) with the indirect effect
    s0 + phi_a w_a + phi_b w_b + cross (phi_a . phi_b), of shapes (B,),
    (q, B), (q, B), (B,), from moments with a leading axis of B."""
    return (np.einsum("bi,bi->b", m.theta3_obs, m.beta1_obs),
            -np.einsum("bij,bj->ib", m.cov_m_res_ac_sqrt, m.theta3_obs)
            / np.sqrt(m.var_a_res_c),
            -np.sqrt(m.var_y_res_amc)
            * np.einsum("bij,bj->ib", m.cov_m_res_ac_inv_sqrt, m.beta1_obs),
            np.sqrt(m.var_y_res_amc / m.var_a_res_c))


def _effect_values(coeffs, phi_a, phi_b) -> np.ndarray:
    """(k, B) effects against B resamples' coefficients, at phi pairs of
    shapes (k, .), one pair for every resample."""
    s0, w_a, w_b, cross = coeffs
    vals = s0 + np.einsum("ki,ij->kj", phi_a, w_a) + np.einsum("ki,ij->kj", phi_b, w_b)
    if cross is not None:
        vals = vals + np.einsum("ki,ki->k", phi_a, phi_b)[:, None] * cross
    return vals


def _effect_se(kind: str, cov, phi_a, phi_b) -> np.ndarray:
    """(k,) bootstrap SEs at phi pairs of shapes (k, .): a resample's effect
    is c.f, c its coefficient rows (s0, w_a, w_b[, cross]) and f = (1, phi_a,
    phi_b[, phi_a . phi_b]), the cross term for the indirect effect, so its
    SD is sqrt(f'Cf), C the rows' covariance, clipped at zero."""
    f = [np.ones((len(phi_a), 1)), phi_a, phi_b]
    if kind == "indirect":
        f.append(np.einsum("ki,ki->k", phi_a, phi_b)[:, None])
    f = np.hstack(f)
    return np.sqrt(np.maximum(np.einsum("ki,ij,kj->k", f, cov, f), 0.0))


@dataclass
class EffectObjective:
    """One effect's coefficient form: estimates, bootstrap SEs and flipped t
    statistics at (k, .) batches of phi pairs.

    ``full`` holds the full-sample coefficients, with a trailing axis of 1,
    and ``boot``, given a plan, every resample's, with a trailing axis of B;
    ``cov`` is the ddof=1 covariance of the stacked ``boot`` rows, at most
    (2q+2) square whatever B is. ``flip`` is the sign of the observed
    effect, the form's s0, so a worst case is a minimum of flip * value.
    """

    kind: str                      # "direct" | "indirect"
    q: int
    flip: float
    full: tuple
    cov: np.ndarray | None
    boot: tuple | None = None

    @classmethod
    def for_direct(cls, mm: MediationMoments, plan) -> "EffectObjective":
        return cls._build("direct", _direct_coeffs, mm, plan)

    @classmethod
    def for_indirect(cls, mm: MediationMoments, plan) -> "EffectObjective":
        return cls._build("indirect", _indirect_coeffs, mm, plan)

    @classmethod
    def _build(cls, kind, coeffs, mm, plan) -> "EffectObjective":
        full = coeffs(mm[None])
        boot = None if plan is None else coeffs(plan.moments)
        cov = None if boot is None else np.cov(np.vstack([c for c in boot if c is not None]))
        return cls(kind=kind, q=mm.q, flip=-1.0 if full[0][0] < 0 else 1.0,
                   full=full, cov=cov, boot=boot)

    def point_estimates(self, phi_a, phi_b) -> np.ndarray:
        return _effect_values(self.full, phi_a, phi_b)[:, 0]

    def std_errs(self, phi_a, phi_b) -> np.ndarray:
        if self.cov is None:
            raise DimensionMismatch("standard errors need a bootstrap plan")
        return _effect_se(self.kind, self.cov, phi_a, phi_b)

    def t_values(self, phi_a, phi_b) -> np.ndarray:
        return self.flip * self.point_estimates(phi_a, phi_b) / self.std_errs(phi_a, phi_b)

    @property
    def observed(self) -> float:
        """The full-sample estimate with no confounding, not flipped."""
        return float(self.full[0][0])

    @property
    def zero(self) -> tuple:
        """The phi pair of no confounding, as a batch of one."""
        return (np.zeros((1, 1 if self.kind == "direct" else self.q)),
                np.zeros((1, self.q)))

    def observed_t(self) -> float:
        """The full-sample t with no confounding, times flip."""
        return float(self.t_values(*self.zero)[0])


def _check_kind(effect_kind: str) -> None:
    if effect_kind not in ("direct", "indirect"):
        raise ValueError(f"unknown effect_kind {effect_kind!r}")


def _objective(kind: str, mm: MediationMoments, plan=None) -> EffectObjective:
    """``kind``'s objective on ``mm`` and, if given, the bootstrap ``plan``."""
    return (EffectObjective.for_direct if kind == "direct"
            else EffectObjective.for_indirect)(mm, plan)


def _check_sensitivity(mm: MediationMoments, s: NaturalSensitivity) -> None:
    if s.r_m.size != mm.q:
        raise DimensionMismatch(f"r_m has {s.r_m.size} entries, expected q={mm.q}")


def _observed_r2(mm: MediationMoments) -> float:
    nr_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    if nr_hat2 >= 1.0 - BOUNDARY_TOL:
        raise DegenerateObservedR("observed mediator-exposure R has norm too close to 1")
    return nr_hat2


def _adjusted(kind: str, mm: MediationMoments, s: NaturalSensitivity) -> float:
    """One fit's effect at ``s``, evaluated through the coefficient form."""
    _check_sensitivity(mm, s)
    if kind == "direct":
        _observed_r2(mm)
    return float(_objective(kind, mm).point_estimates(*_phis_at(kind, s))[0])


def observed_indirect(mm: MediationMoments) -> float:
    """Observed product-method indirect effect: the coefficient form's s0."""
    return _objective("indirect", mm).observed


def r_aumc_from_natural(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Exposure-confounder partial correlation given (m, c), from the natural
    parameters and observed moments."""
    _check_sensitivity(mm, s)
    root_hat = np.sqrt(1.0 - _observed_r2(mm))
    root_m = np.sqrt(1.0 - float(s.r_m @ s.r_m))
    odds = (s.r_a * root_hat / np.sqrt(1.0 - s.r_a ** 2)
            - float(mm.r_m_a_c @ mm.mix_c_ac @ s.r_m) / root_hat) / root_m
    return float(odds / np.sqrt(1.0 + odds * odds))


def direct_adjusted(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Bias-adjusted direct effect at the given sensitivity parameters."""
    return _adjusted("direct", mm, s)


def adjusted_mediator_paths(mm: MediationMoments, s: NaturalSensitivity):
    """Adjusted (beta1, theta3) coefficient vectors for the product method:
    the observed ones moved along the indirect effect's phi pair."""
    _check_sensitivity(mm, s)
    phi_a, phi_b = (phi[0] for phi in _phis_at("indirect", s))
    beta1 = mm.beta1_obs - (mm.cov_m_res_ac_sqrt @ phi_a) / np.sqrt(mm.var_a_res_c)
    theta3 = mm.theta3_obs - np.sqrt(mm.var_y_res_amc) * (mm.cov_m_res_ac_inv_sqrt @ phi_b)
    return beta1, theta3


def indirect_adjusted_product(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Bias-adjusted indirect effect, product method."""
    return _adjusted("indirect", mm, s)


def r_yuac_from_natural(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Outcome-confounder partial correlation given (a, c), reconstructed
    from the natural parameters."""
    _check_sensitivity(mm, s)
    g = mm.r_y_m_ac
    nrm2 = float(s.r_m @ s.r_m)
    ng2 = float(g @ g)
    return float(np.sqrt(1.0 - nrm2) * np.sqrt(1.0 - ng2) * s.r_y + g @ s.r_m)


def indirect_adjusted_difference(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Bias-adjusted indirect effect, difference method (total minus direct)."""
    r_yuac = r_yuac_from_natural(mm, s)
    odds_a = s.r_a / np.sqrt(1.0 - s.r_a * s.r_a)
    gamma1 = mm.gamma1_obs - r_yuac * odds_a * np.sqrt(mm.var_y_res_ac / mm.var_a_res_c)
    return float(gamma1 - direct_adjusted(mm, s))


def direct_randomized(mm: MediationMoments, r_y: float, r_m) -> float:
    """Direct effect when the exposure is randomized (r_a = 0)."""
    return direct_adjusted(mm, NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=0.0))


def indirect_randomized(mm: MediationMoments, r_y: float, r_m) -> float:
    """Indirect effect when the exposure is randomized (r_a = 0): observed
    mediator slope times the adjusted outcome slopes."""
    return indirect_adjusted_product(mm, NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=0.0))


@dataclass(frozen=True)
class EffectReport:
    """Point estimate with uncertainty for one effect under one setting."""

    estimate: float
    std_err: float
    t_stat: float
    ci_lower: float
    ci_upper: float
    effect_kind: str   # "direct" | "indirect"
    method: str        # "product" | "difference" | "sample-classical"
    signs: tuple | None = None

    @classmethod
    def from_estimate(cls, estimate, std_err, effect_kind, method,
                      ci_multiplier=DEFAULT_CI_MULTIPLIER, signs=None):
        estimate = float(estimate)
        std_err = float(std_err)
        if std_err > 0:
            t = estimate / std_err
        else:
            t = 0.0 if estimate == 0.0 else np.inf * np.sign(estimate)
        return cls(estimate=estimate, std_err=std_err, t_stat=float(t),
                   ci_lower=estimate - ci_multiplier * std_err,
                   ci_upper=estimate + ci_multiplier * std_err,
                   effect_kind=effect_kind, method=method, signs=signs)


# ---------------------------------------------------------------------------
# Sample-level variant with classical (homoskedastic) standard errors.
# ---------------------------------------------------------------------------

def canonical_mediator_direction(mm: MediationMoments) -> np.ndarray:
    """Unit direction for the mediator-confounder correlation that reduces
    the vector-mediator algebra to the scalar case.

    Along this direction the mediator channel aligns with the observed
    exposure signal, so the scalar R-squared formulas are exact. For a single
    mediator the convention is +1, matching the scalar sign parameterization.
    """
    if mm.q == 1:
        return np.ones(1)
    nr_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    if nr_hat2 <= BOUNDARY_TOL:
        # no exposure signal to align with; any direction reduces exactly
        t = np.zeros(mm.q)
        t[0] = 1.0
        return t
    e_hat = mm.r_m_a_c / np.sqrt(nr_hat2)
    t = np.linalg.solve(mm.mix_c_ac, e_hat) * np.sqrt(1.0 - nr_hat2)
    return t


def _validate_r2(value: float, name: str) -> float:
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise BoundaryR(f"{name} must lie in [0, 1)")
    return value


def r2_aumc_from_r2(r2_a: float, r2_m: float, r2_ma_obs: float, s2: int) -> float:
    """Squared exposure-confounder partial correlation given (m, c) from the
    squared natural parameters, the observed mediator-exposure R-squared, and
    the relative sign s2 of the mediator-channel interaction."""
    v1 = np.sqrt(r2_a * r2_ma_obs)
    v2 = np.sqrt(r2_m * (1.0 - r2_a) * (1.0 - r2_ma_obs))
    combined = (s2 * v1 + v2) ** 2 if r2_m > 0.0 else v1 ** 2
    if combined >= 1.0 - BOUNDARY_TOL:
        raise BoundaryR("implied mediator-confounder correlation reaches the boundary")
    out = 1.0 - (1.0 - r2_a) * (1.0 - r2_m) / (1.0 - combined)
    return float(np.clip(out, 0.0, 1.0))


def _classical_se_direct(mm: MediationMoments) -> tuple[float, int]:
    """Classical SE of the observed direct effect and its residual df."""
    df = mm.n - (mm.p_user + mm.q + 2)
    se2 = (mm.n - 1) * mm.var_y_res_amc / df / ((mm.n - 1) * mm.var_a_res_mc)
    return float(np.sqrt(se2)), df


def direct_sample_classical(data: MediationData, r2_y: float, r2_m: float,
                            r2_a: float, s1: int | None = None,
                            s2: int | None = None,
                            ci_multiplier=DEFAULT_CI_MULTIPLIER) -> EffectReport:
    """Direct effect with classical standard errors at sample level.

    r2_y, r2_m, r2_a are the squared sample partial correlations of the
    confounder with outcome, mediators and exposure; s1 signs the bias of the
    direct effect and s2 the mediator-channel interaction. When a sign is
    omitted the worst case over both values is reported.
    """
    r2_y = _validate_r2(r2_y, "r2_y")
    r2_m = _validate_r2(r2_m, "r2_m")
    r2_a = _validate_r2(r2_a, "r2_a")
    if data.n < data.p_user + data.q + 4:
        raise InsufficientSamples("need n >= p + q + 4 for the df adjustment")
    mm = fit_observed(data)
    r2_ma_obs = float(mm.r_m_a_c @ mm.r_m_a_c)
    se_obs, df = _classical_se_direct(mm)
    scale = np.sqrt(mm.var_y_res_amc / mm.var_a_res_mc)

    s1_options = (s1,) if s1 is not None else (-1, 1)
    s2_options = (s2,) if s2 is not None else (-1, 1)
    flip = _objective("direct", mm).flip

    best = None
    for s2v in s2_options:
        r2_aumc = r2_aumc_from_r2(r2_a, r2_m, r2_ma_obs, s2v)
        se = se_obs * np.sqrt(df / (df - 1) * (1.0 - r2_y) / (1.0 - r2_aumc))
        bias_mag = np.sqrt(r2_y * r2_aumc / (1.0 - r2_aumc)) * scale
        for s1v in s1_options:
            est = mm.theta1_obs + s1v * bias_mag
            t = flip * est / se
            if best is None or t < best[0]:
                best = (t, est, se, (s1v, s2v))
    _, est, se, signs = best
    return EffectReport.from_estimate(est, se, "direct", "sample-classical",
                                      ci_multiplier=ci_multiplier, signs=signs)


def _indirect_sample_components(mm: MediationMoments, r2_y, r2_m, r2_a, s3, s4):
    """Adjusted path vectors and their classical covariances for the
    sample-level product method."""
    n, q = mm.n, mm.q
    t_dir = canonical_mediator_direction(mm)
    r_m = np.sqrt(r2_m) * t_dir
    r_a = -s3 * np.sqrt(r2_a)
    r_y = -s4 * np.sqrt(r2_y)
    s = NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=r_a)
    beta1_u, theta3_u = adjusted_mediator_paths(mm, s)

    df_m = n - (mm.p_user + 2)
    df_y = n - (mm.p_user + q + 2)
    root_m = mm.cov_m_res_ac_sqrt @ r_m
    cov_m_acu = mm.cov_m_res_ac - np.outer(root_m, root_m)
    var_a_cu = mm.var_a_res_c * (1.0 - r_a ** 2)
    var_y_u = mm.var_y_res_amc * (1.0 - r_y ** 2)
    # classical covariances of the adjusted coefficient vectors
    cov_beta_u = (n - 1) * cov_m_acu / (df_m - 1) / ((n - 1) * var_a_cu)
    cov_theta_u = (n - 1) * var_y_u / (df_y - 1) * np.linalg.inv((n - 1) * cov_m_acu)
    return beta1_u, theta3_u, cov_beta_u, cov_theta_u


def indirect_sample_classical(data: MediationData, r2_y: float, r2_m: float,
                              r2_a: float, s3: int | None = None,
                              s4: int | None = None,
                              ci_multiplier=DEFAULT_CI_MULTIPLIER) -> EffectReport:
    """Indirect effect (product method) with classical standard errors.

    s3 signs the bias of the mediator slope, s4 the bias of the outcome
    slope; the worst case over omitted signs is reported. The standard error
    combines the two classical covariances through the usual product rule,
    reducing to the familiar two-term formula for a single mediator.
    """
    r2_y = _validate_r2(r2_y, "r2_y")
    r2_m = _validate_r2(r2_m, "r2_m")
    r2_a = _validate_r2(r2_a, "r2_a")
    if data.n < data.p_user + data.q + 4:
        raise InsufficientSamples("need n >= p + q + 4 for the df adjustment")
    mm = fit_observed(data)
    flip = _objective("indirect", mm).flip

    s3_options = (s3,) if s3 is not None else (-1, 1)
    s4_options = (s4,) if s4 is not None else (-1, 1)
    best = None
    for s3v in s3_options:
        for s4v in s4_options:
            beta1_u, theta3_u, cov_b, cov_t = _indirect_sample_components(
                mm, r2_y, r2_m, r2_a, s3v, s4v)
            est = float(theta3_u @ beta1_u)
            se = float(np.sqrt(beta1_u @ cov_t @ beta1_u + theta3_u @ cov_b @ theta3_u))
            t = flip * est / se
            if best is None or t < best[0]:
                best = (t, est, se, (s3v, s4v))
    _, est, se, signs = best
    return EffectReport.from_estimate(est, se, "indirect", "sample-classical",
                                      ci_multiplier=ci_multiplier, signs=signs)
