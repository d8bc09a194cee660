"""Baron-Kenny fitting and bias-adjusted direct/indirect effects.

The observed fit residualizes (y, a, m) on the covariates once and reduces
every regression to Schur complements of the joint residual covariance;
``moments_from_cov`` is that reduction, shared with the bootstrap, which
gets each resample's residual covariance from its Gram matrix instead of a
least squares (see ``inference``). The covariates enter centred and scaled,
so neither the fit nor its rank check depends on their location or scale.
All adjusted estimators consume :class:`MediationMoments`; with sample
moments the adjustment formulas are exact, so appending a confounder column
that realizes the stated parameters reproduces them to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryR,
    DegenerateObservedR,
    DimensionMismatch,
    InsufficientSamples,
    SingularCovariance,
)
from .linalg import (
    _require_kept,
    _require_pd,
    add_intercept,
    as_matrix,
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
        if (abs(self.r_y) >= 1.0 or abs(self.r_a) >= 1.0
                or np.linalg.norm(self.r_m) >= 1.0):
            raise BoundaryR("sensitivity parameters must lie strictly inside the unit balls")

    @classmethod
    def zeros(cls, q: int) -> "NaturalSensitivity":
        return cls(r_y=0.0, r_m=np.zeros(q), r_a=0.0)


@dataclass(frozen=True)
class MediationMoments:
    """Observed coefficients and residual moments behind every adjuster."""

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


def fit_observed(data: MediationData) -> MediationMoments:
    """Observed Baron-Kenny fit reduced to residual-covariance algebra."""
    design = np.ones((data.n, 1))
    if data.p_user:
        design = add_intercept(standardized(data.c_user, "covariate block"))
    resp = np.column_stack([data.y, data.a, data.m])
    coef, *_ = np.linalg.lstsq(design, resp, rcond=None)
    # joint covariance of (y, a, m) residualized on c
    s = sample_cov(resp - design @ coef)
    _require_kept(s, resp, "(y, a, m) given c")
    return moments_from_cov(s, data.n, data.p_user, data.q)


def moments_from_cov(s: np.ndarray, n: int, p_user: int, q: int,
                     margin: float = 0.0) -> MediationMoments:
    """The fit's moments from the joint residual covariance ``s`` of
    (y, a, m) given the covariates.

    Raises SingularCovariance when ``s`` is numerically singular, judged on
    ``s`` scaled to unit diagonal so that the units of y, a and m do not
    matter; that test cannot tell a residual of rounding noise from a
    variable, so the caller first checks that no variance collapsed
    (``fit_observed`` with ``linalg._require_kept``, the bootstrap's Gram
    path with its certificate). A positive ``margin`` raises every eigenvalue threshold by
    ``margin`` times the largest eigenvalue involved, which certifies that
    the unmargined checks pass on any matrix within rounding of ``s``.
    """
    _require_pd(s, 1e-12 + margin, "joint residual covariance of (y, a, m) given c")

    im = slice(2, 2 + q)
    s_yy, s_ya, s_aa = s[0, 0], s[0, 1], s[1, 1]
    s_am = s[1, im]
    s_ym = s[0, im]
    s_mm = s[im, im]

    beta1 = s_am / s_aa
    cov_m_ac = s_mm - np.outer(s_am, s_am) / s_aa
    gamma1 = s_ya / s_aa
    var_y_ac = s_yy - s_ya ** 2 / s_aa

    g_mat = s[1:, 1:]
    g_vec = s[1:, 0]
    sol = np.linalg.solve(g_mat, g_vec)
    theta1 = sol[0]
    theta3 = sol[1:]
    var_y_amc = s_yy - g_vec @ sol

    var_a_mc = s_aa - s_am @ np.linalg.solve(s_mm, s_am)
    if var_y_amc <= 0 or var_a_mc <= 0 or var_y_ac <= 0:
        raise SingularCovariance("a residual variance collapsed to zero")

    cmc_inv_sqrt = sym_inv_sqrt(s_mm, margin)
    cmac_sqrt = sym_sqrt(cov_m_ac, margin)
    cmac_inv_sqrt = sym_inv_sqrt(cov_m_ac, margin)
    r_m_a_c = cmc_inv_sqrt @ s_am / np.sqrt(s_aa)
    cov_y_m_ac = s_ym - s_ya * s_am / s_aa
    r_y_m_ac = cov_y_m_ac @ cmac_inv_sqrt / np.sqrt(var_y_ac)

    return MediationMoments(
        n=n, p_user=p_user, q=q,
        beta1_obs=beta1, theta1_obs=float(theta1), theta3_obs=theta3,
        gamma1_obs=float(gamma1),
        var_y_res_amc=float(var_y_amc), var_a_res_mc=float(var_a_mc),
        var_a_res_c=float(s_aa), var_y_res_ac=float(var_y_ac),
        cov_m_res_ac=cov_m_ac, cov_m_res_c=s_mm,
        r_m_a_c=r_m_a_c, r_y_m_ac=r_y_m_ac,
        cov_m_res_ac_sqrt=cmac_sqrt, cov_m_res_ac_inv_sqrt=cmac_inv_sqrt,
        mix_c_ac=cmc_inv_sqrt @ cmac_sqrt,
    )


def _odds(r: float) -> float:
    return r / np.sqrt(1.0 - r * r)


def observed_indirect(mm: MediationMoments) -> float:
    """Observed product-method indirect effect."""
    return float(mm.theta3_obs @ mm.beta1_obs)


def _check_sensitivity(mm: MediationMoments, s: NaturalSensitivity) -> None:
    if s.r_m.size != mm.q:
        raise DimensionMismatch(f"r_m has {s.r_m.size} entries, expected q={mm.q}")


def r_aumc_odds(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Odds form r/sqrt(1-r^2) of the exposure-confounder partial correlation
    after additionally conditioning on the mediators."""
    _check_sensitivity(mm, s)
    nr_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    if nr_hat2 >= 1.0 - BOUNDARY_TOL:
        raise DegenerateObservedR("observed mediator-exposure R has norm too close to 1")
    nrm2 = float(s.r_m @ s.r_m)
    term1 = (s.r_a * np.sqrt(1.0 - nr_hat2)
             / (np.sqrt(1.0 - s.r_a ** 2) * np.sqrt(1.0 - nrm2)))
    term2 = (float(mm.r_m_a_c @ mm.mix_c_ac @ s.r_m)
             / (np.sqrt(1.0 - nr_hat2) * np.sqrt(1.0 - nrm2)))
    return term1 - term2


def r_aumc_from_natural(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Exposure-confounder partial correlation given (m, c), from the natural
    parameters and observed moments."""
    o = r_aumc_odds(mm, s)
    return float(o / np.sqrt(1.0 + o * o))


def direct_adjusted(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Bias-adjusted direct effect at the given sensitivity parameters."""
    if s.r_y == 0.0 and s.r_a == 0.0 and not s.r_m.any():
        return mm.theta1_obs
    scale = np.sqrt(mm.var_y_res_amc / mm.var_a_res_mc)
    return mm.theta1_obs - s.r_y * r_aumc_odds(mm, s) * scale


def adjusted_mediator_paths(mm: MediationMoments, s: NaturalSensitivity):
    """Adjusted (beta1, theta3) coefficient vectors for the product method."""
    _check_sensitivity(mm, s)
    nrm2 = float(s.r_m @ s.r_m)
    beta1 = mm.beta1_obs - (_odds(s.r_a) / np.sqrt(mm.var_a_res_c)) * (mm.cov_m_res_ac_sqrt @ s.r_m)
    theta3 = mm.theta3_obs - (s.r_y * np.sqrt(mm.var_y_res_amc) / np.sqrt(1.0 - nrm2)) * (
        mm.cov_m_res_ac_inv_sqrt @ s.r_m)
    return beta1, theta3


def indirect_adjusted_product(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Bias-adjusted indirect effect, product method."""
    if s.r_y == 0.0 and s.r_a == 0.0 and not s.r_m.any():
        return observed_indirect(mm)
    beta1, theta3 = adjusted_mediator_paths(mm, s)
    return float(theta3 @ beta1)


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
    if s.r_y == 0.0 and s.r_a == 0.0 and not s.r_m.any():
        return mm.gamma1_obs - mm.theta1_obs
    r_yuac = r_yuac_from_natural(mm, s)
    gamma1 = mm.gamma1_obs - r_yuac * _odds(s.r_a) * np.sqrt(mm.var_y_res_ac / mm.var_a_res_c)
    return float(gamma1 - direct_adjusted(mm, s))


def direct_randomized(mm: MediationMoments, r_y: float, r_m) -> float:
    """Direct effect when the exposure is randomized (no exposure-confounder
    channel)."""
    r_m = np.atleast_1d(np.asarray(r_m, dtype=float))
    if abs(r_y) >= 1.0 or np.linalg.norm(r_m) >= 1.0:
        raise BoundaryR("sensitivity parameters must lie strictly inside the unit balls")
    if r_m.size != mm.q:
        raise DimensionMismatch(f"r_m has {r_m.size} entries, expected q={mm.q}")
    nr_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    if nr_hat2 >= 1.0 - BOUNDARY_TOL:
        raise DegenerateObservedR("observed mediator-exposure R has norm too close to 1")
    nrm2 = float(r_m @ r_m)
    scale = np.sqrt(mm.var_y_res_amc / mm.var_a_res_mc)
    inner = float(mm.r_m_a_c @ mm.mix_c_ac @ r_m)
    return mm.theta1_obs + r_y * scale * inner / (
        np.sqrt(1.0 - nr_hat2) * np.sqrt(1.0 - nrm2))


def indirect_randomized(mm: MediationMoments, r_y: float, r_m) -> float:
    """Indirect effect when the exposure is randomized: observed mediator
    slope times the adjusted outcome slopes."""
    s = NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=0.0)
    _, theta3 = adjusted_mediator_paths(mm, s)
    return float(theta3 @ mm.beta1_obs)


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
    flip = -1.0 if mm.theta1_obs < 0 else 1.0

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
    flip = -1.0 if observed_indirect(mm) < 0 else 1.0

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
