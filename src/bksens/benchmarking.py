"""Formal benchmarking: bound the confounder against an observed covariate.

The confounder's strengths are capped at multiples (k ratios) of the observed
strengths of one covariate, measured after leaving that covariate out. The
leave-one-out parameters convert exactly to the natural sensitivity
parameters given observed moments, so worst-case estimates and t statistics
are global minimizations over a small box, sharing the optimizer and the
common-random-numbers bootstrap with the robustness-value machinery.

The anchors come from residual covariances of (c, a, m, y) on leave-j
blocks, with the covariates standardized, so they do not depend on the
covariates' location or scale. ``benchmark_moments`` computes them by least
squares on the data; ``prepare_benchmark_stacks`` takes them as Schur
complements of the Gram matrix the bootstrap plan stores for each resample,
and falls back to ``benchmark_moments`` on the resample's rows wherever the
plan fitted the resample exactly or an anchor check does not clear its
threshold by GRAM_MARGIN, so a resample raises exactly when
``benchmark_moments`` would. Both feed the same anchor algebra.

The search is batched: the conversion and both estimators take k candidates
against stacks with a leading resample axis (B=1 for the full sample) and
return (k, B) arrays, so each optimizer sweep costs one objective call. The
per-resample stacks, the full-sample fit, anchors and B=1 stack are built
once per covariate by ``prepare_benchmark_stacks`` and passed to
``benchmark_worst`` and ``critical_delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryR,
    DegenerateAnchor,
    DimensionMismatch,
    NegativeEigenvalue,
    SingularCovariance,
)
from .inference import GRAM_MARGIN, BootstrapPlan
from .linalg import (
    add_intercept,
    r_from_cov,
    residualize,
    sample_cov,
    schur,
    standardized,
    sym_inv_sqrt,
    sym_sqrt,
)
from .mediation import (
    MediationData,
    MediationMoments,
    NaturalSensitivity,
    fit_observed,
    observed_indirect,
)
from .optimize import direct_optimize
from .robustness import _angle_bounds, _sphere_from_angles

ANCHOR_TOL = 1e-12
R_CLAMP = 1.0 - 1e-9


@dataclass(frozen=True)
class BenchmarkSpec:
    """Caps on the confounder-to-covariate strength ratios."""

    j: int                     # index into the user covariates (0-based)
    k_a_bound: float = 1.0
    k_m_bound: float = 1.0
    k_y_bound: float = 1.0

    def __post_init__(self):
        if min(self.k_a_bound, self.k_m_bound, self.k_y_bound) < 0:
            raise ValueError("k bounds must be nonnegative")


@dataclass(frozen=True)
class BenchmarkMoments:
    """Observed anchors for one covariate: its partial correlations with
    exposure, mediators and outcome, plus the covariance mixing block."""

    j: int
    r_a_cj: float             # R of a ~ c_j given c_-j
    r_m_cj: np.ndarray        # (q,) R of m ~ c_j given (a, c_-j)
    r_y_cj: float             # R of y ~ c_j given (a, m, c_-j)
    mix_leave_j: np.ndarray   # cov(m|a,c)^{-1/2} cov(m|a,c_-j)^{1/2}
    reference_r2: dict


def _leave_j_anchors(resid_cov, j: int, p: int, q: int,
                     margin: float = 0.0) -> BenchmarkMoments:
    """Anchors for covariate ``j`` from residual covariances on leave-j
    blocks: ``resid_cov(keep, given)`` is the covariance of columns ``keep``
    of (c, a, m, y) after regressing out columns ``given`` (and the
    intercept).

    Raises SingularCovariance (or NegativeEigenvalue) where a block is
    numerically singular; a positive ``margin`` raises every eigenvalue
    threshold by ``margin`` times the largest eigenvalue involved.
    """
    cj, a, y = [j], [p], [p + q + 1]
    m = list(range(p + 1, p + q + 1))
    c_minus = [i for i in range(p) if i != j]
    r_a_cj = float(r_from_cov(resid_cov(a + cj, c_minus), 1, margin)[0, 0])
    t_m = resid_cov(m + cj, a + c_minus)
    r_m_cj = r_from_cov(t_m, q, margin)[:, 0]
    r_y_cj = float(r_from_cov(resid_cov(y + cj, a + m + c_minus), 1, margin)[0, 0])
    cov_m_ac = resid_cov(m, a + list(range(p)))
    mix = sym_inv_sqrt(cov_m_ac, margin) @ sym_sqrt(t_m[:q, :q], margin)
    return BenchmarkMoments(
        j=j, r_a_cj=r_a_cj, r_m_cj=r_m_cj, r_y_cj=r_y_cj, mix_leave_j=mix,
        reference_r2={
            "r2_a_cj": r_a_cj ** 2,
            "r2_m_cj": float(r_m_cj @ r_m_cj),
            "r2_y_cj": r_y_cj ** 2,
        },
    )


def benchmark_moments(data: MediationData, j: int) -> BenchmarkMoments:
    """Observed anchors for covariate ``j`` computed from the data.

    The covariates enter centred and scaled to unit variance, and every
    regressor is standardized, so neither the anchors nor the rank checks
    depend on the covariates' location or scale.
    """
    p, q = data.p_user, data.q
    if not 0 <= j < p:
        raise DimensionMismatch(f"covariate index {j} out of range (p={p})")
    z = standardized(np.column_stack([data.a, data.m, data.c_user]),
                     "the (exposure, mediators, covariates) design")
    z_c = z[:, q + 1:]
    cols = np.column_stack([z_c, data.a, data.m, data.y])
    regressors = np.column_stack([z_c, z[:, :q + 1]])

    def resid_cov(keep, given):
        design = add_intercept(regressors[:, given], n=data.n) if given \
            else np.ones((data.n, 1))
        return sample_cov(residualize(cols[:, keep], design))

    return _leave_j_anchors(resid_cov, j, p, q)


@dataclass(frozen=True)
class _Anchors:
    """One covariate's anchors over a leading resample axis (B=1 for the full
    sample), with the conversion's anchor-only denominators."""

    a: np.ndarray             # (B,)
    m: np.ndarray             # (B, q)
    y: np.ndarray             # (B,)
    mix: np.ndarray           # (B, q, q)
    den_a2: np.ndarray        # (B,) 1 - r_a_cj^2
    nm_cj2: np.ndarray        # (B,) |r_m_cj|^2
    den_y2: np.ndarray        # (B,) 1 - r_y_cj^2


def _anchors(bms) -> _Anchors:
    """Stack the anchors of ``bms``; raises DegenerateAnchor once here rather
    than on every conversion."""
    a = np.array([b.r_a_cj for b in bms])
    m = np.vstack([b.r_m_cj for b in bms])
    y = np.array([b.r_y_cj for b in bms])
    den_a2 = 1.0 - a ** 2
    nm_cj2 = (m * m).sum(axis=-1)
    den_y2 = 1.0 - y ** 2
    if (den_a2 <= ANCHOR_TOL).any() or (1.0 - nm_cj2 <= ANCHOR_TOL).any() \
            or (den_y2 <= ANCHOR_TOL).any():
        raise DegenerateAnchor("an observed anchor is numerically on the unit sphere")
    return _Anchors(a=a, m=m, y=y, mix=np.stack([b.mix_leave_j for b in bms]),
                    den_a2=den_a2, nm_cj2=nm_cj2, den_y2=den_y2)


def _convert_leave_j(anc: _Anchors, r_a_lj, r_m_lj, r_y_lj):
    """Leave-one-covariate-out parameters -> natural parameters.

    Takes k candidates of shapes (k,), (k, q), (k,) and returns (r_y, r_m,
    r_a) of shapes (k, B), (k, B, q), (k, B) plus a (k,) feasibility mask. A
    candidate is infeasible when, on any resample, an intermediate quantity
    leaves its open ball; a NaN passes these tests. Infeasible rows hold
    unspecified values, so call under ``np.errstate``.
    """
    nm_lj2 = np.matmul(r_m_lj[:, None, :], r_m_lj[:, :, None])[:, 0, 0]
    ra = r_a_lj[:, None]
    r_cj_u_ac = -(anc.a * ra) / np.sqrt((1.0 - ra ** 2) * anc.den_a2)
    r_a_nat = ra / np.sqrt(anc.den_a2)
    num_m = r_m_lj[:, None, :] - anc.m * r_cj_u_ac[..., None]
    r_m_nat = np.einsum("bij,kbj->kbi", anc.mix, num_m) \
        / np.sqrt(1.0 - r_cj_u_ac ** 2)[..., None]
    r_cj_u_amc = (r_cj_u_ac - np.matmul(anc.m, r_m_lj[:, :, None])[..., 0]) \
        / np.sqrt((1.0 - anc.nm_cj2) * (1.0 - nm_lj2[:, None]))
    r_y_nat = (r_y_lj[:, None] - anc.y * r_cj_u_amc) / np.sqrt(
        anc.den_y2 * (1.0 - r_cj_u_amc ** 2))
    outside = ((np.abs(r_cj_u_ac) >= R_CLAMP) | (np.abs(r_a_nat) >= R_CLAMP)
               | ((r_m_nat * r_m_nat).sum(axis=-1) >= R_CLAMP ** 2)
               | (np.abs(r_cj_u_amc) >= R_CLAMP) | (np.abs(r_y_nat) >= R_CLAMP))
    ok = ~(outside.any(axis=-1) | (np.abs(r_a_lj) >= 1.0)
           | (np.abs(r_y_lj) >= 1.0) | (np.sqrt(nm_lj2) >= 1.0))
    return r_y_nat, r_m_nat, r_a_nat, ok


def _as_batch(triples):
    """(r_a, r_m, r_y) leave-j triples -> (k,), (k, q), (k,) arrays."""
    return (np.array([t[0] for t in triples], dtype=float),
            np.stack([np.atleast_1d(np.asarray(t[1], dtype=float)) for t in triples]),
            np.array([t[2] for t in triples], dtype=float))


def _natural(anc: _Anchors, params) -> NaturalSensitivity:
    with np.errstate(invalid="ignore", divide="ignore"):
        r_y, r_m, r_a, ok = _convert_leave_j(anc, *_as_batch([params]))
    if not ok[0]:
        raise BoundaryR("leave-one-out parameters map outside the feasible region")
    return NaturalSensitivity(r_y=float(r_y[0, 0]), r_m=r_m[0, 0], r_a=float(r_a[0, 0]))


def natural_from_benchmark(bm: BenchmarkMoments, r_a_leave_j: float,
                           r_m_leave_j, r_y_leave_j: float) -> NaturalSensitivity:
    """Map prescribed leave-one-out parameters to the natural triple."""
    return _natural(_anchors([bm]), (r_a_leave_j, r_m_leave_j, r_y_leave_j))


# ---------------------------------------------------------------------------
# Natural-parameter estimators, batched over candidates and resamples.
# ---------------------------------------------------------------------------

@dataclass
class _ResampleStacks:
    """Per-resample moments and anchors used inside the worst-case search."""

    theta1: np.ndarray        # (B,)
    scale_direct: np.ndarray  # (B,)
    rhat: np.ndarray          # (B, q)
    mix_c_ac: np.ndarray      # (B, q, q)
    beta1: np.ndarray         # (B, q)
    theta3: np.ndarray        # (B, q)
    cmac_sqrt: np.ndarray     # (B, q, q)
    cmac_inv_sqrt: np.ndarray  # (B, q, q)
    sd_ac: np.ndarray         # (B,)
    sd_y_amc: np.ndarray      # (B,)
    anchors: _Anchors
    full_sample: "_FullSample | None" = None


@dataclass(frozen=True)
class _FullSample:
    """Full-sample fit, anchors and B=1 stack for one covariate."""

    mm: MediationMoments
    bm: BenchmarkMoments
    stack: _ResampleStacks


def _full_sample(data: MediationData, j: int) -> _ResampleStacks:
    """The B=1 full-sample stack, carrying its own ``full_sample``."""
    mm = fit_observed(data)
    bm = benchmark_moments(data, j)
    stack = _stack_for([mm], [bm])
    stack.full_sample = _FullSample(mm=mm, bm=bm, stack=stack)
    return stack


def _stack_for(moments, bms) -> _ResampleStacks:
    """Stack paired observed fits and benchmark anchors (one pair per
    resample, or the single full-sample pair)."""
    return _ResampleStacks(
        theta1=np.array([m.theta1_obs for m in moments]),
        scale_direct=np.array([np.sqrt(m.var_y_res_amc / m.var_a_res_mc)
                               for m in moments]),
        rhat=np.vstack([m.r_m_a_c for m in moments]),
        mix_c_ac=np.stack([m.mix_c_ac for m in moments]),
        beta1=np.vstack([m.beta1_obs for m in moments]),
        theta3=np.vstack([m.theta3_obs for m in moments]),
        cmac_sqrt=np.stack([m.cov_m_res_ac_sqrt for m in moments]),
        cmac_inv_sqrt=np.stack([m.cov_m_res_ac_inv_sqrt for m in moments]),
        sd_ac=np.array([np.sqrt(m.var_a_res_c) for m in moments]),
        sd_y_amc=np.array([np.sqrt(m.var_y_res_amc) for m in moments]),
        anchors=_anchors(bms),
    )


def _direct_estimates(st: _ResampleStacks, r_y, r_m, r_a) -> np.ndarray:
    """(k, B) direct effects at natural parameters of shapes (k, B),
    (k, B, q), (k, B)."""
    nr_hat2 = (st.rhat * st.rhat).sum(axis=-1)
    nrm2 = (r_m * r_m).sum(axis=-1)
    term1 = r_a * np.sqrt(1.0 - nr_hat2) / np.sqrt((1.0 - r_a ** 2) * (1.0 - nrm2))
    inner = np.einsum("bi,bij,kbj->kb", st.rhat, st.mix_c_ac, r_m)
    term2 = inner / np.sqrt((1.0 - nr_hat2) * (1.0 - nrm2))
    return st.theta1 - r_y * (term1 - term2) * st.scale_direct


def _indirect_estimates(st: _ResampleStacks, r_y, r_m, r_a) -> np.ndarray:
    """(k, B) indirect effects, shapes as in ``_direct_estimates``."""
    nrm2 = (r_m * r_m).sum(axis=-1)
    odds_a = r_a / np.sqrt(1.0 - r_a ** 2)
    beta_u = st.beta1 - odds_a[..., None] * np.einsum(
        "bij,kbj->kbi", st.cmac_sqrt, r_m) / st.sd_ac[:, None]
    theta_u = st.theta3 - (r_y * st.sd_y_amc / np.sqrt(1.0 - nrm2))[..., None] \
        * np.einsum("bij,kbj->kbi", st.cmac_inv_sqrt, r_m)
    return np.einsum("kbi,kbi->kb", theta_u, beta_u)


def _values_fn(full: _ResampleStacks, stacks: _ResampleStacks | None,
               estimates, flip: float):
    """Batched search objective over k leave-j candidates: flip * estimate,
    or flip * t when resample stacks are given; ``inf`` where infeasible."""
    def values(r_a_lj, r_m_lj, r_y_lj) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            *conv, ok = _convert_leave_j(full.anchors, r_a_lj, r_m_lj, r_y_lj)
            vals = flip * estimates(full, *conv)[:, 0]
            if stacks is not None:
                *conv, ok_b = _convert_leave_j(stacks.anchors, r_a_lj, r_m_lj,
                                               r_y_lj)
                vals = vals / estimates(stacks, *conv).std(axis=-1, ddof=1)
                ok &= ok_b
        return np.where(ok, vals, np.inf)
    return values


@dataclass(frozen=True)
class WorstCase:
    value: float
    t_stat: float | None
    leave_j: dict
    natural: NaturalSensitivity
    k_ratios: dict


@dataclass(frozen=True)
class BenchmarkResult:
    worst_estimate: WorstCase
    worst_t: WorstCase | None
    observed_estimate: float
    observed_t: float | None
    spec: BenchmarkSpec


def _radii(bm: BenchmarkMoments, spec: BenchmarkSpec) -> tuple[float, float, float]:
    ra = min(np.sqrt(spec.k_a_bound) * abs(bm.r_a_cj), 0.999)
    rm = min(np.sqrt(spec.k_m_bound) * float(np.linalg.norm(bm.r_m_cj)), 0.999)
    ry = min(np.sqrt(spec.k_y_bound) * abs(bm.r_y_cj), 0.999)
    return ra, rm, ry


def _worst_search(values, bm: BenchmarkMoments, spec: BenchmarkSpec, q: int,
                  budget: int):
    """Minimize the batched ``values`` over the capped leave-one-out box;
    returns (value, argmin leave-j triple)."""
    ra_rad, rm_rad, ry_rad = _radii(bm, spec)

    # box: scalar leave-j parameters plus a ball for the mediator block
    lo, hi = [], []
    has_a, has_m, has_y = ra_rad > 0, rm_rad > 0, ry_rad > 0
    if has_a:
        lo.append(-ra_rad); hi.append(ra_rad)
    if has_m:
        if q == 1:
            lo.append(-rm_rad); hi.append(rm_rad)
        else:
            lo.append(0.0); hi.append(rm_rad)
            alo, ahi = _angle_bounds(q)
            lo += alo; hi += ahi
    if has_y:
        lo.append(-ry_rad); hi.append(ry_rad)

    def unpack(x):
        """(k, d) box points -> (k,), (k, q), (k,) leave-j candidates."""
        k = x.shape[0]
        col = 0
        r_a_lj, r_m_lj, r_y_lj = np.zeros(k), np.zeros((k, q)), np.zeros(k)
        if has_a:
            r_a_lj = x[:, col]; col += 1
        if has_m:
            if q == 1:
                r_m_lj = x[:, col:col + 1]; col += 1
            else:
                r_m_lj = x[:, col, None] * _sphere_from_angles(x[:, col + 1:col + q])
                col += q
        if has_y:
            r_y_lj = x[:, col]
        return r_a_lj, r_m_lj, r_y_lj

    # candidates in order: zero, the DIRECT optimum, then a deterministic
    # corner sweep over the scalar channels; the first strict minimum wins
    cands = [(0.0, np.zeros(q), 0.0)]
    if lo:
        res = direct_optimize(lambda x: values(*unpack(x)), np.array(lo),
                              np.array(hi), budget=budget, vectorized=True)
        r_a_lj, r_m_lj, r_y_lj = unpack(res.x[None, :])
        cands.append((float(r_a_lj[0]), r_m_lj[0], float(r_y_lj[0])))
        m_dirs = [np.zeros(q)]
        if has_m:
            nv = np.linalg.norm(bm.r_m_cj)
            base_dir = bm.r_m_cj / nv if nv > 0 else np.eye(q)[0]
            m_dirs += [rm_rad * base_dir, -rm_rad * base_dir]
        for sa in ((-ra_rad, 0.0, ra_rad) if has_a else (0.0,)):
            for sy in ((-ry_rad, 0.0, ry_rad) if has_y else (0.0,)):
                for dm in m_dirs:
                    cands.append((sa, dm, sy))
    vals = values(*_as_batch(cands))
    best = 0
    for i in range(1, len(cands)):
        if vals[i] < vals[best]:
            best = i
    return float(vals[best]), cands[best]


def _k_ratios(bm: BenchmarkMoments, params) -> dict:
    r_a_lj, r_m_lj, r_y_lj = params

    def ratio(num, den):
        return float(num / den) if den > 0 else 0.0

    return {
        "k_a": ratio(r_a_lj ** 2, bm.r_a_cj ** 2),
        "k_m": ratio(float(r_m_lj @ r_m_lj), float(bm.r_m_cj @ bm.r_m_cj)),
        "k_y": ratio(r_y_lj ** 2, bm.r_y_cj ** 2),
    }


def prepare_benchmark_stacks(data: MediationData, j: int,
                             plan: BootstrapPlan) -> _ResampleStacks:
    """Per-resample anchors and moments for covariate ``j``, with the
    full-sample fit, anchors and stack attached; reusable across worst-case
    searches on the same plan (delta sweeps in particular).

    Each resample's residual covariances are Schur complements of the
    covariance its plan Gram gives. Resamples the plan fitted exactly, and
    any whose anchor checks do not clear their thresholds by GRAM_MARGIN,
    take ``benchmark_moments`` on their rows instead.
    """
    full_sample = _full_sample(data, j).full_sample
    cov = None if plan.exact.all() else plan.basis.covariances(plan.grams)[0]
    bms = []
    for i, idx in enumerate(plan.indices):
        bm = None
        if not plan.exact[i]:
            cov_i = cov[i]
            try:
                bm = _leave_j_anchors(lambda keep, given: schur(cov_i, keep, given),
                                      j, data.p_user, data.q, margin=GRAM_MARGIN)
            except (SingularCovariance, NegativeEigenvalue):
                pass
        bms.append(benchmark_moments(data.subset(idx), j) if bm is None else bm)
    stacks = _stack_for(plan.moments, bms)
    stacks.full_sample = full_sample
    return stacks


def benchmark_worst(data: MediationData, spec: BenchmarkSpec,
                    plan: BootstrapPlan | None = None,
                    effect_kind: str = "direct",
                    budget: int = 1500, stacks=None) -> BenchmarkResult:
    """Worst point estimate (and worst t, when a plan is given) under the
    benchmark caps for one covariate.

    ``stacks`` from ``prepare_benchmark_stacks`` on the same plan skip
    rebuilding the resample stacks and refitting the full sample.
    """
    if effect_kind not in ("direct", "indirect"):
        raise ValueError(f"unknown effect_kind {effect_kind!r}")
    if plan is not None and stacks is None:
        stacks = prepare_benchmark_stacks(data, spec.j, plan)
    fs = (_full_sample(data, spec.j) if stacks is None else stacks).full_sample
    mm, bm, full = fs.mm, fs.bm, fs.stack
    estimates = _direct_estimates if effect_kind == "direct" else _indirect_estimates
    observed = mm.theta1_obs if effect_kind == "direct" else observed_indirect(mm)
    flip = -1.0 if observed < 0 else 1.0

    def worst_case(params, value, t_stat):
        return WorstCase(
            value=value, t_stat=t_stat, natural=_natural(full.anchors, params),
            leave_j={"r_a": params[0], "r_m": params[1].tolist(), "r_y": params[2]},
            k_ratios=_k_ratios(bm, params))

    values_e = _values_fn(full, None, estimates, flip)
    val_e, params_e = _worst_search(values_e, bm, spec, mm.q, budget)
    worst_est = worst_case(params_e, flip * val_e, None)

    worst_t = None
    observed_t = None
    if plan is not None:
        b = plan.n_resamples
        se0 = float(estimates(stacks, np.zeros((1, b)), np.zeros((1, b, mm.q)),
                              np.zeros((1, b)))[0].std(ddof=1))
        observed_t = observed / se0
        val_t, params_t = _worst_search(_values_fn(full, stacks, estimates, flip),
                                        bm, spec, mm.q, budget)
        # values_e is flip * estimate, and flip is +-1
        est_at_t = flip * float(values_e(*_as_batch([params_t]))[0])
        worst_t = worst_case(params_t, est_at_t, flip * val_t)
    return BenchmarkResult(worst_estimate=worst_est, worst_t=worst_t,
                           observed_estimate=observed, observed_t=observed_t,
                           spec=spec)


def critical_delta(data: MediationData, j: int, effect_kind: str,
                   threshold: float, delta_grid, k_a_bound: float = 0.0,
                   plan: BootstrapPlan | None = None,
                   budget: int = 1200, stacks=None):
    """Smallest multiplier on the covariate's strength that drags the effect
    past the threshold (0 for the estimate, 1.96 for the CI).

    Returns (delta, curve) where curve lists (delta, worst value); delta is
    ``math.inf`` when no grid point attains the threshold. The mediator and
    outcome caps scale with delta; the exposure cap stays at ``k_a_bound``.
    ``stacks`` from ``prepare_benchmark_stacks`` (on ``plan``, for a t-based
    threshold) are reused, the full-sample fit included; without them the
    full sample is fitted once per sweep.
    """
    grid = [float(d) for d in delta_grid]
    if any(d <= 0 for d in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be positive and strictly increasing")
    use_t = threshold > 0
    if use_t and plan is None:
        raise ValueError("a bootstrap plan is required for a t-based threshold")
    if stacks is None:
        stacks = prepare_benchmark_stacks(data, j, plan) if use_t \
            else _full_sample(data, j)
    mm = stacks.full_sample.mm
    observed = mm.theta1_obs if effect_kind == "direct" else observed_indirect(mm)
    flip = -1.0 if observed < 0 else 1.0
    if use_t:
        zero_spec = BenchmarkSpec(j=j, k_a_bound=0.0, k_m_bound=0.0, k_y_bound=0.0)
        res0 = benchmark_worst(data, zero_spec, plan=plan,
                               effect_kind=effect_kind, budget=budget,
                               stacks=stacks)
        if flip * res0.observed_t <= threshold:
            return 0.0, [(0.0, res0.observed_t)]
    elif flip * observed <= threshold:
        return 0.0, [(0.0, observed)]

    curve = []
    hit = math.inf
    for delta in grid:
        spec = BenchmarkSpec(j=j, k_a_bound=k_a_bound, k_m_bound=delta,
                             k_y_bound=delta)
        res = benchmark_worst(data, spec, plan=plan if use_t else None,
                              effect_kind=effect_kind, budget=budget,
                              stacks=stacks)
        if use_t:
            value = res.worst_t.t_stat
        else:
            value = flip * res.worst_estimate.value
        curve.append((delta, value))
        if value <= threshold:
            hit = delta
            break
    return hit, curve
