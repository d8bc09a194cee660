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
squares on the data; ``prepare_benchmark_stacks`` computes every resample's
in one batch, as Schur complements of the plan's Gram matrices, and takes
``benchmark_moments`` on the replayed rows of the resamples the plan fitted
exactly or the batch marks (a check short of its threshold by GRAM_MARGIN),
so a resample raises exactly when ``benchmark_moments`` would. Both give a
``BenchmarkMoments``, with a leading resample axis for the plan.

The search is batched: the conversion takes k candidates against anchors
with a leading resample axis (B=1 for the full sample) and returns (k, B)
natural parameters, which map to the phi pair of the effect's coefficient
form in ``robustness`` and are evaluated there by the function the
robustness values use, so each optimizer sweep costs one objective call.
The search itself is ``robustness._minimize_over_box`` over the capped
leave-one-out box, without the Nelder-Mead polish. The full-sample fit and
anchors, the per-resample anchors and both effects' coefficient stacks are
built once per covariate by ``prepare_benchmark_stacks`` and passed to
``benchmark_worst`` and ``critical_delta``. ``critical_delta`` runs one
search per grid point, of the t statistic or of the estimate as its
threshold asks, compares the sign-flipped worst value with the threshold
and reports its curve in the data's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundaryR,
    DegenerateAnchor,
    DimensionMismatch,
)
from .inference import GRAM_MARGIN, BootstrapPlan
from .linalg import (
    _require_kept,
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
    BOUNDARY_TOL,
    MediationData,
    NaturalSensitivity,
    fit_observed,
)
from .robustness import (EffectObjective, _Box, _check_kind, _distinct,
                         _minimize_over_box, _SearchBox)

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
    exposure, mediators and outcome, plus the covariance mixing block. Every
    field but ``j`` may carry a leading resample axis."""

    j: int
    r_a_cj: float             # R of a ~ c_j given c_-j
    r_m_cj: np.ndarray        # (q,) R of m ~ c_j given (a, c_-j)
    r_y_cj: float             # R of y ~ c_j given (a, m, c_-j)
    mix_leave_j: np.ndarray   # cov(m|a,c)^{-1/2} cov(m|a,c_-j)^{1/2}


def _leave_j_anchors(resid_cov, j: int, p: int, q: int,
                     margin: float = 0.0, bad=None) -> BenchmarkMoments:
    """Anchors for covariate ``j`` from residual covariances on leave-j
    blocks: ``resid_cov(keep, given)`` is the covariance of columns ``keep``
    of (c, a, m, y) after regressing out columns ``given`` (and the
    intercept), over any leading axes.

    Raises SingularCovariance (or NegativeEigenvalue) where a block is
    numerically singular; a positive ``margin`` raises every eigenvalue
    threshold by ``margin`` times the largest eigenvalue involved. A mask
    ``bad`` works as in ``linalg._flag``.
    """
    cj, a, y = [j], [p], [p + q + 1]
    m = list(range(p + 1, p + q + 1))
    c_minus = [i for i in range(p) if i != j]
    r_a_cj = r_from_cov(resid_cov(a + cj, c_minus), 1, margin, bad)[..., 0, 0]
    t_m = resid_cov(m + cj, a + c_minus)
    r_m_cj = r_from_cov(t_m, q, margin, bad)[..., 0]
    r_y_cj = r_from_cov(resid_cov(y + cj, a + m + c_minus), 1, margin, bad)[..., 0, 0]
    cov_m_ac = resid_cov(m, a + list(range(p)))
    mix = sym_inv_sqrt(cov_m_ac, margin, bad) @ sym_sqrt(t_m[..., :q, :q], margin, bad)
    # [()] turns a single fit's 0-d arrays into NumPy scalars
    return BenchmarkMoments(j=j, r_a_cj=r_a_cj[()], r_m_cj=r_m_cj,
                            r_y_cj=r_y_cj[()], mix_leave_j=mix)


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
        s = sample_cov(residualize(cols[:, keep], design))
        _require_kept(s, cols[:, keep], "a leave-j block")
        return s

    return _leave_j_anchors(resid_cov, j, p, q)


def _anchors(bm: BenchmarkMoments) -> BenchmarkMoments:
    """``bm`` with one leading resample axis (of one for a single fit);
    raises DegenerateAnchor once here rather than on every conversion."""
    q = np.shape(bm.r_m_cj)[-1]
    anc = replace(bm, r_a_cj=np.reshape(bm.r_a_cj, -1), r_y_cj=np.reshape(bm.r_y_cj, -1),
                  r_m_cj=np.reshape(bm.r_m_cj, (-1, q)),
                  mix_leave_j=np.reshape(bm.mix_leave_j, (-1, q, q)))
    squares = [anc.r_a_cj ** 2, (anc.r_m_cj ** 2).sum(axis=-1), anc.r_y_cj ** 2]
    if (1.0 - np.concatenate(squares) <= BOUNDARY_TOL).any():
        raise DegenerateAnchor("an observed anchor is numerically on the unit sphere")
    return anc


def _convert_leave_j(anc: BenchmarkMoments, r_a_lj, r_m_lj, r_y_lj):
    """Leave-one-covariate-out parameters -> natural parameters.

    Takes anchors with a leading axis of B (``_anchors``) and k candidates
    of shapes (k,), (k, q), (k,); returns (r_y, r_m, r_a) of shapes (k, B),
    (k, B, q), (k, B) plus a (k,) feasibility mask. A candidate is
    infeasible when, on any resample, an intermediate quantity leaves its
    open ball; a NaN passes these tests. Infeasible rows hold unspecified
    values, so call under ``np.errstate``.
    """
    den_a2 = 1.0 - anc.r_a_cj ** 2
    nm_cj2 = (anc.r_m_cj * anc.r_m_cj).sum(axis=-1)
    den_y2 = 1.0 - anc.r_y_cj ** 2
    nm_lj2 = np.matmul(r_m_lj[:, None, :], r_m_lj[:, :, None])[:, 0, 0]
    ra = r_a_lj[:, None]
    r_cj_u_ac = -(anc.r_a_cj * ra) / np.sqrt((1.0 - ra ** 2) * den_a2)
    r_a_nat = ra / np.sqrt(den_a2)
    num_m = r_m_lj[:, None, :] - anc.r_m_cj * r_cj_u_ac[..., None]
    r_m_nat = np.einsum("bij,kbj->kbi", anc.mix_leave_j, num_m) \
        / np.sqrt(1.0 - r_cj_u_ac ** 2)[..., None]
    r_cj_u_amc = (r_cj_u_ac - np.matmul(anc.r_m_cj, r_m_lj[:, :, None])[..., 0]) \
        / np.sqrt((1.0 - nm_cj2) * (1.0 - nm_lj2[:, None]))
    r_y_nat = (r_y_lj[:, None] - anc.r_y_cj * r_cj_u_amc) / np.sqrt(
        den_y2 * (1.0 - r_cj_u_amc ** 2))
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


def _natural(anc: BenchmarkMoments, params) -> NaturalSensitivity:
    with np.errstate(invalid="ignore", divide="ignore"):
        r_y, r_m, r_a, ok = _convert_leave_j(anc, *_as_batch([params]))
    if not ok[0]:
        raise BoundaryR("leave-one-out parameters map outside the feasible region")
    return NaturalSensitivity(r_y=float(r_y[0, 0]), r_m=r_m[0, 0], r_a=float(r_a[0, 0]))


def natural_from_benchmark(bm: BenchmarkMoments, r_a_leave_j: float,
                           r_m_leave_j, r_y_leave_j: float) -> NaturalSensitivity:
    """Map prescribed leave-one-out parameters to the natural triple."""
    return _natural(_anchors(bm), (r_a_leave_j, r_m_leave_j, r_y_leave_j))


# ---------------------------------------------------------------------------
# The search objective: natural parameters -> phi pairs -> the coefficient
# form of ``robustness``, batched over candidates and resamples.
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


@dataclass(frozen=True)
class _Stacks:
    """What the worst-case searches for one covariate read: the full-sample
    anchors, the per-resample anchors (None without a plan) and each
    effect's objective (its coefficient stacks)."""

    bm: BenchmarkMoments
    full_anchors: BenchmarkMoments
    anchors: BenchmarkMoments | None
    objectives: dict          # effect kind -> EffectObjective


def _values_fn(st: _Stacks, obj: EffectObjective, with_t: bool):
    """Batched search objective over k leave-j candidates: flip * estimate,
    or flip * t when ``with_t``; ``inf`` where infeasible."""
    def values(r_a_lj, r_m_lj, r_y_lj) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            *nat, ok = _convert_leave_j(st.full_anchors, r_a_lj, r_m_lj, r_y_lj)
            vals = obj.flip * obj.point_estimates(*_phis(obj.kind, *nat))
            if with_t:
                *nat, ok_b = _convert_leave_j(st.anchors, r_a_lj, r_m_lj, r_y_lj)
                vals = vals / obj.boot_matrix(*_phis(obj.kind, *nat)).std(
                    axis=-1, ddof=1)
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


def _leave_j_box(bm: BenchmarkMoments, spec: BenchmarkSpec, q: int) -> _SearchBox:
    """The capped leave-one-out box, its map to (r_a (k,), r_m (k, q),
    r_y (k,)) leave-j candidates, and its candidates: zero, then a
    deterministic corner sweep over the scalar channels, each row once."""
    ra_rad, rm_rad, ry_rad = _radii(bm, spec)
    box = _Box().interval(-ra_rad, ra_rad, present=ra_rad > 0) \
        .ball(q, rm_rad, present=rm_rad > 0) \
        .interval(-ry_rad, ry_rad, present=ry_rad > 0)

    def unpack(x):
        r_a_lj, (radius, direction), r_y_lj = box.split(x)
        return r_a_lj, radius[:, None] * direction, r_y_lj

    cands = [(0.0, np.zeros(q), 0.0)]
    m_dirs = [np.zeros(q)]
    if rm_rad > 0:
        nv = np.linalg.norm(bm.r_m_cj)
        base_dir = bm.r_m_cj / nv if nv > 0 else np.eye(q)[0]
        m_dirs += [rm_rad * base_dir, -rm_rad * base_dir]
    for sa in ((-ra_rad, 0.0, ra_rad) if ra_rad > 0 else (0.0,)):
        for sy in ((-ry_rad, 0.0, ry_rad) if ry_rad > 0 else (0.0,)):
            for dm in m_dirs:
                cands.append((sa, dm, sy))
    return _SearchBox(box, unpack, _distinct([_as_batch(cands)]))


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
                             plan: BootstrapPlan | None) -> _Stacks:
    """The full-sample anchors for covariate ``j``, its anchors on every
    resample of ``plan`` (if given) and both effects' objectives;
    reusable across worst-case searches on the same plan (delta sweeps in
    particular).

    Each resample's residual covariances are Schur complements of the
    covariance its plan Gram gives, all resamples in one batch. Resamples
    the plan fitted exactly, and any whose anchor checks do not clear their
    thresholds by GRAM_MARGIN, take ``benchmark_moments`` on their rows
    instead.
    """
    mm = fit_observed(data)
    bm = benchmark_moments(data, j)
    anchors = None
    if plan is not None:
        cov = plan.basis.covariances(plan.grams)[0]
        bad = plan.exact.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            anchors = _leave_j_anchors(lambda keep, given: schur(cov, keep, given),
                                       j, data.p_user, data.q, margin=GRAM_MARGIN,
                                       bad=bad)
        for i in np.flatnonzero(bad):
            exact = benchmark_moments(data.subset(plan.rows(i)), j)
            for name in ("r_a_cj", "r_m_cj", "r_y_cj", "mix_leave_j"):
                getattr(anchors, name)[i] = getattr(exact, name)
        anchors = _anchors(anchors)
    return _Stacks(bm=bm, full_anchors=_anchors(bm), anchors=anchors,
                   objectives={"direct": EffectObjective.for_direct(mm, plan),
                               "indirect": EffectObjective.for_indirect(mm, plan)})


def benchmark_worst(data: MediationData, spec: BenchmarkSpec,
                    plan: BootstrapPlan | None = None,
                    effect_kind: str = "direct",
                    budget: int = 1500, stacks=None) -> BenchmarkResult:
    """Worst point estimate (and worst t, when a plan is given) under the
    benchmark caps for one covariate.

    ``stacks`` from ``prepare_benchmark_stacks`` on the same plan skip
    rebuilding the resample anchors and refitting the full sample.
    """
    _check_kind(effect_kind)
    if stacks is None:
        stacks = prepare_benchmark_stacks(data, spec.j, plan)
    obj = stacks.objectives[effect_kind]
    box = _leave_j_box(stacks.bm, spec, obj.q)

    def search(values):
        val, (r_a, r_m, r_y) = _minimize_over_box(box, values, budget, polish=False)
        return val, (float(r_a[0]), r_m[0], float(r_y[0]))

    def worst_case(params, value, t_stat):
        return WorstCase(
            value=value, t_stat=t_stat,
            natural=_natural(stacks.full_anchors, params),
            leave_j={"r_a": params[0], "r_m": params[1].tolist(), "r_y": params[2]},
            k_ratios=_k_ratios(stacks.bm, params))

    values_e = _values_fn(stacks, obj, with_t=False)
    val_e, params_e = search(values_e)
    worst_est = worst_case(params_e, obj.flip * val_e, None)

    worst_t = None
    observed_t = None
    if plan is not None:
        observed_t = obj.flip * obj.observed_t()
        val_t, params_t = search(_values_fn(stacks, obj, with_t=True))
        est_at_t = obj.flip * float(values_e(*_as_batch([params_t]))[0])
        worst_t = worst_case(params_t, est_at_t, obj.flip * val_t)
    return BenchmarkResult(worst_estimate=worst_est, worst_t=worst_t,
                           observed_estimate=obj.observed, observed_t=observed_t,
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
    _check_kind(effect_kind)
    grid = [float(d) for d in delta_grid]
    if any(d <= 0 for d in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be positive and strictly increasing")
    use_t = threshold > 0
    if use_t and plan is None:
        raise ValueError("a bootstrap plan is required for a t-based threshold")
    if stacks is None:
        stacks = prepare_benchmark_stacks(data, j, plan if use_t else None)
    obj = stacks.objectives[effect_kind]
    values = _values_fn(stacks, obj, with_t=use_t)
    # flip * the observed t or estimate, as the search values are
    observed = obj.observed_t() if use_t else obj.flip * obj.observed
    if observed <= threshold:
        return 0.0, [(0.0, obj.flip * observed)]

    curve = []
    for delta in grid:
        spec = BenchmarkSpec(j=j, k_a_bound=k_a_bound, k_m_bound=delta,
                             k_y_bound=delta)
        val, _ = _minimize_over_box(_leave_j_box(stacks.bm, spec, obj.q), values,
                                    budget, polish=False)
        curve.append((delta, obj.flip * val))
        if val <= threshold:
            return delta, curve
    return math.inf, curve
