"""Formal benchmarking: bound the confounder against an observed covariate.

The confounder's strengths are capped at multiples (k ratios) of the observed
strengths of one covariate, measured after leaving that covariate out. The
leave-one-out parameters convert exactly to the natural sensitivity
parameters given observed moments, so worst-case estimates and t statistics
are global minimizations over a small box, sharing the search engine of
``optimize`` and the common-random-numbers bootstrap with the robustness
values; this module never loads ``robustness``.

The anchors come from residual covariances of (c, a, m, y) on leave-j
blocks, with the covariates standardized, so they do not depend on the
covariates' location or scale. ``benchmark_moments`` computes them by least
squares on the data, through the residual covariances ``fit_observed`` uses
(``mediation._ls_residual_cov``); ``prepare_benchmark_stacks`` computes
every resample's in one batch, as Schur complements of the plan's certified
(c, a, m, y) covariances, and takes
``benchmark_moments`` on the replayed rows of the resamples the plan fitted
exactly or the batch marks (a check short of its threshold by GRAM_MARGIN),
so a resample raises exactly when ``benchmark_moments`` would. Both give a
``BenchmarkMoments``, with a leading resample axis for the plan.

The effects' coefficient form, its flip and its per-resample coefficient
rows come from ``mediation.EffectObjective``, built once per effect with the
plan. The search is batched, each optimizer sweep costing one objective
call, and both search objectives evaluate that form through one kernel
function, ``_leave_j_kernel``: both effects over k leave-j candidates on any
number of anchor rows, built from no natural parameters. A candidate carries
its effect, its index in EFFECTS, in a column beside its triple, and a call
runs the scalar conversion once over all its candidates and the projections
and tail once per run of one effect's candidates; a lockstep pass hands it
one run per effect, so it sorts nothing. The effect reads the
natural r_m only through r_m . w_a (indirect), r_m . w_b and |r_m|^2, and
with r_m = M (r_m_lj - c r_m_cj) / sqrt(1 - c^2) these are projections of
r_m_lj on per-row vectors and one quadratic form, so a call is (k, q) by
(q, R) and (k, q^2) by (q^2, R) products, einsums rather than BLAS so that
values are point-pure (``optimize``), plus elementwise work on (k, R)
arrays. ``prepare_benchmark_stacks`` builds two kernels, each serving both
effects: the estimate on the full sample's row and coefficients; the t
statistic on the full sample as row 0 stacked over the resamples, against
each objective's full coefficients stacked over its per-resample rows. So a
lockstep pass calls each once, whichever effects its searches belong to;
what that saves is the fixed numpy cost of a call, which shrinks beside the
t kernel's work per point as B grows. The scalar part of the conversion
(c, r_a, r_cj_u_amc, r_y) and its feasibility tests are ``_leave_j_chain``,
shared by the kernel and the natural-parameter witnesses
(``natural_from_benchmark``); only r_m has two forms, projected for the
searches and explicit for the witnesses.

The searches run through ``optimize._run``, the sweep driver the
robustness values use too, without the Nelder-Mead polish. The full-sample
fit and anchors, the per-resample anchors, both effects' ``EffectObjective``
and their search objectives are built once per covariate by
``prepare_benchmark_stacks``. ``_worst_plan`` and ``_delta_plan`` list the
searches of one worst case or one critical-delta sweep, and ``_run`` runs
any number of such plans as one batch, in which searches over boxes of the
same number of columns advance in lockstep with one call per search
objective per sweep. Both effects' boxes of one layout share one map from
box points to candidates, which takes each box's effect as its parameter
(``_leave_j_box``), so a sweep unpacks all their points in one call, and
each objective meets each effect's points as one run. Since each value is a
function of its candidate alone, each search's result is the one it has
run alone.
``benchmark_worst`` and ``critical_delta`` run one plan;
``benchmark_covariate``, which the CLI calls, runs all of one covariate's
searches together. Each of the three builds its own stacks. A
critical-delta sweep has a search per grid point, of the t statistic or of
the estimate as its threshold asks, compares the sign-flipped worst value
with the threshold and reports its curve in the data's sign. A grid point
is dropped once a smaller delta's crossing is decided, and a t search is a
decision with a stop value at the threshold (see ``critical_delta``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BoundaryR,
    DegenerateAnchor,
    DimensionMismatch,
)
from .inference import GRAM_MARGIN, BootstrapPlan
from .linalg import _distinct, _unit, r_from_cov, schur, standardized, sym_inv_sqrt, sym_sqrt
from .mediation import (
    BOUNDARY_TOL,
    DEFAULT_CI_MULTIPLIER,
    MediationData,
    MediationMoments,
    NaturalSensitivity,
    _check_kind,
    _ls_residual_cov,
    _objective,
    _response,
    fit_observed,
)
from .optimize import _Box, _layout_map, _run, _Search, _SearchBox

R_CLAMP = 1.0 - 1e-9
WORST_BUDGET = 1500   # DIRECT evaluations per worst-case search
DELTA_BUDGET = 1200   # DIRECT evaluations per critical-delta grid point
_ANCHOR_FIELDS = ("r_a_cj", "r_m_cj", "r_y_cj", "mix_leave_j")
EFFECTS = ("direct", "indirect")   # a leave-j point's effect column holds its index here


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
    resp = _response(p, q)
    y, a, m, cj = resp[:1], resp[1:2], resp[2:], [j]
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
    z = standardized(np.column_stack([data.c_user, data.a, data.m]),
                     "the (covariates, exposure, mediators) design")
    return _leave_j_anchors(_ls_residual_cov(data, z, "a leave-j block"), j, p, q)


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


def _leave_j_chain(anc: BenchmarkMoments):
    """The scalar chain of the leave-one-out -> natural conversion and its
    feasibility tests on every row of anchors with a leading axis of R
    (``_anchors``): chain(r_a_lj, r_m_lj, r_y_lj, natural_r_m) for k
    candidates of shapes (k,), (k, q), (k,).

    The natural r_m is M (r_m_lj - c r_m_cj) / sqrt(1 - c^2), with M the
    row's ``mix_leave_j`` and c the row's r_cj_u_ac; ``natural_r_m(c)``
    returns it in the form its caller reads, and |r_m|^2. A chain returns
    (c, r_a, that form, |r_m|^2, r_y, ok), with (k, R) arrays and a (k,)
    mask that is false where, on any row, an intermediate quantity leaves
    its open ball; a NaN passes these tests. Infeasible candidates hold
    unspecified values, so call under ``np.errstate``.
    """
    r_a_cj, r_y_cj, r_m_cj = anc.r_a_cj, anc.r_y_cj, anc.r_m_cj.T.copy()
    den_a2, den_y2 = 1.0 - r_a_cj ** 2, 1.0 - r_y_cj ** 2
    den_m = 1.0 - np.einsum("ir,ir->r", r_m_cj, r_m_cj)
    neg_a_cj, root_den_a = -r_a_cj, np.sqrt(den_a2)
    # division rounds monotonically, so |r_a| reaches R_CLAMP on some row
    # exactly when it does on the row of the least root
    least_root_a = np.fmin.reduce(root_den_a)

    def chain(r_a_lj, r_m_lj, r_y_lj, natural_r_m):
        # each (k, R) quantity is built in place, one operation at a time in
        # the order its formula (the comment below it) evaluates, so the
        # values are the formula's to the bit
        nm_lj2 = np.einsum("ki,ki->k", r_m_lj, r_m_lj)
        ra = r_a_lj[:, None]
        c = (1.0 - ra ** 2) * den_a2
        c = np.divide(neg_a_cj * ra, np.sqrt(c, out=c), out=c)
        # c = -(r_a_cj r_a_lj) / sqrt((1 - r_a_lj^2) den_a2)
        r_a = ra / root_den_a
        r_m, nm2 = natural_r_m(c)
        amc = np.einsum("ki,ij->kj", r_m_lj, r_m_cj)
        np.subtract(c, amc, out=amc)
        den = den_m * (1.0 - nm_lj2[:, None])
        amc /= np.sqrt(den, out=den)
        # amc = (c - r_m_lj . r_m_cj) / sqrt(den_m (1 - |r_m_lj|^2))
        den = amc * amc
        np.subtract(1.0, den, out=den)
        den *= den_y2
        r_y = r_y_cj * amc
        np.subtract(r_y_lj[:, None], r_y, out=r_y)
        r_y /= np.sqrt(den, out=den)
        # r_y = (r_y_lj - r_y_cj amc) / sqrt(den_y2 (1 - amc^2))
        # no |c| test: with u = r_a_lj^2, v = r_a_cj^2, c^2 >= R^2 means
        # u >= R^2 (1-v) / (v + R^2 (1-v)) >= R^2 (1-v), i.e. r_a^2 >= R^2
        outside = nm2 >= R_CLAMP ** 2
        # fmax skips a NaN, as the two tests it stands for each would
        big = np.fmax(np.abs(amc, out=den), np.abs(r_y), out=den)
        outside |= big >= R_CLAMP
        abs_ra = np.abs(r_a_lj)
        ok = ~(outside.any(axis=-1) | (abs_ra / least_root_a >= R_CLAMP)
               | (abs_ra >= 1.0) | (np.abs(r_y_lj) >= 1.0) | (np.sqrt(nm_lj2) >= 1.0))
        return c, r_a, r_m, nm2, r_y, ok
    return chain


def _as_batch(triples):
    """(r_a, r_m, r_y) leave-j triples -> (k,), (k, q), (k,) arrays."""
    return (np.array([t[0] for t in triples], dtype=float),
            np.stack([np.atleast_1d(np.asarray(t[1], dtype=float)) for t in triples]),
            np.array([t[2] for t in triples], dtype=float))


def _leave_j_args(effect: int, r_a_lj, r_m_lj, r_y_lj) -> tuple:
    """A leave-j argument batch: the batch's effect column, then its triple."""
    return np.full(len(r_a_lj), effect), r_a_lj, r_m_lj, r_y_lj


def natural_from_benchmark(bm: BenchmarkMoments, r_a_leave_j: float,
                           r_m_leave_j, r_y_leave_j: float) -> NaturalSensitivity:
    """Map prescribed leave-one-out parameters to the natural triple."""
    anc = _anchors(bm)
    r_a_lj, r_m_lj, r_y_lj = _as_batch([(r_a_leave_j, r_m_leave_j, r_y_leave_j)])

    def natural_r_m(c):
        num = r_m_lj[:, None, :] - anc.r_m_cj * c[..., None]
        r_m = np.einsum("rij,krj->kri", anc.mix_leave_j, num) \
            / np.sqrt(1.0 - c * c)[..., None]
        return r_m, (r_m * r_m).sum(axis=-1)

    with np.errstate(invalid="ignore", divide="ignore"):
        _, r_a, r_m, _, r_y, ok = _leave_j_chain(anc)(r_a_lj, r_m_lj, r_y_lj, natural_r_m)
    if not ok[0]:
        raise BoundaryR("leave-one-out parameters map outside the feasible region")
    return NaturalSensitivity(r_y=float(r_y[0, 0]), r_m=r_m[0, 0], r_a=float(r_a[0, 0]))


# ---------------------------------------------------------------------------
# The search objectives: leave-j candidates -> the coefficient form of
# ``mediation``, batched over candidates and anchor rows.
# ---------------------------------------------------------------------------

def _leave_j_kernel(anc: BenchmarkMoments, coeffs, flips, value):
    """Both effects' batched search objective over k leave-j candidates.

    ``values(effect, r_a_lj, r_m_lj, r_y_lj)`` takes each candidate's
    effect, its index in EFFECTS, beside its leave-j triple, each effect's
    candidates in contiguous runs (a lockstep pass gives it one run per
    effect, ``optimize._lockstep_objective``). Each effect is evaluated on
    every row of ``anc`` (a leading axis of R) against ``coeffs[effect]``,
    its coefficient form with a trailing axis of R (an ``EffectObjective``'s
    ``full``, stacked over its ``boot`` for the t rows); ``value(est,
    flip)`` reduces the (k, R) effects, with each candidate's
    ``flips[effect]`` in the (k,) ``flip``, to the (k,) search values, which
    are ``inf`` where ``_leave_j_chain`` marks a candidate infeasible.

    Each row keeps M'w_a, M'w_b, G = M'M, 2 G r_m_cj and their products with
    r_m_cj, from which a call forms r_m . w_a, r_m . w_b and |r_m|^2 for
    every (candidate, row), building no natural r_m (module docstring). The
    chain and ``value`` run once over all k candidates, and each run's
    projections and tail on its own slice. As in the chain, each (k, R)
    quantity is built in place in the order its formula, the comment below
    it, evaluates.
    """
    chain = _leave_j_chain(anc)
    r_m_cj, mix = anc.r_m_cj, anc.mix_leave_j
    gram = np.einsum("rji,rjk->rik", mix, mix)
    g_cj = np.einsum("rij,rj->ir", gram, r_m_cj)
    cj_g_cj = np.einsum("ri,ir->r", r_m_cj, g_cj)
    gram = gram.reshape(len(mix), -1).T.copy()
    n_rows = len(mix)
    flips = np.asarray(flips, dtype=float)
    # per effect: its projection vectors, their products with r_m_cj, s0, w_a, cross
    forms = []
    for kind, (s0, w_a, w_b, cross) in zip(EFFECTS, coeffs):
        # M'w per row; the direct effect's w_a multiplies phi_1, not r_m
        v_b = np.einsum("rji,jr->ir", mix, w_b)
        v_a = np.zeros_like(v_b) if kind == "direct" else np.einsum("rji,jr->ir", mix, w_a)
        # C order puts the (q, 3R) matrix's columns innermost, einsum's fast
        # loop; doubling g_cj doubles its projections exactly
        proj = np.ascontiguousarray(np.concatenate([2.0 * g_cj, v_b, v_a], axis=1))
        forms.append((proj, np.einsum("ri,ir->r", r_m_cj, v_b),
                      np.einsum("ri,ir->r", r_m_cj, v_a), s0, w_a, cross))

    def values(effect, r_a_lj, r_m_lj, r_y_lj) -> np.ndarray:
        k, q = r_m_lj.shape
        starts = [0, *((effect[1:] != effect[:-1]).nonzero()[0] + 1).tolist()]
        runs = [(e, slice(lo, hi)) for e, lo, hi
                in zip(effect[starts].tolist(), starts, starts[1:] + [k])]
        proj_lj = np.empty((k, 3 * n_rows))
        for e, rows in runs:
            np.einsum("ki,ij->kj", r_m_lj[rows], forms[e][0], out=proj_lj[rows])
        g2_lj = proj_lj[:, :n_rows]
        vb_lj, va_lj = proj_lj[:, n_rows:2 * n_rows], proj_lj[:, 2 * n_rows:]
        outer = (r_m_lj[:, :, None] * r_m_lj[:, None, :]).reshape(k, q * q)

        def projected_r_m(c):   # the form: sqrt(1 - c^2), dividing each r_m . w
            cc = c * c
            s2 = 1.0 - cc
            nm2 = np.einsum("ki,ij->kj", outer, gram)
            nm2 -= np.multiply(c, g2_lj)
            cc *= cj_g_cj
            nm2 += cc
            nm2 /= s2
            # nm2 = (|M r_m_lj|^2 - c (2 g_lj) + c^2 cj_g_cj) / (1 - c^2)
            return np.sqrt(s2, out=s2), nm2

        est = np.empty((k, n_rows))
        with np.errstate(invalid="ignore", divide="ignore"):
            c, r_a, root_s, nm2, r_y, ok = chain(r_a_lj, r_m_lj, r_y_lj, projected_r_m)
            root_m = 1.0 - nm2
            np.sqrt(root_m, out=root_m)
            y_m = r_y / root_m                      # phi_b = y_m r_m
            root_ra = r_a ** 2
            np.subtract(1.0, root_ra, out=root_ra)
            np.sqrt(root_ra, out=root_ra)
            # root_ra = sqrt(1 - r_a^2)
            for e, rows in runs:
                _, cj_v_b, cj_v_a, s0, w_a, cross = forms[e]
                c_e, r_a_e, root_s_e, y_m_e = c[rows], r_a[rows], root_s[rows], y_m[rows]
                est_e = np.multiply(c_e, cj_v_b, out=est[rows])
                np.subtract(vb_lj[rows], est_e, out=est_e)
                est_e *= y_m_e
                est_e /= root_s_e
                est_e += s0
                # est = s0 + y_m (vb_lj - c cj_v_b) / root_s
                root_ra_e = root_ra[rows]
                if EFFECTS[e] == "direct":
                    root_ra_e *= root_m[rows]
                    term = r_y[rows] * r_a_e
                    term /= root_ra_e
                    term *= w_a[0]
                    # term = r_y r_a / (root_ra root_m) w_a
                else:
                    a_m = np.divide(r_a_e, root_ra_e, out=root_ra_e)   # phi_a = a_m r_m
                    term = c_e * cj_v_a
                    np.subtract(va_lj[rows], term, out=term)
                    term *= a_m
                    term /= root_s_e
                    cross_term = cross * a_m
                    cross_term *= y_m_e
                    cross_term *= nm2[rows]
                    term += cross_term
                    # term = a_m (va_lj - c cj_v_a) / root_s + cross a_m y_m nm2
                est_e += term
            out = value(est, flips[effect])
        out[~ok] = np.inf
        return out
    return values


def _t_ratio(est, flip):
    """flip * each candidate's effect on row 0 over the SD of its effects on
    the other rows: ``np.std(ddof=1)``'s own steps, bit for bit, without its
    argument handling."""
    boot = est[:, 1:]
    mean = np.add.reduce(boot, axis=1, keepdims=True)
    mean /= boot.shape[1]
    dev = np.subtract(boot, mean)
    np.square(dev, out=dev)
    sd = np.add.reduce(dev, axis=1)
    sd /= boot.shape[1] - 1
    np.sqrt(sd, out=sd)
    return flip * est[:, 0] / sd


@dataclass(frozen=True)
class _Stacks:
    """What the worst-case searches for one covariate read: the full-sample
    anchors, each effect's ``EffectObjective`` (its coefficient form and
    flip, with the per-resample coefficient rows when there is a plan), the
    two search objectives both effects share, flip * estimate and, with a
    plan, flip * t (else None), the per-resample anchors the t objective
    stacks, and the leave-j boxes built so far."""

    bm: BenchmarkMoments
    anchors: BenchmarkMoments | None
    objectives: dict          # effect kind -> EffectObjective
    estimate: callable        # batched flip * estimate, both effects
    t_stat: callable | None   # batched flip * t, both effects
    boxes: dict = field(default_factory=dict)   # (radii, effect kind) -> box

    def box(self, spec: BenchmarkSpec, effect_kind: str) -> _SearchBox:
        """``effect_kind``'s leave-j box under ``spec``, built once per
        radii: a critical-delta grid point's box serves both its sweeps, and
        the worst case's box the grid point with the same caps."""
        radii = _radii(self.bm, spec)
        key = (radii, effect_kind)
        if key not in self.boxes:
            self.boxes[key] = _leave_j_box(self.bm, radii, self.objectives[effect_kind].q,
                                           EFFECTS.index(effect_kind))
        return self.boxes[key]

    @property
    def estimates(self) -> dict:
        return _one_effect(self.estimate)

    @property
    def t_stats(self) -> dict | None:
        return None if self.t_stat is None else _one_effect(self.t_stat)


def _one_effect(values) -> dict:
    """Effect kind -> ``values`` on leave-j triples of that effect alone."""
    return {kind: lambda r_a_lj, r_m_lj, r_y_lj, e=e: values(
                *_leave_j_args(e, r_a_lj, r_m_lj, r_y_lj))
            for e, kind in enumerate(EFFECTS)}


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


def _leave_j_map(box):
    def unpack(x, effect):
        r_a_lj, (radius, direction), r_y_lj = box.split(x)
        return np.full(len(r_a_lj), effect), r_a_lj, radius[:, None] * direction, r_y_lj
    return unpack


def _leave_j_box(bm: BenchmarkMoments, radii: tuple, q: int,
                 effect: int) -> _SearchBox:
    """The leave-one-out box of the effect ``effect`` (its index in
    EFFECTS) with the caps ``radii`` (``_radii``), its map to (effect (k,),
    r_a (k,), r_m (k, q), r_y (k,)) leave-j candidates, and its candidates:
    zero, then a deterministic corner sweep over the scalar channels, each
    row once.

    The map reads only the box's layout, which of its blocks are present,
    and takes the effect as the box's parameter, so both effects' boxes of
    one layout share it (``optimize._layout_map``), and a lockstep pass
    unpacks all their points in one call."""
    ra_rad, rm_rad, ry_rad = radii
    box = _Box().interval(-ra_rad, ra_rad, present=ra_rad > 0) \
        .ball(q, rm_rad, present=rm_rad > 0) \
        .interval(-ry_rad, ry_rad, present=ry_rad > 0)
    cands = [(0.0, np.zeros(q), 0.0)]
    m_dirs = [np.zeros(q)]
    if rm_rad > 0:
        base_dir = _unit(bm.r_m_cj)
        m_dirs += [rm_rad * base_dir, -rm_rad * base_dir]
    for sa in ((-ra_rad, 0.0, ra_rad) if ra_rad > 0 else (0.0,)):
        for sy in ((-ry_rad, 0.0, ry_rad) if ry_rad > 0 else (0.0,)):
            for dm in m_dirs:
                cands.append((sa, dm, sy))
    return _SearchBox(box, _layout_map(_leave_j_map, box),
                      _leave_j_args(effect, *_distinct([_as_batch(cands)])), (effect,))


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
                             plan: BootstrapPlan | None,
                             mm: MediationMoments | None = None) -> _Stacks:
    """The full-sample anchors for covariate ``j``, its anchors on every
    resample of ``plan`` (if given) and both effects' objectives, built
    with the plan and ``mm``, the full sample's ``fit_observed`` (fitted
    here when not given), which every search of one call reads.

    Each resample's residual covariances are Schur complements of its
    certified covariance in ``plan.cov``, all resamples in one batch.
    Resamples the plan fitted exactly, and any whose anchor checks do not
    clear their thresholds by GRAM_MARGIN, take ``benchmark_moments`` on
    their rows instead.
    """
    if mm is None:
        mm = fit_observed(data)
    bm = benchmark_moments(data, j)
    anchors = None
    if plan is not None:
        bad = plan.exact.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            anchors = _leave_j_anchors(lambda keep, given: schur(plan.cov, keep, given),
                                       j, data.p_user, data.q, margin=GRAM_MARGIN,
                                       bad=bad)
        for i in np.flatnonzero(bad):
            exact = benchmark_moments(data.subset(plan.rows(i)), j)
            for name in _ANCHOR_FIELDS:
                getattr(anchors, name)[i] = getattr(exact, name)
        anchors = _anchors(anchors)
    full_anchors = _anchors(bm)
    objs = [_objective(kind, mm, plan) for kind in EFFECTS]
    flips = [obj.flip for obj in objs]
    estimate = _leave_j_kernel(full_anchors, [obj.full for obj in objs], flips,
                               lambda est, flip: flip * est[:, 0])
    t_stat = None
    if plan is not None:
        # the t rows: row 0 the full sample, rows 1.. the resamples. The
        # leave-j conversion differs per resample, so the t kernel takes its
        # SE as an SD over the resamples' own coefficient rows
        rows = replace(full_anchors, **{
            name: np.concatenate([getattr(full_anchors, name), getattr(anchors, name)])
            for name in _ANCHOR_FIELDS})
        coeffs = [tuple(None if f is None else np.concatenate([f, b], axis=-1)
                        for f, b in zip(obj.full, obj.boot)) for obj in objs]
        t_stat = _leave_j_kernel(rows, coeffs, flips, _t_ratio)
    return _Stacks(bm=bm, anchors=anchors, objectives=dict(zip(EFFECTS, objs)),
                   estimate=estimate, t_stat=t_stat)


def _observed_t(stacks: _Stacks, effect_kind: str) -> float:
    """flip * the t with no confounding, from the t objective the searches
    minimize, so that no worst t lies above it."""
    zero = _as_batch([(0.0, np.zeros(stacks.objectives[effect_kind].q), 0.0)])
    return float(stacks.t_stats[effect_kind](*zero)[0])


def _worst_plan(stacks: _Stacks, spec: BenchmarkSpec, effect_kind: str,
                budget: int, with_t: bool):
    """One effect's worst-case searches under ``spec``: the estimate and,
    ``with_t``, the t statistic, both over the same box. Returns them, no
    sweep threshold, and the map from their results to a BenchmarkResult."""
    obj = stacks.objectives[effect_kind]
    box = stacks.box(spec, effect_kind)
    searches = [_Search(box, stacks.estimate, budget)]
    if with_t:
        searches.append(_Search(box, stacks.t_stat, budget))

    def worst_case(params, value, t_stat):
        return WorstCase(
            value=value, t_stat=t_stat,
            natural=natural_from_benchmark(stacks.bm, *params),
            leave_j={"r_a": params[0], "r_m": params[1].tolist(), "r_y": params[2]},
            k_ratios=_k_ratios(stacks.bm, params))

    def finish(results):
        (val_e, params_e), *t_found = [
            (val, (float(r_a[0]), r_m[0], float(r_y[0])))
            for val, (_, r_a, r_m, r_y) in results]
        worst_est = worst_case(params_e, obj.flip * val_e, None)
        worst_t = observed_t = None
        if t_found:
            observed_t = obj.flip * _observed_t(stacks, effect_kind)
            val_t, params_t = t_found[0]
            est_at_t = obj.flip * float(
                stacks.estimates[effect_kind](*_as_batch([params_t]))[0])
            worst_t = worst_case(params_t, est_at_t, obj.flip * val_t)
        return BenchmarkResult(worst_estimate=worst_est, worst_t=worst_t,
                               observed_estimate=obj.observed, observed_t=observed_t,
                               spec=spec)
    return searches, None, finish


def _delta_plan(stacks: _Stacks, j: int, effect_kind: str, threshold: float,
                grid: list, k_a_bound: float, budget: int):
    """One critical-delta sweep: a search per grid point, of the t statistic
    with a stop value at a positive ``threshold`` and of the estimate
    otherwise. Returns them, the threshold, and the map from their results
    up to the first crossing (``optimize._run``) to (delta, curve); a sweep
    whose observed value is already at or below the threshold has no
    searches."""
    obj = stacks.objectives[effect_kind]
    use_t = threshold > 0
    values = stacks.t_stat if use_t else stacks.estimate
    # flip * the observed t or estimate, as the search values are
    observed = _observed_t(stacks, effect_kind) if use_t else obj.flip * obj.observed
    if observed <= threshold:
        return [], None, lambda results: (0.0, [(0.0, obj.flip * observed)])
    searches = [
        _Search(stacks.box(BenchmarkSpec(j=j, k_a_bound=k_a_bound, k_m_bound=delta,
                                         k_y_bound=delta), effect_kind),
                values, budget, stop=threshold if use_t else None)
        for delta in grid]

    def finish(results):
        curve = [(delta, obj.flip * val) for delta, (val, _) in zip(grid, results)]
        if results and results[-1][0] <= threshold:
            return grid[len(results) - 1], curve
        return math.inf, curve
    return searches, threshold, finish


def _delta_grid(delta_grid) -> list[float]:
    grid = [float(d) for d in delta_grid]
    if not grid or any(d <= 0 for d in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("delta_grid must be nonempty, positive and strictly "
                         "increasing")
    return grid


def benchmark_worst(data: MediationData, spec: BenchmarkSpec,
                    plan: BootstrapPlan | None = None,
                    effect_kind: str = "direct",
                    budget: int = WORST_BUDGET) -> BenchmarkResult:
    """Worst point estimate (and worst t, when a plan is given) under the
    benchmark caps for one covariate."""
    _check_kind(effect_kind)
    stacks = prepare_benchmark_stacks(data, spec.j, plan)
    return _run([_worst_plan(stacks, spec, effect_kind, budget, plan is not None)])[0]


def critical_delta(data: MediationData, j: int, effect_kind: str,
                   threshold: float, delta_grid, k_a_bound: float = 0.0,
                   plan: BootstrapPlan | None = None,
                   budget: int = DELTA_BUDGET):
    """Smallest multiplier on the covariate's strength that drags the effect
    past the threshold (0 for the estimate, 1.96 for the CI).

    Returns (delta, curve) where curve lists (delta, worst value); delta is
    ``math.inf`` when no grid point attains the threshold. The mediator and
    outcome caps scale with delta; the exposure cap stays at ``k_a_bound``.
    The stacks are built once per sweep, the resamples' anchors only for a
    t-based threshold.

    The grid points' searches run together, and a grid point is dropped
    once a smaller delta's crossing is decided, so each point of the curve
    is the value of its own search, as a sweep one point at a time finds it.
    With a t threshold (``threshold > 0``) each search only decides the
    crossing: a grid point's box candidates are evaluated first, and DIRECT
    runs only when they all stay above the threshold, stopping after its
    first sweep at or below it. A grid point that does not cross sees
    exactly the points of the full search, so the returned delta is the
    full sweep's, but the curve's last point, where it crosses, is a witness
    at or below the threshold, not the minimum. The estimate sweep
    (threshold 0) runs every search to its budget.
    """
    _check_kind(effect_kind)
    grid = _delta_grid(delta_grid)
    use_t = threshold > 0
    if use_t and plan is None:
        raise ValueError("a bootstrap plan is required for a t-based threshold")
    stacks = prepare_benchmark_stacks(data, j, plan if use_t else None)
    return _run([_delta_plan(stacks, j, effect_kind, threshold, grid, k_a_bound,
                             budget)])[0]


def benchmark_covariate(data: MediationData, spec: BenchmarkSpec,
                        plan: BootstrapPlan, delta_grid=None,
                        mm: MediationMoments | None = None):
    """Every search of one covariate in one batch: both effects'
    ``benchmark_worst`` under ``spec`` and, with a ``delta_grid``, their
    ``critical_delta`` sweeps for the estimate (threshold 0) and the CI
    (threshold DEFAULT_CI_MULTIPLIER), with the exposure cap at
    ``spec.k_a_bound``, each at its function's default budget. Searches
    over boxes of the same number of columns advance in lockstep, and each
    result equals the single function's.

    Returns ({kind: BenchmarkResult}, {kind: (estimate sweep, CI sweep)}),
    each sweep a (delta, curve) pair; the second is empty without a grid.
    ``mm``, the full sample's ``fit_observed``, is fitted when not given.
    """
    grid = None if delta_grid is None else _delta_grid(delta_grid)
    stacks = prepare_benchmark_stacks(data, spec.j, plan, mm)
    plans = [_worst_plan(stacks, spec, kind, WORST_BUDGET, True) for kind in EFFECTS]
    if grid is not None:
        plans += [_delta_plan(stacks, spec.j, kind, threshold, grid,
                              spec.k_a_bound, DELTA_BUDGET)
                  for kind in EFFECTS for threshold in (0.0, DEFAULT_CI_MULTIPLIER)]
    outcomes = _run(plans)
    sweeps = {} if grid is None else {
        kind: tuple(outcomes[2 + 2 * n: 4 + 2 * n]) for n, kind in enumerate(EFFECTS)}
    return dict(zip(EFFECTS, outcomes[:2])), sweeps
