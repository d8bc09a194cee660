"""Nonparametric bootstrap over mediation moments.

Rows are resampled with replacement (case resampling, so heteroskedasticity
and misspecification are covered). Resample i is a pure function of
(seed, i), so every estimator sees the same resamples (common random
numbers), and the plan stores no row indices: ``BootstrapPlan.rows``
replays them.

A resample is its vector of row counts w, and everything the estimators
read from it is a Schur complement of its joint Gram matrix Z' diag(w) Z,
where Z = (1, c, a, m, y) is centred and scaled once with full-sample
statistics. Two stages build the plan. Per fixed-size chunk of resamples,
one matrix product gives the Grams (a chunk keeps its row counts as int32
and forms the product a block of ROW_BLOCK rows at a time in reused
buffers, so its working set grows with n only through those counts). Then
``GramBasis.covariances`` certifies the (c, a, m, y) covariances of the
whole stack, and one ``moments_from_cov`` call (the algebra
``fit_observed`` runs after its least squares) gives the moments of their
Schur complements; each resample's bits are the same on any split of the
stack. The plan keeps the covariances, from which formal benchmarking
takes its resample anchors, and the moments, one ``MediationMoments`` with
a leading resample axis.

The Gram path is used only where it is certified to agree with the exact
per-resample fit: every column keeps at least GRAM_COND of its Gram
diagonal as within-resample variance (and clears the constant-column test by
that much), the columns' correlation matrix has its smallest eigenvalue at
least GRAM_COND times its largest (so no column's variance given any
others falls below GRAM_COND of its variance, far above the 1e-12 at which
the exact path calls it collapsed), and every eigenvalue check of the fit
clears its threshold by GRAM_MARGIN times the largest eigenvalue involved.
Any other resample goes through ``fit_observed`` on its rows, so errors,
redraws of singular resamples and ``TooManySingularResamples`` happen
exactly as there; ``n_exact`` counts those resamples. ``n_workers`` only
spreads the chunks' Grams across threads, so results do not depend on it.

The Gram product is a BLAS call, and its last bits depend on the number of
threads OpenBLAS runs it on: an ``effects`` report at n = 10,000 moved by
up to 1.8e-15 relative between one and two threads. The CLI pins BLAS to
one thread (``bksens.cli``). A library caller's bootstrap bits therefore
depend on the OpenBLAS thread count, which defaults to one per core, unless
BLAS runs on one thread, e.g. with ``OPENBLAS_NUM_THREADS=1`` set before
numpy is first imported; then they are the CLI's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EstimatorFailed,
    SingularCovariance,
    TooManySingularResamples,
)
from .linalg import RANK_RTOL, schur
from .mediation import (
    DEFAULT_CI_MULTIPLIER,
    EffectReport,
    MediationData,
    MediationMoments,
    _RESAMPLED,
    _response,
    fit_observed,
    moments_from_cov,
)

DEFAULT_RESAMPLES = 1000
MIN_BOOTSTRAP = 2   # a standard error over the resamples needs two
MAX_REDRAWS = 10
CHUNK = 32          # resamples per Gram product
ROW_BLOCK = 4096    # rows of column products formed at once
# The Gram path runs only on resamples whose columns keep this share of their
# Gram diagonal as variance and whose correlation matrix has eigenvalues
# within this ratio, so its Schur complements lose at most about six digits
# to cancellation and conditioning.
GRAM_COND = 1e-6
# Clearance every eigenvalue check must keep from its threshold, in units of
# the largest eigenvalue involved: five orders of magnitude above the
# rounding of the check itself (about 1e-15 of that eigenvalue).
GRAM_MARGIN = 1e-10


def resample_rng(seed: int, i: int) -> np.random.Generator:
    """Independent generator for resample ``i`` of a plan seeded by ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


@dataclass(frozen=True)
class GramBasis:
    """The columns (1, c, a, m, y) of one dataset, centred and scaled with
    full-sample statistics (the intercept stays a column of ones)."""

    z: np.ndarray = field(repr=False)  # (n, d), column-major
    center: np.ndarray                 # (d-1,) means of (c, a, m, y)
    scale: np.ndarray                  # (d-1,) standard deviations, 1 if zero
    p: int

    @classmethod
    def of(cls, data: MediationData) -> "GramBasis":
        x = np.column_stack([data.c[:, 1:], data.a, data.m, data.y])
        center = x.mean(axis=0)
        scale = x.std(axis=0, ddof=1)
        scale = np.where(scale > 0, scale, 1.0)
        z = np.column_stack([np.ones(data.n), (x - center) / scale])
        return cls(z=np.asfortranarray(z), center=center, scale=scale, p=data.p_user)

    def grams(self, counts: np.ndarray) -> np.ndarray:
        """(b, d, d) Grams Z' diag(w) Z for the (b, n) row counts.

        Per block of ROW_BLOCK rows, the counts are copied into one reused
        float64 buffer and the column products z_i z_j (i <= j) written into
        another; the products are Fortran-ordered, since BLAS rounds the
        small-b product differently for a C-ordered operand."""
        n, d = self.z.shape
        b = counts.shape[0]
        iu, ju = np.triu_indices(d)
        rows = min(ROW_BLOCK, n)
        w = np.empty((b, rows))
        prod = np.empty((rows, iu.size), order="F")
        flat = np.zeros((b, iu.size))
        for r0 in range(0, n, ROW_BLOCK):
            zb = self.z[r0:r0 + ROW_BLOCK]
            m = zb.shape[0]
            w[:, :m] = counts[:, r0:r0 + m]
            k = 0
            for i in range(d):  # the products (i, i), ..., (i, d-1), in triu order
                np.multiply(zb[:, i:i + 1], zb[:, i:], out=prod[:m, k:k + d - i])
                k += d - i
            flat += w[:, :m] @ prod[:m]
        g = np.empty((b, d, d))
        g[:, iu, ju] = flat
        g[:, ju, iu] = flat
        return g

    def covariances(self, grams: np.ndarray):
        """Per resample, the sample covariance of (c, a, m, y) in the units
        of the exact path (covariates scaled to unit variance within the
        resample, the rest in data units), and whether the Gram certifies
        it (see the module docstring). Uncertified rows hold the identity."""
        n = grams[:, :1, :1]
        sums, cross = grams[:, 0, 1:], grams[:, 1:, 1:]
        ss = cross - sums[:, :, None] * sums[:, None, :] / n
        var = np.diagonal(ss, axis1=1, axis2=2)
        norm2 = np.diagonal(cross, axis1=1, axis2=2)
        # the constant-column test of ``standardized``: squared raw column
        # norms, in squared scale units
        loc = self.center / self.scale
        raw2 = norm2 + 2.0 * loc * sums + n[:, 0] * loc ** 2
        ok = np.all(var - RANK_RTOL ** 2 * raw2 > GRAM_COND * norm2, axis=1)
        sd = np.sqrt(np.where(ok[:, None], var, 1.0))
        eye = np.eye(var.shape[1])
        corr = np.where(ok[:, None, None], ss / (sd[:, :, None] * sd[:, None, :]), eye)
        w = np.linalg.eigvalsh(corr)
        ok &= w[:, 0] >= GRAM_COND * w[:, -1]
        units = np.where(np.arange(var.shape[1]) < self.p,
                         np.sqrt(n[:, 0] - 1.0) / sd, self.scale)
        cov = ss / (n - 1.0) * units[:, :, None] * units[:, None, :]
        return np.where(ok[:, None, None], cov, eye), ok


@dataclass
class BootstrapPlan:
    """Bootstrap resamples of one dataset. moments[i] (the moments carry a
    leading resample axis) is the observed fit on rows(i), and cov[i] the
    (c, a, m, y) covariance of the resample's first draw that
    ``GramBasis.covariances`` certified, or the identity where it did not;
    all are fully determined by (seed, i). exact[i] marks the resamples
    fitted by ``fit_observed`` on their rows, after redraws[i] singular
    draws, which include every uncertified one."""

    data: MediationData
    n_resamples: int
    seed: int
    moments: MediationMoments = field(repr=False)
    redraws: np.ndarray = field(repr=False)  # (B,)
    exact: np.ndarray = field(repr=False)    # (B,) bool
    cov: np.ndarray = field(repr=False)      # (B, d, d), d = p + q + 2

    @property
    def n_redraws(self) -> int:
        return int(self.redraws.sum())

    @property
    def n_exact(self) -> int:
        return int(self.exact.sum())

    def rows(self, i: int) -> np.ndarray:
        """Row indices of resample ``i``, replayed from (seed, i)."""
        rng = resample_rng(self.seed, i)
        for _ in range(self.redraws[i] + 1):
            idx = rng.integers(0, self.data.n, size=self.data.n)
        return idx

    @property
    def indices(self) -> np.ndarray:
        """(B, n) row indices of every resample, replayed."""
        return np.stack([self.rows(i) for i in range(self.n_resamples)])


def _draw_one(data: MediationData, seed: int, i: int):
    """(redraws, fit) of resample ``i``, redrawn while ``fit_observed`` finds it singular."""
    rng = resample_rng(seed, i)
    for redraws in range(MAX_REDRAWS + 1):
        try:
            return redraws, fit_observed(data.subset(rng.integers(0, data.n, size=data.n)))
        except SingularCovariance:
            pass
    raise TooManySingularResamples(f"resample {i} stayed singular after {MAX_REDRAWS} redraws")


def bootstrap_moments(data: MediationData, n_resamples: int = DEFAULT_RESAMPLES,
                      seed: int = 0, n_workers: int = 1) -> BootstrapPlan:
    """Draw resamples and fit their moments."""
    if n_resamples < MIN_BOOTSTRAP:
        raise ValueError(f"n_resamples must be >= {MIN_BOOTSTRAP}")
    basis = GramBasis.of(data)
    p, q = data.p_user, data.q
    d = p + q + 2
    grams = np.empty((n_resamples, d + 1, d + 1))

    def run_chunk(start: int) -> None:
        stop = min(start + CHUNK, n_resamples)
        counts = np.empty((stop - start, data.n), dtype=np.int32)  # holds any count
        for k, i in enumerate(range(start, stop)):
            # int32 draws below 2**32 are the int64 ones: one 32-bit stream
            rows = resample_rng(seed, i).integers(0, data.n, size=data.n, dtype=np.int32)
            counts[k] = np.bincount(rows, minlength=data.n)
        grams[start:stop] = basis.grams(counts)

    starts = range(0, n_resamples, CHUNK)
    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging too

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    cov, ok = basis.covariances(grams)
    exact = ~ok
    with np.errstate(invalid="ignore", divide="ignore"):
        moments = moments_from_cov(schur(cov, _response(p, q), range(p)),
                                   data.n, p, q, margin=GRAM_MARGIN, bad=exact)
    redraws = np.zeros(n_resamples, dtype=np.int64)
    for i in np.flatnonzero(exact):
        redraws[i], fit = _draw_one(data, seed, i)
        for name in _RESAMPLED:
            getattr(moments, name)[i] = getattr(fit, name)
    return BootstrapPlan(data=data, n_resamples=n_resamples, seed=seed,
                         moments=moments, redraws=redraws, exact=exact, cov=cov)


@dataclass(frozen=True)
class BootstrapSummary:
    std_err: float
    ci_percentile: tuple[float, float]
    values: np.ndarray = field(repr=False)


def bootstrap_se(plan: BootstrapPlan, estimator) -> BootstrapSummary:
    """Bootstrap standard deviation and percentile interval of ``estimator``,
    a function of :class:`MediationMoments`."""
    values = np.empty(plan.n_resamples)
    for i, mm in enumerate(plan.moments):
        try:
            values[i] = estimator(mm)
        except Exception as exc:  # noqa: BLE001 - rewrapped with the index
            raise EstimatorFailed(i, exc) from exc
    std_err = float(values.std(ddof=1))
    lo, hi = np.quantile(values, [0.025, 0.975])
    return BootstrapSummary(std_err=std_err, ci_percentile=(float(lo), float(hi)),
                            values=values)


def effect_report(mm_full: MediationMoments, plan: BootstrapPlan, estimator,
                  effect_kind: str, method: str,
                  ci_multiplier=DEFAULT_CI_MULTIPLIER) -> EffectReport:
    """Point estimate on the full sample plus bootstrap SE, normal CI and t."""
    estimate = estimator(mm_full)
    summary = bootstrap_se(plan, estimator)
    return EffectReport.from_estimate(estimate, summary.std_err, effect_kind,
                                      method, ci_multiplier=ci_multiplier)
