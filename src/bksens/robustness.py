"""Robustness values: worst-case t statistics over bounded confounding.

The direct and indirect effects are affine/bilinear in two low-dimensional
nuisance vectors (phi pairs) whose feasible ranges under a common strength
bound rho have closed forms. The worst estimate over those ranges has closed
form minimizers too (in vector mode, the minimum of one convex 1-D function,
found by golden-section search), which every search box carries among its
candidates, so the estimate-only robustness value needs no search and loads
no scipy. Minimizing the t statistic over the ranges is a
small box-constrained global optimization.

Every estimate and t statistic here comes from ``mediation.EffectObjective``,
the one evaluator of the effects' coefficient form, built once per effect
and plan (``_build_objective``). At a phi pair every resample's effect is its
coefficient row times one vector f, so the bootstrap standard error is
sqrt(f'Cf), with C the covariance of the coefficient rows over the
resamples, formed when the objective is built: a t evaluation costs a few
small matrix products per candidate, whatever the number of resamples.
``robustness.EffectObjective`` names the same class, the name under which
``perfbench/tracer.py`` times its builds.

The searches run in the search engine of ``optimize``, which formal
benchmarking shares; this module builds the robustness values' boxes and
drives them. A box's candidates, zero first and each row once, hold the
estimate's exact minimizers (``_candidates``) and need no engine, so
``rv_estimate_only`` and the ``simulate`` study never load ``optimize``.
``_box_for`` adds the ``optimize._Box``, imported on the first search, and
its map to phi pairs, one function per layout that takes the box's radius
as a parameter, so a lockstep pass of a curve's searches unpacks all their
points in one call. A curve is one sweep of ``optimize._run``, a search per
rho, each optimum polished by Nelder-Mead (``_polish``, handed to the
engine). The polish calls ``minimize``, which imports scipy on its first
call; no other code here needs scipy. The minimum t-statistic functions and both RV drivers share
one setup, which checks the effect, the confounder mode and the rho grid
before any search. The t objective is point-pure, as every value function of
the engine must be (``optimize``).

The direct-effect range does not depend on whether the confounder is scalar
or vector, so both modes share one code path. The indirect-effect range does:
scalar mode ties the two phi vectors to a shared direction, vector mode
searches two independent balls. Every search box, the benchmarking one
included, is built by ``optimize._Box`` from intervals, balls (a signed
radius when q = 1, otherwise a radius and q-1 angles) and spheres (angles
alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .linalg import _distinct, _grid, _unit
from .mediation import (
    DEFAULT_CI_MULTIPLIER,
    EffectObjective,
    MediationMoments,
    _check_kind,
    _objective,
)

if TYPE_CHECKING:  # a simulate job, which never bootstraps, loads no inference
    from .inference import BootstrapPlan
    from .optimize import _SearchBox

DEFAULT_RHO_GRID = tuple(np.round(np.arange(1, 100) / 100.0, 2))
DEFAULT_BUDGET = 4000
BALL_SHRINK = 1.0 - 1e-9
RV_NOT_ATTAINED = 1.0


# ---------------------------------------------------------------------------
# Search boxes: the candidates evaluated beside the optimizer's optimum, which
# hold the estimate's exact minimizers, and the maps from a box's blocks to
# phi pairs, one per layout with each box's radius as its parameter.
# ---------------------------------------------------------------------------

def _direct_candidates(rho: float, r_a: float, t3max: float, obj) -> tuple:
    # corners; the estimate is affine in the phis and |phi_1| grows with t3, so
    # it is least at t3 = t3max, both phis opposing the flipped coefficients
    d2 = _unit(obj.full[2][:, 0])
    corners = [obj.zero]
    for s1 in (-1.0, 0.0, 1.0):
        for s2 in (-1.0, 1.0):
            corners.append((np.array([[s1 * r_a / np.cos(t3max)]]),
                            s2 * np.sqrt(rho) * np.tan(t3max) * d2[None, :]))
        corners.append((np.array([[s1 * r_a]]), np.zeros((1, obj.q))))
    return _distinct(corners)


def _direct_map(blocks, r, root_rho):
    t1, (t3, t2) = blocks
    return (r * t1 / np.cos(t3))[:, None], (root_rho * np.tan(t3))[:, None] * t2


def _golden_section(g, lo: float, hi: float, xatol: float) -> float:
    """The minimizer of a unimodal g on [lo, hi], to within xatol."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    gc, gd = g(c), g(d)
    while hi - lo > xatol:
        if gc <= gd:
            hi, d, gd = d, c, gc
            c = hi - shrink * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + shrink * (hi - lo)
            gd = g(d)
    return c if gc <= gd else d


def _vector_minimizers(a, b, kappa: float, r3: float, r4: float) -> list:
    """Minimizers of phi_a.a + phi_b.b + kappa phi_a.phi_b over |phi_a| <= r3,
    |phi_b| <= r4, for q >= 2 and b != 0.

    The best phi_b is -r4 unit(b + kappa phi_a); what is left is concave in
    phi_a, so phi_a lies on its sphere, where only x = phi_a.b/|b| matters.
    The value g(x) is convex on [-r3, r3]: a golden-section search finds its
    minimum to 1e-12 r3, and both ends are returned too. It runs on Python
    floats, whose IEEE results are numpy's at a fraction of the call cost."""
    # signed QR: b = |b| bhat, a = (a.bhat) bhat + |a_perp| perp
    basis, tri = np.linalg.qr(np.column_stack([b, a]))
    signs = np.where(np.diag(tri) < 0.0, -1.0, 1.0)
    (bhat, perp), tri = (basis * signs).T, tri * signs[:, None]
    nb, ab, na_perp = (float(v) for v in (tri[0, 0], tri[0, 1], tri[1, 1]))
    kappa, r3, r4 = float(kappa), float(r3), float(r4)

    def g(x):
        return (ab * x - na_perp * math.sqrt(r3 * r3 - x * x) - r4 * math.sqrt(
            max(nb * nb + 2.0 * kappa * nb * x + kappa * kappa * r3 * r3, 0.0)))

    best = _golden_section(g, -r3, r3, 1e-12 * r3)
    phis_a = [x * bhat - math.sqrt(r3 * r3 - x * x) * perp for x in (best, -r3, r3)]
    return [(p[None, :], -r4 * _unit(b + kappa * p)[None, :]) for p in phis_a]


def _indirect_candidates(r3: float, r4: float, confounder_mode: str, obj) -> tuple:
    q = obj.q
    # shared-direction corner candidates (feasible in both modes)
    _, w_a, w_b, cross = obj.full
    signs = (-1.0, 0.0, 1.0)
    corners = [obj.zero] + [(s3 * r3 * d[None, :], s4 * r4 * d[None, :])
                            for d in (_unit(w_a[:, 0]), _unit(w_b[:, 0]))
                            for s3 in signs for s4 in signs]

    # exact minimizers of flip * estimate. In scalar mode the estimate is
    # bilinear in the two signed lengths, so a vertex wins: lengths r3 and
    # sigma r4 along t1 = -unit(r3 a + sigma r4 b).
    a, b, kappa = obj.flip * w_a[:, 0], obj.flip * w_b[:, 0], obj.flip * cross[0]
    for sigma in (-1.0, 1.0):
        t1 = -_unit(r3 * a + sigma * r4 * b)[None, :]
        corners.append((r3 * t1, sigma * r4 * t1))
    if confounder_mode == "vector_u" and q >= 2 and r3 > 0 and b.any():
        corners += _vector_minimizers(a, b, kappa, r3, r4)
    return _distinct(corners)


def _scalar_map(blocks, r):
    # one shared direction, a signed length along it for each phi
    t2, t3, t1 = blocks
    return (r * t2)[:, None] * t1, (r * t3)[:, None] * t1


def _vector_map(blocks, r):
    # two independent unit balls, both scaled by r
    (rad3, dir3), (rad4, dir4) = blocks
    return (r * rad3)[:, None] * dir3, (r * rad4)[:, None] * dir4


def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first polish: the CLI's
    jobs other than ``rv`` never polish and so never load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


def _polish(search, res):
    """Nelder-Mead from DIRECT's optimum ``res``, inside the box; returns
    the better of the two points. The search engine calls it on each
    optimum of the robustness values' searches."""
    from scipy.optimize import Bounds

    lower = np.array(search.box.space.lower)
    upper = np.array(search.box.space.upper)

    def scalar_obj(x):
        return float(search.value_fn(*search.box.args(x[None, :]))[0])

    pol = minimize(scalar_obj, res.x, method="Nelder-Mead",
                   bounds=Bounds(lower, upper),
                   options={"maxfev": 150 * lower.size, "xatol": 1e-7,
                            "fatol": 1e-12})
    return np.clip(pol.x, lower, upper) if pol.fun < res.fun else res.x


def _build_objective(mm, plan, effect_kind, confounder_mode) -> EffectObjective:
    """The objective every search over strength bounds starts from; rejects
    an unknown effect or confounder mode before any search runs."""
    if confounder_mode not in ("scalar_u", "vector_u"):
        raise ValueError(f"unknown confounder_mode {confounder_mode!r}")
    _check_kind(effect_kind)
    return _objective(effect_kind, mm, plan)


def _radii(rho, randomized) -> tuple:
    """(rho shrunk by BALL_SHRINK, r_a, r, t3max): one rho caps every
    partial R^2 of the confounder, so every phi ball has the radius r =
    sqrt(rho^2 / (1 - rho)), the exposure channel's r_a = r unless
    ``randomized`` pins it at 0; t3max bounds the direct phi_2 ball's angle."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    rho *= BALL_SHRINK
    r = np.sqrt(rho * rho / (1.0 - rho))
    return rho, 0.0 if randomized else r, r, np.arctan(np.sqrt(rho / (1.0 - rho)))


def _candidates(obj, confounder_mode, rho, r_a, r, t3max) -> tuple:
    """``obj``'s box candidates under the bound and radii ``_radii`` gives."""
    if rho == 0.0:
        return obj.zero
    if obj.kind == "direct":
        return _direct_candidates(rho, r_a, t3max, obj)
    return _indirect_candidates(r_a, r, confounder_mode, obj)


def _box_for(obj, confounder_mode, rho, randomized) -> _SearchBox:
    """``obj``'s search box under the strength bound ``rho``, shrunk by
    BALL_SHRINK; ``randomized`` pins the exposure channel at zero. Boxes of
    one layout share their map, each with its radius as its parameter (an
    absent exposure block splits to zeros, which r leaves at zero)."""
    from .optimize import _Box, _SearchBox

    rho, r_a, r, t3max = radii = _radii(rho, randomized)
    candidates = _candidates(obj, confounder_mode, *radii)
    if rho == 0.0:
        return _SearchBox(_Box(), None, candidates)
    if obj.kind == "direct":
        box = _Box().interval(-1.0, 1.0, present=r_a > 0).ball(obj.q, t3max)
        return _SearchBox(box, _direct_map, candidates, (r, np.sqrt(rho)))
    if confounder_mode == "scalar_u":
        box = _Box().interval(-1.0, 1.0, present=r_a > 0).interval(-1.0, 1.0).sphere(obj.q)
        unpack = _scalar_map
    else:
        box = _Box().ball(obj.q, 1.0, present=r_a > 0).ball(obj.q, 1.0)
        unpack = _vector_map
    return _SearchBox(box, unpack, candidates, (r,))


def _min_t(mm, plan, effect_kind, rho, confounder_mode, randomized, budget) -> float:
    from .optimize import _minimize_over_boxes, _Search

    obj = _build_objective(mm, plan, effect_kind, confounder_mode)
    box = _box_for(obj, confounder_mode, rho, randomized)
    return _minimize_over_boxes([_Search(box, obj.t_values, budget)], polish=_polish)[0][0]


def min_t_direct(mm: MediationMoments, plan: BootstrapPlan, rho: float,
                 confounder_mode: str = "scalar_u", *, randomized: bool = False,
                 budget: int = DEFAULT_BUDGET) -> float:
    """Worst (minimum) t statistic for the direct effect under the strength
    bound rho. Scalar and vector confounders share the same feasible range,
    so ``confounder_mode`` does not change the result."""
    return _min_t(mm, plan, "direct", rho, confounder_mode, randomized, budget)


def min_t_indirect(mm: MediationMoments, plan: BootstrapPlan, rho: float,
                   confounder_mode: str = "scalar_u", *, randomized: bool = False,
                   budget: int = DEFAULT_BUDGET) -> float:
    """Worst (minimum) t statistic for the indirect effect under the strength
    bound rho, for a scalar or vector confounder."""
    return _min_t(mm, plan, "indirect", rho, confounder_mode, randomized, budget)


@dataclass(frozen=True)
class RVReport:
    """Robustness values plus the strength-to-worst-t curve behind them."""

    rv_estimate: float
    rv_ci: float
    curve: list               # [(rho, min_t)]
    confounder_mode: str
    effect_kind: str
    sign_flip: bool
    observed_t: float
    argmins: dict = field(repr=False, default_factory=dict)  # rho -> phi pair


def robustness_value(mm: MediationMoments, plan: BootstrapPlan,
                     effect_kind: str, rho_grid=None,
                     confounder_mode: str = "scalar_u",
                     randomized: bool = False, budget: int = DEFAULT_BUDGET,
                     full_curve: bool = False, seed_curve=None) -> RVReport:
    """Robustness values for the point estimate (t hits 0) and the CI
    (t hits ``DEFAULT_CI_MULTIPLIER``), by grid search over the strength
    bound.

    Every grid point's search runs in one sweep (``_run``), its box
    candidates ending with the ``seed_curve`` point at rho if given (a {rho:
    phi pair} map); unless ``full_curve`` is set, the sweep ends where the
    worst t reaches 0. A point whose search is above the previous point
    takes that point's value and argmin, which is feasible under any larger
    bound, so the curve is exactly non-increasing.
    A robustness value of 1.0 means the grid never
    brought the worst t below the threshold. Every box's candidates hold the
    estimate's exact minimizers, and t has the estimate's sign, so the
    estimate's robustness value equals ``rv_estimate_only``'s.
    """
    from .optimize import _run, _Search

    grid = _grid(DEFAULT_RHO_GRID if rho_grid is None else rho_grid, "rho_grid", 1.0)
    obj = _build_objective(mm, plan, effect_kind, confounder_mode)
    t_obs = obj.observed_t()

    searches = []
    for rho in grid if full_curve or t_obs > 0.0 else ():
        box = _box_for(obj, confounder_mode, rho, randomized)
        if seed_curve is not None and rho in seed_curve:
            seed = (np.atleast_2d(phi) for phi in seed_curve[rho])
            box = replace(box, candidates=tuple(map(np.concatenate, zip(box.candidates, seed))))
        searches.append(_Search(box, obj.t_values, budget))
    found, = _run([(searches, None if full_curve else 0.0, list)], polish=_polish)

    curve, argmins = [], {}
    last = (t_obs, obj.zero)
    for rho, point in zip(grid, found):
        last = min(point, last, key=lambda pair: pair[0])   # a tie keeps the point
        curve.append((rho, last[0]))
        argmins[rho] = last[1]

    def rv(threshold) -> float:
        return 0.0 if t_obs <= threshold else next(
            (rho for rho, val in curve if val <= threshold), RV_NOT_ATTAINED)

    return RVReport(rv_estimate=rv(0.0), rv_ci=rv(DEFAULT_CI_MULTIPLIER),
                    curve=curve, confounder_mode=confounder_mode,
                    effect_kind=effect_kind, sign_flip=obj.flip < 0,
                    observed_t=t_obs, argmins=argmins)


def rv_estimate_only(mm: MediationMoments, effect_kind: str, rho_grid=None,
                     confounder_mode: str = "scalar_u",
                     randomized: bool = False) -> float:
    """Robustness value for the point estimate alone (threshold 0), without
    a bootstrap plan and without a search: the worst estimate at each rho is
    the least over the box's candidates, which hold its exact minimizers,
    and bisection over the grid finds where that monotone curve reaches 0."""
    grid = _grid(DEFAULT_RHO_GRID if rho_grid is None else rho_grid, "rho_grid", 1.0)
    obj = _build_objective(mm, None, effect_kind, confounder_mode)
    if obj.flip * obj.observed <= 0.0:
        return 0.0

    def min_est(rho) -> float:
        candidates = _candidates(obj, confounder_mode, *_radii(rho, randomized))
        return float(np.min(obj.flip * obj.point_estimates(*candidates)))

    lo, hi = 0, len(grid) - 1
    if min_est(grid[hi]) > 0.0:
        return RV_NOT_ATTAINED
    while lo < hi:
        mid = (lo + hi) // 2
        if min_est(grid[mid]) <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    return grid[lo]
