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

One minimizer, ``_minimize_over_boxes``, runs every search that remains:
the t searches and formal benchmarking's. A search (``_Search``) has a
``_SearchBox``: a ``_Box``, the map from the box's points to the value
function's arguments (phi pairs here, leave-one-out triples in
benchmarking) and one batch of candidates, zero first, evaluated with the
optimizer's optimum; the box builders list each row once. A box that bounds
no confounding has no columns and zero as its only candidate. The minimizer
takes any number of searches, and those whose boxes have the same number of
columns advance in lockstep (``optimize.direct_lockstep``): a pass calls
each box map once, on the new points of all the searches whose boxes share
it (benchmarking's boxes of one layout and effect do), and each value
function once, on the points of all the searches that read it, grouped by
``_shared_calls``, which ``_evaluate`` uses too. The sweep driver
``_run`` calls it for the robustness values, a search per rho, and for
formal benchmarking. The optimizer is imported on the first search, so
``rv_estimate_only`` and the ``simulate`` study never load it. The
Nelder-Mead polish calls ``minimize``, which imports scipy on its first
call; no other code here needs scipy.
The minimum t-statistic functions and both RV drivers share one setup, which
checks the effect, the confounder mode and the rho grid before any search.

Every value function is point-pure: a row's value must not depend on the
other rows of its batch, so per-point code uses ``np.einsum``, never a BLAS
product, whose blocking (and with it a row's rounding) follows the batch.
A search's values are then the same whichever searches share its calls.

The direct-effect range does not depend on whether the confounder is scalar
or vector, so both modes share one code path. The indirect-effect range does:
scalar mode ties the two phi vectors to a shared direction, vector mode
searches two independent balls. Every search box, the benchmarking one
included, is built by ``_Box`` from intervals, balls (a signed radius when
q = 1, otherwise a radius and q-1 angles) and spheres (angles alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .mediation import (
    DEFAULT_CI_MULTIPLIER,
    EffectObjective,
    MediationMoments,
    _objective,
)

if TYPE_CHECKING:  # a simulate job, which never bootstraps, loads no inference
    from .inference import BootstrapPlan

DEFAULT_RHO_GRID = tuple(np.round(np.arange(1, 100) / 100.0, 2))
DEFAULT_BUDGET = 4000
BALL_SHRINK = 1.0 - 1e-9
RV_NOT_ATTAINED = 1.0
# searches per lockstep, whose piles are live together: 99 rho points run as three
LOCKSTEP_SEARCHES = 33


def _sphere_from_angles(angles: np.ndarray) -> np.ndarray:
    """Map (k, q-1) spherical angles to (k, q) unit vectors."""
    k, qm1 = angles.shape
    out = np.ones((k, qm1 + 1))
    if qm1:
        sin_prod = np.sin(angles)
        if qm1 > 1:
            sin_prod = np.cumprod(sin_prod, axis=1)
            out[:, 1:qm1] = sin_prod[:, :-1]
        out[:, :qm1] *= np.cos(angles)
        out[:, qm1] = sin_prod[:, -1]
    return out


class _Box:
    """A search box built block by block, each block with its caller's bounds.

    - ``interval(lo, hi)``: one column in [lo, hi];
    - ``ball(q, r)``: a point of the radius-r ball of R^q, as a signed radius
      in [-r, r] when q = 1 and otherwise a radius in [0, r] followed by q-1
      spherical angles;
    - ``sphere(q)``: a unit vector of R^q, as its q-1 angles.

    ``split`` maps (k, dims) box points to each block's columns: an interval's
    (k,) values, a ball's ((k,) radius, (k, q) direction), a sphere's (k, q)
    direction. An absent block (``present=False``) takes no columns and
    splits to zeros; an absent ball has radius 0 along the first axis.
    """

    def __init__(self):
        self.lower: list[float] = []
        self.upper: list[float] = []
        self._blocks: list[tuple] = []   # (kind, first column or None, q)

    def _add(self, kind, q, present, lo, hi) -> "_Box":
        self._blocks.append((kind, len(self.lower) if present else None, q))
        if present:
            self.lower += lo
            self.upper += hi
        return self

    @staticmethod
    def _angles(q: int) -> tuple[list[float], list[float]]:
        lo = [0.0] * (q - 1)
        hi = [np.pi] * max(q - 2, 0) + ([2.0 * np.pi] if q >= 2 else [])
        return lo, hi

    def interval(self, lo: float, hi: float, present: bool = True) -> "_Box":
        return self._add("interval", 1, present, [lo], [hi])

    def ball(self, q: int, r: float, present: bool = True) -> "_Box":
        if q == 1:
            return self._add("ball", q, present, [-r], [r])
        alo, ahi = self._angles(q)
        return self._add("ball", q, present, [0.0] + alo, [r] + ahi)

    def sphere(self, q: int) -> "_Box":
        return self._add("sphere", q, True, *self._angles(q))

    def split(self, x: np.ndarray) -> list:
        x = np.atleast_2d(x)
        k = x.shape[0]
        out = []
        for kind, col, q in self._blocks:
            if kind == "interval":
                out.append(np.zeros(k) if col is None else x[:, col])
            elif col is None:
                direction = np.zeros((k, q))
                direction[:, 0] = 1.0
                out.append((np.zeros(k), direction))
            else:
                first = col + (kind == "ball" and q > 1)
                direction = _sphere_from_angles(x[:, first:first + q - 1])
                out.append(direction if kind == "sphere" else (x[:, col], direction))
        return out


# ---------------------------------------------------------------------------
# Search boxes: a _Box, the map from its points to the value function's
# arguments and the candidates evaluated beside the optimizer's optimum.
# ---------------------------------------------------------------------------

@dataclass
class _SearchBox:
    space: _Box
    unpack: callable              # X (k, dims) -> the value function's arguments
    candidates: tuple             # one argument batch, zero first


def _distinct(rows) -> tuple:
    """Argument tuples with a leading batch axis -> one batch holding each
    row once, at its first position."""
    args = [np.concatenate(col) for col in zip(*rows)]
    flat = np.column_stack([a.reshape(len(a), -1) for a in args])
    same = (flat[:, None, :] == flat[None, :, :]).all(2)
    keep = ~np.tril(same, -1).any(1)   # no equal row before it
    return tuple(a[keep] for a in args)


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v|, or the first axis when v is zero."""
    nv = np.linalg.norm(v)
    return v / nv if nv > 0 else np.eye(len(v))[0]


def _direct_box(rho: float, rho_a: float, obj) -> _SearchBox:
    r1 = np.sqrt(rho * rho_a / (1.0 - rho_a)) if rho_a > 0 else 0.0
    t3max = np.arctan(np.sqrt(rho / (1.0 - rho)))
    box = _Box().interval(-1.0, 1.0, present=rho_a > 0).ball(obj.q, t3max)

    def to_phi(x: np.ndarray):
        t1, (t3, t2) = box.split(x)
        return (r1 * t1 / np.cos(t3))[:, None], np.sqrt(rho) * np.tan(t3)[:, None] * t2

    # corners; the estimate is affine in the phis and |phi_1| grows with t3, so
    # it is least at t3 = t3max, both phis opposing the flipped coefficients
    d2 = _unit(obj.full[2][:, 0])
    corners = [obj.zero]
    for s1 in (-1.0, 0.0, 1.0):
        for s2 in (-1.0, 1.0):
            corners.append((np.array([[s1 * r1 / np.cos(t3max)]]),
                            s2 * np.sqrt(rho) * np.tan(t3max) * d2[None, :]))
        corners.append((np.array([[s1 * r1]]), np.zeros((1, obj.q))))
    return _SearchBox(box, to_phi, _distinct(corners))


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


def _indirect_box(rho: float, rho_a: float, confounder_mode: str,
                  obj) -> _SearchBox:
    q = obj.q
    r3 = np.sqrt(rho * rho_a / (1.0 - rho_a)) if rho_a > 0 else 0.0
    r4 = np.sqrt(rho * rho / (1.0 - rho))

    if confounder_mode == "scalar_u":
        # one shared direction, a signed length along it for each phi
        box = _Box().interval(-1.0, 1.0, present=r3 > 0) \
            .interval(-1.0, 1.0).sphere(q)

        def to_phi(x: np.ndarray):
            t2, t3, t1 = box.split(x)
            return r3 * t2[:, None] * t1, r4 * t3[:, None] * t1
    else:
        # two independent unit balls, scaled by r3 and r4
        box = _Box().ball(q, 1.0, present=r3 > 0).ball(q, 1.0)

        def to_phi(x: np.ndarray):
            (rad3, dir3), (rad4, dir4) = box.split(x)
            return r3 * rad3[:, None] * dir3, r4 * rad4[:, None] * dir4

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
    return _SearchBox(box, to_phi, _distinct(corners))


# ---------------------------------------------------------------------------
# Minimization over a search box.
# ---------------------------------------------------------------------------

def minimize(fun, x0, **kwargs):
    """``scipy.optimize.minimize``, imported on the first polish: the CLI's
    jobs other than ``rv`` never polish and so never load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **kwargs)


@dataclass(frozen=True)
class _Search:
    """One minimization: a box, the batched value function its points go to,
    DIRECT's budget and an optional stop value."""

    box: _SearchBox
    value_fn: callable
    budget: int
    stop: float | None = None


def _shared_calls(calls) -> list:
    """``fn(*args)`` for each (fn, args) of ``calls``, args arrays with a
    leading batch axis, made as one call per distinct ``fn`` over the args
    of all the calls that share it, concatenated; each call gets its rows of
    the result, an array or a tuple of arrays."""
    shared = {}
    for i, (fn, _) in enumerate(calls):
        shared.setdefault(fn, []).append(i)
    out = [None] * len(calls)
    for fn, idx in shared.items():
        if len(idx) == 1:
            out[idx[0]] = fn(*calls[idx[0]][1])
            continue
        batches = [calls[i][1] for i in idx]
        result = fn(*(np.concatenate(col) for col in zip(*batches)))
        ends = np.cumsum([len(args[0]) for args in batches]).tolist()
        for i, lo, hi in zip(idx, [0] + ends, ends):
            out[i] = (tuple(part[lo:hi] for part in result) if isinstance(result, tuple)
                      else result[lo:hi])
    return out


def _evaluate(pairs) -> list:
    """The values of (search, argument batch) pairs, with one call per
    distinct value function over the batches of all the pairs that share
    it."""
    return [np.asarray(vals) for vals in
            _shared_calls([(search.value_fn, args) for search, args in pairs])]


def _first_min(args, vals):
    """The first least of ``vals``, a NaN ranking behind +inf, and its
    arguments with a batch axis of length 1."""
    nan = np.isnan(vals)
    best = int(np.lexsort((nan, np.where(nan, np.inf, vals)))[0])
    return float(vals[best]), tuple(arg[best:best + 1] for arg in args)


def _minimize_over_boxes(searches, polish: bool = False, drop=None) -> list:
    """Minimum of each search's batched value function over its box and its
    candidates; returns (value, the winner's arguments with a batch axis of
    length 1) per search, None for one ``drop`` abandoned.

    All candidates are evaluated first, one call per value function
    (``_evaluate``). A search with a ``stop`` value whose best of them is at
    or below it returns that best and runs no DIRECT: the search is a
    decision, and its value is then a witness at or below ``stop``, not the
    minimum. Otherwise DIRECT searches the box when it has columns, ending
    after its first sweep at or below ``stop``. Searches whose boxes have the
    same number of columns advance in lockstep (``optimize.direct_lockstep``),
    LOCKSTEP_SEARCHES at a time: each pass calls every box unpack once, on the
    new points of all the searches whose boxes share it, and every value
    function once, on the unpacked points of all the searches that share it
    (``_shared_calls``). Each optimum is then optionally polished by
    Nelder-Mead, the optima are evaluated in one more call per value function,
    and the first minimum over each search's optimum and candidates wins; a
    NaN ranks as +inf, behind a real +inf, so it is returned only when every
    value is NaN.

    ``drop(bounds)``, if given, is called before each pass with every
    search's best value so far, which its result can only undercut (+inf
    where none is finite), and returns a mask of searches to abandon.
    """
    from .optimize import direct_lockstep

    given = [s.box.candidates for s in searches]
    given_vals = _evaluate(list(zip(searches, given)))
    bounds = np.array([np.min(np.where(np.isnan(v), np.inf, v)) for v in given_vals])
    optima = [None] * len(searches)
    dropped = [False] * len(searches)
    layouts = {}
    for i, s in enumerate(searches):
        if s.box.space.lower and not (s.stop is not None and bounds[i] <= s.stop):
            layouts.setdefault(len(s.box.space.lower), []).append(i)
    for idx in [group[at:at + LOCKSTEP_SEARCHES] for group in layouts.values()
                for at in range(0, len(group), LOCKSTEP_SEARCHES)]:
        group = [searches[i] for i in idx]

        def objective(batches, group=group):
            args = _shared_calls([(group[s].box.unpack, (x,)) for s, x in batches])
            return _evaluate([(group[s], a) for (s, _), a in zip(batches, args)])

        def abandon(best, idx=idx):
            mine = bounds.copy()
            mine[idx] = np.minimum(mine[idx], best)
            return drop(mine)[idx]

        found = direct_lockstep(
            objective, [s.box.space.lower for s in group],
            [s.box.space.upper for s in group], [s.budget for s in group],
            [s.stop for s in group], drop=None if drop is None else abandon)
        for i, s, res in zip(idx, group, found):
            if res is None:
                dropped[i] = True
                continue
            bounds[i] = min(bounds[i], res.fun)
            x_best = res.x
            if polish:
                x_best = _polish(s, res)
            optima[i] = s.box.unpack(x_best[None, :])
    ran = [i for i, opt in enumerate(optima) if opt is not None]
    for i, vals in zip(ran, _evaluate([(searches[i], optima[i]) for i in ran])):
        given[i] = [np.concatenate(col) for col in zip(optima[i], given[i])]
        given_vals[i] = np.concatenate([vals, given_vals[i]])
    return [None if gone else _first_min(args, vals)
            for args, vals, gone in zip(given, given_vals, dropped)]


def _polish(search: _Search, res):
    """Nelder-Mead from DIRECT's optimum ``res``, inside the box; returns
    the better of the two points."""
    from scipy.optimize import Bounds

    lower = np.array(search.box.space.lower)
    upper = np.array(search.box.space.upper)

    def scalar_obj(x):
        return float(search.value_fn(*search.box.unpack(x[None, :]))[0])

    pol = minimize(scalar_obj, res.x, method="Nelder-Mead",
                   bounds=Bounds(lower, upper),
                   options={"maxfev": 150 * lower.size, "xatol": 1e-7,
                            "fatol": 1e-12})
    return np.clip(pol.x, lower, upper) if pol.fun < res.fun else res.x


def _run(plans, polish: bool = False) -> list:
    """Run the searches of ``plans``, each (searches, threshold, finish), as
    one batch and return each plan's ``finish`` of its results.

    A plan with a threshold is a sweep over a grid in increasing order, and
    ``finish`` takes its results up to the first at or below the threshold.
    A search's value can only undercut its best value so far, so once that
    is at or below the threshold the sweep's later points are dropped. Values
    are point-pure, so the crossing search's final value stays at or below
    that bound, and the walk up to the first crossing never reaches a
    dropped point.
    """
    searches, sweeps = [], []
    for plan_searches, threshold, _ in plans:
        if threshold is not None:
            sweeps.append((len(searches), len(searches) + len(plan_searches), threshold))
        searches += plan_searches

    def drop(bounds):
        mask = np.zeros(len(bounds), dtype=bool)
        for first, end, threshold in sweeps:
            crossed = np.flatnonzero(bounds[first:end] <= threshold)
            if crossed.size:
                mask[first + crossed[0] + 1:end] = True
        return mask

    results = _minimize_over_boxes(searches, polish=polish,
                                   drop=drop if sweeps else None)
    outcomes, at = [], 0
    for plan_searches, threshold, finish in plans:
        walked = []
        for found in results[at:at + len(plan_searches)]:
            walked.append(found)
            if threshold is not None and found[0] <= threshold:
                break
        outcomes.append(finish(walked))
        at += len(plan_searches)
    return outcomes


def _check_kind(effect_kind: str) -> None:
    if effect_kind not in ("direct", "indirect"):
        raise ValueError(f"unknown effect_kind {effect_kind!r}")


def _build_objective(mm, plan, effect_kind, confounder_mode) -> EffectObjective:
    """The objective every search over strength bounds starts from; rejects
    an unknown effect or confounder mode before any search runs."""
    if confounder_mode not in ("scalar_u", "vector_u"):
        raise ValueError(f"unknown confounder_mode {confounder_mode!r}")
    _check_kind(effect_kind)
    return _objective(effect_kind, mm, plan)


def _box_for(obj, confounder_mode, rho, randomized) -> _SearchBox:
    """``obj``'s search box under the strength bound ``rho``, shrunk by
    BALL_SHRINK; ``randomized`` pins the exposure channel at zero."""
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    rho *= BALL_SHRINK
    rho_a = 0.0 if randomized else rho
    if rho == 0.0:
        return _SearchBox(_Box(), None, obj.zero)
    if obj.kind == "direct":
        return _direct_box(rho, rho_a, obj)
    return _indirect_box(rho, rho_a, confounder_mode, obj)


def _rho_grid(rho_grid) -> list[float]:
    grid = [float(r) for r in (DEFAULT_RHO_GRID if rho_grid is None else rho_grid)]
    if not grid or any(not 0.0 < r < 1.0 for r in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("rho_grid must be nonempty, strictly increasing and "
                         "inside (0, 1)")
    return grid


def _min_t(mm, plan, effect_kind, rho, confounder_mode, randomized, budget) -> float:
    obj = _build_objective(mm, plan, effect_kind, confounder_mode)
    box = _box_for(obj, confounder_mode, rho, randomized)
    return _minimize_over_boxes([_Search(box, obj.t_values, budget)], polish=True)[0][0]


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
    grid = _rho_grid(rho_grid)
    obj = _build_objective(mm, plan, effect_kind, confounder_mode)
    t_obs = obj.observed_t()

    searches = []
    for rho in grid if full_curve or t_obs > 0.0 else ():
        box = _box_for(obj, confounder_mode, rho, randomized)
        if seed_curve is not None and rho in seed_curve:
            seed = (np.atleast_2d(phi) for phi in seed_curve[rho])
            box = replace(box, candidates=tuple(map(np.concatenate, zip(box.candidates, seed))))
        searches.append(_Search(box, obj.t_values, budget))
    found, = _run([(searches, None if full_curve else 0.0, list)], polish=True)

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
    grid = _rho_grid(rho_grid)
    obj = _build_objective(mm, None, effect_kind, confounder_mode)
    if obj.flip * obj.observed <= 0.0:
        return 0.0

    def min_est(rho) -> float:
        box = _box_for(obj, confounder_mode, rho, randomized)
        return float(np.min(obj.flip * obj.point_estimates(*box.candidates)))

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
