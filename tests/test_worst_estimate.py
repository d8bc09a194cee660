"""The exact worst-case estimates that every search box carries.

Each robustness box holds, among its candidates, the minimizers of the
sign-flipped estimate under the strength bound, so the least candidate value
is the worst estimate itself. It is checked against random box points, the
DIRECT + polish search and an independent angle-grid reference, and a
scalar-mode witness is rebuilt as an explicit confounder column.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from bksens import linalg, optimize, robustness
from bksens.benchmarking import BenchmarkSpec, _leave_j_box, benchmark_moments
from bksens.benchmarking import _radii as leave_j_radii
from bksens.confounders import ConfounderTarget, construct_confounder
from bksens.mediation import fit_observed
from bksens.optimize import _minimize_over_boxes, _Search, _SearchBox
from bksens.robustness import BALL_SHRINK, EffectObjective, _box_for
from bksens.simulation import S4Design, rv_ratio_study

from conftest import lstsq_coef, make_data

CASES = dict(
    kind=st.sampled_from(["direct", "indirect"]),
    q=st.sampled_from([1, 2, 3, 8]),
    mode=st.sampled_from(["scalar_u", "vector_u"]),
    randomized=st.booleans(),
    rho=st.sampled_from([0.01, 0.1, 0.3, 0.6, 0.95]),
    seed=st.integers(0, 2 ** 32 - 1),
)


def _objective(kind, q, seed) -> EffectObjective:
    """Random full-sample coefficients of either sign, without a plan."""
    rng = np.random.default_rng(seed)
    s0 = rng.normal(size=1)
    w_a = rng.normal(size=(1 if kind == "direct" else q, 1))
    w_b = rng.normal(size=(q, 1))
    cross = None if kind == "direct" else rng.normal(size=1)
    return EffectObjective(kind=kind, q=q, flip=-1.0 if s0[0] < 0 else 1.0,
                           full=(s0, w_a, w_b, cross), cov=None)


def _flipped(obj, *phis) -> np.ndarray:
    return obj.flip * obj.point_estimates(*phis)


def _worst(obj, box) -> float:
    return float(_flipped(obj, *box.candidates).min())


def _radii(rho, randomized):
    rho = rho * BALL_SHRINK
    rho_a = 0.0 if randomized else rho
    return rho, np.sqrt(rho * rho_a / (1 - rho_a)), np.sqrt(rho * rho / (1 - rho))


def _refine(f, grid):
    """Least value of a vectorized f: a grid, then a bounded solve around its
    best point."""
    vals = f(grid)
    i = int(np.argmin(vals))
    lo, hi = grid[max(i - 2, 0)], grid[min(i + 2, len(grid) - 1)]
    res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return min(vals[i], res.fun)


def _reference_drop(obj, mode, rho, randomized) -> float:
    """Least flip * (estimate - observed) over the strength balls, from an
    angle grid on span(a, b) refined by a bounded 1-D solve."""
    rho, r3, r4 = _radii(rho, randomized)
    _, w_a, w_b, cross = obj.full
    a, b = obj.flip * w_a[:, 0], obj.flip * w_b[:, 0]
    if obj.kind == "direct":
        # |phi_1| <= r1 / cos t3 and |phi_2| = sqrt(rho) tan t3, t3 <= t3max
        t3 = np.linspace(0.0, np.arctan(np.sqrt(rho / (1 - rho))), 2001)
        return float(np.min(-r3 * abs(a[0]) / np.cos(t3)
                            - np.sqrt(rho) * np.tan(t3) * np.linalg.norm(b)))
    kappa = obj.flip * cross[0]
    if obj.q == 1:
        # bilinear in the two scalars: a vertex of the rectangle wins
        return min(sa * r3 * a[0] + sb * r4 * b[0] + kappa * sa * sb * r3 * r4
                   for sa in (-1, 1) for sb in (-1, 1))
    basis = np.linalg.svd(np.column_stack([a, b]), full_matrices=False)[0]
    angles = np.linspace(0.0, 2 * np.pi, 7201)

    def along(theta):
        return basis @ np.array([np.cos(theta), np.sin(theta)])

    if mode == "scalar_u":
        # phi_a = r3 s_a t1, phi_b = r4 s_b t1 with |t1| = 1, |s_a|, |s_b| <= 1
        return min(_refine(lambda th: (sa * r3 * a + sb * r4 * b) @ along(th)
                           + kappa * sa * sb * r3 * r4, angles)
                   for sa in (-1, 1) for sb in (-1, 1))

    # vector mode: the best phi_b is -r4 unit(b + kappa phi_a); phi_a is
    # scanned over circles of several radii
    def value(theta, r):
        phi_a = r * along(theta)
        return a @ phi_a - r4 * np.linalg.norm((b + kappa * phi_a.T).T, axis=0)

    return min(_refine(lambda th: value(th, r), angles)
               for r in np.linspace(0.0, r3, 5))


@settings(max_examples=80, deadline=None)
@given(**CASES)
def test_worst_estimate_undercuts_random_box_points(kind, q, mode, randomized,
                                                    rho, seed):
    obj = _objective(kind, q, seed)
    box = _box_for(obj, mode, rho, randomized)
    worst = _worst(obj, box)
    lower, upper = np.array(box.space.lower), np.array(box.space.upper)
    x = np.random.default_rng(seed).uniform(lower, upper, size=(2000, lower.size))
    assert worst <= _flipped(obj, *box.args(x)).min() + 1e-12 * (1 + abs(worst))


@settings(max_examples=25, deadline=None)
@given(**CASES)
def test_worst_estimate_undercuts_the_search(kind, q, mode, randomized, rho,
                                             seed):
    obj = _objective(kind, q, seed)
    box = _box_for(obj, mode, rho, randomized)
    (searched, _), = _minimize_over_boxes(
        [_Search(_SearchBox(box.space, box.unpack, obj.zero, box.params),
                 lambda *phis: _flipped(obj, *phis), 1000)], polish=robustness._polish)
    worst = _worst(obj, box)
    assert worst <= searched + 1e-12 * (1 + abs(worst))


@settings(max_examples=80, deadline=None)
@given(**CASES)
def test_worst_estimate_matches_angle_grid_reference(kind, q, mode, randomized,
                                                     rho, seed):
    obj = _objective(kind, q, seed)
    drop = _worst(obj, _box_for(obj, mode, rho, randomized)) \
        - obj.flip * obj.observed
    ref = _reference_drop(obj, mode, rho, randomized)
    assert abs(drop - ref) <= 1e-9 * abs(ref), (drop, ref)


@settings(max_examples=200, deadline=None)
@given(q=st.sampled_from([2, 3, 8]), case=st.sampled_from(["any", "a_perp_b", "clamp"]),
       r3=st.floats(1e-3, 10.0), r4=st.floats(1e-3, 10.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_golden_section_matches_bounded_brent(q, case, r3, r4, seed):
    # the vector-mode witness's 1-D solve against scipy's bounded Brent on
    # g(x), rebuilt here from a, b and kappa in their own frame
    rng = np.random.default_rng(seed)
    a, b, kappa = rng.normal(size=q), rng.normal(size=q), rng.normal(scale=2.0)
    nb = np.linalg.norm(b)
    bhat = b / nb
    if case != "any":
        a -= (a @ bhat) * bhat
    if case == "clamp":
        # |b + kappa phi_a| reaches 0 at an end of [-r3, r3]
        kappa = np.sign(kappa) * nb / r3
    ab, na_perp = a @ bhat, np.linalg.norm(a - (a @ bhat) * bhat)

    def g(x):
        return (ab * x - na_perp * np.sqrt(max(r3 * r3 - x * x, 0.0)) - r4 * np.sqrt(
            max(nb * nb + 2.0 * kappa * nb * x + kappa * kappa * r3 * r3, 0.0)))

    brent = minimize_scalar(g, bounds=(-r3, r3), method="bounded",
                            options={"xatol": 1e-12 * r3}).x
    bound = g(brent) + 1e-12 * (abs(g(brent)) + 1.0)
    phi_a, phi_b = robustness._vector_minimizers(a, b, kappa, r3, r4)[0]
    assert g(float(phi_a[0] @ bhat)) <= bound
    value = phi_a[0] @ a + phi_b[0] @ b + kappa * phi_a[0] @ phi_b[0]
    assert value <= bound


@pytest.mark.parametrize("rho", [0.05, 0.2, 0.5])
def test_scalar_witness_is_attained_by_a_confounder(rho):
    # the winning scalar-mode candidate phi_a = r3 t1, phi_b = sigma r4 t1
    # is r_m = sqrt(rho) t1, r_a = sqrt(rho), r_y = sigma sqrt(rho)
    data = make_data(np.random.default_rng(4100), n=200, p=2, q=3)
    obj = EffectObjective.for_indirect(fit_observed(data), None)
    box = _box_for(obj, "scalar_u", rho, False)
    best = int(np.argmin(_flipped(obj, *box.candidates)))
    phi_a, phi_b = (phi[best] for phi in box.candidates)
    rho, r3, r4 = _radii(rho, False)
    t1 = phi_a / r3
    sigma = np.sign(phi_a @ phi_b)
    assert np.linalg.norm(t1) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(phi_b, sigma * r4 * t1, rtol=0, atol=1e-14)

    root = np.sqrt(rho)
    u = construct_confounder(data, ConfounderTarget(
        r_y=sigma * root, r_m=root * t1, r_a=root))
    coef_y = lstsq_coef(data.y, np.column_stack([data.a, data.m, data.c, u]))
    beta1 = lstsq_coef(data.m, np.column_stack([data.a, data.c, u]))[0]
    long_indirect = float(coef_y[1:4] @ beta1)
    predicted = float(obj.point_estimates(phi_a[None, :], phi_b[None, :])[0])
    assert abs(predicted - long_indirect) < 1e-8


@pytest.mark.parametrize("q", [1, 3])
def test_every_candidate_batch_has_one_zero_row(q):
    data = make_data(np.random.default_rng(4200), n=150, p=2, q=q)
    mm = fit_observed(data)
    boxes = [_box_for(obj, mode, rho, randomized)
             for obj in (EffectObjective.for_direct(mm, None),
                         EffectObjective.for_indirect(mm, None))
             for mode in ("scalar_u", "vector_u")
             for randomized in (False, True)
             for rho in (0.0, 0.2)]
    bm = benchmark_moments(data, 0)
    boxes += [_leave_j_box(bm, leave_j_radii(bm, BenchmarkSpec(
                               j=0, k_a_bound=ka, k_m_bound=km, k_y_bound=1.0)), q, 0)
              for ka in (0.0, 1.0) for km in (0.0, 1.0)]
    for box in boxes:
        flat = np.column_stack([c.reshape(len(c), -1) for c in box.candidates])
        assert not flat[0].any()
        assert (~flat.any(axis=1)).sum() == 1
        assert len(np.unique(flat, axis=0)) == len(flat)


def _distinct_by_loop(rows):
    """The row-by-row reference for ``linalg._distinct``."""
    args = [np.concatenate(col) for col in zip(*rows)]
    flat = np.column_stack([a.reshape(len(a), -1) for a in args])
    keep = [i for i, row in enumerate(flat) if not (flat[:i] == row).all(1).any()]
    return tuple(a[keep] for a in args)


@pytest.mark.parametrize("seed", range(4))
def test_distinct_keeps_first_rows_as_the_loop_does(seed):
    # repeats, -0.0 against 0.0 (equal) and NaN rows (never equal, so kept)
    rng = np.random.default_rng(seed)
    pool = [(np.zeros((1, 1)), np.zeros((1, 2))),
            (np.zeros((1, 1)), np.array([[-0.0, 0.0]])),
            (np.full((1, 1), np.nan), np.ones((1, 2)))]
    pool += [(rng.integers(-1, 2, (1, 1)).astype(float),
              rng.integers(-1, 2, (1, 2)).astype(float)) for _ in range(6)]
    rows = [pool[i] for i in rng.integers(0, len(pool), 30)]
    got, expected = linalg._distinct(rows), _distinct_by_loop(rows)
    assert all(g.tobytes() == e.tobytes() for g, e in zip(got, expected))


def test_rv_ratio_study_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rv_ratio_study started a numerical search")

    # robustness looks the search up in optimize when it first runs one
    monkeypatch.setattr(optimize, "direct_lockstep", refuse)
    monkeypatch.setattr(robustness, "minimize", refuse)
    rows = rv_ratio_study([S4Design(dim_m=3, r2_am=0.3, r2_ym=0.3, n=200)],
                          replications=2, base_seed=3)
    assert 0.0 < rows[0].rv_vector <= rows[0].rv_scalar < 1.0
