import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksens import optimize, robustness
from bksens.errors import DimensionMismatch
from bksens.inference import bootstrap_moments
from bksens.mediation import (
    MediationData,
    NaturalSensitivity,
    _direct_coeffs,
    _effect_values,
    _indirect_coeffs,
    direct_adjusted,
    fit_observed,
)
from bksens.robustness import (
    DEFAULT_RHO_GRID,
    EffectObjective,
    _box_for,
    _build_objective,
    min_t_direct,
    min_t_indirect,
    robustness_value,
    rv_estimate_only,
)
from bksens.simulation import S4Design, simulate_design

from conftest import make_data


def _scalar_arrays(moments):
    """Per-resample pieces of the single-mediator formulas, for oracles."""
    rhat = np.array([float(m.r_m_a_c[0]) for m in moments])
    scale = np.array([np.sqrt(m.var_y_res_amc / m.var_a_res_mc) for m in moments])
    base = np.array([m.theta1_obs for m in moments])
    theta3 = np.array([float(m.theta3_obs[0]) for m in moments])
    beta1 = np.array([float(m.beta1_obs[0]) for m in moments])
    sd_mac = np.array([np.sqrt(m.cov_m_res_ac[0, 0]) for m in moments])
    sd_y = np.array([np.sqrt(m.var_y_res_amc) for m in moments])
    sd_ac = np.array([np.sqrt(m.var_a_res_c) for m in moments])
    return rhat, scale, base, theta3, beta1, sd_mac, sd_y, sd_ac


def grid_min_t_direct(mm, plan, rho, k=41):
    """Exhaustive-grid oracle over the natural parameters, q = 1."""
    r = np.sqrt(rho) * (1 - 1e-9)
    axis = np.linspace(-r, r, k)
    rhat, scale, base, *_ = _scalar_arrays(plan.moments)
    rhat0, scale0, base0, *_ = (np.array([v]) for v in _scalar_arrays([mm]))
    flip = -1.0 if mm.theta1_obs < 0 else 1.0
    best = np.inf
    rm, ra = np.meshgrid(axis, axis, indexing="ij")
    rm, ra = rm.ravel(), ra.ravel()

    def odds_aumc(rhat_b):
        t1 = ra[:, None] * np.sqrt(1 - rhat_b ** 2) / (
            np.sqrt(1 - ra ** 2)[:, None] * np.sqrt(1 - rm ** 2)[:, None])
        t2 = rhat_b * rm[:, None] / np.sqrt(1 - rm ** 2)[:, None]
        return t1 - t2

    odds_b = odds_aumc(rhat[None, :].repeat(len(rm), 0) * 0 + rhat)
    odds_0 = odds_aumc(rhat0)
    for ry in axis:
        est = base - ry * odds_b * scale
        se = est.std(axis=1, ddof=1)
        e0 = (base0 - ry * odds_0 * scale0)[:, 0]
        best = min(best, float(np.min(flip * e0 / se)))
    return best


def grid_min_t_indirect(mm, plan, rho, k=41):
    r = np.sqrt(rho) * (1 - 1e-9)
    axis = np.linspace(-r, r, k)
    arrays_b = _scalar_arrays(plan.moments)
    arrays_0 = _scalar_arrays([mm])
    flip = -1.0 if float(mm.theta3_obs @ mm.beta1_obs) < 0 else 1.0
    rm, ra = np.meshgrid(axis, axis, indexing="ij")
    rm, ra = rm.ravel(), ra.ravel()

    def estimates(arrays):
        _, _, _, theta3, beta1, sd_mac, sd_y, sd_ac = arrays
        odds_a = (ra / np.sqrt(1 - ra ** 2))[:, None]
        beta_u = beta1 - odds_a * sd_mac * rm[:, None] / sd_ac
        return beta_u, theta3, sd_y, sd_mac

    beta_b, theta3_b, sd_y_b, sd_mac_b = estimates(arrays_b)
    beta_0, theta3_0, sd_y_0, sd_mac_0 = estimates(arrays_0)
    best = np.inf
    for ry in axis:
        theta_u_b = theta3_b - ry * sd_y_b * rm[:, None] / (
            np.sqrt(1 - rm ** 2)[:, None] * sd_mac_b)
        est = theta_u_b * beta_b
        se = est.std(axis=1, ddof=1)
        theta_u_0 = theta3_0 - ry * sd_y_0 * rm[:, None] / (
            np.sqrt(1 - rm ** 2)[:, None] * sd_mac_0)
        e0 = (theta_u_0 * beta_0)[:, 0]
        best = min(best, float(np.min(flip * e0 / se)))
    return best


@pytest.fixture(scope="module")
def setup_q1():
    rng = np.random.default_rng(91)
    data = make_data(rng, n=150, p=1, q=1)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=200, seed=4)
    return mm, plan


@pytest.fixture(scope="module")
def setup_q2():
    rng = np.random.default_rng(92)
    data = make_data(rng, n=150, p=1, q=2)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=200, seed=4)
    return mm, plan


def test_rho_zero_returns_observed_t(setup_q1):
    mm, plan = setup_q1
    obj = EffectObjective.for_direct(mm, plan)
    assert min_t_direct(mm, plan, 0.0) == pytest.approx(obj.observed_t(), abs=1e-12)
    obj_i = EffectObjective.for_indirect(mm, plan)
    assert min_t_indirect(mm, plan, 0.0) == pytest.approx(obj_i.observed_t(), abs=1e-12)


def test_min_t_nonincreasing_in_rho(setup_q1):
    mm, plan = setup_q1
    values = [min_t_direct(mm, plan, rho, budget=600)
              for rho in np.arange(0.05, 0.55, 0.05)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_direct_min_t_matches_grid_oracle(setup_q1):
    mm, plan = setup_q1
    for rho in (0.1, 0.3):
        opt = min_t_direct(mm, plan, rho, budget=2000)
        grid = grid_min_t_direct(mm, plan, rho, k=61)
        assert abs(opt - grid) < 0.02
        # the optimizer may only undercut the (coarser) grid
        assert opt <= grid + 1e-9


def test_indirect_min_t_matches_grid_oracle(setup_q1):
    mm, plan = setup_q1
    for rho in (0.1, 0.3):
        opt = min_t_indirect(mm, plan, rho, budget=2000)
        grid = grid_min_t_indirect(mm, plan, rho, k=61)
        assert abs(opt - grid) < 0.02
        assert opt <= grid + 1e-9


def test_direct_modes_identical(setup_q2):
    mm, plan = setup_q2
    a = min_t_direct(mm, plan, 0.2, confounder_mode="scalar_u", budget=800)
    b = min_t_direct(mm, plan, 0.2, confounder_mode="vector_u", budget=800)
    assert a == b  # identical code path


def test_indirect_scalar_vs_vector_q1(setup_q1):
    mm, plan = setup_q1
    for rho in (0.1, 0.3):
        s = min_t_indirect(mm, plan, rho, confounder_mode="scalar_u", budget=1500)
        v = min_t_indirect(mm, plan, rho, confounder_mode="vector_u", budget=1500)
        assert abs(s - v) < 0.02


def test_indirect_vector_no_larger_than_scalar_q2(setup_q2):
    mm, plan = setup_q2
    for rho in (0.1, 0.3):
        s = min_t_indirect(mm, plan, rho, confounder_mode="scalar_u", budget=1500)
        v = min_t_indirect(mm, plan, rho, confounder_mode="vector_u", budget=1500)
        assert v <= s + 5e-3


def test_optimizer_beats_random_feasible_sensitivities(setup_q1):
    mm, plan = setup_q1
    rho = 0.25
    opt = min_t_direct(mm, plan, rho, budget=2000)
    obj = EffectObjective.for_direct(mm, plan)
    rng = np.random.default_rng(17)
    r = np.sqrt(rho)
    best_sample = np.inf
    for _ in range(500):
        s = NaturalSensitivity(r_y=r * rng.uniform(-1, 1),
                               r_m=np.array([r * rng.uniform(-1, 1)]),
                               r_a=r * rng.uniform(-1, 1))
        est = np.array([direct_adjusted(m, s) for m in plan.moments])
        e0 = direct_adjusted(mm, s)
        best_sample = min(best_sample, obj.flip * e0 / est.std(ddof=1))
    assert opt <= best_sample + 0.02


def test_phi_range_soundness_both_ways():
    rng = np.random.default_rng(23)
    rho_y = rho_m = rho_a = 0.3
    t3max = np.arctan(np.sqrt(rho_m / (1 - rho_m)))
    r1 = np.sqrt(rho_y * rho_a / (1 - rho_a))

    # natural parameters inside the strength balls map into the claimed box
    for _ in range(10_000):
        r_y = np.sqrt(rho_y) * rng.uniform(-1, 1)
        r_m = np.sqrt(rho_m) * rng.uniform(-1, 1)
        r_a = np.sqrt(rho_a) * rng.uniform(-1, 1)
        phi1 = r_y * r_a / np.sqrt((1 - r_a ** 2) * (1 - r_m ** 2))
        phi2 = r_y * r_m / np.sqrt(1 - r_m ** 2)
        t3 = np.arctan(abs(phi2) / np.sqrt(rho_y))
        assert t3 <= t3max + 1e-9
        assert abs(phi1) <= r1 / np.cos(t3) + 1e-9

    # every box point is realized by some feasible natural parameters
    rng2 = np.random.default_rng(29)
    for _ in range(10_000):
        t1 = rng2.uniform(-1, 1)
        t2 = rng2.choice([-1.0, 1.0])
        t3 = rng2.uniform(0, t3max)
        phi1 = r1 * t1 / np.cos(t3)
        phi2 = np.sqrt(rho_y) * np.tan(t3) * t2
        r_y = np.sqrt(rho_y)
        r_m = np.sin(t3) * t2
        r_a = np.sqrt(rho_a / (t1 ** 2 * rho_a - rho_a + 1)) * t1
        assert abs(r_y) <= np.sqrt(rho_y) + 1e-12
        assert abs(r_m) <= np.sqrt(rho_m) + 1e-12
        assert abs(r_a) <= np.sqrt(rho_a) + 1e-12
        back1 = r_y * r_a / np.sqrt((1 - r_a ** 2) * (1 - r_m ** 2))
        back2 = r_y * r_m / np.sqrt(1 - r_m ** 2)
        assert abs(back1 - phi1) < 1e-9
        assert abs(back2 - phi2) < 1e-9


def test_phi_evaluation_matches_estimator(setup_q2):
    mm, plan = setup_q2
    obj = EffectObjective.for_direct(mm, None)
    rng = np.random.default_rng(31)
    for _ in range(200):
        r_y = 0.7 * rng.uniform(-1, 1)
        r_a = 0.7 * rng.uniform(-1, 1)
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        r_m = 0.7 * rng.uniform(0, 1) * d
        s = NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=r_a)
        nrm2 = float(r_m @ r_m)
        phi1 = np.array([[r_y * r_a / np.sqrt((1 - r_a ** 2) * (1 - nrm2))]])
        phi2 = (r_y / np.sqrt(1 - nrm2)) * r_m[None, :]
        from_phi = float(obj.point_estimates(phi1, phi2)[0])
        assert abs(from_phi - direct_adjusted(mm, s)) < 1e-10


def test_robustness_value_report(setup_q1):
    mm, plan = setup_q1
    grid = np.round(np.arange(0.02, 1.0, 0.02), 2)
    rep = robustness_value(mm, plan, "direct", rho_grid=grid, budget=800)
    assert 0.0 < rep.rv_ci <= rep.rv_estimate <= 1.0
    rhos = [r for r, _ in rep.curve]
    tvals = [t for _, t in rep.curve]
    assert rhos == sorted(rhos)
    assert all(a >= b for a, b in zip(tvals, tvals[1:]))
    assert rep.observed_t > 0


def test_rv_zero_when_insignificant(rng):
    # weak effect: observed |t| below 1.96 forces the CI robustness value to 0
    n = 300
    a = rng.normal(size=n)
    m = 0.5 * a[:, None] + rng.normal(size=(n, 1))
    y = 0.01 * a + 0.02 * m[:, 0] + rng.normal(size=n)
    from bksens.mediation import MediationData

    data = MediationData.from_arrays(y=y, a=a, m=m)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=300, seed=9)
    rep = robustness_value(mm, plan, "direct", budget=400)
    assert rep.rv_ci == 0.0


def test_rv_estimate_only_agrees_with_full_scan(setup_q1):
    # both drivers see the exact worst estimate, so the values are equal
    grid = np.round(np.arange(0.02, 1.0, 0.02), 2)
    design = S4Design(dim_m=4, r2_am=0.3, r2_ym=0.3, n=300, seed=5)
    data = simulate_design(design)
    cases = [(*setup_q1, "scalar_u")] + [
        (fit_observed(data), bootstrap_moments(data, n_resamples=60, seed=3), mode)
        for mode in ("scalar_u", "vector_u")]
    for mm, plan, mode in cases:
        full = robustness_value(mm, plan, "indirect", rho_grid=grid,
                                confounder_mode=mode, budget=1200)
        quick = rv_estimate_only(mm, "indirect", rho_grid=grid,
                                 confounder_mode=mode)
        assert quick == full.rv_estimate
        assert 0.0 < quick < 1.0


def test_vector_confounder_phi_factorization(rng):
    # the direct/indirect estimates under an explicit multi-column confounder
    # equal the affine/bilinear forms evaluated at the phi pair implied by
    # its R-measures and covariance updates
    from bksens.confounders import construct_confounder_blocks
    from bksens.linalg import sym_inv_sqrt, sym_sqrt
    from bksens.ovb import cov_u_update

    from conftest import lstsq_coef

    worst = 0.0
    for trial in range(12):
        local = np.random.default_rng(2300 + trial)
        q = int(local.integers(1, 4))
        d_u = int(local.integers(2, 4))
        data = make_data(local, n=200, p=2, q=q)
        mm = fit_observed(data)

        def ball(shape, radius=0.8):
            block = local.uniform(-0.5, 0.5, size=shape)
            return block * min(1.0, radius / np.linalg.norm(block, 2))

        r_a, r_m, r_y = ball((1, d_u)), ball((q, d_u)), ball((1, d_u))
        g = local.normal(size=(d_u, d_u))
        cov_u = g @ g.T + 0.5 * np.eye(d_u)
        u = construct_confounder_blocks(
            data.c_user, [(data.a, r_a), (data.m, r_m), (data.y, r_y)],
            cov_u=cov_u)

        cov_u_ac = cov_u_update(cov_u, r_a)
        cov_u_amc = cov_u_update(cov_u_ac, r_m)
        phi1 = r_y @ sym_inv_sqrt(cov_u_amc) @ sym_sqrt(cov_u) @ r_a.T
        phi2 = r_m @ sym_sqrt(cov_u_ac) @ sym_inv_sqrt(cov_u_amc) @ r_y.T
        phi3 = r_m @ sym_inv_sqrt(cov_u_ac) @ sym_sqrt(cov_u) @ r_a.T

        obj_d = EffectObjective.for_direct(mm, None)
        obj_i = EffectObjective.for_indirect(mm, None)
        pred_d = float(obj_d.point_estimates(phi1.reshape(1, 1), phi2.T)[0])
        pred_i = float(obj_i.point_estimates(phi3.T, phi2.T)[0])

        design_y = np.column_stack([data.a, data.m, data.c, u])
        coef_y = lstsq_coef(data.y, design_y)
        beta1 = lstsq_coef(data.m, np.column_stack([data.a, data.c, u]))[0]
        worst = max(worst, abs(pred_d - float(coef_y[0])),
                    abs(pred_i - float(coef_y[1:1 + q] @ beta1)))
    assert worst < 1e-8, worst


def test_vector_mode_indirect_region_is_attainable(rng):
    # any point of the two independent balls searched in vector mode is
    # realized by an explicit two-column confounder, so the vector-mode
    # worst case is sharp rather than conservative
    from bksens.confounders import construct_confounder_blocks

    from conftest import lstsq_coef

    rho = 0.3
    for trial in range(8):
        local = np.random.default_rng(2400 + trial)
        q = int(local.integers(2, 4))
        data = make_data(local, n=200, p=1, q=q)
        mm = fit_observed(data)
        obj = EffectObjective.for_indirect(mm, None)
        r3 = np.sqrt(rho * rho / (1 - rho))
        r4 = np.sqrt(rho * rho / (1 - rho))

        t1 = local.normal(size=q); t1 *= local.uniform(0.2, 1.0) / np.linalg.norm(t1)
        t2 = local.normal(size=q); t2 *= local.uniform(0.2, 1.0) / np.linalg.norm(t2)
        # orthonormal basis of span{t1, t2} and coordinates therein
        basis, _ = np.linalg.qr(np.column_stack([t1, t2]))
        lam1 = basis.T @ t1
        lam2 = basis.T @ t2

        r_m = np.sqrt(rho) * basis                       # (q, 2)
        r_y = np.sqrt(rho) * lam2.reshape(1, 2)
        scale = np.sqrt(rho / (rho * (lam1 @ lam1) - rho + 1))
        r_a = scale * lam1.reshape(1, 2)
        cov_u = np.linalg.inv(np.eye(2) - r_a.T @ r_a)   # cov(u | a,c) = I
        u = construct_confounder_blocks(
            data.c_user, [(data.a, r_a), (data.m, r_m), (data.y, r_y)],
            cov_u=cov_u)

        phi3 = (r3 * t1)[None, :]
        phi4 = (r4 * t2)[None, :]
        pred = float(obj.point_estimates(phi3, phi4)[0])
        coef_y = lstsq_coef(data.y, np.column_stack([data.a, data.m, data.c, u]))
        beta1 = lstsq_coef(data.m, np.column_stack([data.a, data.c, u]))[0]
        ref = float(coef_y[1:1 + q] @ beta1)
        assert abs(pred - ref) < 1e-8


def test_box_blocks_bounds_and_split():
    from bksens.optimize import _Box, _sphere_from_angles

    def sphere_loop(angles):
        # reference: the running product of sines, one angle at a time
        out = np.empty((angles.shape[0], angles.shape[1] + 1))
        sin_prod = np.ones(angles.shape[0])
        for i in range(angles.shape[1]):
            out[:, i] = sin_prod * np.cos(angles[:, i])
            sin_prod = sin_prod * np.sin(angles[:, i])
        out[:, -1] = sin_prod
        return out

    local = np.random.default_rng(61)
    for q in range(1, 7):
        angles = local.uniform(0.0, 2.0 * np.pi, size=(5, q - 1))
        assert np.array_equal(_sphere_from_angles(angles), sphere_loop(angles))

    box = _Box().interval(-0.3, 0.3).ball(1, 0.5).ball(3, 0.7) \
        .interval(-1.0, 1.0, present=False).ball(2, 1.0, present=False).sphere(3)
    assert box.lower == [-0.3, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert box.upper == [0.3, 0.5, 0.7, np.pi, 2 * np.pi, np.pi, 2 * np.pi]
    x = local.uniform(box.lower, box.upper, size=(4, 7))
    a, (r1, d1), (r3, d3), absent, (r0, d0), d = box.split(x)
    assert np.array_equal(a, x[:, 0]) and np.array_equal(r1, x[:, 1])
    assert np.array_equal(d1, np.ones((4, 1)))
    assert np.array_equal(r3, x[:, 2])
    assert np.array_equal(d3, _sphere_from_angles(x[:, 3:5]))
    assert not absent.any() and not r0.any()
    assert np.array_equal(d0, np.tile([1.0, 0.0], (4, 1)))
    assert np.array_equal(d, _sphere_from_angles(x[:, 5:7]))


@pytest.mark.parametrize("grid", [DEFAULT_RHO_GRID[::-1], (0.5, 0.8, 1.0), (0.0, 0.1), ()])
def test_both_rv_drivers_reject_bad_grids(setup_q1, grid):
    # a reversed grid would let the bisection skip every crossing, a grid
    # point on the boundary is no strength bound at all, and an empty grid
    # would report every robustness value as not attained
    mm, plan = setup_q1
    with pytest.raises(ValueError, match="rho_grid"):
        robustness_value(mm, plan, "indirect", rho_grid=grid, budget=200)
    with pytest.raises(ValueError, match="rho_grid"):
        rv_estimate_only(mm, "indirect", rho_grid=grid)


def test_plan_of_another_shape_is_rejected():
    mm = fit_observed(make_data(np.random.default_rng(0), n=120, p=2, q=1))
    for n, p, q in ((150, 2, 1), (120, 3, 1), (120, 2, 2)):
        plan = bootstrap_moments(make_data(np.random.default_rng(1), n=n, p=p, q=q), 20,
                                 seed=1)
        with pytest.raises(DimensionMismatch, match="plan"):
            robustness_value(mm, plan, "direct", rho_grid=[0.1])


@pytest.mark.parametrize("kind", ["direct", "indirect"])
def test_every_entry_point_rejects_unknown_mode(setup_q1, kind):
    mm, plan = setup_q1
    min_t = min_t_direct if kind == "direct" else min_t_indirect
    with pytest.raises(ValueError, match="confounder_mode"):
        min_t(mm, plan, 0.1, confounder_mode="bogus", budget=200)
    with pytest.raises(ValueError, match="confounder_mode"):
        robustness_value(mm, plan, kind, confounder_mode="bogus", budget=200)
    with pytest.raises(ValueError, match="confounder_mode"):
        rv_estimate_only(mm, kind, confounder_mode="bogus")


def _affine_pair(data, j, shift, scale):
    """(reference, transformed): covariate j replaced by shift + scale c_j and
    by its exact preimage (t - shift) / scale, so that both designs carry the
    same information however large the shift."""
    moved = shift + scale * data.c_user[:, j]
    pair = []
    for col in ((moved - shift) / scale, moved):
        c = data.c_user.copy()
        c[:, j] = col
        pair.append(MediationData.from_arrays(y=data.y, a=data.a, m=data.m, c=c))
    return pair


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(1, 3), j=st.integers(0, 1),
       shift=st.floats(-1e6, 1e6), log_scale=st.floats(-3.0, 3.0))
def test_rv_estimate_only_is_invariant_to_affine_covariates(seed, q, j, shift,
                                                           log_scale):
    data = make_data(np.random.default_rng(seed), n=150, p=2, q=q)
    ref, moved = (fit_observed(d) for d in _affine_pair(data, j, shift, 10.0 ** log_scale))
    for kind in ("direct", "indirect"):
        for mode in ("scalar_u", "vector_u"):
            for randomized in (False, True):
                assert rv_estimate_only(moved, kind, confounder_mode=mode,
                                        randomized=randomized) == \
                    rv_estimate_only(ref, kind, confounder_mode=mode,
                                     randomized=randomized), (kind, mode, randomized)


def test_robustness_values_are_invariant_to_affine_covariates():
    data = make_data(np.random.default_rng(92), n=150, p=2, q=2)
    grid = [round(0.05 * k, 10) for k in range(1, 13)]
    reports = []
    for d in _affine_pair(data, 0, 1e6, 1e-3):
        mm, plan = fit_observed(d), bootstrap_moments(d, n_resamples=60, seed=5)
        reports.append([robustness_value(mm, plan, kind, rho_grid=grid)
                        for kind in ("direct", "indirect")])
    for ref, moved in zip(*reports):
        assert 0.0 < ref.rv_ci < ref.rv_estimate
        assert (moved.rv_estimate, moved.rv_ci) == (ref.rv_estimate, ref.rv_ci)


def test_box_minimum_ranks_nan_last():
    # every box point is NaN, so DIRECT's optimum comes first in the final
    # batch as a NaN; the candidate after it must still win
    from bksens.optimize import _Box, _minimize_over_boxes, _Search, _SearchBox

    box = _SearchBox(_Box().interval(-1.0, 1.0), lambda blocks: (blocks[0],),
                     (np.array([0.5]),))
    for at_candidate in (1.0, np.inf):
        def value_fn(x, v=at_candidate):
            return np.where(x == 0.5, v, np.nan)

        (val, (arg,)), = _minimize_over_boxes([_Search(box, value_fn, 30)])
        assert val == at_candidate and arg.tolist() == [0.5]
    (val, _), = _minimize_over_boxes([_Search(box, lambda x: np.full(len(x), np.nan), 30)])
    assert np.isnan(val)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(0, 3), q=st.integers(1, 4),
       n_resamples=st.integers(2, 300), rho=st.floats(0.0, 0.999),
       kind=st.sampled_from(["direct", "indirect"]),
       mode=st.sampled_from(["scalar_u", "vector_u"]))
def test_effect_se_matches_sd_over_resamples(seed, p, q, n_resamples, rho, kind, mode):
    # the SE of c.f over the resamples' coefficient rows c is sqrt(f'Cf); the
    # gap is bounded on the scale of |f|'|C||f|, since a relative bound
    # fails where the SE cancels
    rng = np.random.default_rng(seed)
    data = make_data(rng, n=60, p=p, q=q)
    plan = bootstrap_moments(data, n_resamples=n_resamples, seed=seed % 1000)
    obj = _build_objective(fit_observed(data), plan, kind, mode)
    box = _box_for(obj, mode, rho, randomized=False)
    phis = box.candidates
    if box.space.lower:
        x = rng.uniform(box.space.lower, box.space.upper, size=(50, len(box.space.lower)))
        phis = tuple(np.concatenate(pair) for pair in zip(phis, box.args(x)))
    coeffs = (_direct_coeffs if kind == "direct" else _indirect_coeffs)(plan.moments)
    f = [np.ones((len(phis[0]), 1)), *phis]
    if kind == "indirect":
        f.append(np.einsum("ki,ki->k", *phis)[:, None])
    f = np.abs(np.hstack(f))
    scale = np.sqrt((f @ np.abs(obj.cov) * f).sum(axis=1))
    got = obj.std_errs(*phis)
    want = _effect_values(coeffs, *phis).std(axis=1, ddof=1)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


SWEEP_GRID = [round(0.05 * k, 2) for k in range(1, 20)]


@pytest.mark.parametrize("kind", ["direct", "indirect"])
@pytest.mark.parametrize("mode", ["scalar_u", "vector_u"])
def test_rv_curve_is_running_minimum_of_single_searches(setup_q2, kind, mode):
    # the searches of one sweep run together, and each point is the least of
    # its own search and every smaller rho's, bit for bit
    mm, plan = setup_q2
    grid = SWEEP_GRID[::3]
    rep = robustness_value(mm, plan, kind, rho_grid=grid, confounder_mode=mode,
                           budget=300, full_curve=True)
    min_t = min_t_direct if kind == "direct" else min_t_indirect
    alone = [min_t(mm, plan, rho, confounder_mode=mode, budget=300) for rho in grid]
    running = np.minimum.accumulate([rep.observed_t, *alone])[1:]
    assert [rho for rho, _ in rep.curve] == grid
    assert [t for _, t in rep.curve] == running.tolist()


def test_rv_sweep_stops_at_the_estimate_crossing(setup_q1):
    mm, plan = setup_q1
    full = robustness_value(mm, plan, "direct", rho_grid=SWEEP_GRID, budget=300,
                            full_curve=True)
    short = robustness_value(mm, plan, "direct", rho_grid=SWEEP_GRID, budget=300)
    assert (short.rv_estimate, short.rv_ci) == (full.rv_estimate, full.rv_ci)
    assert 0.0 < short.rv_ci < short.rv_estimate < 1.0
    assert short.curve == full.curve[:len(short.curve)]
    assert short.curve[-1][0] == short.rv_estimate


@pytest.mark.parametrize("grid", [SWEEP_GRID, list(DEFAULT_RHO_GRID)])
def test_rv_sweep_runs_in_capped_locksteps(setup_q1, monkeypatch, grid):
    mm, plan = setup_q1
    calls = []
    lockstep = optimize.direct_lockstep

    def counted(objective, lowers, *args, **kwargs):
        calls.append(len(lowers))
        return lockstep(objective, lowers, *args, **kwargs)

    monkeypatch.setattr(optimize, "direct_lockstep", counted)
    robustness_value(mm, plan, "indirect", rho_grid=grid, budget=60, full_curve=True)
    assert sum(calls) == len(grid)
    assert len(calls) == -(-len(grid) // optimize.LOCKSTEP_SEARCHES)
