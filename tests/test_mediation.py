import numpy as np
import pytest

from bksens.confounders import ConfounderTarget, construct_confounder
from bksens.errors import BoundaryR, DimensionMismatch
from bksens.linalg import r_matrix
from bksens.mediation import (
    MediationData,
    NaturalSensitivity,
    direct_adjusted,
    direct_randomized,
    fit_observed,
    indirect_adjusted_difference,
    indirect_adjusted_product,
    indirect_randomized,
    observed_indirect,
    r_aumc_from_natural,
    r_yuac_from_natural,
)

from conftest import lstsq_coef, make_data, random_sensitivity


def long_regression_effects(data, u):
    """Effects from the regressions that include the confounder column."""
    q = data.q
    design_y = np.column_stack([data.a, data.m, data.c, u])
    coef_y = lstsq_coef(data.y, design_y)
    design_m = np.column_stack([data.a, data.c, u])
    coef_m = lstsq_coef(data.m, design_m)
    design_g = np.column_stack([data.a, data.c, u])
    coef_g = lstsq_coef(data.y, design_g)
    return {
        "theta1": coef_y[0],
        "theta3": coef_y[1:1 + q],
        "beta1": coef_m[0],
        "gamma1": coef_g[0],
    }


def test_fit_observed_monte_carlo(rng):
    n = 100_000
    a = rng.normal(size=n)
    m = a[:, None] + rng.normal(size=(n, 2))
    y = a + m.sum(axis=1) + rng.normal(size=n)
    data = MediationData.from_arrays(y=y, a=a, m=m)
    mm = fit_observed(data)
    se = 3.0 / np.sqrt(n)
    assert abs(mm.theta1_obs - 1.0) < 5 * se
    assert np.max(np.abs(mm.theta3_obs - 1.0)) < 5 * se
    assert np.max(np.abs(mm.beta1_obs - 1.0)) < 5 * se


def test_fit_observed_null_mediation(rng):
    n = 50_000
    a = rng.normal(size=n)
    m = rng.normal(size=(n, 1))
    y = a + rng.normal(size=n)
    mm = fit_observed(MediationData.from_arrays(y=y, a=a, m=m))
    assert abs(mm.beta1_obs[0]) < 0.02
    assert abs(observed_indirect(mm)) < 0.02


def test_cochran_identity_on_any_data(rng):
    for trial in range(25):
        local = np.random.default_rng(trial)
        data = make_data(local, n=80, p=int(local.integers(0, 3)),
                         q=int(local.integers(1, 4)))
        mm = fit_observed(data)
        assert abs(mm.gamma1_obs - mm.theta1_obs - mm.theta3_obs @ mm.beta1_obs) < 1e-10


def test_fit_observed_matches_plain_lstsq(rng):
    data = make_data(rng, n=90, p=2, q=3)
    mm = fit_observed(data)
    refs = long_regression_effects(data, np.empty((data.n, 0)))
    assert mm.theta1_obs == pytest.approx(refs["theta1"], abs=1e-10)
    assert np.max(np.abs(mm.theta3_obs - refs["theta3"])) < 1e-10
    assert np.max(np.abs(mm.beta1_obs - refs["beta1"])) < 1e-10
    assert mm.gamma1_obs == pytest.approx(refs["gamma1"], abs=1e-10)


def test_zero_sensitivity_recovers_observed(rng):
    data = make_data(rng, n=100, p=2, q=2)
    mm = fit_observed(data)
    s0 = NaturalSensitivity.zeros(2)
    assert direct_adjusted(mm, s0) == mm.theta1_obs
    assert indirect_adjusted_product(mm, s0) == observed_indirect(mm)
    assert indirect_adjusted_difference(mm, s0) == pytest.approx(
        mm.gamma1_obs - mm.theta1_obs, abs=1e-14)


def test_r_aumc_zero_inputs(rng):
    data = make_data(rng, n=100, p=1, q=2)
    mm = fit_observed(data)
    assert r_aumc_from_natural(mm, NaturalSensitivity.zeros(2)) == 0.0


def test_r_aumc_matches_achieved_partial_correlation(rng):
    for trial in range(20):
        local = np.random.default_rng(4000 + trial)
        q = int(local.integers(1, 4))
        data = make_data(local, n=150, p=2, q=q)
        s = random_sensitivity(local, q, radius=0.8)
        u = construct_confounder(data, ConfounderTarget(r_y=s.r_y, r_m=s.r_m, r_a=s.r_a))
        mm = fit_observed(data)
        mc = np.column_stack([data.m, data.c])
        achieved = float(r_matrix(data.a, u, mc)[0, 0])
        assert abs(r_aumc_from_natural(mm, s) - achieved) < 1e-8


def test_r_aumc_two_step_composition_scalar_m(rng):
    # one-shot odds-form formula equals the explicit two-step composition
    data = make_data(rng, n=150, p=2, q=1)
    mm = fit_observed(data)
    r_hat = float(mm.r_m_a_c[0])
    for trial in range(200):
        local = np.random.default_rng(trial)
        s = random_sensitivity(local, 1, radius=0.85)
        r_mu_c = (np.sqrt(1 - s.r_a ** 2) * np.sqrt(1 - r_hat ** 2) * s.r_m[0]
                  + s.r_a * r_hat)
        two_step = (s.r_a - r_hat * r_mu_c) / (
            np.sqrt(1 - r_hat ** 2) * np.sqrt(1 - r_mu_c ** 2))
        assert abs(r_aumc_from_natural(mm, s) - two_step) < 1e-12


def test_r_yuac_matches_achieved_partial_correlation(rng):
    for trial in range(15):
        local = np.random.default_rng(5000 + trial)
        q = int(local.integers(1, 4))
        data = make_data(local, n=150, p=1, q=q)
        s = random_sensitivity(local, q, radius=0.8)
        u = construct_confounder(data, ConfounderTarget(r_y=s.r_y, r_m=s.r_m, r_a=s.r_a))
        mm = fit_observed(data)
        ac = np.column_stack([data.a, data.c])
        achieved = float(r_matrix(data.y, u, ac)[0, 0])
        assert abs(r_yuac_from_natural(mm, s) - achieved) < 1e-8


def test_adjusted_estimators_match_long_regression(rng):
    for trial in range(40):
        local = np.random.default_rng(6000 + trial)
        q = int(local.integers(1, 4))
        p = int(local.integers(0, 3))
        data = make_data(local, n=int(local.choice([50, 200])), p=p, q=q)
        s = random_sensitivity(local, q, radius=0.9)
        u = construct_confounder(data, ConfounderTarget(r_y=s.r_y, r_m=s.r_m, r_a=s.r_a))
        refs = long_regression_effects(data, u)
        mm = fit_observed(data)
        assert abs(direct_adjusted(mm, s) - refs["theta1"]) < 1e-8
        assert abs(indirect_adjusted_product(mm, s)
                   - refs["theta3"] @ refs["beta1"]) < 1e-8
        assert abs(indirect_adjusted_difference(mm, s)
                   - (refs["gamma1"] - refs["theta1"])) < 1e-8


def test_product_equals_difference(rng):
    worst = 0.0
    for trial in range(1000):
        local = np.random.default_rng(trial)
        q = int(local.integers(1, 4))
        data = make_data(local, n=60, p=1, q=q)
        mm = fit_observed(data)
        s = random_sensitivity(local, q, radius=0.9)
        gap = abs(indirect_adjusted_product(mm, s) - indirect_adjusted_difference(mm, s))
        worst = max(worst, gap)
    assert worst < 1e-9


def test_randomized_consistency(rng):
    data = make_data(rng, n=120, p=2, q=2)
    mm = fit_observed(data)
    for trial in range(50):
        local = np.random.default_rng(trial)
        s = random_sensitivity(local, 2, radius=0.8)
        assert abs(direct_randomized(mm, s.r_y, s.r_m)
                   - direct_adjusted(mm, NaturalSensitivity(s.r_y, s.r_m, 0.0))) < 1e-12
        assert abs(indirect_randomized(mm, s.r_y, s.r_m)
                   - indirect_adjusted_product(mm, NaturalSensitivity(s.r_y, s.r_m, 0.0))) < 1e-12
    assert direct_randomized(mm, 0.0, np.array([0.4, 0.2])) == mm.theta1_obs
    assert indirect_randomized(mm, 0.4, np.zeros(2)) == pytest.approx(
        observed_indirect(mm), abs=1e-14)


def test_randomized_long_regression_oracle(rng):
    for trial in range(15):
        local = np.random.default_rng(7000 + trial)
        q = int(local.integers(1, 3))
        data = make_data(local, n=150, p=1, q=q)
        s = random_sensitivity(local, q, radius=0.8)
        u = construct_confounder(data, ConfounderTarget(r_y=s.r_y, r_m=s.r_m, r_a=0.0))
        refs = long_regression_effects(data, u)
        mm = fit_observed(data)
        assert abs(direct_randomized(mm, s.r_y, s.r_m) - refs["theta1"]) < 1e-8
        assert abs(indirect_randomized(mm, s.r_y, s.r_m)
                   - refs["theta3"] @ mm.beta1_obs) < 1e-8


def test_direct_bias_sign_symmetry(rng):
    data = make_data(rng, n=100, p=1, q=2)
    mm = fit_observed(data)
    s = random_sensitivity(rng, 2, radius=0.7)
    plus = direct_adjusted(mm, s) - mm.theta1_obs
    minus = direct_adjusted(mm, NaturalSensitivity(-s.r_y, s.r_m, s.r_a)) - mm.theta1_obs
    assert plus == pytest.approx(-minus, abs=1e-12)


def test_direct_bias_not_monotone_in_mediator_channel(rng):
    # scan the mediator-confounder strength on a fixed dataset: the direct
    # bias has an interior turning point, so some middle value escapes the
    # interval spanned by the endpoints
    n = 400
    a = rng.normal(size=n)
    m = 0.4 * a + rng.normal(size=n)
    y = a + m + rng.normal(size=n)
    data = MediationData.from_arrays(y=y, a=a, m=m[:, None])
    mm = fit_observed(data)
    grid = np.linspace(-0.9, 0.9, 73)
    biases = np.array([
        direct_adjusted(mm, NaturalSensitivity(0.6, np.array([g]), 0.8))
        - mm.theta1_obs for g in grid])
    diffs = np.diff(biases)
    assert np.any(diffs > 0) and np.any(diffs < 0)
    lo, hi = sorted((biases[0], biases[-1]))
    assert np.any((biases < lo - 1e-12) | (biases > hi + 1e-12))


def test_scalar_reduction_of_vector_formula(rng):
    # for one mediator the covariance mixing factor collapses to
    # sqrt(1 - observed R^2), so the vector path equals the scalar path
    data = make_data(rng, n=150, p=2, q=1)
    mm = fit_observed(data)
    r_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    assert mm.mix_c_ac[0, 0] == pytest.approx(np.sqrt(1 - r_hat2), abs=1e-12)


def test_zero_mediators_are_rejected(rng):
    y, a = rng.normal(size=(2, 50))
    with pytest.raises(DimensionMismatch, match="mediator"):
        MediationData.from_arrays(y, a, m=np.empty((50, 0)))


def test_sensitivity_validation(rng):
    with pytest.raises(BoundaryR):
        NaturalSensitivity(r_y=1.0, r_m=np.zeros(2), r_a=0.0)
    with pytest.raises(DimensionMismatch, match="r_m must be a vector"):
        NaturalSensitivity(0.3, [[0.1], [0.2]], 0.2)
    data = make_data(rng, n=80, p=1, q=2)
    mm = fit_observed(data)
    with pytest.raises(DimensionMismatch):
        direct_adjusted(mm, NaturalSensitivity(0.1, np.zeros(3), 0.1))
