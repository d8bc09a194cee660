import numpy as np
import pytest

from bksens.confounders import construct_confounder_blocks
from bksens.errors import BoundaryR, ConfounderCovarianceDegenerate, SingularCovariance
from bksens.ovb import adjust_scalar_u, adjust_vector_u, cov_u_update, ovb_moments

from conftest import lstsq_coef


def _random_case(rng, n=150, d_y=2, d_a=2, p=2):
    c = rng.normal(size=(n, p))
    a = c @ rng.normal(scale=0.4, size=(p, d_a)) + rng.normal(size=(n, d_a))
    y = a @ rng.normal(scale=0.8, size=(d_a, d_y)) + rng.normal(size=(n, d_y))
    y += c @ rng.normal(scale=0.5, size=(p, d_y))
    return y, a, c


def test_zero_confounding_returns_theta_obs(rng):
    y, a, c = _random_case(rng)
    m = ovb_moments(y, a, c)
    out = adjust_scalar_u(m, np.zeros(2), np.array([0.3, 0.1]))
    assert np.array_equal(out, m.theta_obs)
    out_v = adjust_vector_u(m, np.zeros((2, 2)), 0.5 * np.eye(2))
    assert np.array_equal(out_v, m.theta_obs)


def test_scalar_case_matches_symbolic_formula(rng):
    y, a, c = _random_case(rng, d_y=1, d_a=1)
    m = ovb_moments(y, a, c)
    r = 0.4
    out = adjust_scalar_u(m, np.array([r]), np.array([r]))
    bias = r * r / np.sqrt(1 - r * r) * np.sqrt(m.cov_y_res[0, 0] / m.cov_a_res[0, 0])
    assert out[0, 0] == pytest.approx(m.theta_obs[0, 0] - bias, abs=1e-12)
    assert out[0, 0] < m.theta_obs[0, 0]  # positive r pulls the estimate down


def test_boundary_rejected(rng):
    y, a, c = _random_case(rng, d_y=1, d_a=1)
    m = ovb_moments(y, a, c)
    with pytest.raises(BoundaryR):
        adjust_scalar_u(m, np.array([0.5]), np.array([1.0]))
    with pytest.raises(BoundaryR):
        adjust_scalar_u(m, np.array([1.0 - 1e-13]), np.array([0.5]))


def test_scalar_u_shares_the_vector_degeneracy_check(rng):
    # |r_a| just inside the ball leaves u no variance given the exposure:
    # the scalar adjuster, the vector one with d_u = 1, raises as it does
    y, a, c = _random_case(rng, d_y=1, d_a=1)
    m = ovb_moments(y, a, c)
    with pytest.raises(ConfounderCovarianceDegenerate):
        adjust_scalar_u(m, np.array([0.5]), np.array([1.0 - 2e-11]))
    with pytest.raises(ConfounderCovarianceDegenerate):
        adjust_vector_u(m, np.array([[0.5]]), np.array([[1.0 - 2e-11]]))


def test_constant_outcome_is_rejected(rng):
    # its residual given (a, c) is rounding noise, not a covariance
    y, a, c = _random_case(rng, d_y=1, d_a=1)
    with pytest.raises(SingularCovariance, match="outcome .* constant column"):
        ovb_moments(np.full(len(y), 0.1), a, c)


def test_scalar_u_long_regression_roundtrip(rng):
    for trial in range(25):
        local = np.random.default_rng(1000 + trial)
        d_y, d_a = local.integers(1, 3), local.integers(1, 3)
        y, a, c = _random_case(local, n=120, d_y=d_y, d_a=d_a)
        r_y = 0.8 * local.uniform(-1, 1, size=d_y)
        r_y *= local.uniform(0, 0.9) / max(np.linalg.norm(r_y), 1e-12)
        r_a = 0.8 * local.uniform(-1, 1, size=d_a)
        r_a *= local.uniform(0, 0.9) / max(np.linalg.norm(r_a), 1e-12)
        blocks = [(a, r_a.reshape(d_a, 1)), (y, r_y.reshape(d_y, 1))]
        u = construct_confounder_blocks(c, blocks, cov_u=np.array([[1.3]]))
        m = ovb_moments(y, a, c)
        adjusted = adjust_scalar_u(m, r_y, r_a)
        design = np.column_stack([a, np.ones(len(y)), c, u])
        coef = lstsq_coef(y, design)[:d_a, :].T
        assert np.max(np.abs(adjusted - coef)) < 1e-8


def test_vector_u_long_regression_roundtrip(rng):
    for trial in range(15):
        local = np.random.default_rng(2000 + trial)
        d_y, d_a, d_u = 2, 2, 2
        y, a, c = _random_case(local, n=150, d_y=d_y, d_a=d_a)
        r_y = local.uniform(-0.5, 0.5, size=(d_y, d_u))
        r_a = local.uniform(-0.5, 0.5, size=(d_a, d_u))
        r_y *= 0.8 / max(np.linalg.norm(r_y, 2), 1.0)
        r_a *= 0.8 / max(np.linalg.norm(r_a, 2), 1.0)
        q_mat = local.normal(size=(d_u, d_u))
        cov_u = q_mat @ q_mat.T + 0.5 * np.eye(d_u)
        u = construct_confounder_blocks(c, [(a, r_a), (y, r_y)], cov_u=cov_u)
        m = ovb_moments(y, a, c)
        adjusted = adjust_vector_u(m, r_y, r_a, cov_u)
        design = np.column_stack([a, np.ones(len(y)), c, u])
        coef = lstsq_coef(y, design)[:d_a, :].T
        assert np.max(np.abs(adjusted - coef)) < 1e-8


def test_vector_u_reduces_to_scalar_u(rng):
    y, a, c = _random_case(rng, d_y=2, d_a=2)
    m = ovb_moments(y, a, c)
    for trial in range(1000):
        local = np.random.default_rng(trial)
        r_y = local.uniform(-0.6, 0.6, size=2)
        r_a = local.uniform(-0.6, 0.6, size=2)
        r_y *= min(1.0, 0.9 / np.linalg.norm(r_y))
        r_a *= min(1.0, 0.9 / np.linalg.norm(r_a))
        scalar = adjust_scalar_u(m, r_y, r_a)
        vector = adjust_vector_u(m, r_y.reshape(2, 1), r_a.reshape(2, 1),
                                 np.array([[1.0]]))
        assert np.max(np.abs(scalar - vector)) < 1e-12


def test_monotone_bias_magnitude(rng):
    y, a, c = _random_case(rng, d_y=1, d_a=1)
    m = ovb_moments(y, a, c)
    r_a = np.array([0.5])
    biases = []
    for scale in np.linspace(0.1, 0.9, 9):
        out = adjust_scalar_u(m, np.array([scale]), r_a)
        biases.append(abs(out[0, 0] - m.theta_obs[0, 0]))
    assert np.all(np.diff(biases) > 0)


def test_cov_u_update_trivial_and_eigen_oracle(rng):
    cov = np.eye(2)
    assert np.allclose(cov_u_update(cov, np.zeros((1, 2))), cov)
    out = cov_u_update(np.array([[1.0]]), np.array([[0.6]]))
    assert out[0, 0] == pytest.approx(1 - 0.36, abs=1e-14)

    a_mat = rng.normal(size=(3, 3))
    cov = a_mat @ a_mat.T + np.eye(3)
    r = rng.normal(size=(2, 3))
    r *= 0.9 / np.linalg.norm(r, 2)
    out = cov_u_update(cov, r)
    w = np.linalg.eigvalsh(out)
    assert np.all(w > 0)
    lam_min = np.linalg.eigvalsh(cov)[0]
    assert w[0] >= (1 - 0.81) * lam_min - 1e-10
    # direct eigendecomposition oracle
    root = np.linalg.cholesky(cov)
    sym_root = root @ root.T
    assert np.allclose(sym_root, cov)
    w_s, v_s = np.linalg.eigh(cov)
    s_half = (v_s * np.sqrt(w_s)) @ v_s.T
    oracle = cov - s_half @ r.T @ r @ s_half
    assert np.max(np.abs(out - oracle)) < 1e-10


def test_cov_u_update_boundary(rng):
    with pytest.raises(BoundaryR):
        cov_u_update(np.eye(2), np.array([[1.0, 0.0]]))


def test_vector_u_degenerate_covariance(rng):
    y, a, c = _random_case(rng, d_y=1, d_a=1)
    m = ovb_moments(y, a, c)
    # push the exposure-confounder correlation so close to the boundary that
    # the updated covariance is numerically singular
    r_a = np.array([[1.0 - 1e-14]])
    with pytest.raises((ConfounderCovarianceDegenerate, BoundaryR)):
        adjust_vector_u(m, np.array([[0.5]]), r_a, np.array([[1.0]]))
