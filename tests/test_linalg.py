import numpy as np
import pytest

from bksens import linalg
from bksens.errors import (
    DegenerateResponse,
    DimensionMismatch,
    NegativeEigenvalue,
    NotSymmetric,
    RankDeficient,
    SingularCovariance,
)


def test_ols_identity_regression(rng):
    x = rng.normal(size=(30, 3))
    coef, resid = linalg.ols_fit(x, x)
    assert np.allclose(coef, np.eye(3), atol=1e-12)
    assert np.allclose(resid, 0.0, atol=1e-12)


def test_ols_constant_on_constant():
    ones = np.ones(10)
    coef, resid = linalg.ols_fit(ones, ones)
    assert coef[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(resid, 0.0, atol=1e-14)


def test_ols_matches_normal_equations(rng):
    x = rng.normal(size=(50, 4))
    y = rng.normal(size=(50, 2))
    coef, _ = linalg.ols_fit(y, x)
    oracle = np.linalg.inv(x.T @ x) @ x.T @ y
    assert np.max(np.abs(coef - oracle)) < 1e-10


def test_ols_orthogonality_and_decomposition(rng):
    x = rng.normal(size=(80, 5))
    y = rng.normal(size=80)
    coef, resid = linalg.ols_fit(y, x)
    scale = np.linalg.norm(x) * max(np.linalg.norm(resid), 1.0)
    assert np.max(np.abs(x.T @ resid)) <= 1e-8 * scale
    assert np.allclose(x @ coef + resid, y[:, None])


def test_ols_errors(rng):
    x = rng.normal(size=(20, 2))
    with pytest.raises(DimensionMismatch):
        linalg.ols_fit(rng.normal(size=19), x)
    singular = np.column_stack([x, x[:, 0]])
    with pytest.raises(RankDeficient):
        linalg.ols_fit(rng.normal(size=20), singular)


def test_residualize_matches_projection_oracle(rng):
    x = rng.normal(size=(60, 3))
    t = rng.normal(size=(60, 2))
    proj = np.eye(60) - x @ np.linalg.inv(x.T @ x) @ x.T
    assert np.max(np.abs(linalg.residualize(t, x) - proj @ t)) < 1e-10


def test_residualize_trivial_cases(rng):
    x = rng.normal(size=(40, 2))
    orth = linalg.residualize(rng.normal(size=40), x)
    assert np.max(np.abs(linalg.residualize(orth, x) - orth)) < 1e-10
    assert np.max(np.abs(linalg.residualize(x[:, 0], x))) < 1e-10


def test_frisch_waugh(rng):
    c = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
    a = rng.normal(size=100) + c[:, 1]
    y = 2.0 * a + c @ np.array([1.0, -1.0, 0.5]) + rng.normal(size=100)
    full, _ = linalg.ols_fit(y, np.column_stack([a, c]))
    partial, _ = linalg.ols_fit(linalg.residualize(y, c), linalg.residualize(a, c))
    assert abs(full[0, 0] - partial[0, 0]) < 1e-10


def test_sym_sqrt_basic():
    assert np.allclose(linalg.sym_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(linalg.sym_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sym_sqrt_self_consistency(rng):
    a = rng.normal(size=(5, 5))
    s = a @ a.T
    root = linalg.sym_sqrt(s)
    assert np.linalg.norm(root @ root - s, "fro") < 1e-8
    assert np.allclose(root, root.T)
    assert np.linalg.norm(s @ root - root @ s, "fro") < 1e-8


def test_sym_sqrt_errors(rng):
    with pytest.raises(NotSymmetric):
        linalg.sym_sqrt(rng.normal(size=(3, 3)))
    with pytest.raises(NegativeEigenvalue):
        linalg.sym_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(SingularCovariance):
        linalg.sym_inv_sqrt(np.diag([1.0, 0.0]))


def test_r_matrix_orthogonal_construction(rng):
    n = 200
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    x = rng.normal(size=n)
    # make x exactly orthogonal to y after residualizing on z
    ry = linalg.residualize(y, z)
    rx = linalg.residualize(x, z)
    rx = rx - ry * float((ry.T @ rx)[0, 0]) / float((ry.T @ ry)[0, 0])
    r = linalg.r_matrix(y, rx, z)
    assert abs(r[0, 0]) < 1e-10


def test_r_matrix_scalar_partial_correlation(rng):
    n = 300
    z1 = rng.normal(size=n)
    z = np.column_stack([np.ones(n), z1])
    x = z1 + rng.normal(size=n)
    y = 0.5 * x + z1 + rng.normal(size=n)
    r = float(linalg.r_matrix(y, x, z)[0, 0])

    def corr(u, v):
        return np.corrcoef(u, v)[0, 1]

    r_yx, r_yz, r_xz = corr(y, x), corr(y, z1), corr(x, z1)
    oracle = (r_yx - r_yz * r_xz) / np.sqrt((1 - r_yz ** 2) * (1 - r_xz ** 2))
    assert abs(r - oracle) < 1e-10


def test_r_matrix_symmetry(rng):
    n = 150
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=(n, 2))
    x = rng.normal(size=(n, 3))
    r_yx = linalg.r_matrix(y, x, z)
    r_xy = linalg.r_matrix(x, y, z)
    assert np.max(np.abs(r_yx - r_xy.T)) < 1e-12
    assert np.linalg.norm(r_yx, 2) < 1.0


def test_r_matrix_rejects_a_constant_column(rng):
    # a constant column leaves a residual of rounding noise given z, which
    # the unit-free test of the joint covariance would take for a variable
    n = 100
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    x = rng.normal(size=n)
    for y in (np.full(n, 0.1), np.full(n, -3e5)):
        with pytest.raises(SingularCovariance, match="constant column"):
            linalg.r_matrix(y, x, z)
        with pytest.raises(SingularCovariance, match="constant column"):
            linalg.r_matrix(x, y, z)
    with pytest.raises(SingularCovariance, match="collapsed"):
        linalg.r_matrix(z @ np.array([1.0, 2.0]), x, z)


def test_partial_r2_orthogonal_is_zero(rng):
    n = 200
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = rng.normal(size=n)
    x = linalg.residualize(rng.normal(size=n), np.column_stack([z, y]))
    assert linalg.partial_r2(y, x, z) < 1e-10


def test_partial_r2_degenerate_response(rng):
    n = 50
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    y = z @ np.array([1.0, 2.0])  # no residual variance given z
    with pytest.raises(DegenerateResponse):
        linalg.partial_r2(y, rng.normal(size=n), z)


def test_partial_r2_does_not_depend_on_the_scale_of_y(rng):
    # the degenerate-response check is relative to y's variance: an outcome
    # in small units is not degenerate
    n = 200
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    x = rng.normal(size=n)
    y = 0.6 * x + z[:, 1] + rng.normal(size=n)
    r2 = linalg.partial_r2(y, x, z)
    for scale in (1e-6, 1e6):
        assert linalg.partial_r2(scale * y, x, z) == pytest.approx(r2, rel=1e-12, abs=0.0)
    with pytest.raises(DegenerateResponse):
        linalg.partial_r2(np.full(n, 0.1), x, z)


def test_partial_r2_equals_squared_r(rng):
    # identity between the R measure and the partial R-squared, scalar case
    for trial in range(20):
        local = np.random.default_rng(trial)
        n = 120
        z = np.column_stack([np.ones(n), local.normal(size=(n, 2))])
        x = local.normal(size=n) + z[:, 1]
        y = 0.7 * x + z @ np.array([0.5, 1.0, -0.3]) + local.normal(size=n)
        r = float(linalg.r_matrix(y, x, z)[0, 0])
        r2 = linalg.partial_r2(y, x, z)
        assert abs(r * r - r2) < 1e-12


def test_partial_r2_vector_x_is_max_over_combinations(rng):
    # squared spectral norm of the R measure bounds every linear combination
    n = 250
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    x = rng.normal(size=(n, 3))
    y = x @ np.array([1.0, -0.5, 0.2]) + rng.normal(size=n)
    r = linalg.r_matrix(y, x, z)
    r2 = linalg.partial_r2(y, x, z)
    assert abs(np.linalg.norm(r, 2) ** 2 - r2) < 1e-12
