import numpy as np
import pytest

from bksens.confounders import ConfounderTarget, construct_confounder
from bksens.errors import (
    BoundaryR,
    DimensionMismatch,
    InfeasibleTarget,
    InsufficientSamples,
    SingularCovariance,
)
from bksens.linalg import r_matrix, residualize, sample_cov
from bksens.mediation import MediationData

from conftest import make_data


def achieved_parameters(data, u):
    """Sample sensitivity parameters of a constructed column, via r_matrix."""
    n = data.n
    c = data.c
    ac = np.column_stack([data.a, c])
    amc = np.column_stack([data.a, data.m, c])
    r_a = float(r_matrix(data.a, u, c)[0, 0])
    r_m = r_matrix(data.m, u, ac)[:, 0]
    r_y = float(r_matrix(data.y, u, amc)[0, 0])
    var_u = float(sample_cov(residualize(u, c))[0, 0])
    return r_y, r_m, r_a, var_u


def test_zero_targets_give_uncorrelated_column(rng):
    data = make_data(rng, n=150, p=2, q=2)
    u = construct_confounder(data, ConfounderTarget(r_y=0.0, r_m=np.zeros(2), r_a=0.0))
    r_y, r_m, r_a, var_u = achieved_parameters(data, u)
    assert abs(r_a) < 1e-8 and abs(r_y) < 1e-8
    assert np.max(np.abs(r_m)) < 1e-8
    assert var_u == pytest.approx(1.0, abs=1e-8)


def test_prescribed_targets_achieved(rng):
    data = make_data(rng, n=200, p=2, q=2)
    target = ConfounderTarget(r_y=0.3, r_m=np.array([0.2, -0.1]), r_a=-0.4)
    u = construct_confounder(data, target)
    r_y, r_m, r_a, var_u = achieved_parameters(data, u)
    assert r_y == pytest.approx(0.3, abs=1e-8)
    assert np.max(np.abs(r_m - target.r_m)) < 1e-8
    assert r_a == pytest.approx(-0.4, abs=1e-8)
    assert var_u == pytest.approx(1.0, abs=1e-8)


def test_sharpness_over_random_targets(rng):
    # every target strictly inside the feasible region is hit exactly
    for trial in range(30):
        local = np.random.default_rng(3000 + trial)
        q = int(local.integers(1, 4))
        p = int(local.integers(0, 3))
        data = make_data(local, n=int(local.choice([50, 200])), p=p, q=q)
        direction = local.normal(size=q)
        direction /= np.linalg.norm(direction)
        target = ConfounderTarget(
            r_y=0.9 * local.uniform(-1, 1),
            r_m=0.9 * local.uniform(0, 1) * direction,
            r_a=0.9 * local.uniform(-1, 1),
            var_u_perp_c=float(local.uniform(0.5, 2.0)),
        )
        u = construct_confounder(data, target)
        r_y, r_m, r_a, var_u = achieved_parameters(data, u)
        assert abs(r_y - target.r_y) < 1e-8
        assert np.max(np.abs(r_m - target.r_m)) < 1e-8
        assert abs(r_a - target.r_a) < 1e-8
        assert abs(var_u - target.var_u_perp_c) < 1e-8


def test_construction_is_deterministic(rng):
    data = make_data(rng, n=120, p=1, q=2)
    target = ConfounderTarget(r_y=0.25, r_m=np.array([0.3, 0.1]), r_a=0.2)
    u1 = construct_confounder(data, target)
    u2 = construct_confounder(data, target)
    assert np.array_equal(u1, u2)


def test_constant_block_is_rejected(rng):
    # a constant outcome leaves a residual of rounding noise given (a, m, c),
    # which the construction would scale up into a column of noise
    data = make_data(rng, n=100, p=2, q=2)
    flat = MediationData(y=np.full(100, 0.1), a=data.a, m=data.m, c=data.c)
    with pytest.raises(SingularCovariance, match="block 2 .* constant column"):
        construct_confounder(flat, ConfounderTarget(r_y=0.3, r_m=np.full(2, 0.1), r_a=0.2))


def test_target_validation():
    with pytest.raises(BoundaryR):
        ConfounderTarget(r_y=1.0, r_m=np.zeros(1), r_a=0.0)
    with pytest.raises(BoundaryR):
        ConfounderTarget(r_y=0.0, r_m=np.array([0.8, 0.7]), r_a=0.0)
    with pytest.raises(DimensionMismatch, match="r_m must be a vector"):
        ConfounderTarget(r_y=0.3, r_m=[[0.1], [0.2]], r_a=0.2)


@pytest.mark.parametrize("field", ["r_y", "r_m", "r_a", "var_u_perp_c"])
def test_nan_targets_are_rejected(field):
    # a NaN strength would fail inside the SVD, a NaN variance give a NaN column
    values = dict(r_y=0.3, r_m=np.array([0.2, -0.1]), r_a=-0.4, var_u_perp_c=1.0)
    values[field] = np.nan * np.ones_like(values[field])
    with pytest.raises(InfeasibleTarget if field == "var_u_perp_c" else BoundaryR):
        ConfounderTarget(**values)


def test_insufficient_samples(rng):
    # smallest legal n for p=2, q=2 is 8; the construction additionally
    # needs a free orthogonal direction
    y = rng.normal(size=8)
    a = rng.normal(size=8)
    m = rng.normal(size=(8, 2))
    c = rng.normal(size=(8, 2))
    data = MediationData.from_arrays(y=y, a=a, m=m, c=c)
    u = construct_confounder(data, ConfounderTarget(r_y=0.1, r_m=np.zeros(2), r_a=0.1))
    assert u.shape == (8,)
    with pytest.raises(InsufficientSamples):
        tiny = MediationData(y=y[:7], a=a[:7], m=m[:7], c=np.column_stack(
            [np.ones(7), c[:7]]))
        construct_confounder(tiny, ConfounderTarget(r_y=0.1, r_m=np.zeros(2), r_a=0.1))
