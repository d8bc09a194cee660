import numpy as np
import pytest

from bksens import optimize
from bksens.errors import BudgetTooSmall, DimensionMismatch
from bksens.optimize import direct_optimize


def test_quadratic_bowl_2d():
    def f(x):
        return np.sum((x - 0.3) ** 2, axis=1)

    res = direct_optimize(f, [0.0, 0.0], [1.0, 1.0], budget=2000)
    assert res.fun < 1e-4
    assert np.max(np.abs(res.x - 0.3)) < 1e-2
    assert res.n_evals <= 2000


def test_constant_objective():
    res = direct_optimize(lambda x: np.full(len(x), 4.2), [0.0], [1.0], budget=50)
    assert res.fun == 4.2
    assert 0.0 <= res.x[0] <= 1.0


def test_multimodal_1d_matches_dense_grid():
    def f(x):
        return np.sin(10 * x[:, 0]) + x[:, 0]

    res = direct_optimize(f, [0.0], [1.0], budget=500)
    grid = np.linspace(0.0, 1.0, 100_000)
    oracle = np.min(np.sin(10 * grid) + grid)
    assert res.fun <= oracle + 1e-3


def test_deterministic():
    def f(x):
        return np.cos(3 * x[:, 0]) * np.sin(5 * x[:, 1]) + 0.1 * x[:, 0]

    r1 = direct_optimize(f, [-1, -1], [1, 1], budget=800)
    r2 = direct_optimize(f, [-1, -1], [1, 1], budget=800)
    assert np.array_equal(r1.x, r2.x)
    assert r1.fun == r2.fun and r1.n_evals == r2.n_evals


def test_rescaled_box():
    def f(x):
        return (x[:, 0] - 30.0) ** 2

    res = direct_optimize(f, [10.0], [50.0], budget=300)
    assert abs(res.x[0] - 30.0) < 0.05


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        direct_optimize(lambda x: np.zeros(len(x)), [0, 0, 0], [1, 1, 1], budget=6)


def test_bad_bounds():
    with pytest.raises(DimensionMismatch):
        direct_optimize(lambda x: np.zeros(len(x)), [0.0, 1.0], [1.0, 1.0], budget=50)


def test_corner_minimum_reachable():
    # minima on the box boundary are approached by repeated trisection
    def f(x):
        return -x[:, 0] - 2 * x[:, 1]

    res = direct_optimize(f, [0, 0], [1, 1], budget=3000)
    assert res.fun < -2.97


def test_budget_respected_moderate_dim(monkeypatch):
    sizes, trisected = [], {"n": 0}
    kill = optimize._Pile.kill

    def counting_kill(self, idx):
        trisected["n"] += 1
        kill(self, idx)

    def f(x):
        sizes.append(len(x))
        return np.sum(x ** 2, axis=1)

    monkeypatch.setattr(optimize._Pile, "kill", counting_kill)
    res = direct_optimize(f, [-1] * 5, [1] * 5, budget=400)
    assert sum(sizes) <= 400
    assert res.n_evals == sum(sizes)
    # one call for the centre, then one per sweep, not one per rectangle
    assert sizes[0] == 1 and len(sizes) - 1 < trisected["n"]
