import numpy as np
import pytest

from bksens import optimize
from bksens.errors import BudgetTooSmall, DimensionMismatch
from bksens.optimize import direct_optimize


def test_quadratic_bowl_2d():
    def f(x):
        return float(np.sum((x - 0.3) ** 2))

    res = direct_optimize(f, [0.0, 0.0], [1.0, 1.0], budget=2000)
    assert res.fun < 1e-4
    assert np.max(np.abs(res.x - 0.3)) < 1e-2
    assert res.n_evals <= 2000


def test_constant_objective():
    res = direct_optimize(lambda x: 4.2, [0.0], [1.0], budget=50)
    assert res.fun == 4.2
    assert 0.0 <= res.x[0] <= 1.0


def test_multimodal_1d_matches_dense_grid():
    def f(x):
        return float(np.sin(10 * x[0]) + x[0])

    res = direct_optimize(f, [0.0], [1.0], budget=500)
    grid = np.linspace(0.0, 1.0, 100_000)
    oracle = np.min(np.sin(10 * grid) + grid)
    assert res.fun <= oracle + 1e-3


def test_deterministic():
    def f(x):
        return float(np.cos(3 * x[0]) * np.sin(5 * x[1]) + 0.1 * x[0])

    r1 = direct_optimize(f, [-1, -1], [1, 1], budget=800)
    r2 = direct_optimize(f, [-1, -1], [1, 1], budget=800)
    assert np.array_equal(r1.x, r2.x)
    assert r1.fun == r2.fun and r1.n_evals == r2.n_evals


def test_vectorized_objective_agrees(monkeypatch):
    scalar_points, batch_points, batch_sizes = [], [], []

    def f_scalar(x):
        scalar_points.append(x.copy())
        return float((x[0] - 0.2) ** 2 + (x[1] + 0.4) ** 2)

    def f_batch(points):
        batch_points.extend(points.copy())
        batch_sizes.append(len(points))
        return (points[:, 0] - 0.2) ** 2 + (points[:, 1] + 0.4) ** 2

    trisected = {"n": 0}
    kill = optimize._Pile.kill

    def counting_kill(self, idx):
        trisected["n"] += 1
        kill(self, idx)

    monkeypatch.setattr(optimize._Pile, "kill", counting_kill)
    r1 = direct_optimize(f_scalar, [-1, -1], [1, 1], budget=600)
    trisected_scalar, trisected["n"] = trisected["n"], 0
    r2 = direct_optimize(f_batch, [-1, -1], [1, 1], budget=600, vectorized=True)
    assert np.array_equal(r1.x, r2.x)
    assert r1.fun == r2.fun
    assert r1.n_evals == r2.n_evals == len(scalar_points)
    # the same points, evaluated in the same order
    assert np.array_equal(np.array(scalar_points), np.array(batch_points))
    # one call for the initial center, then one per sweep
    assert trisected["n"] == trisected_scalar
    assert batch_sizes[0] == 1 and sum(batch_sizes) == r2.n_evals
    assert len(batch_sizes) - 1 < trisected["n"]


def test_rescaled_box():
    def f(x):
        return float((x[0] - 30.0) ** 2)

    res = direct_optimize(f, [10.0], [50.0], budget=300)
    assert abs(res.x[0] - 30.0) < 0.05


def test_budget_too_small():
    with pytest.raises(BudgetTooSmall):
        direct_optimize(lambda x: 0.0, [0, 0, 0], [1, 1, 1], budget=6)


def test_bad_bounds():
    with pytest.raises(DimensionMismatch):
        direct_optimize(lambda x: 0.0, [0.0, 1.0], [1.0, 1.0], budget=50)


def test_corner_minimum_reachable():
    # minima on the box boundary are approached by repeated trisection
    def f(x):
        return float(-x[0] - 2 * x[1])

    res = direct_optimize(f, [0, 0], [1, 1], budget=3000)
    assert res.fun < -2.97


def test_budget_respected_moderate_dim():
    calls = {"n": 0}

    def f(x):
        calls["n"] += 1
        return float(np.sum(x ** 2))

    res = direct_optimize(f, [-1] * 5, [1] * 5, budget=400)
    assert calls["n"] <= 400
    assert res.n_evals == calls["n"]
