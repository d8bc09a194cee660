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
    for lower, upper in [([0.0, 1.0], [1.0, 1.0]),        # not lower < upper
                         ([0.0, 0.0], [1.0, 1.0, 1.0]),   # lengths differ
                         ([[0.0, 0.0]], [[1.0, 1.0]]),    # not 1-D
                         ([np.nan], [1.0]),               # NaN
                         ([0.0], [np.nan]),
                         ([-np.inf], [1.0]),              # infinite
                         ([0.0, 0.0], [1.0, np.inf])]:
        with pytest.raises(DimensionMismatch):
            direct_optimize(lambda x: np.zeros(len(x)), lower, upper, budget=50)


def test_corner_minimum_reachable():
    # minima on the box boundary are approached by repeated trisection
    def f(x):
        return -x[:, 0] - 2 * x[:, 1]

    res = direct_optimize(f, [0, 0], [1, 1], budget=3000)
    assert res.fun < -2.97


def test_budget_respected_moderate_dim(monkeypatch):
    sizes, trisected = [], {"n": 0}
    move = optimize._Pile.move

    def counting_move(self, rows, *args):
        trisected["n"] += len(rows)
        return move(self, rows, *args)

    def f(x):
        sizes.append(len(x))
        return np.sum(x ** 2, axis=1)

    monkeypatch.setattr(optimize._Pile, "move", counting_move)
    res = direct_optimize(f, [-1] * 5, [1] * 5, budget=400)
    assert sum(sizes) <= 400
    assert res.n_evals == sum(sizes)
    # one call for the centre, then one per sweep, not one per rectangle
    assert sizes[0] == 1 and len(sizes) - 1 < trisected["n"]


class _RecordedPile(optimize._Pile):
    """The pile of the last lockstep, and at each window the pile's rows and
    what the window showed the hull."""
    piles, windows = [], []

    def __init__(self, *args):
        super().__init__(*args)
        self.piles.append(self)

    def window(self, searches):
        found = super().window(searches)
        n = self.n_rows
        rows = (self.levels[:n].sum(axis=1), self.fvals[:n], self.keys[:n] >> 32)
        self.windows.append(tuple(np.copy(a) for a in (searches, *rows, *found)))
        return found


def _row_owners(calls):
    """Each row's search: rows are stored in the order points are evaluated."""
    return np.concatenate(calls).tolist()


def _reference_heads(owners, sums, fvals, ticks):
    """Each (search, level sum) group's least (f, tick, row) over every row,
    in Python (-0.0 == +0.0, so those values tie on the tick), and the
    groups whose head value 0.0 ties values of both signs."""
    heads, signs = {}, {}
    for row, group in enumerate(zip(owners, sums.tolist())):
        entry = (float(fvals[row]), int(ticks[row]), row)
        if group not in heads or entry < heads[group]:
            heads[group] = entry
        if entry[0] == 0.0:
            signs.setdefault(group, set()).add(np.signbit(entry[0]))
    return heads, {group for group, seen in signs.items()
                   if len(seen) == 2 and heads[group][0] == 0.0}


def test_pile_holds_one_entry_per_row(monkeypatch):
    # every row is a live rectangle in exactly one group: its own search's
    # group of its level sum
    calls = []

    def objective(x, owners):
        calls.append(owners.copy())
        return np.cos(3 * x[:, 0]) * np.sin(5 * x[:, 1]) + 0.1 * owners * x[:, 0]

    monkeypatch.setattr(_RecordedPile, "piles", [])
    monkeypatch.setattr(_RecordedPile, "windows", [])
    monkeypatch.setattr(optimize, "_Pile", _RecordedPile)
    results = optimize.direct_lockstep(objective, [[-1, -1], [0, 0], [-2, 1]],
                                       [[1, 1], [1, 2], [2, 3]], [300, 450, 200],
                                       [None, None, -0.5])
    pile, = _RecordedPile.piles
    n = pile.n_rows
    owners = np.array(_row_owners(calls))
    assert n == owners.size == sum(res.n_evals for res in results)
    groups = pile.groups[:n]
    assert np.array_equal(groups, owners * pile.width + pile.levels[:n].sum(axis=1))
    assert np.bincount(groups // pile.width).tolist() == [res.n_evals for res in results]
    # keys hold the row under a unique tick
    assert np.array_equal(pile.keys[:n] & optimize._LOW, np.arange(n))
    assert np.unique(pile.keys[:n] >> 32).size == n


def test_hull_sees_each_groups_least_value_and_tick(monkeypatch):
    # ties (a rounded objective, whose values near its floor are -0.0 and
    # +0.0), an infinite region and a NaN region (+inf), in one lockstep
    def rounded(x):
        return np.round(np.sum((x - 0.3) ** 2, axis=1) - 0.05, 1)

    def infinite(x):
        return np.where(x[:, 0] > 0.6, np.inf, np.sum(x ** 2, axis=1))

    def missing(x):
        return np.where(x[:, 1] < 0.2, np.nan, np.abs(x[:, 0] - 0.4))

    fs, calls = (rounded, infinite, missing), []

    def objective(x, owners):
        calls.append(owners.copy())
        vals = np.empty(len(x))
        for s, f in enumerate(fs):
            vals[owners == s] = f(x[owners == s])
        return vals

    monkeypatch.setattr(_RecordedPile, "piles", [])
    monkeypatch.setattr(_RecordedPile, "windows", [])
    monkeypatch.setattr(optimize, "_Pile", _RecordedPile)
    optimize.direct_lockstep(objective, [[0.0, 0.0]] * 3, [[1.0, 1.0]] * 3,
                             [500, 400, 300], [None] * 3)
    pile, = _RecordedPile.piles
    owners = _row_owners(calls)
    zero_ties = 0
    for searches, sums, fvals, ticks, fmins, keys, diams, gaps, largest \
            in _RecordedPile.windows:
        heads, mixed = _reference_heads(owners[:sums.size], sums, fvals, ticks)
        live = [group for group in heads if group[0] in searches]
        lo, hi = min(level for _, level in live), max(level for _, level in live)
        assert fmins.shape == keys.shape == (searches.size, hi - lo + 1)
        assert np.array_equal(diams, pile.diam_of[pile.n_diams - 1 - hi:pile.n_diams - lo])
        for i, s in enumerate(searches.tolist()):
            assert largest[i] == hi - min(level for owner, level in live if owner == s)
            for col, level in enumerate(range(hi, lo - 1, -1)):
                if (s, level) not in heads:
                    assert np.isnan(fmins[i, col])
                    continue
                f, tick, row = heads[s, level]
                assert keys[i, col] == tick << 32 | row
                assert fmins[i, col] == f and np.signbit(fmins[i, col]) == np.signbit(f)
                zero_ties += (s, level) in mixed
    assert zero_ties
