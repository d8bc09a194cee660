"""Deterministic dividing-rectangles global minimizer on a box.

Classic trisection scheme: keep a pile of hyperrectangles, pick the
potentially-optimal ones (lower-right convex hull in the diameter/value
plane), trisect each along its longest sides, repeat until the evaluation
budget is spent. Everything is deterministic for fixed inputs: ties break on
insertion order and rectangle classes are keyed by exact level multisets.

The objective may be flagged as vectorized, in which case it is called with
an (k, d) array of points and must return (k,) values; new points from one
sweep are evaluated in a single call. An unflagged objective is called once
per point, on the same points in the same order, so a row-wise objective
gives the same search either way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooSmall, DimensionMismatch

HULL_EPS = 1e-4


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    fun: float
    n_evals: int


class _Pile:
    """Rectangles grouped by their (sorted) trisection-level multiset."""

    def __init__(self, dim: int):
        self.centers: list[np.ndarray] = []
        self.levels: list[np.ndarray] = []
        self.fvals: list[float] = []
        self.alive: list[bool] = []
        self.groups: dict[tuple, list] = {}  # level multiset -> heap of (f, idx)
        self.diams: dict[tuple, float] = {}
        self.dim = dim

    def add(self, center: np.ndarray, levels: np.ndarray, f: float) -> int:
        idx = len(self.centers)
        self.centers.append(center)
        self.levels.append(levels)
        self.fvals.append(f)
        self.alive.append(True)
        key = tuple(sorted(levels.tolist()))
        if key not in self.groups:
            self.groups[key] = []
            sides = 3.0 ** -np.asarray(key, dtype=float)
            self.diams[key] = 0.5 * float(np.sqrt(np.sum(sides * sides)))
        heapq.heappush(self.groups[key], (f, idx))
        return idx

    def kill(self, idx: int) -> None:
        self.alive[idx] = False

    def group_minima(self):
        """(diameter, best f, best idx) per nonempty group, ascending diameter."""
        out = []
        for key, heap in list(self.groups.items()):
            while heap and not self.alive[heap[0][1]]:
                heapq.heappop(heap)
            if not heap:
                del self.groups[key]
                del self.diams[key]
                continue
            f, idx = heap[0]
            out.append((self.diams[key], f, idx))
        out.sort(key=lambda t: (t[0], t[1], t[2]))
        return out


def _potentially_optimal(minima, f_min: float) -> list[int]:
    """Indices of hull rectangles satisfying the slope and improvement tests."""
    selected = []
    k = len(minima)
    for j in range(k):
        dj, fj, idx = minima[j]
        left = [(fj - fi) / (dj - di) for di, fi, _ in minima[:j] if di < dj]
        right = [(fi - fj) / (di - dj) for di, fi, _ in minima[j + 1:] if di > dj]
        lmax = max(left) if left else -np.inf
        rmin = min(right) if right else np.inf
        if lmax > rmin + 1e-13:
            continue
        if right:
            if f_min != 0.0:
                ok = (f_min - fj) / abs(f_min) + dj * rmin / abs(f_min) >= HULL_EPS
            else:
                ok = fj <= dj * rmin
            if not ok:
                continue
        selected.append(idx)
    return selected


def direct_optimize(objective, lower, upper, budget: int = 2000,
                    vectorized: bool = False) -> OptimizeResult:
    """Minimize ``objective`` over the box [lower, upper] with at most
    ``budget`` evaluations.

    Returns the best point found; deterministic for fixed inputs. Requires
    budget >= 2*d + 1 (the initial center plus one trisection sweep).
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or lower.ndim != 1:
        raise DimensionMismatch("lower and upper must be 1-D arrays of equal length")
    if np.any(lower >= upper):
        raise DimensionMismatch("need lower < upper componentwise")
    d = lower.size
    if budget < 2 * d + 1:
        raise BudgetTooSmall(f"budget {budget} < 2*d+1 = {2 * d + 1}")
    span = upper - lower

    if vectorized:
        def evaluate(points: np.ndarray) -> np.ndarray:
            return np.asarray(objective(lower + points * span), dtype=float).reshape(-1)
    else:
        def evaluate(points: np.ndarray) -> np.ndarray:
            return np.array([float(objective(lower + p * span)) for p in points])

    pile = _Pile(d)
    center = np.full(d, 0.5)
    f_center = float(evaluate(center[None, :])[0])
    n_evals = 1
    best_x, best_f = center.copy(), f_center
    pile.add(center, np.zeros(d, dtype=int), f_center)

    while n_evals < budget:
        minima = pile.group_minima()
        if not minima:
            break
        chosen = _potentially_optimal(minima, best_f)
        if not chosen:
            break
        # Which rectangles fit the remaining budget depends on costs alone,
        # so the whole sweep's new points are gathered and evaluated at once.
        batch = []
        planned = n_evals
        for idx in chosen:
            levels = pile.levels[idx]
            min_level = levels.min()
            dims = np.flatnonzero(levels == min_level)
            cost = 2 * dims.size
            if planned + cost > budget:
                continue
            c = pile.centers[idx]
            delta = 3.0 ** -(min_level + 1)
            pts = np.repeat(c[None, :], cost, axis=0)
            for k, dim in enumerate(dims):
                pts[2 * k, dim] += delta
                pts[2 * k + 1, dim] -= delta
            batch.append((idx, dims, pts))
            planned += cost
            if planned >= budget:
                break
        if not batch:
            break
        all_vals = evaluate(np.concatenate([pts for _, _, pts in batch]))
        n_evals = planned

        start = 0
        for idx, dims, pts in batch:
            vals = all_vals[start:start + len(pts)]
            start += len(pts)
            imin = int(np.argmin(vals))
            if vals[imin] < best_f:
                best_f = float(vals[imin])
                best_x = pts[imin].copy()

            w = np.minimum(vals[0::2], vals[1::2])
            order = dims[np.argsort(w, kind="stable")]
            done = []
            new_levels = pile.levels[idx]
            for dim in order:
                new_levels = new_levels.copy()
                new_levels[dim] += 1
                k = int(np.flatnonzero(dims == dim)[0])
                done.append((pts[2 * k], new_levels, float(vals[2 * k])))
                done.append((pts[2 * k + 1], new_levels, float(vals[2 * k + 1])))
            pile.kill(idx)
            pile.add(pile.centers[idx], new_levels, pile.fvals[idx])
            for point, lev, val in done:
                pile.add(point, lev, val)

    return OptimizeResult(x=lower + best_x * span, fun=best_f, n_evals=n_evals)
