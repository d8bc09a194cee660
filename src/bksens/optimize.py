"""Deterministic dividing-rectangles global minimizer on a box.

Classic trisection scheme: keep a pile of hyperrectangles, pick the
potentially-optimal ones (lower-right convex hull in the diameter/value
plane), trisect each along its longest sides, repeat until the evaluation
budget is spent. Everything is deterministic for fixed inputs: ties break on
insertion order.

A rectangle's trisection levels are always some ``l`` and ``l + 1``, so the
integer sum of its levels identifies their multiset: rectangles are grouped
by that sum, a larger sum being a smaller diameter, and each group keeps a
heap of its values. The pile holds centres, levels and values in
preallocated arrays, one row per evaluated point, and a sweep costs a fixed
number of array passes whatever the number of rectangles it picks: one hull
test over the group minima and one pass that trisects every picked
rectangle. A NaN value ranks as +inf everywhere (best point, groups, hull),
so a search that finds nothing else reports +inf.

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
    """Rectangles in preallocated rows, grouped by the sum of their
    trisection levels. Each group is a heap of (f, tick, row): ticks follow
    the insertion order and break ties, and an entry is dead once its row
    carries another tick."""

    def __init__(self, dim: int, capacity: int):
        self.centers = np.empty((capacity, dim))
        self.levels = np.empty((capacity, dim), dtype=np.int64)
        self.fvals = np.empty(capacity)
        self.ticks: list[int] = []  # each row's live tick, -1 if none
        self.groups: dict[int, list] = {}  # level sum -> heap of (f, tick, row)
        self.diams: dict[int, float] = {}  # level sum -> diameter
        self.dim = dim

    def add(self, centers: np.ndarray, levels: np.ndarray, fvals: np.ndarray) -> int:
        """Store rectangles in the next rows, with tick 2 * row, and enter
        them into their groups; returns the first row."""
        start = len(self.ticks)
        stop = start + len(fvals)
        self.centers[start:stop] = centers
        self.levels[start:stop] = levels
        self.fvals[start:stop] = fvals
        self.ticks.extend([-1] * len(fvals))
        self.push(range(start, stop), range(2 * start, 2 * stop, 2),
                  np.add.reduce(levels, axis=1).tolist(), fvals.tolist())
        return start

    def push(self, rows, ticks, keys, fvals) -> None:
        """Enter each row into the group of its level sum ``key``."""
        for row, tick, key, f in zip(rows, ticks, keys, fvals):
            self.ticks[row] = tick
            heap = self.groups.get(key)
            if heap is None:
                heap = self.groups[key] = []
                if key not in self.diams:
                    self.diams[key] = self._diameter(key)
            heapq.heappush(heap, (f, tick, row))

    def _diameter(self, key: int) -> float:
        """Half the diagonal of a rectangle whose levels sum to ``key``: they
        are ``low`` on all but ``high`` sides, which are one deeper."""
        low, high = divmod(key, self.dim)
        sorted_levels = [low] * (self.dim - high) + [low + 1] * high
        sides = 3.0 ** -np.asarray(sorted_levels, dtype=float)
        return 0.5 * float(np.sqrt(np.sum(sides * sides)))

    def kill(self, idx: int) -> None:
        self.ticks[idx] = -1

    def group_minima(self):
        """Diameters, best values and best rows of the nonempty groups, in
        ascending diameter."""
        diams, fmins, rows = [], [], []
        ticks = self.ticks
        for key in sorted(self.groups, reverse=True):
            heap = self.groups[key]
            while heap and ticks[heap[0][2]] != heap[0][1]:
                heapq.heappop(heap)
            if not heap:
                del self.groups[key]
                continue
            f, _, row = heap[0]
            diams.append(self.diams[key])
            fmins.append(f)
            rows.append(row)
        return np.array(diams), np.array(fmins), np.array(rows, dtype=np.int64)


def _potentially_optimal(diams: np.ndarray, fmins: np.ndarray,
                         f_min: float) -> np.ndarray:
    """Mask of the groups (ascending ``diams``, best values ``fmins``) on the
    lower-right hull that pass the improvement test against ``f_min``, the
    least of ``fmins``.

    The largest group is always picked. A smaller group with an infinite
    best value never passes the improvement test, and a finite one has no
    NaN slope, so NaN slopes (between two equal infinite values) need no
    rule of their own.
    """
    order = np.arange(diams.size)
    upper = order[:, None] < order  # i < j
    with np.errstate(divide="ignore", invalid="ignore"):
        # slope[i, j] = slope[j, i], the slope between groups i and j
        slope = (fmins - fmins[:, None]) / (diams - diams[:, None])
        # steepest slope from a smaller group, flattest to a larger one
        lmax = np.fmax.reduce(slope, axis=0, where=upper, initial=-np.inf)
        rmin = np.fmin.reduce(slope, axis=0, where=upper.T, initial=np.inf)
        if f_min != 0.0:
            ok = (f_min - fmins) / abs(f_min) + diams * rmin / abs(f_min) >= HULL_EPS
        else:
            ok = fmins <= diams * rmin
    picked = (lmax <= rmin + 1e-13) & ok & np.isfinite(fmins)
    picked[-1] = True
    return picked


def direct_optimize(objective, lower, upper, budget: int = 2000,
                    vectorized: bool = False,
                    stop: float | None = None) -> OptimizeResult:
    """Minimize ``objective`` over the box [lower, upper] with at most
    ``budget`` evaluations.

    Returns the best point found; deterministic for fixed inputs. NaN values
    rank as +inf. Requires budget >= 2*d + 1 (the initial center plus one
    trisection sweep). With a ``stop`` value the search ends after the first
    sweep (the centre counting as one) whose best value is at or below it,
    having evaluated a prefix of the points the search without it visits.
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

    def evaluate(points: np.ndarray) -> np.ndarray:
        if vectorized:
            vals = np.asarray(objective(lower + points * span), dtype=float).reshape(-1)
        else:
            vals = np.array([float(objective(lower + p * span)) for p in points])
        return np.where(np.isnan(vals), np.inf, vals)

    pile = _Pile(d, budget)
    center = np.full((1, d), 0.5)
    f_center = evaluate(center)
    n_evals = 1
    best_x, best_f = center[0].copy(), float(f_center[0])
    pile.add(center, np.zeros((1, d), dtype=np.int64), f_center)

    while n_evals < budget and not (stop is not None and best_f <= stop):
        diams, fmins, rows = pile.group_minima()
        chosen = rows[_potentially_optimal(diams, fmins, best_f)]
        if not chosen.size:
            break
        # Which rectangles fit the remaining budget depends on costs alone,
        # so the whole sweep's new points are gathered and evaluated at once.
        # (array methods and ufunc reductions: a sweep handles a few small
        # arrays, so per-call overhead is most of its cost)
        levels = pile.levels.take(chosen, axis=0)
        low = np.minimum.reduce(levels, axis=1)
        cut = levels == low[:, None]  # each rectangle's longest sides
        n_cuts = np.add.reduce(cut, axis=1)
        take = []
        planned = n_evals
        for i, n in enumerate(n_cuts.tolist()):
            if planned + 2 * n > budget:
                continue
            take.append(i)
            planned += 2 * n
            if planned >= budget:
                break
        if not take:
            break
        if len(take) < chosen.size:
            chosen, levels, low, cut, n_cuts = (
                chosen[take], levels[take], low[take], cut[take], n_cuts[take])
        # one cut per (rectangle, side), rectangles in order, sides ascending;
        # cut i gives the points 2i (centre + delta) and 2i + 1 (- delta)
        rect, side = cut.nonzero()
        delta = 3.0 ** (-1 - low[rect])
        cuts = np.arange(rect.size)
        plus = 2 * cuts
        pts = pile.centers.take(chosen, axis=0).repeat(2 * n_cuts, axis=0)
        pts[plus, side] += delta
        pts[plus + 1, side] -= delta
        vals = evaluate(pts)
        n_evals = planned

        # the first minimum of the sweep is the first rectangle's first one
        imin = int(np.argmin(vals))
        if vals[imin] < best_f:
            best_f = float(vals[imin])
            best_x = pts[imin].copy()

        # Order each rectangle's cuts by their better value (stable); pos is
        # a cut's place in that order, over the whole sweep. The child of a
        # cut is one level deeper on its side and on the sides cut before
        # it; the parent ends one level deeper on all of them.
        order = np.lexsort((np.minimum(vals[0::2], vals[1::2]), rect))
        pos = np.empty_like(order)
        pos[order] = cuts
        ranks = np.full(cut.shape, rect.size)  # sides not cut are never deepened
        ranks[rect, side] = pos
        deeper = ranks.take(rect, axis=0) <= pos[:, None]
        child_levels = levels.take(rect, axis=0) + deeper

        # The points take new rows in the order generated; each parent keeps
        # its row. Ticks break ties inside a group: 2 * row for a new row and
        # one less than its first child's for a parent. A group holds at most
        # one cut's two points per rectangle (and the parent beside its last
        # rank), so this orders every group as inserting each parent and then
        # its children by rank would.
        start = pile.add(pts, child_levels.repeat(2, axis=0), vals)
        parent_levels = levels + cut
        pile.levels[chosen] = parent_levels
        for idx in chosen.tolist():
            pile.kill(idx)
        first = n_cuts.cumsum() - n_cuts  # each rectangle's first cut
        pile.push(chosen.tolist(), (4 * first + (2 * start - 1)).tolist(),
                  np.add.reduce(parent_levels, axis=1).tolist(),
                  pile.fvals[chosen].tolist())

    return OptimizeResult(x=lower + best_x * span, fun=best_f, n_evals=n_evals)
