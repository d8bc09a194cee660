"""Deterministic dividing-rectangles global minimizer on a box.

Classic trisection scheme: keep a pile of hyperrectangles, pick the
potentially-optimal ones (lower-right convex hull in the diameter/value
plane), trisect each along its longest sides, repeat until the evaluation
budget is spent. Everything is deterministic for fixed inputs: ties break on
insertion order.

A rectangle's trisection levels are always some ``l`` and ``l + 1``, so the
integer sum of its levels identifies their multiset: rectangles are grouped
by that sum, a larger sum being a smaller diameter, and each group keeps a
heap of its rectangles' values. DIRECT picks only group minima, so a group
only ever loses its head: a pass pops each rectangle it trisects off its
group's heap, before the pass's new points enter, and pushes it into the
group of its deeper levels after them, so a heap holds live rectangles
only. The pile holds centres, levels and values in preallocated arrays,
one row per evaluated point, and a sweep costs a fixed number of array
passes whatever the number of rectangles it picks: one hull test over the
group minima and one pass that trisects every picked rectangle. A NaN
value ranks as +inf everywhere (best point, groups, hull), so a search
that finds nothing else reports +inf.

Searches run in lockstep. ``direct_lockstep`` advances S searches over boxes
of one dimension together: the searches share the pile's rows, each row is
entered into its own search's groups (so groups are keyed by (search, level
sum)), the hull test runs per search on (S, G) arrays padded on the left,
and budget, stop and best point are kept per search. A pass sweeps every
live search once, with one objective call for all their new points, so the
fixed cost of a sweep is paid once per pass; mapping the pass's points to
their boxes and finding each search's first minimum are array operations
over the whole pass, not a numpy call per search. Each search visits
exactly the points, in the same order, that it visits run alone, provided
a point's value does not depend on the other points of its call, as no
search objective's does (``robustness`` module docstring). ``direct_optimize`` is
the call with S = 1: its objective takes a (k, d) array of points and
returns (k,) values, the centre first and then one sweep's new points per
call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooSmall, DimensionMismatch

HULL_EPS = 1e-4
_LOW = (1 << 32) - 1           # a heap entry's row
_SIGN = np.uint64(1 << 63)


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    fun: float
    n_evals: int


class _Pile:
    """Rectangles in preallocated rows, grouped per search by the sum of
    their trisection levels. Each group is a heap of entries ordered as
    (f, tick), each one int: f's bits mapped to an integer of the same order
    (``_ordered``), above the tick and then the row, 64, 32 and 32 bits
    wide. Ticks follow the insertion order and break ties. A heap holds
    live rectangles only, one entry per row: a trisected rectangle is
    popped off its group's head (``pop``) before it is pushed into its
    next group, and a group is deleted once its heap is empty. Every
    search's rows are live at once in a lockstep, so a row is kept small:
    one int per heap entry (a third of the memory of an (f, tick, row)
    tuple), its levels in int16 (far below 2**15 within any budget)."""

    def __init__(self, dim: int, capacity: int, searches: int):
        self.centers = np.empty((capacity, dim))
        self.levels = np.empty((capacity, dim), dtype=np.int16)
        self.fvals = np.empty(capacity + 1)
        self.fvals[capacity] = np.inf
        self.pad = capacity  # the row group_minima pads with, of value +inf
        self.n_rows = 0
        # per search: level sum -> heap of entries
        self.groups: list[dict[int, list]] = [{} for _ in range(searches)]
        self.diams: dict[int, float] = {}  # level sum -> diameter
        self.dim = dim

    def add(self, centers: np.ndarray, levels: np.ndarray, fvals: np.ndarray,
            owners: list[int]) -> int:
        """Store rectangles of the searches ``owners`` in the next rows, with
        tick 2 * row, and enter them into their groups; returns the first
        row."""
        start = self.n_rows
        stop = self.n_rows = start + len(fvals)
        self.centers[start:stop] = centers
        self.levels[start:stop] = levels
        self.fvals[start:stop] = fvals
        self.push(range(start, stop), range(2 * start, 2 * stop, 2), owners,
                  np.add.reduce(levels, axis=1).tolist(), fvals)
        return start

    def push(self, rows, ticks, owners, keys, fvals: np.ndarray) -> None:
        """Enter each row, with its tick and value, into its search's group
        of level sum ``key``."""
        for row, tick, owner, key, high in zip(rows, ticks, owners, keys,
                                               _ordered(fvals)):
            groups = self.groups[owner]
            heap = groups.get(key)
            if heap is None:
                heap = groups[key] = []
                if key not in self.diams:
                    self.diams[key] = self._diameter(key)
            heapq.heappush(heap, high << 64 | tick << 32 | row)

    def pop(self, owners, keys) -> None:
        """Pop the head of each search's group of level sum ``key``, deleting
        the group once it is empty."""
        for owner, key in zip(owners, keys):
            groups = self.groups[owner]
            heap = groups[key]
            heapq.heappop(heap)
            if not heap:
                del groups[key]

    def _diameter(self, key: int) -> float:
        """Half the diagonal of a rectangle whose levels sum to ``key``: they
        are ``low`` on all but ``high`` sides, which are one deeper."""
        low, high = divmod(key, self.dim)
        sorted_levels = [low] * (self.dim - high) + [low + 1] * high
        sides = 3.0 ** -np.asarray(sorted_levels, dtype=float)
        return 0.5 * float(np.sqrt(np.sum(sides * sides)))

    def group_minima(self, searches: list[int]):
        """(len(searches), G) diameters, best values and best rows (the
        heads) of each search's groups in ascending diameter, padded on the
        left with a NaN diameter and the row ``pad``, of value +inf."""
        diams, rows, starts = [], [], []
        for owner in searches:
            starts.append(len(rows))
            groups = self.groups[owner]
            for key in sorted(groups, reverse=True):
                diams.append(self.diams[key])
                rows.append(groups[key][0] & _LOW)
        counts = [b - a for a, b in zip(starts, starts[1:] + [len(rows)])]
        width = max(counts)
        for start, count in zip(reversed(starts), reversed(counts)):
            if count < width:
                diams[start:start] = [np.nan] * (width - count)
                rows[start:start] = [self.pad] * (width - count)
        shape = (len(searches), width)
        rows = np.array(rows, dtype=np.int64).reshape(shape)
        return np.array(diams).reshape(shape), self.fvals[rows], rows


def _ordered(fvals: np.ndarray) -> list:
    """Unsigned integers in the order of the float64 ``fvals`` (-0.0 and
    +0.0 map to the same one, so that equal values tie)."""
    bits = fvals.view(np.uint64)
    return np.where(fvals < 0.0, ~bits, bits | _SIGN).tolist()


def _potentially_optimal(diams: np.ndarray, fmins: np.ndarray,
                         f_min) -> np.ndarray:
    """Mask of the groups (ascending ``diams``, best values ``fmins``) on the
    lower-right hull that pass the improvement test against ``f_min``, the
    least of ``fmins``; leading axes are searches, each with its own
    ``f_min``. Padding holds a NaN diameter and an infinite value.

    The largest group (the last) is always picked. A smaller group with an
    infinite best value never passes the improvement test, and a finite one
    has no NaN slope, so NaN slopes (between two equal infinite values, or
    to padding) need no rule of their own: fmax and fmin skip them.
    """
    order = np.arange(diams.shape[-1])
    upper = order[:, None] < order  # i < j
    f_min = np.asarray(f_min, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # slope[i, j] = slope[j, i], the slope between groups i and j
        slope = ((fmins[..., None, :] - fmins[..., :, None])
                 / (diams[..., None, :] - diams[..., :, None]))
        # steepest slope from a smaller group, flattest to a larger one
        lmax = np.fmax.reduce(slope, axis=-2, where=upper, initial=-np.inf)
        rmin = np.fmin.reduce(slope, axis=-2, where=upper.T, initial=np.inf)
        scale = abs(f_min)
        ok = (f_min - fmins) / scale + diams * rmin / scale >= HULL_EPS
        if not f_min.all():
            ok = np.where(f_min != 0.0, ok, fmins <= diams * rmin)
    picked = (lmax <= rmin + 1e-13) & ok & np.isfinite(fmins)
    picked[..., -1] = True
    return picked


def direct_lockstep(objective, lowers, uppers, budgets, stops, drop=None) -> list:
    """Run S searches in lockstep: search s minimizes over the box
    [lowers[s], uppers[s]] with at most ``budgets[s]`` evaluations and ends
    after its first sweep at or below ``stops[s]`` (None for no stop), as
    ``direct_optimize`` does; every box has the same dimension d.

    ``objective(batches)`` takes a list of (search, points) pairs, each
    search's (k, d) points in its box, in ascending search order, and
    returns their (k,) values in a list in the same order. It is called
    once for every search's centre and then once per pass. ``drop``, if
    given, is called before each pass with the (S,) best values so far and
    returns a mask of searches to abandon. Returns each search's
    OptimizeResult, None for an abandoned one.
    """
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    if lowers.shape != uppers.shape or lowers.ndim != 2:
        raise DimensionMismatch("lowers and uppers must be (S, d) arrays of equal shape")
    if np.any(lowers >= uppers):
        raise DimensionMismatch("need lower < upper componentwise")
    n_search, d = lowers.shape
    budgets = [int(b) for b in budgets]
    if min(budgets) < 2 * d + 1:
        raise BudgetTooSmall(f"budget {min(budgets)} < 2*d+1 = {2 * d + 1}")
    span = uppers - lowers

    def evaluate(points: np.ndarray, owners: list, starts: list, counts):
        """Values of the unit-box ``points``: the search ``owners[i]``'s
        ``counts[i]`` rows from ``starts[i]``, mapped to its box in one pass;
        NaN becomes +inf."""
        of_point = np.repeat(owners, counts)
        x = lowers[of_point] + points * span[of_point]
        parts = objective([(s, x[lo:lo + n]) for s, lo, n in zip(owners, starts, counts)])
        vals = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.where(np.isnan(vals), np.inf, vals), of_point

    searches = list(range(n_search))
    pile = _Pile(d, sum(budgets), n_search)
    best_x = np.full((n_search, d), 0.5)
    best_f = evaluate(best_x, searches, searches, [1] * n_search)[0].tolist()
    n_evals = [1] * n_search
    pile.add(best_x, np.zeros((n_search, d), dtype=np.int16), np.array(best_f),
             searches)
    dropped = set()

    while True:
        searches = [s for s in searches if n_evals[s] < budgets[s]
                    and not (stops[s] is not None and best_f[s] <= stops[s])]
        if drop is not None and searches:
            gone = drop(np.array(best_f))
            dropped.update(s for s in searches if gone[s])
            searches = [s for s in searches if not gone[s]]
        if not searches:
            break
        diams, fmins, rows = pile.group_minima(searches)
        picked = _potentially_optimal(diams, fmins, [best_f[s] for s in searches])
        chosen = rows[picked]  # search by search, each in ascending diameter
        owners = [s for s, n in zip(searches, np.add.reduce(picked, axis=1).tolist())
                  for _ in range(n)]
        # Which rectangles fit each search's remaining budget depends on
        # costs alone, so the pass's new points are gathered and evaluated
        # at once. (array methods and ufunc reductions: a pass handles a few
        # small arrays, so per-call overhead is most of its cost)
        levels = pile.levels.take(chosen, axis=0)
        low = np.minimum.reduce(levels, axis=1)
        cut = levels == low[:, None]  # each rectangle's longest sides
        n_cuts = np.add.reduce(cut, axis=1)
        # each search's first new row, in ``segments``
        take, segments, n_points = [], [], 0
        for i, (owner, cost) in enumerate(zip(owners, (2 * n_cuts).tolist())):
            if n_evals[owner] + cost <= budgets[owner]:
                if not segments or segments[-1][0] != owner:
                    segments.append((owner, n_points))
                take.append(i)
                n_evals[owner] += cost
                n_points += cost
        # a search none of whose picks fits its budget ends
        searches = [s for s, _ in segments]
        if not take:
            break
        if len(take) < chosen.size:
            chosen, levels, low, cut, n_cuts = (
                chosen[take], levels[take], low[take], cut[take], n_cuts[take])
            owners = [owners[i] for i in take]
        # every taken pick is its group's head until the pass adds points
        pile.pop(owners, np.add.reduce(levels, axis=1).tolist())
        # one cut per (rectangle, side), rectangles in order, sides ascending;
        # cut i gives the points 2i (centre + delta) and 2i + 1 (- delta)
        rect, side = cut.nonzero()
        delta = 3.0 ** (-1 - low[rect])
        cuts = np.arange(rect.size)
        plus = 2 * cuts
        pts = pile.centers.take(chosen, axis=0).repeat(2 * n_cuts, axis=0)
        pts[plus, side] += delta
        pts[plus + 1, side] -= delta
        starts = [lo for _, lo in segments]
        counts = np.diff(starts + [n_points])
        vals, point_owners = evaluate(pts, searches, starts, counts)

        # each search's first minimum of the pass: the first of its points
        # equal to its least value (no value is NaN here)
        mins = np.minimum.reduceat(vals, starts)
        hits = np.flatnonzero(vals == mins.repeat(counts))
        for owner, f, imin in zip(searches, mins.tolist(),
                                  hits[np.searchsorted(hits, starts)].tolist()):
            if f < best_f[owner]:
                best_f[owner] = f
                best_x[owner] = pts[imin]

        # Order each rectangle's cuts by their better value (stable); pos is
        # a cut's place in that order, over the whole pass. The child of a
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
        # its children by rank would; a search's rows keep their order
        # whatever other searches share the pass.
        start = pile.add(pts, child_levels.repeat(2, axis=0), vals, point_owners.tolist())
        parent_levels = levels + cut
        pile.levels[chosen] = parent_levels
        first = n_cuts.cumsum() - n_cuts  # each rectangle's first cut
        pile.push(chosen.tolist(), (4 * first + (2 * start - 1)).tolist(), owners,
                  np.add.reduce(parent_levels, axis=1).tolist(), pile.fvals[chosen])

    x = lowers + best_x * span
    return [None if s in dropped else
            OptimizeResult(x=x[s], fun=best_f[s], n_evals=n_evals[s])
            for s in range(n_search)]


def direct_optimize(objective, lower, upper, budget: int = 2000,
                    stop: float | None = None) -> OptimizeResult:
    """Minimize ``objective``, which maps (k, d) points to (k,) values, over
    the box [lower, upper] with at most ``budget`` evaluations.

    Returns the best point found; deterministic for fixed inputs. NaN values
    rank as +inf. Requires budget >= 2*d + 1 (the initial center plus one
    trisection sweep). With a ``stop`` value the search ends after the first
    sweep (the centre counting as one) whose best value is at or below it,
    having evaluated a prefix of the points the search without it visits.
    This is ``direct_lockstep`` with one search.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))

    def evaluate(batches) -> list:
        (_, points), = batches
        return [np.asarray(objective(points), dtype=float).reshape(-1)]

    return direct_lockstep(evaluate, lower[None], upper[None], [budget], [stop])[0]
