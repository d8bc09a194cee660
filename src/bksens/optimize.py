"""Deterministic dividing-rectangles global minimizer on a box.

Classic trisection scheme: keep a pile of hyperrectangles, pick the
potentially-optimal ones (lower-right convex hull in the diameter/value
plane), trisect each along its longest sides, repeat until the evaluation
budget is spent. Everything is deterministic for fixed inputs: ties break on
insertion order.

A rectangle's trisection levels are always some ``l`` and ``l + 1``, so the
integer sum of its levels identifies their multiset: rectangles are grouped
by that sum, a larger sum being a smaller diameter. DIRECT picks only group
minima (heads), so a group only ever loses its head, and a trisected
rectangle moves to exactly one deeper group. The pile holds centres,
levels, values, group ids and tie-breaking keys in preallocated arrays, one
row per evaluated point, and the heads in a table. A pass costs a fixed
number of array operations whatever the number of rectangles it picks: one
hull test over the heads, one pass that trisects every picked rectangle,
and one head update over the groups the pass changed. A NaN value ranks as
+inf everywhere (best point, groups, hull), so a search that finds nothing
else reports +inf.

Searches run in lockstep. ``direct_lockstep`` advances S searches over boxes
of one dimension together: the searches share the pile's rows, each row is
in its own search's groups (so groups are keyed by (search, level sum)),
the hull test runs on the (S, G) heads of the level sums the live searches
hold, NaN where a search has no such group, and budget, stop and best point
are kept per search. A pass sweeps every live search once, with one
objective call for all their new points, so the fixed cost of a sweep is
paid once per pass: the objective takes the pass's points, mapped to their
boxes, as one (P, d) array beside the (P,) searches that own them, in
ascending search order, and returns (P,) values. Mapping the points, the
budget check (unless a budget binds) and finding each search's first
minimum are array operations over the whole pass, not a numpy call per
search. Each search visits exactly the points, in the same order, that it
visits run alone, provided a point's value does not depend on the other
points of its call, as no search objective's does (``robustness`` module
docstring). ``direct_optimize`` is the call with S = 1: its objective takes
a (k, d) array of points and returns (k,) values, the centre first and
then one sweep's new points per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetTooSmall, DimensionMismatch

HULL_EPS = 1e-4
_LOW = (1 << 32) - 1  # a key's row


@dataclass(frozen=True)
class OptimizeResult:
    x: np.ndarray
    fun: float
    n_evals: int


class _Pile:
    """Rectangles in preallocated rows, each row a live rectangle in exactly
    one group: its search's rectangles of one level sum. A row carries its
    group id, ``search * width + level sum`` (``width`` exceeds every level
    sum), and a key ``tick << 32 | row``; ticks follow the insertion order,
    are unique and break ties of value.

    The head of a group is its least (f, tick) row, -0.0 tying +0.0. The
    heads' values and keys are kept in tables indexed by group id (read as
    (searches, width) by ``window``), updated once per pass with array
    operations (``update``): a pass changes only the groups that lose a head
    or gain a row, and only a group that loses its head has its rows read
    again. An empty group's head is the pad row past the last, of value NaN
    and key ``empty``, above every other key; the pad's own group lies past
    every search's. Every search's rows are live at once in a lockstep, so a
    row is kept small: two int64 for its group and key, its levels in int16
    (far below 2**15 within any budget)."""

    def __init__(self, dim: int, capacity: int, searches: int, width: int):
        self.centers = np.empty((capacity, dim))
        self.levels = np.empty((capacity, dim), dtype=np.int16)
        self.fvals = np.empty(capacity + 1)
        self.groups = np.empty(capacity + 1, dtype=np.int64)
        self.keys = np.empty(capacity + 1, dtype=np.int64)
        self.fvals[capacity] = np.nan
        self.groups[capacity] = searches * width
        self.empty = self.keys[capacity] = 1 << 62 | capacity
        self.n_rows = 0
        self.width = width
        self.head_f = np.full(searches * width + 1, np.nan)
        self.head_key = np.full(searches * width + 1, self.empty)
        self.tables = (self.head_f[:-1].reshape(searches, width),
                       self.head_key[:-1].reshape(searches, width))
        self._lost = np.zeros(searches * width + 1, dtype=bool)  # update's scratch
        self.deepest = 0  # the largest level sum of any row so far
        self.dim = dim
        # the diameters of level sums n_diams - 1 down to 0, and their gaps
        self.n_diams = 0
        self._grow(31)

    def add(self, centers: np.ndarray, levels: np.ndarray, fvals: np.ndarray,
            owners: np.ndarray) -> int:
        """Store rectangles of the searches ``owners`` in the next rows, with
        tick 2 * row, in their groups; returns the first row. Heads change
        only at ``update``."""
        start = self.n_rows
        stop = self.n_rows = start + len(fvals)
        rows = np.arange(start, stop)
        sums = np.add.reduce(levels, axis=1)
        # a trisection's deepest child is as deep as its parent
        self.deepest = max(self.deepest, int(sums.max()))
        self.centers[start:stop] = centers
        self.levels[start:stop] = levels
        self.fvals[start:stop] = fvals
        self.groups[start:stop] = owners * self.width + sums
        self.keys[start:stop] = rows << 33 | rows
        return start

    def move(self, rows: np.ndarray, levels: np.ndarray, owners: np.ndarray,
             ticks: np.ndarray) -> np.ndarray:
        """Move the trisected heads ``rows`` to the groups of their new
        ``levels``, with new ``ticks``; returns the groups they left."""
        lost = self.groups[rows]
        self.levels[rows] = levels
        self.groups[rows] = owners * self.width + np.add.reduce(levels, axis=1)
        self.keys[rows] = ticks << 32 | rows
        return lost

    def update(self, lost: np.ndarray, entered: np.ndarray) -> None:
        """New heads for the groups ``lost``, whose heads left them, and for
        those the rows ``entered`` now belong to: a group that lost its head
        is read again whole, and any other takes the least of its old head
        and the rows that entered it."""
        touched = np.concatenate([lost, self.groups[entered]])
        self._lost[lost] = True
        members = self._lost.take(self.groups[:self.n_rows]).nonzero()[0]
        self._lost[lost] = False
        rows = np.concatenate([members, entered, self.head_key[touched] & _LOW])
        groups = self.groups[rows]
        fvals = self.fvals[rows]
        self.head_f[touched] = np.inf
        self.head_key[touched] = self.empty
        with np.errstate(invalid="ignore"):  # the pad's NaN, in its own group
            np.minimum.at(self.head_f, groups, fvals)
        tie = fvals == self.head_f[groups]
        np.minimum.at(self.head_key, groups[tie], self.keys[rows[tie]])
        self.head_f[touched] = self.fvals[self.head_key[touched] & _LOW]

    def window(self, searches: np.ndarray):
        """The heads of the searches ``searches`` over the level sums any of
        their groups holds, in ascending diameter: (S, G) values (NaN where
        a group is empty) and keys, the (G,) diameters and the gaps between
        them (``_gaps``), and the column of each search's largest group."""
        keys = self.tables[1][searches, :self.deepest + 1]
        filled = keys != self.empty
        shallowest = filled.argmax(axis=1)
        lo = int(shallowest.min())
        hi = int(np.flatnonzero(np.logical_or.reduce(filled, axis=0))[-1])
        if hi >= self.n_diams:
            self._grow(hi)
        cols = slice(hi, lo - 1 if lo else None, -1)
        top = self.n_diams - 1 - hi
        window = slice(top, top + hi - lo + 1)
        return (self.tables[0][searches, cols], keys[:, cols], self.diam_of[window],
                self.gap_of[window, window], hi - shallowest)

    def _grow(self, hi: int) -> None:
        """Diameters (half diagonals) and their gaps for level sums up to at
        least ``hi``. The levels of a rectangle whose levels sum to ``key``
        are ``low`` on all but ``high`` sides, which are one deeper, where
        ``low, high = divmod(key, dim)``."""
        self.n_diams = max(2 * self.n_diams, hi + 1)
        low, high = np.divmod(np.arange(self.n_diams - 1, -1, -1), self.dim)
        levels = low[:, None] + (np.arange(self.dim) >= self.dim - high[:, None])
        sides = 3.0 ** -levels.astype(float)
        self.diam_of = 0.5 * np.sqrt(np.sum(sides * sides, axis=1))
        self.gap_of = _gaps(self.diam_of)


def _gaps(diams: np.ndarray) -> np.ndarray:
    """gaps[i, j] = diams[j] - diams[i] for i < j, NaN on and below the
    diagonal."""
    gaps = diams - diams[:, None]
    gaps[np.tril_indices(diams.size)] = np.nan
    return gaps


def _potentially_optimal(fmins: np.ndarray, diams: np.ndarray, gaps: np.ndarray,
                         f_min: np.ndarray, largest: np.ndarray) -> np.ndarray:
    """Mask of the groups on the lower-right hull that pass the improvement
    test against ``f_min``, the least of ``fmins``, per search: ``fmins`` is
    (S, G), each search's best value per group over G groups of ascending
    ``diams``, NaN where a search has no such group; ``gaps`` is
    ``_gaps(diams)``; ``f_min`` and ``largest``, the column of each search's
    largest group, are (S,).

    The largest group is always picked. A smaller group with an infinite
    best value never passes the improvement test, and a finite one has no
    NaN slope, so NaN slopes (between two equal infinite values, to an empty
    group, or below the diagonal of ``gaps``) need no rule of their own:
    fmax and fmin skip them.
    """
    f_min = f_min[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        # slope[s, i, j], i < j: the slope between groups i and j
        slope = (fmins[:, None, :] - fmins[:, :, None]) / gaps
        # steepest slope from a smaller group, flattest to a larger one
        lmax = np.fmax.reduce(slope, axis=1, initial=-np.inf)
        rmin = np.fmin.reduce(slope, axis=2, initial=np.inf)
        scale = abs(f_min)
        ok = (f_min - fmins) / scale + diams * rmin / scale >= HULL_EPS
        if not f_min.all():
            ok = np.where(f_min != 0.0, ok, fmins <= diams * rmin)
    picked = (lmax <= rmin + 1e-13) & ok & np.isfinite(fmins)
    picked[np.arange(largest.size), largest] = True
    return picked


def direct_lockstep(objective, lowers, uppers, budgets, stops, drop=None) -> list:
    """Run S searches in lockstep: search s minimizes over the box
    [lowers[s], uppers[s]] with at most ``budgets[s]`` evaluations and ends
    after its first sweep at or below ``stops[s]`` (None for no stop), as
    ``direct_optimize`` does; every box has the same dimension d.

    ``objective(x, owners)`` takes the (P, d) points of a pass, each in its
    search's box, and the (P,) searches that own them, ascending, and
    returns their (P,) values. It is called once for every search's centre
    and then once per pass. ``drop``, if given, is called before each pass
    with the (S,) best values so far and returns a mask of searches to
    abandon. Returns each search's OptimizeResult, None for an abandoned
    one.
    """
    lowers = np.asarray(lowers, dtype=float)
    uppers = np.asarray(uppers, dtype=float)
    if lowers.shape != uppers.shape or lowers.ndim != 2:
        raise DimensionMismatch("lowers and uppers must be (S, d) arrays of equal shape")
    if np.any(lowers >= uppers):
        raise DimensionMismatch("need lower < upper componentwise")
    n_search, d = lowers.shape
    budgets = np.array([int(b) for b in budgets], dtype=np.int64)
    if budgets.min() < 2 * d + 1:
        raise BudgetTooSmall(f"budget {budgets.min()} < 2*d+1 = {2 * d + 1}")
    stops = np.array([np.nan if s is None else s for s in stops], dtype=float)
    span = uppers - lowers

    def evaluate(points: np.ndarray, owners: np.ndarray, counts: np.ndarray):
        """Values of the unit-box ``points``: the search ``owners[i]``'s
        next ``counts[i]`` rows, mapped to its box in one pass; NaN becomes
        +inf."""
        of_point = owners.repeat(counts)
        x = points * span[of_point]
        x += lowers[of_point]
        return np.fmin(objective(x, of_point), np.inf), of_point

    searches = np.arange(n_search)
    # a row's level sum never exceeds half its search's evaluations
    pile = _Pile(d, int(budgets.sum()), n_search, int(budgets.max()) // 2 + 1)
    best_x = np.full((n_search, d), 0.5)
    best_f = evaluate(best_x, searches, np.ones(n_search, dtype=np.int64))[0]
    n_evals = np.ones(n_search, dtype=np.int64)
    pile.add(best_x, np.zeros((n_search, d), dtype=np.int16), best_f, searches)
    pile.update(searches[:0], searches)  # the centres' rows are 0..S-1
    dropped = np.zeros(n_search, dtype=bool)

    while True:
        searches = searches[(n_evals[searches] < budgets[searches])
                            & ~(best_f[searches] <= stops[searches])]
        if drop is not None and searches.size:
            gone = np.asarray(drop(best_f.copy()), dtype=bool)[searches]
            dropped[searches[gone]] = True
            searches = searches[~gone]
        if not searches.size:
            break
        fmins, heads, diams, gaps, largest = pile.window(searches)
        picked = _potentially_optimal(fmins, diams, gaps, best_f[searches], largest)
        chosen = heads[picked] & _LOW  # search by search, each in ascending diameter
        counts = np.add.reduce(picked, axis=1)  # every search picks its largest group
        owners = searches.repeat(counts)
        # (array methods and ufunc reductions: a pass handles a few small
        # arrays, so per-call overhead is most of its cost)
        levels = pile.levels.take(chosen, axis=0)
        low = np.minimum.reduce(levels, axis=1)
        cut = levels == low[:, None]  # each rectangle's longest sides
        n_cuts = np.add.reduce(cut, axis=1)
        cost = 2 * n_cuts
        # Which rectangles fit each search's remaining budget depends on
        # costs alone, so the pass's new points are gathered and evaluated
        # at once. Each search's points if it takes every pick:
        ends = counts.cumsum()
        n_points = np.add.reduceat(cost, ends - counts)
        room = budgets[searches] - n_evals[searches]
        binds = n_points > room
        if binds.any():
            # such a search takes its picks in order while they fit, and one
            # none of whose picks fits ends
            take = np.ones(chosen.size, dtype=bool)
            costs, firsts = cost.tolist(), (ends - counts).tolist()
            for k in np.flatnonzero(binds).tolist():
                left = int(room[k])
                for i in range(firsts[k], firsts[k] + int(counts[k])):
                    if costs[i] <= left:
                        left -= costs[i]
                    else:
                        take[i] = False
                n_points[k] = room[k] - left
            if not n_points.any():
                break
            chosen, levels, low, cut, n_cuts, cost, owners = (
                a[take] for a in (chosen, levels, low, cut, n_cuts, cost, owners))
            searches = searches[n_points > 0]
            n_points = n_points[n_points > 0]
        n_evals[searches] += n_points
        # one cut per (rectangle, side), rectangles in order, sides ascending;
        # cut i gives the points 2i (centre + delta) and 2i + 1 (- delta)
        rect, side = cut.nonzero()
        delta = 3.0 ** (-1 - low[rect])
        cuts = np.arange(rect.size)
        pts = pile.centers.take(chosen, axis=0).repeat(cost, axis=0)
        at = 2 * d * cuts + side  # point 2i's cut coordinate, in pts.ravel()
        flat = pts.reshape(-1)
        flat[at] += delta
        flat[at + d] -= delta
        vals, point_owners = evaluate(pts, searches, n_points)

        # each search's first minimum of the pass: the first of its points
        # equal to its least value (no value is NaN here)
        starts = n_points.cumsum() - n_points
        mins = np.minimum.reduceat(vals, starts)
        better = mins < best_f[searches]
        if better.any():
            hits = np.flatnonzero(vals == mins.repeat(n_points))
            best_f[searches[better]] = mins[better]
            best_x[searches[better]] = pts[hits[np.searchsorted(hits, starts[better])]]

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
        start = pile.add(pts, child_levels.repeat(2, axis=0), vals, point_owners)
        first = n_cuts.cumsum() - n_cuts  # each rectangle's first cut
        lost = pile.move(chosen, levels + cut, owners, 4 * first + (2 * start - 1))
        pile.update(lost, np.concatenate([chosen, np.arange(start, pile.n_rows)]))

    x = lowers + best_x * span
    return [None if dropped[s] else
            OptimizeResult(x=x[s], fun=float(best_f[s]), n_evals=int(n_evals[s]))
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

    def evaluate(x: np.ndarray, owners: np.ndarray) -> np.ndarray:
        return np.asarray(objective(x), dtype=float).reshape(-1)

    return direct_lockstep(evaluate, lower[None], upper[None], [budget], [stop])[0]
