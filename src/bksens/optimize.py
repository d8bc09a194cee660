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
points of its call, as no search objective's does (below).
``direct_optimize`` is the call with S = 1: its objective takes a (k, d)
array of points and returns (k,) values, the centre first and then one
sweep's new points per call.

The module also holds the search engine that the robustness values and
formal benchmarking share. A search (``_Search``) has a ``_SearchBox``: a
``_Box`` built from intervals, balls and spheres, the map from its points
to the value function's arguments (phi pairs in ``robustness``,
leave-one-out triples in ``benchmarking``), the box's search parameters,
and one batch of candidates, zero first, evaluated with the optimizer's
optimum. A map is a plain function of the blocks ``_Box.split`` gives and
of each point's parameters (a leave-one-out box's effect, a robustness
box's radius), and ``split`` reads only the box's layout, so every box of one
layout and map is unpacked together. ``_minimize_over_boxes`` runs any
number of searches. Those whose boxes have the same number of columns
advance in lockstep, LOCKSTEP_SEARCHES at a time, each chunk ordered once
by (layout and map, value function, parameters) in ``_lockstep_objective``.
A pass's points arrive in that order, so the objective it returns splits and
maps each layout's contiguous slice once, and calls each value function
once, on its runs of the maps' outputs, with no sort and no scatter. The
sweep driver ``_run`` runs plans of searches as one batch and drops a
sweep's later points once its crossing is decided. A caller's ``polish``
refines each optimum (``robustness._polish``, scipy's Nelder-Mead), so this
module loads no scipy, and ``benchmarking``, which does not polish, loads
no ``robustness``.

Every value function is point-pure: a row's value must not depend on the
other rows of its batch, so per-point code uses ``np.einsum``, never a BLAS
product, whose blocking (and with it a row's rounding) follows the batch.
A search's values are then the same whichever searches share its calls,
and in whatever order: its result in a batch is its result alone.
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
    if not np.all(np.isfinite(lowers) & np.isfinite(uppers) & (lowers < uppers)):
        raise DimensionMismatch("need finite bounds with lower < upper componentwise")
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


# ---------------------------------------------------------------------------
# The search engine: boxes, the maps from their points to a value function's
# arguments, and one minimizer that runs any number of searches in lockstep.
# ---------------------------------------------------------------------------

# searches per lockstep, whose piles are live together: 99 rho points run as three
LOCKSTEP_SEARCHES = 33


def _sphere_from_angles(angles: np.ndarray) -> np.ndarray:
    """Map (k, q-1) spherical angles to (k, q) unit vectors."""
    k, qm1 = angles.shape
    out = np.ones((k, qm1 + 1))
    if qm1:
        sin_prod = np.sin(angles)
        if qm1 > 1:
            sin_prod = np.cumprod(sin_prod, axis=1)
            out[:, 1:qm1] = sin_prod[:, :-1]
        out[:, :qm1] *= np.cos(angles)
        out[:, qm1] = sin_prod[:, -1]
    return out


class _Box:
    """A search box built block by block, each block with its caller's bounds.

    - ``interval(lo, hi)``: one column in [lo, hi];
    - ``ball(q, r)``: a point of the radius-r ball of R^q, as a signed radius
      in [-r, r] when q = 1 and otherwise a radius in [0, r] followed by q-1
      spherical angles;
    - ``sphere(q)``: a unit vector of R^q, as its q-1 angles.

    ``split`` maps (k, dims) box points to each block's columns: an interval's
    (k,) values, a ball's ((k,) radius, (k, q) direction), a sphere's (k, q)
    direction. An absent block (``present=False``) takes no columns and
    splits to zeros; an absent ball has radius 0 along the first axis.
    ``split`` reads only the ``layout``, the blocks without their bounds.
    """

    def __init__(self):
        self.lower: list[float] = []
        self.upper: list[float] = []
        self._blocks: list[tuple] = []   # (kind, first column or None, q)

    def _add(self, kind, q, present, lo, hi) -> "_Box":
        self._blocks.append((kind, len(self.lower) if present else None, q))
        if present:
            self.lower += lo
            self.upper += hi
        return self

    @staticmethod
    def _angles(q: int) -> tuple[list[float], list[float]]:
        lo = [0.0] * (q - 1)
        hi = [np.pi] * max(q - 2, 0) + ([2.0 * np.pi] if q >= 2 else [])
        return lo, hi

    def interval(self, lo: float, hi: float, present: bool = True) -> "_Box":
        return self._add("interval", 1, present, [lo], [hi])

    def ball(self, q: int, r: float, present: bool = True) -> "_Box":
        if q == 1:
            return self._add("ball", q, present, [-r], [r])
        alo, ahi = self._angles(q)
        return self._add("ball", q, present, [0.0] + alo, [r] + ahi)

    def sphere(self, q: int) -> "_Box":
        return self._add("sphere", q, True, *self._angles(q))

    @property
    def layout(self) -> tuple:
        return tuple(self._blocks)

    def split(self, x: np.ndarray) -> list:
        x = np.atleast_2d(x)
        k = x.shape[0]
        out = []
        for kind, col, q in self._blocks:
            if kind == "interval":
                out.append(np.zeros(k) if col is None else x[:, col])
            elif col is None:
                direction = np.zeros((k, q))
                direction[:, 0] = 1.0
                out.append((np.zeros(k), direction))
            else:
                first = col + (kind == "ball" and q > 1)
                direction = _sphere_from_angles(x[:, first:first + q - 1])
                out.append(direction if kind == "sphere" else (x[:, col], direction))
        return out


@dataclass
class _SearchBox:
    """A box, the map ``unpack(blocks, *params)`` from the blocks of its
    (k, dims) points (``_Box.split``) to the value function's arguments, one
    batch of candidates, zero first, and the box's search parameters
    ``params``. A map takes each parameter as a scalar or as one value per
    point, so boxes of one layout that differ only in their parameters (a
    leave-one-out box's effect, a robustness box's radius) are unpacked in
    one call."""

    space: _Box
    unpack: callable
    candidates: tuple
    params: tuple = ()

    def args(self, x: np.ndarray) -> tuple:
        """The value function's arguments at this box's (k, dims) points."""
        return self.unpack(self.space.split(x), *self.params)


@dataclass(frozen=True)
class _Search:
    """One minimization: a box, the batched value function its points go to,
    DIRECT's budget and an optional stop value."""

    box: _SearchBox
    value_fn: callable
    budget: int
    stop: float | None = None


def _ids(objects) -> tuple[list, list]:
    """The distinct ``objects`` in order of first appearance, and each
    object's index among them."""
    ids = {}
    index = [ids.setdefault(o, len(ids)) for o in objects]
    return list(ids), index


def _shared_calls(fns, batches) -> np.ndarray:
    """The values ``fns[i](*batches[i])`` of every argument batch, each
    batch arrays with a leading axis, made as one call per distinct function
    on the concatenation of its batches and returned concatenated in batch
    order."""
    distinct, fn_of = _ids(fns)
    sizes = [len(args[0]) for args in batches]
    starts = np.cumsum([0] + sizes).tolist()
    out = np.empty(starts[-1])
    for f, fn in enumerate(distinct):
        mine = [i for i, g in enumerate(fn_of) if g == f]
        vals = fn(*(batches[mine[0]] if len(mine) == 1 else
                    map(np.concatenate, zip(*(batches[i] for i in mine)))))
        at = 0
        for i in mine:
            out[starts[i]:starts[i + 1]] = vals[at:at + sizes[i]]
            at += sizes[i]
    return out


def _lockstep_objective(chunk):
    """(order, objective): the positions of the searches ``chunk`` ordered
    by (box layout and map, value function, search parameters), maps and
    functions in order of first appearance and a tie keeping its order, and
    ``direct_lockstep``'s objective for the searches in that order: the
    values of a pass's (P, d) points ``x``, each owned by the search
    ``owners[i]``, ascending.

    The owners ascend, so the points of each run of searches with one box
    layout and map, and within it of each run with one value function, are
    contiguous slices of the pass: it splits each layout's slice once and
    maps it once, with each point's search parameters, and calls each
    function once on its runs of the maps' outputs (``_shared_calls``),
    which hand back the values in the pass's order. A function sharing one
    map meets one slice, and within it each parameter's points as one
    run."""
    maps, map_of = _ids([(s.box.space.layout, s.box.unpack) for s in chunk])
    fns, fn_of = _ids([s.value_fn for s in chunk])
    order = sorted(range(len(chunk)), key=lambda i: (map_of[i], fn_of[i], chunk[i].box.params))
    group = [chunk[i] for i in order]
    map_of, fn_of = [map_of[i] for i in order], [fn_of[i] for i in order]
    run_first = [i for i in range(len(group))
                 if not i or (map_of[i], fn_of[i]) != (map_of[i - 1], fn_of[i - 1])]
    cuts = np.array(run_first + [len(group)])
    # per map: its box, its first search, its parameters per search, its runs
    per_map = []
    for m, (_, unpack) in enumerate(maps):
        runs = [r for r, i in enumerate(run_first) if map_of[i] == m]
        first, end = run_first[runs[0]], cuts[runs[-1] + 1]
        params = [np.array(col) for col in zip(*(s.box.params for s in group[first:end]))]
        per_map.append((group[first].box.space, unpack, first, params,
                        [(r, fns[fn_of[run_first[r]]]) for r in runs]))

    def objective(x: np.ndarray, owners: np.ndarray) -> np.ndarray:
        edges = np.searchsorted(owners, cuts).tolist()
        run_fns, run_args = [], []
        for space, unpack, first, params, runs in per_map:
            lo, hi = edges[runs[0][0]], edges[runs[-1][0] + 1]
            if lo == hi:
                continue
            mine = owners[lo:hi] - first
            args = unpack(space.split(x[lo:hi]), *(col[mine] for col in params))
            for r, fn in runs:
                a, b = edges[r] - lo, edges[r + 1] - lo
                if a < b:
                    run_fns.append(fn)
                    run_args.append(args if b - a == hi - lo else tuple(v[a:b] for v in args))
        return _shared_calls(run_fns, run_args)
    return order, objective


def _first_min(args, vals):
    """The first least of ``vals``, a NaN ranking behind +inf, and its
    arguments with a batch axis of length 1."""
    nan = np.isnan(vals)
    best = int(np.lexsort((nan, np.where(nan, np.inf, vals)))[0])
    return float(vals[best]), tuple(arg[best:best + 1] for arg in args)


def _minimize_over_boxes(searches, polish=None, drop=None) -> list:
    """Minimum of each search's batched value function over its box and its
    candidates; returns (value, the winner's arguments with a batch axis of
    length 1) per search, None for one ``drop`` abandoned.

    All candidates are evaluated first, one call per value function
    (``_shared_calls``). A search with a ``stop`` value whose best of them is at
    or below it returns that best and runs no DIRECT: the search is a
    decision, and its value is then a witness at or below ``stop``, not the
    minimum. Otherwise DIRECT searches the box when it has columns, ending
    after its first sweep at or below ``stop``. Searches whose boxes have the
    same number of columns advance in lockstep (``direct_lockstep``),
    LOCKSTEP_SEARCHES at a time, each chunk in ``_lockstep_objective``'s
    order: each pass of its objective splits and maps the new points of all
    the searches whose boxes share a layout and map once, and calls every
    value function once, on the unpacked points of all the searches that
    share it. Each optimum is then optionally polished,
    ``polish(search, result)`` returning the point to keep, the optima are
    evaluated in one more call per value function, and the first minimum
    over each search's optimum and candidates wins; a NaN ranks as +inf,
    behind a real +inf, so it is returned only when every value is NaN.

    ``drop(bounds)``, if given, is called before each pass with every
    search's best value so far, which its result can only undercut (+inf
    where none is finite), and returns a mask of searches to abandon.
    """
    given = [s.box.candidates for s in searches]
    sizes = np.array([len(args[0]) for args in given], dtype=np.int64)
    flat = _shared_calls([s.value_fn for s in searches], given)
    given_vals = np.split(flat, sizes.cumsum()[:-1])
    bounds = np.minimum.reduceat(np.fmin(flat, np.inf), sizes.cumsum() - sizes)
    optima = [None] * len(searches)
    dropped = [False] * len(searches)
    layouts = {}
    for i, s in enumerate(searches):
        if s.box.space.lower and not (s.stop is not None and bounds[i] <= s.stop):
            layouts.setdefault(len(s.box.space.lower), []).append(i)
    for chunk in [group[at:at + LOCKSTEP_SEARCHES] for group in layouts.values()
                  for at in range(0, len(group), LOCKSTEP_SEARCHES)]:
        order, objective = _lockstep_objective([searches[i] for i in chunk])
        idx = np.array(chunk)[order]
        group = [searches[i] for i in idx.tolist()]

        def abandon(best, idx=idx):
            mine = bounds.copy()
            mine[idx] = np.minimum(mine[idx], best)
            return drop(mine)[idx]

        found = direct_lockstep(
            objective, [s.box.space.lower for s in group],
            [s.box.space.upper for s in group], [s.budget for s in group],
            [s.stop for s in group], drop=None if drop is None else abandon)
        for i, s, res in zip(idx.tolist(), group, found):
            if res is None:
                dropped[i] = True
                continue
            bounds[i] = min(bounds[i], res.fun)
            optima[i] = s.box.args((res.x if polish is None else polish(s, res))[None, :])
    ran = [i for i, opt in enumerate(optima) if opt is not None]
    vals = _shared_calls([searches[i].value_fn for i in ran], [optima[i] for i in ran])
    for k, i in enumerate(ran):
        given[i] = [np.concatenate(col) for col in zip(optima[i], given[i])]
        given_vals[i] = np.concatenate([vals[k:k + 1], given_vals[i]])
    return [None if gone else _first_min(args, vals)
            for args, vals, gone in zip(given, given_vals, dropped)]


def _run(plans, polish=None) -> list:
    """Run the searches of ``plans``, each (searches, threshold, finish), as
    one batch (``_minimize_over_boxes``, with ``polish``) and return each
    plan's ``finish`` of its results.

    A plan with a threshold is a sweep over a grid in increasing order, and
    ``finish`` takes its results up to the first at or below the threshold.
    A search's value can only undercut its best value so far, so once that
    is at or below the threshold the sweep's later points are dropped. Values
    are point-pure, so the crossing search's final value stays at or below
    that bound, and the walk up to the first crossing never reaches a
    dropped point.
    """
    searches, sweeps = [], []
    for plan_searches, threshold, _ in plans:
        if threshold is not None:
            sweeps.append((len(searches), len(searches) + len(plan_searches), threshold))
        searches += plan_searches

    # each search's sweep threshold (NaN outside a sweep) and its sweep's first search
    thresholds = np.full(len(searches), np.nan)
    firsts = np.arange(len(searches))
    for first, end, threshold in sweeps:
        thresholds[first:end] = threshold
        firsts[first:end] = first

    def drop(bounds):
        crossed = bounds <= thresholds
        before = crossed.cumsum() - crossed   # crossings before each search
        return before > before[firsts]

    results = _minimize_over_boxes(searches, polish=polish,
                                   drop=drop if sweeps else None)
    outcomes, at = [], 0
    for plan_searches, threshold, finish in plans:
        walked = []
        for found in results[at:at + len(plan_searches)]:
            walked.append(found)
            if threshold is not None and found[0] <= threshold:
                break
        outcomes.append(finish(walked))
        at += len(plan_searches)
    return outcomes
