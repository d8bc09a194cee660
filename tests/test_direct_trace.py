"""The batched dividing-rectangles search against its per-rectangle reference.

``direct_optimize`` trisects every rectangle of a sweep in one pass; the
reference in ``_direct_reference`` does it one rectangle at a time. Both must
visit the same points in the same order and return the same result, ties,
infinite and NaN values included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _direct_reference import reference_direct, reference_potentially_optimal
from bksens.optimize import _gaps, _potentially_optimal, direct_optimize

KINDS = ("quadratic", "multimodal", "rounded", "constant", "corner", "inf_region",
         "nan_region")


def _objective(kind, d, rng):
    """Batched objective (k, d) -> (k,) of the given kind on the box [-1, 2]^d."""
    c = rng.uniform(-1.0, 2.0, d)
    w = rng.uniform(0.5, 3.0, d)
    s = rng.choice([-1.0, 1.0], d)
    cut = rng.uniform(-0.5, 1.5)

    def f(x):
        bowl = ((x - c) ** 2 * w).sum(axis=1)
        if kind == "quadratic":
            return bowl
        if kind == "multimodal":
            return np.sin(3.0 * x * w).sum(axis=1) + 0.1 * bowl
        if kind == "rounded":
            return np.round(bowl, 1)
        if kind == "constant":
            return np.full(len(x), 0.0 if s[0] > 0 else 4.2)
        if kind == "corner":
            return -(x * s).sum(axis=1)
        if kind == "inf_region":
            return np.where(x[:, 0] > cut, np.inf, bowl)
        return np.where(x[:, -1] < cut, np.nan, bowl)

    return f


def _recorded(search, f, d, budget, **kwargs):
    points = []

    def batched(x):
        points.extend(x.copy())
        return f(x)

    res = search(batched, [-1.0] * d, [2.0] * d, budget=budget, **kwargs)
    return res, np.array(points)


def _reference(f, d, budget):
    return _recorded(reference_direct, f, d, budget, vectorized=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(range(1, 9)), extra=st.integers(0, 1500),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_search_matches_reference_trace(d, extra, kind, seed):
    budget = min(2 * d + 1 + extra, 1500)
    f = _objective(kind, d, np.random.default_rng(seed))
    res, points = _recorded(direct_optimize, f, d, budget)
    ref, ref_points = _reference(f, d, budget)
    assert np.array_equal(points, ref_points)
    assert np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    assert res.n_evals == ref.n_evals == len(points)


def test_nan_centre_does_not_freeze_search():
    # the centre of the unit square is NaN; the search must still descend
    def f(x):
        return np.where((x == 0.5).all(axis=1), np.nan, np.sum((x - 0.3) ** 2, axis=1))

    res = direct_optimize(f, [0.0, 0.0], [1.0, 1.0], budget=300)
    assert np.isfinite(res.fun) and res.fun < 1e-3
    assert np.max(np.abs(res.x - 0.3)) < 0.03
    assert res.fun == f(res.x[None, :])[0]


def test_all_nan_objective_reports_inf():
    res = direct_optimize(lambda x: np.full(len(x), np.nan), [0.0], [1.0], budget=30)
    assert res.fun == np.inf
    assert res.x[0] == 0.5


def _select_rows(diams, rows, f_mins):
    """The groups the hull test picks in each row of one window, as the
    search does: ``rows`` holds each search's best value per group (NaN
    where it has none) over groups of ascending ``diams``, and a row's
    largest group is its last nonempty one."""
    diams = np.array(diams, dtype=float)
    rows = np.array(rows, dtype=float)
    largest = np.array([np.flatnonzero(~np.isnan(row))[-1] for row in rows])
    mask = _potentially_optimal(rows, diams, _gaps(diams),
                                np.array(f_mins, dtype=float), largest)
    return [np.flatnonzero(picked).tolist() for picked in mask]


def _select(diams, fmins, f_min):
    return _select_rows(diams, [fmins], [f_min])[0]


def _reference_select(diams, fmins, f_min):
    """The reference's picks among the nonempty groups, by column."""
    return reference_potentially_optimal(
        [(float(d), float(f), i) for i, (d, f) in enumerate(zip(diams, fmins))
         if not np.isnan(f)], f_min)


INF = np.inf
HULL_CASES = {
    # slopes 1, 1 + 3e-14 and 1 - 3e-14: collinear within the 1e-13 tolerance
    "collinear_within_tolerance": ([1.0, 2.0, 3.0, 4.0],
                                   [1.0, 2.0, 3.0 + 3e-14, 4.0], 1.0),
    "collinear_outside_tolerance": ([1.0, 2.0, 3.0, 4.0],
                                    [1.0, 2.0, 3.0 + 1e-9, 4.0], 1.0),
    "f_min_zero": ([0.1, 0.2, 0.4, 0.8], [0.0, 0.0, 0.3, 0.2], 0.0),
    "f_min_zero_flat": ([0.1, 0.2, 0.4], [0.0, 0.0, 0.0], 0.0),
    "single_group": ([0.3], [2.0], 2.0),
    "single_infinite_group": ([0.3], [INF], INF),
    "infinite_groups": ([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, INF, 0.5, INF, INF], 0.5),
    "infinite_smallest_groups": ([0.1, 0.2, 0.3, 0.4], [INF, INF, 0.7, 0.9], 0.7),
    "infinite_groups_f_min_zero": ([0.1, 0.2, 0.3, 0.4], [0.0, INF, INF, INF], 0.0),
    "all_infinite": ([0.1, 0.2, 0.3], [INF, INF, INF], INF),
    "negative_values": ([0.05, 0.1, 0.3, 0.9], [-2.0, -2.5, -2.4, -1.0], -2.5),
}


NAN = np.nan
# rows of one shared window, as a lockstep's searches see it: empty groups
# (NaN) between nonempty ones, and rows whose largest group is not the last
# column
WINDOW_CASES = {
    "holes": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
              [[1.0, NAN, 0.5, NAN, 2.0, 1.5],
               [NAN, 0.3, NAN, 0.2, 0.9, NAN],
               [0.7, 0.6, 0.5, NAN, NAN, NAN],
               [NAN, NAN, NAN, NAN, NAN, 4.0]]),
    "holes_infinite": ([0.05, 0.1, 0.2, 0.4, 0.8],
                       [[INF, NAN, INF, 0.0, NAN],
                        [NAN, -1.0, NAN, INF, -0.5],
                        [-INF, NAN, 2.0, NAN, NAN]]),
    "holes_f_min_zero": ([0.1, 0.2, 0.3, 0.4, 0.5],
                         [[0.0, NAN, -0.0, 0.3, NAN],
                          [NAN, 0.0, 0.0, NAN, 0.2]]),
}


@pytest.mark.parametrize("case", sorted(HULL_CASES))
def test_hull_selection_matches_reference(case):
    diams, fmins, f_min = HULL_CASES[case]
    assert _select(diams, fmins, f_min) == _reference_select(diams, fmins, f_min)


@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_hull_window_rows_match_reference(case):
    diams, rows = WINDOW_CASES[case]
    f_mins = [min(f for f in row if not np.isnan(f)) for row in rows]
    assert _select_rows(diams, rows, f_mins) == [
        _reference_select(diams, row, f_min) for row, f_min in zip(rows, f_mins)]


def test_hull_tolerance_decides_the_collinear_cases():
    assert _select(*HULL_CASES["collinear_within_tolerance"]) == [0, 1, 2, 3]
    assert _select(*HULL_CASES["collinear_outside_tolerance"]) == [0, 1, 3]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([-INF, -1.0, 0.0, 0.25, 0.5, 1.0, 3.0, INF]),
                min_size=1, max_size=12))
def test_hull_random_minima_match_reference(fmins):
    # the search passes the least group value as f_min
    diams = list(np.linspace(0.1, 1.0, len(fmins)) ** 2)
    f_min = min(fmins)
    assert _select(diams, fmins, f_min) == _reference_select(diams, fmins, f_min)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda width: st.lists(
    st.lists(st.sampled_from([NAN, NAN, -INF, -1.0, -0.0, 0.0, 0.25, 0.5, 1.0,
                              3.0, INF]),
             min_size=width, max_size=width).filter(
        lambda row: not all(np.isnan(row))),
    min_size=1, max_size=5)))
def test_hull_random_window_rows_match_reference(rows):
    diams = list(np.linspace(0.1, 1.0, len(rows[0])) ** 2)
    f_mins = [min(f for f in row if not np.isnan(f)) for row in rows]
    assert _select_rows(diams, rows, f_mins) == [
        _reference_select(diams, row, f_min) for row, f_min in zip(rows, f_mins)]


def _sweeps(f, d, budget, stop=None):
    """The batches a search evaluates (the centre first), and its result."""
    batches = []

    def batched(x):
        batches.append(x.copy())
        return f(x)

    res = direct_optimize(batched, [-1.0] * d, [2.0] * d, budget=budget, stop=stop)
    return res, batches


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(range(1, 7)), extra=st.integers(0, 800),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
def test_unreached_stop_matches_reference_trace(d, extra, kind, seed):
    budget = 2 * d + 1 + extra
    f = _objective(kind, d, np.random.default_rng(seed))
    ref, ref_points = _reference(f, d, budget)
    stop = np.nextafter(ref.fun, -np.inf)  # below every value the search sees
    res, points = _recorded(direct_optimize, f, d, budget, stop=stop)
    assert np.array_equal(points, ref_points)
    assert np.array_equal(res.x, ref.x)
    assert res.fun == ref.fun
    assert res.n_evals == ref.n_evals


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(range(1, 7)), extra=st.integers(0, 800),
       kind=st.sampled_from(("quadratic", "multimodal", "rounded", "corner",
                             "inf_region", "nan_region")),
       seed=st.integers(0, 2**32 - 1), at=st.floats(0.0, 1.0))
def test_reached_stop_ends_at_first_sweep_at_or_below_it(d, extra, kind, seed, at):
    budget = 2 * d + 1 + extra
    f = _objective(kind, d, np.random.default_rng(seed))
    full, batches = _sweeps(f, d, budget)
    # the running best after each sweep; stop at one of them
    best = np.minimum.accumulate([np.min(np.where(np.isnan(v), np.inf, v))
                                  for v in map(f, batches)])
    stop = best[int(at * (len(best) - 1))]
    first = int(np.argmax(best <= stop))
    res, got = _sweeps(f, d, budget, stop=stop)
    assert len(got) == first + 1
    assert all(np.array_equal(a, b) for a, b in zip(got, batches))
    assert res.fun == best[first] <= stop
    assert res.n_evals == sum(len(b) for b in got)
    assert res.n_evals <= full.n_evals
