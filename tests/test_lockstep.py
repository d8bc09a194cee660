"""Searches run in lockstep change no search.

``optimize.direct_lockstep`` advances several dividing-rectangles searches
together, and formal benchmarking runs all of one covariate's worst-case
searches and critical-delta sweeps as one batch. Each search must visit the
points, in the order, and return the result that it does run alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksens import benchmarking, optimize, robustness
from bksens.benchmarking import (
    BenchmarkSpec,
    benchmark_covariate,
    benchmark_worst,
    critical_delta,
    prepare_benchmark_stacks,
)
from bksens.inference import bootstrap_moments
from bksens.mediation import MediationData, fit_observed
from bksens.optimize import _minimize_over_boxes, _Search, direct_lockstep, direct_optimize
from bksens.robustness import robustness_value

from test_direct_trace import KINDS, _objective


def _alone(f, lower, upper, budget, stop):
    """The points direct_optimize evaluates alone, in order, and its result."""
    points = []

    def batched(x):
        points.extend(x.copy())
        return f(x)

    res = direct_optimize(batched, lower, upper, budget=budget, stop=stop)
    return res, points


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(d=st.sampled_from(range(1, 9)), seed=st.integers(0, 2**32 - 1),
       searches=st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 600),
                                   st.one_of(st.none(), st.floats(0.0, 1.0))),
                         min_size=1, max_size=6),
       drop_after=st.one_of(st.none(), st.integers(0, 20)))
def test_lockstep_matches_each_search_alone(d, seed, searches, drop_after):
    rng = np.random.default_rng(seed)
    fs, lowers, uppers, budgets, stops, alone = [], [], [], [], [], []
    for kind, extra, at in searches:
        f = _objective(kind, d, rng)
        lower = rng.uniform(-1.0, 0.5, d)
        upper = lower + rng.uniform(0.1, 1.5, d)
        budget = 2 * d + 1 + extra
        stop = None
        if at is not None:
            # a stop at one of the full search's running best values
            _, points = _alone(f, lower, upper, budget, None)
            vals = f(np.array(points))
            best = np.minimum.accumulate(np.where(np.isnan(vals), np.inf, vals))
            stop = float(best[int(at * (len(best) - 1))])
        fs.append(f)
        lowers.append(lower)
        uppers.append(upper)
        budgets.append(budget)
        stops.append(stop)
        alone.append(_alone(f, lower, upper, budget, stop))

    seen = [[] for _ in fs]
    passes = {"n": 0}

    def objective(x, owners):
        assert x.shape == (owners.size, d)
        assert np.all(owners[1:] >= owners[:-1])   # ascending search order
        vals = np.empty(owners.size)
        for s in np.unique(owners).tolist():
            mine = owners == s
            seen[s].extend(x[mine].copy())
            vals[mine] = fs[s](x[mine])
        return vals

    def drop(best):
        # abandon the last search before pass ``drop_after``
        passes["n"] += 1
        mask = np.zeros(len(best), dtype=bool)
        mask[-1] = drop_after is not None and passes["n"] > drop_after
        return mask

    results = direct_lockstep(objective, lowers, uppers, budgets, stops, drop=drop)
    for s, (res, (ref, ref_points)) in enumerate(zip(results, alone)):
        if res is None:
            # abandoned: what it saw is a prefix of what it sees alone
            assert s == len(fs) - 1 and drop_after is not None
            assert len(seen[s]) <= len(ref_points)
            assert np.array_equal(np.array(seen[s]).reshape(-1, d),
                                  np.array(ref_points[:len(seen[s])]).reshape(-1, d))
            continue
        assert np.array_equal(np.array(seen[s]), np.array(ref_points))
        assert np.array_equal(res.x, ref.x)
        assert res.fun == ref.fun
        assert res.n_evals == ref.n_evals


def test_lockstep_abandons_only_what_drop_names():
    f = _objective("quadratic", 2, np.random.default_rng(5))
    calls = []

    def objective(x, owners):
        calls.append(np.unique(owners).tolist())
        return f(x)

    res = direct_lockstep(objective, [[-1.0, -1.0]] * 3, [[2.0, 2.0]] * 3,
                          [200, 200, 200], [None, None, None],
                          drop=lambda best: np.array([False, True, False]))
    alone = direct_optimize(f, [-1.0, -1.0], [2.0, 2.0], budget=200)
    assert res[1] is None
    for r in (res[0], res[2]):
        assert np.array_equal(r.x, alone.x)
        assert (r.fun, r.n_evals) == (alone.fun, alone.n_evals)
    # the centres are evaluated together, then search 1 is never swept
    assert calls[0] == [0, 1, 2] and all(c == [0, 2] for c in calls[1:])


# ---------------------------------------------------------------------------
# Benchmarking: one batch per covariate, each result as one search at a time.
# ---------------------------------------------------------------------------

def _study(n=200, seed=11):
    local = np.random.default_rng(seed)
    c = local.normal(size=(n, 2))
    a = c @ np.array([0.5, -0.4]) + local.normal(size=n)
    m = np.outer(a, [0.5, 0.3]) + c @ np.array([[0.4, 0.2], [0.1, -0.3]]) \
        + local.normal(size=(n, 2))
    y = 0.4 * a + m @ np.array([0.5, 0.3]) + c @ np.array([0.3, 0.2]) \
        + local.normal(size=n)
    return MediationData.from_arrays(y=y, a=a, m=m, c=c)


@pytest.fixture(scope="module")
def study():
    data = _study()
    plan = bootstrap_moments(data, n_resamples=40, seed=3)
    return data, plan, prepare_benchmark_stacks(data, 0, plan)


def _sweep_alone(stacks, kind, threshold, grid, k_a_bound, budget=1200):
    """critical_delta as one _minimize_over_boxes call per grid point, each
    with one search, smallest delta first, stopping at the first crossing."""
    obj = stacks.objectives[kind]
    use_t = threshold > 0
    values = stacks.t_stat if use_t else stacks.estimate
    curve = []
    for delta in grid:
        spec = BenchmarkSpec(j=0, k_a_bound=k_a_bound, k_m_bound=delta,
                             k_y_bound=delta)
        (val, _), = _minimize_over_boxes([_Search(
            stacks.box(spec, kind), values, budget,
            stop=threshold if use_t else None)])
        curve.append((delta, obj.flip * val))
        if val <= threshold:
            return delta, curve
    return math.inf, curve


WIDE = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]


@pytest.mark.parametrize("threshold", [0.0, 1.96])
@pytest.mark.parametrize("kind", ["direct", "indirect"])
def test_critical_delta_equals_one_search_per_grid_point(study, kind, threshold):
    data, plan, stacks = study
    crossing, _ = _sweep_alone(stacks, kind, threshold, WIDE, 1.0)
    at = WIDE.index(crossing)   # the study crosses inside the wide grid
    assert at >= 2
    grids = {"first": WIDE[at:], "middle": WIDE[at - 2:], "none": WIDE[:at]}
    for where, grid in grids.items():
        got = critical_delta(data, 0, kind, threshold, grid, k_a_bound=1.0,
                             plan=plan)
        assert got == _sweep_alone(stacks, kind, threshold, grid, 1.0), where
        assert got[0] == (math.inf if where == "none" else crossing)


def _worst_alone(stacks, spec, kind, budget=1500):
    box = stacks.box(spec, kind)
    return [_minimize_over_boxes([_Search(box, values, budget)])[0]
            for values in (stacks.estimate, stacks.t_stat)]


@pytest.mark.parametrize("caps", [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
def test_covariate_batch_groups_boxes_by_layout(study, caps):
    # with a zero mediator cap the worst-case box loses the mediator ball
    # that every sweep box keeps, so the batch runs two locksteps; a zero
    # exposure cap drops the exposure column from every box
    data, plan, stacks = study
    spec = BenchmarkSpec(j=0, k_a_bound=caps[0], k_m_bound=caps[1],
                         k_y_bound=caps[2])
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    worst, sweeps = benchmark_covariate(data, spec, plan, delta_grid=grid)
    for kind in ("direct", "indirect"):
        flip = stacks.objectives[kind].flip
        (val_e, (_, r_a, r_m, r_y)), (val_t, _) = _worst_alone(stacks, spec, kind)
        res = worst[kind]
        assert res.worst_estimate.value == flip * val_e
        assert res.worst_estimate.leave_j == {"r_a": float(r_a[0]),
                                              "r_m": r_m[0].tolist(),
                                              "r_y": float(r_y[0])}
        assert res.worst_t.t_stat == flip * val_t
        single = benchmark_worst(data, spec, plan=plan, effect_kind=kind)
        assert single.worst_t.value == res.worst_t.value
        assert single.worst_t.leave_j == res.worst_t.leave_j
        assert sweeps[kind] == tuple(
            _sweep_alone(stacks, kind, threshold, grid, caps[0])
            for threshold in (0.0, 1.96))


def test_no_sweep_walk_reaches_a_dropped_search(study, monkeypatch):
    # a point's final value is at or below every best value it reported, so
    # a sweep's walk ends at or before the point whose bound dropped the rest
    data, plan, _ = study
    search = optimize._minimize_over_boxes
    runs = []

    def spy(searches, polish=False, drop=None):
        found = search(searches, polish=polish, drop=drop)
        runs.append(found)
        return found

    monkeypatch.setattr(optimize, "_minimize_over_boxes", spy)
    walked = [len(critical_delta(data, 0, kind, threshold, WIDE, k_a_bound=1.0,
                                 plan=plan)[1])
              for kind in ("direct", "indirect") for threshold in (0.0, 1.96)]
    grid = [round(0.05 * k, 2) for k in range(1, 20)]
    rep = robustness_value(fit_observed(data), plan, "indirect", rho_grid=grid,
                           budget=300)
    walked.append(len(rep.curve))
    assert rep.rv_estimate < 1.0
    assert len(runs) == len(walked)
    for found, n in zip(runs, walked):
        assert None not in found[:n]
        assert None in found[n:]   # the sweep did drop its later points


def test_lockstep_pass_calls_each_leave_j_kernel_once(study, monkeypatch):
    # both effects share the estimate kernel (the full sample's anchors) and
    # the t kernel (the full sample stacked over the resamples), so a pass
    # of a covariate's batch calls each at most once, on the points of every
    # search that reads it, whichever effects they belong to, each effect's
    # points in one run
    data, plan, _ = study
    calls = []   # (the kernel's anchors, the call's first argument)
    kernel = benchmarking._leave_j_kernel

    def counting_kernel(anc, *args):
        values = kernel(anc, *args)

        def counted(*points):
            calls.append((id(anc), points[0]))
            return values(*points)
        return counted

    passes = []
    lockstep = optimize.direct_lockstep

    def counting_lockstep(objective, *args, **kwargs):
        def counted(x, owners):
            before = len(calls)
            found = objective(x, owners)
            passes.append(calls[before:])
            return found
        return lockstep(counted, *args, **kwargs)

    monkeypatch.setattr(benchmarking, "_leave_j_kernel", counting_kernel)
    monkeypatch.setattr(optimize, "direct_lockstep", counting_lockstep)
    benchmark_covariate(data, BenchmarkSpec(j=0), plan, delta_grid=[0.5, 1.0, 2.0, 4.0])
    assert len(passes) > 10
    for made in passes:
        kernels = [anc for anc, _ in made]
        assert len(kernels) == len(set(kernels))
        for _, first in made:
            assert np.count_nonzero(first[1:] != first[:-1]) == np.unique(first).size - 1
    # passes that mix both effects' points in one call
    mixed = [first for made in passes for _, first in made
             if set(first.tolist()) == {0, 1}]
    assert len(mixed) > 10


def test_lockstep_pass_calls_each_map_and_value_function_once(monkeypatch):
    # eight searches over boxes of two columns share three box maps and two
    # value functions in an interleaved order; each pass calls every map and
    # every function at most once, a function meets each map's points as one
    # run, and every search finds what it finds alone
    made = []

    def shifted(k):
        def unpack(x):
            made.append(("map", k))
            return np.full(len(x), k), x + 0.1 * k
        return unpack

    def valued(k):
        def values(tag, x):
            made.append(("fn", k))
            runs.append(np.count_nonzero(tag[1:] != tag[:-1]) + 1 - np.unique(tag).size)
            return np.sin(3.0 * x[:, 0] + k) * np.cos(2.0 * x[:, 1]) + 0.01 * tag
        return values

    maps, fns = [shifted(k) for k in range(3)], [valued(k) for k in range(2)]
    space = robustness._Box().interval(-1.0, 1.0).interval(0.0, 2.0)
    searches = [_Search(robustness._SearchBox(space, maps[m], maps[m](np.zeros((1, 2)))),
                        fns[f], budget)
                for m, f, budget in [(0, 0, 120), (1, 1, 90), (0, 1, 150), (2, 0, 60),
                                     (1, 0, 120), (2, 1, 100), (0, 0, 80), (1, 1, 130)]]
    passes, runs = [], []   # a pass's calls; a call's runs beyond one per map
    lockstep = optimize.direct_lockstep

    def counting_lockstep(objective, *args, **kwargs):
        def counted(x, owners):
            made.clear()
            runs.clear()
            found = objective(x, owners)
            passes.append(list(made))
            assert runs and not any(runs)
            return found
        return lockstep(counted, *args, **kwargs)

    monkeypatch.setattr(optimize, "direct_lockstep", counting_lockstep)
    together = _minimize_over_boxes(searches)
    assert len(passes) > 10
    for calls in passes:
        assert len(calls) == len(set(calls))
    assert max(len(calls) for calls in passes) == len(maps) + len(fns)
    for search, (val, args) in zip(searches, together):
        (val_alone, args_alone), = _minimize_over_boxes([search])
        assert val == val_alone
        assert all(np.array_equal(a, b) for a, b in zip(args, args_alone))


@pytest.mark.parametrize("case", ["benchmark", "rv_direct", "rv_indirect_vector"])
def test_lockstep_pass_calls_each_layouts_map_once(study, monkeypatch, case):
    # the boxes of one layout share one map, which takes each box's
    # parameters (a leave-one-out box's effect, a robustness box's radii) per
    # point, so a pass splits the points of each layout once, however many
    # searches and effects it holds, and every search still finds what it
    # finds alone
    data, plan, _ = study
    split = optimize._Box.split
    made, passes, batches = [], [], []

    def counting_split(box, x):
        made.append(tuple(box._blocks))
        return split(box, x)

    lockstep = optimize.direct_lockstep

    def counting_lockstep(objective, *args, **kwargs):
        def counted(x, owners):
            made.clear()
            found = objective(x, owners)
            passes.append((list(made), np.unique(owners).size))
            return found
        return lockstep(counted, *args, **kwargs)

    search = optimize._minimize_over_boxes

    def spy(searches, polish=None, drop=None):
        found = search(searches, polish=polish, drop=drop)
        batches.append((searches, polish, found))
        return found

    monkeypatch.setattr(optimize._Box, "split", counting_split)
    monkeypatch.setattr(optimize, "direct_lockstep", counting_lockstep)
    monkeypatch.setattr(optimize, "_minimize_over_boxes", spy)
    if case == "benchmark":
        benchmark_covariate(data, BenchmarkSpec(j=0), plan, delta_grid=[0.5, 1.0, 2.0])
    else:
        kind, mode = ("direct", "scalar_u") if case == "rv_direct" else ("indirect", "vector_u")
        robustness_value(fit_observed(data), plan, kind, rho_grid=[0.1, 0.2, 0.3, 0.4],
                         confounder_mode=mode, budget=200, full_curve=True)
    assert len(passes) > 10
    assert max(searches for _, searches in passes) >= 3
    for layouts, _ in passes:
        assert len(layouts) == len(set(layouts)) == 1
    (searches, polish, found), = batches
    for s, (val, args) in zip(searches, found):
        (val_alone, args_alone), = search([s], polish=polish)
        assert val == val_alone
        assert all(np.array_equal(a, b) for a, b in zip(args, args_alone))
