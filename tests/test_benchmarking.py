from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bksens import benchmarking, cli, optimize
from bksens.benchmarking import (
    EFFECTS,
    BenchmarkMoments,
    BenchmarkSpec,
    _leave_j_args,
    benchmark_covariate,
    benchmark_moments,
    benchmark_worst,
    critical_delta,
    natural_from_benchmark,
    prepare_benchmark_stacks,
)
from bksens.confounders import ConfounderTarget, construct_confounder
from bksens.errors import BoundaryR, DimensionMismatch, RankDeficient
from bksens.inference import bootstrap_moments
from bksens.linalg import r_matrix
from bksens.mediation import (
    MediationData,
    _direct_coeffs,
    _effect_values,
    _indirect_coeffs,
    _phis,
    direct_adjusted,
    fit_observed,
    indirect_adjusted_product,
)

from _leave_j_reference import reference_convert_leave_j
from conftest import make_data


def _boot_coeffs(kind, plan):
    """Every resample's coefficient stacks, as the t kernel reads them."""
    return (_direct_coeffs if kind == "direct" else _indirect_coeffs)(plan.moments)


def _partial_corr_oracle(target, probe, controls):
    """Partial correlation via raw lstsq residuals, independent of r_matrix."""
    def resid(v):
        coef, *_ = np.linalg.lstsq(controls, v, rcond=None)
        return v - controls @ coef

    rt = resid(np.asarray(target, float))
    rp = resid(np.asarray(probe, float))
    return float(rt @ rp / np.sqrt((rt @ rt) * (rp @ rp)))


def test_anchor_values_match_partial_correlations(rng):
    data = make_data(rng, n=150, p=3, q=2)
    bm = benchmark_moments(data, j=1)
    cj = data.c[:, 2]
    c_minus = np.delete(data.c, 2, axis=1)
    assert bm.r_a_cj == pytest.approx(
        _partial_corr_oracle(data.a, cj, c_minus), abs=1e-10)
    amc_minus = np.column_stack([data.a, data.m, c_minus])
    assert bm.r_y_cj == pytest.approx(
        _partial_corr_oracle(data.y, cj, amc_minus), abs=1e-10)


def test_irrelevant_covariate_gives_zero_anchors(rng):
    data = make_data(rng, n=200, p=1, q=1)
    # append a covariate orthogonal to everything observed
    span = np.column_stack([data.y, data.a, data.m, data.c])
    noise = rng.normal(size=data.n)
    coef, *_ = np.linalg.lstsq(span, noise, rcond=None)
    extra = noise - span @ coef
    data2 = MediationData.from_arrays(
        y=data.y, a=data.a, m=data.m,
        c=np.column_stack([data.c[:, 1:], extra]))
    bm = benchmark_moments(data2, j=1)
    assert abs(bm.r_a_cj) < 1e-8
    assert abs(bm.r_y_cj) < 1e-8
    assert np.max(np.abs(bm.r_m_cj)) < 1e-8
    # with all anchors at zero the conversion is the identity up to the
    # covariance mixing block
    s = natural_from_benchmark(bm, 0.2, np.array([0.3]), -0.25)
    assert s.r_a == pytest.approx(0.2, abs=1e-8)
    assert s.r_y == pytest.approx(-0.25, abs=1e-8)
    assert np.allclose(s.r_m, bm.mix_leave_j @ np.array([0.3]), atol=1e-8)


def test_duplicated_covariate_rank_deficient(rng):
    base = rng.normal(size=(60, 1))
    c = np.column_stack([base, base])
    a = rng.normal(size=60)
    m = (a + rng.normal(size=60))[:, None]
    y = a + m[:, 0] + rng.normal(size=60)
    data = MediationData.from_arrays(y=y, a=a, m=m, c=c)
    with pytest.raises(RankDeficient):
        benchmark_moments(data, j=0)


def test_zero_leave_j_maps_to_zero(rng):
    data = make_data(rng, n=120, p=2, q=2)
    bm = benchmark_moments(data, j=0)
    s = natural_from_benchmark(bm, 0.0, np.zeros(2), 0.0)
    assert s.r_y == 0.0 and s.r_a == 0.0 and not s.r_m.any()


def test_conversion_roundtrip_through_construction(rng):
    # prescribe leave-one-out parameters, convert, realize the natural triple
    # with an explicit confounder, then recover the leave-one-out parameters
    # directly: the conversion must be the identity on this loop
    for trial in range(12):
        local = np.random.default_rng(9100 + trial)
        q = int(local.integers(1, 3))
        data = make_data(local, n=150, p=2, q=q)
        j = int(local.integers(0, 2))
        bm = benchmark_moments(data, j=j)
        r_a_lj = 0.35 * local.uniform(-1, 1)
        r_y_lj = 0.35 * local.uniform(-1, 1)
        d = local.normal(size=q)
        d /= np.linalg.norm(d)
        r_m_lj = 0.35 * local.uniform(0, 1) * d
        s = natural_from_benchmark(bm, r_a_lj, r_m_lj, r_y_lj)
        u = construct_confounder(data, ConfounderTarget(r_y=s.r_y, r_m=s.r_m,
                                                        r_a=s.r_a))
        c_minus = np.delete(data.c, j + 1, axis=1)
        ac_minus = np.column_stack([data.a, c_minus])
        amc_minus = np.column_stack([data.a, data.m, c_minus])
        assert float(r_matrix(data.a, u, c_minus)[0, 0]) == pytest.approx(
            r_a_lj, abs=1e-8)
        assert np.allclose(r_matrix(data.m, u, ac_minus)[:, 0], r_m_lj, atol=1e-8)
        assert float(r_matrix(data.y, u, amc_minus)[0, 0]) == pytest.approx(
            r_y_lj, abs=1e-8)


def test_zero_caps_return_observed(rng):
    data = make_data(rng, n=100, p=2, q=1)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=120, seed=3)
    spec = BenchmarkSpec(j=0, k_a_bound=0.0, k_m_bound=0.0, k_y_bound=0.0)
    res = benchmark_worst(data, spec, plan=plan, effect_kind="direct")
    assert res.worst_estimate.value == pytest.approx(mm.theta1_obs, abs=1e-12)
    assert res.worst_t.t_stat == pytest.approx(res.observed_t, abs=1e-12)


@pytest.mark.parametrize("kind", ["direct", "indirect"])
def test_zero_caps_worst_t_is_the_observed_t_exactly(kind):
    # the observed t comes from the t objective the searches minimize, so
    # over a box that holds only zero the worst t is that t to the last bit
    spec = BenchmarkSpec(j=0, k_a_bound=0.0, k_m_bound=0.0, k_y_bound=0.0)
    for seed in range(8):
        data = make_data(np.random.default_rng(9800 + seed), n=100, p=2, q=2)
        plan = bootstrap_moments(data, n_resamples=50, seed=seed)
        res = benchmark_worst(data, spec, plan=plan, effect_kind=kind)
        assert res.worst_t.t_stat == res.observed_t


def test_worst_estimate_matches_leave_j_grid(rng):
    # single mediator: exhaustive grid over the constrained leave-one-out box,
    # converted in one batch by the reference conversion and evaluated in the
    # coefficient form
    data = make_data(rng, n=120, p=2, q=1)
    mm = fit_observed(data)
    bm = benchmark_moments(data, j=0)
    spec = BenchmarkSpec(j=0, k_a_bound=1.0, k_m_bound=1.0, k_y_bound=1.0)
    res = benchmark_worst(data, spec, plan=None, effect_kind="direct", budget=2000)

    flip = -1.0 if mm.theta1_obs < 0 else 1.0
    ra_rad = abs(bm.r_a_cj)
    rm_rad = abs(float(bm.r_m_cj[0]))
    ry_rad = abs(bm.r_y_cj)
    grid = np.linspace(-1, 1, 41)
    ta, tm, ty = (t.ravel() for t in np.meshgrid(grid, grid, grid, indexing="ij"))
    r_a, r_m, r_y = ta * ra_rad, (tm * rm_rad)[:, None], ty * ry_rad
    stacks = prepare_benchmark_stacks(data, 0, None)
    with np.errstate(invalid="ignore", divide="ignore"):
        nat_y, nat_m, nat_a, ok = reference_convert_leave_j(benchmarking._anchors(bm),
                                                            r_a, r_m, r_y)
        values = stacks.objectives["direct"].point_estimates(
            *_phis("direct", nat_y[:, 0], nat_m[:, 0], nat_a[:, 0]))
    # the points skipped are those where natural_from_benchmark raises: the
    # search objective is inf exactly there
    assert np.array_equal(~ok, np.isinf(
        stacks.estimate(*_leave_j_args(EFFECTS.index("direct"), r_a, r_m, r_y))))
    best = np.min(flip * values[ok])
    assert flip * res.worst_estimate.value <= best + 1e-9
    assert abs(flip * res.worst_estimate.value - best) < 0.01


def test_constraint_active_at_worst_case(rng):
    data = make_data(rng, n=150, p=2, q=1)
    spec = BenchmarkSpec(j=0, k_a_bound=1.0, k_m_bound=1.0, k_y_bound=1.0)
    res = benchmark_worst(data, spec, plan=None, effect_kind="direct", budget=2000)
    ks = res.worst_estimate.k_ratios
    caps = {"k_a": spec.k_a_bound, "k_m": spec.k_m_bound, "k_y": spec.k_y_bound}
    assert any(abs(ks[k] - caps[k]) < 1e-3 for k in ks)


def test_critical_delta_monotone_and_trivial(rng):
    data = make_data(rng, n=120, p=2, q=1)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    delta, curve = critical_delta(data, 0, "direct", threshold=0.0,
                                  delta_grid=grid, k_a_bound=0.0)
    values = [v for _, v in curve]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    if delta != np.inf:
        assert values[-1] <= 0.0

    # threshold already met by the observed estimate
    mm = fit_observed(data)
    weak = MediationData(y=data.y - mm.theta1_obs * data.a
                         - data.m @ mm.theta3_obs, a=data.a, m=data.m, c=data.c)
    d0, _ = critical_delta(weak, 0, "direct", threshold=0.0, delta_grid=grid,
                           k_a_bound=0.0)
    assert d0 in (0.0, grid[0])


@pytest.mark.parametrize("kind", EFFECTS)
def test_ci_sweep_already_crossed_runs_no_search(kind):
    # with the observed |t| below 1.96 the CI sweep has no searches, alone
    # as in the covariate's batch beside the worst-case searches
    local = np.random.default_rng(0)
    data = make_data(local, n=120, p=2, q=1)
    data = MediationData(y=local.normal(size=120), a=data.a, m=data.m, c=data.c)
    plan = bootstrap_moments(data, n_resamples=20, seed=1)
    grid = [0.5, 1.0, 2.0]
    alone = critical_delta(data, 0, kind, 1.96, grid, k_a_bound=1.0, plan=plan)
    delta, [(at, t_obs)] = alone
    assert delta == at == 0.0 and abs(t_obs) < 1.96
    _, sweeps = benchmark_covariate(data, BenchmarkSpec(j=0), plan, delta_grid=grid)
    assert sweeps[kind][1] == alone


def test_benchmark_entry_points_reject_unknown_effect(rng):
    data = make_data(rng, n=80, p=2, q=1)
    with pytest.raises(ValueError, match="effect_kind"):
        benchmark_worst(data, BenchmarkSpec(j=0), effect_kind="bogus")
    with pytest.raises(ValueError, match="effect_kind"):
        critical_delta(data, 0, "bogus", 0.0, [1.0])


def test_empty_delta_grid_is_rejected(rng):
    # an empty grid would report every critical delta as not attained
    data = make_data(rng, n=80, p=2, q=1)
    plan = bootstrap_moments(data, n_resamples=20, seed=1)
    with pytest.raises(ValueError, match="nonempty"):
        critical_delta(data, 0, "direct", 0.0, [])
    with pytest.raises(ValueError, match="nonempty"):
        critical_delta(data, 0, "indirect", 1.96, [], plan=plan)
    with pytest.raises(ValueError, match="nonempty"):
        benchmark_covariate(data, BenchmarkSpec(j=0), plan, delta_grid=[])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_caps_and_deltas_are_rejected(rng, bad):
    # a NaN cap would act as 0 in the worst case, and a NaN or infinite
    # delta would report a curve point at that delta; a NaN threshold would
    # run every search and report "never crossed"
    for field in ("k_a_bound", "k_m_bound", "k_y_bound"):
        with pytest.raises(ValueError, match="finite"):
            BenchmarkSpec(j=0, **{field: bad})
    data = make_data(rng, n=80, p=2, q=1)
    plan = bootstrap_moments(data, n_resamples=20, seed=1)
    with pytest.raises(ValueError, match="finite"):
        critical_delta(data, 0, "direct", bad, [0.5, 1.0], plan=plan)
    # a threshold above the observed t returns early: the cap is checked first
    with pytest.raises(ValueError, match="finite"):
        critical_delta(data, 0, "direct", 50.0, [0.5, 1.0], k_a_bound=bad, plan=plan)
    for grid in ([0.5, bad], [bad], [bad, 0.5]):
        with pytest.raises(ValueError, match="finite"):
            critical_delta(data, 0, "direct", 0.0, grid)
        with pytest.raises(ValueError, match="finite"):
            benchmark_covariate(data, BenchmarkSpec(j=0), plan, delta_grid=grid)


@pytest.mark.parametrize("j", [1.5, np.float64(0.0), -1, 2, True, False])
def test_covariate_index_must_be_an_integer_in_range(j):
    data = make_data(np.random.default_rng(0), n=120, p=2, q=1)
    with pytest.raises(DimensionMismatch, match="covariate index"):
        benchmark_worst(data, BenchmarkSpec(j=j))
    with pytest.raises(DimensionMismatch, match="covariate index"):
        benchmark_moments(data, j)
    assert benchmark_moments(data, np.int64(1)).j == 1


def test_plan_from_other_data_is_rejected():
    # a plan of the same shape would mix two datasets' anchors silently;
    # one of another shape used to fail inside numpy
    data = make_data(np.random.default_rng(0), n=120, p=2, q=1)
    for n, p, q in ((120, 2, 1), (150, 2, 1), (120, 3, 1), (120, 2, 2)):
        plan = bootstrap_moments(make_data(np.random.default_rng(1), n=n, p=p, q=q), 20,
                                 seed=1)
        with pytest.raises(DimensionMismatch, match="other data"):
            benchmark_worst(data, BenchmarkSpec(j=0), plan=plan)
    copy = MediationData(y=data.y.copy(), a=data.a.copy(), m=data.m.copy(), c=data.c.copy())
    stacks = prepare_benchmark_stacks(data, 0, bootstrap_moments(copy, 20, seed=1))
    assert stacks.t_stat is not None


def test_randomized_cap_pins_exposure_channel(rng):
    data = make_data(rng, n=120, p=2, q=1)
    spec = BenchmarkSpec(j=0, k_a_bound=0.0, k_m_bound=1.0, k_y_bound=1.0)
    res = benchmark_worst(data, spec, plan=None, effect_kind="indirect",
                          budget=1200)
    assert res.worst_estimate.leave_j["r_a"] == 0.0
    assert res.worst_estimate.k_ratios["k_a"] == 0.0


def _leave_j_candidates(local, k, q):
    """Random leave-j candidates, some outside the unit balls and many
    mapping outside the feasible region."""
    r_a = local.uniform(-1.05, 1.05, size=k)
    r_y = local.uniform(-1.05, 1.05, size=k)
    d = local.normal(size=(k, q))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r_a, local.uniform(0.0, 1.05, size=(k, 1)) * d, r_y


def test_batched_conversion_matches_scalar_adjusters():
    n_feasible = n_in_ball_infeasible = 0
    for trial in range(6):
        local = np.random.default_rng(9300 + trial)
        q = 1 + trial % 2
        data = make_data(local, n=150, p=2, q=q)
        mm = fit_observed(data)
        bm = benchmark_moments(data, j=trial % 2)
        full = prepare_benchmark_stacks(data, trial % 2, None)
        obj_d, obj_i = full.objectives["direct"], full.objectives["indirect"]
        r_a, r_m, r_y = _leave_j_candidates(local, 80, q)
        with np.errstate(invalid="ignore", divide="ignore"):
            nat_y, nat_m, nat_a, ok = reference_convert_leave_j(benchmarking._anchors(bm),
                                                                r_a, r_m, r_y)
            # the single anchor row's natural parameters
            nat = (nat_y[:, 0], nat_m[:, 0], nat_a[:, 0])
            direct = obj_d.point_estimates(*_phis("direct", *nat))
            indirect = obj_i.point_estimates(*_phis("indirect", *nat))
        values_d = full.estimate(*_leave_j_args(EFFECTS.index("direct"), r_a, r_m, r_y))
        values_i = full.estimate(*_leave_j_args(EFFECTS.index("indirect"), r_a, r_m, r_y))
        for i in range(len(r_a)):
            try:
                s = natural_from_benchmark(bm, r_a[i], r_m[i], r_y[i])
            except BoundaryR:
                assert not ok[i]
                assert values_d[i] == values_i[i] == np.inf
                n_in_ball_infeasible += max(abs(r_a[i]), abs(r_y[i]),
                                            np.linalg.norm(r_m[i])) < 1.0
                continue
            n_feasible += 1
            assert ok[i]
            assert nat_y[i, 0] == pytest.approx(s.r_y, rel=1e-12, abs=1e-12)
            assert nat_a[i, 0] == pytest.approx(s.r_a, rel=1e-12, abs=1e-12)
            assert np.allclose(nat_m[i, 0], s.r_m, rtol=1e-12, atol=1e-12)
            assert direct[i] == pytest.approx(direct_adjusted(mm, s),
                                              rel=1e-12, abs=1e-12)
            assert indirect[i] == pytest.approx(indirect_adjusted_product(mm, s),
                                                rel=1e-12, abs=1e-12)
            assert values_d[i] == pytest.approx(obj_d.flip * direct_adjusted(mm, s),
                                                rel=1e-12, abs=1e-12)
            assert values_i[i] == pytest.approx(
                obj_i.flip * indirect_adjusted_product(mm, s), rel=1e-12, abs=1e-12)
    assert n_feasible > 50 and n_in_ball_infeasible > 20


def test_batched_t_objective_matches_per_resample_oracle():
    local = np.random.default_rng(9400)
    data = make_data(local, n=120, p=2, q=2)
    mm = fit_observed(data)
    bm = benchmark_moments(data, j=1)
    plan = bootstrap_moments(data, n_resamples=25, seed=5)
    stacks = prepare_benchmark_stacks(data, 1, plan)
    bms = [benchmark_moments(data.subset(idx), 1) for idx in plan.indices]
    obj = stacks.objectives["indirect"]
    r_a, r_m, r_y = _leave_j_candidates(local, 40, 2)
    batch = stacks.t_stat(*_leave_j_args(EFFECTS.index("indirect"), r_a, r_m, r_y))
    n_inf = 0
    for i in range(len(r_a)):
        params = (r_a[i], r_m[i], r_y[i])
        try:
            s0 = natural_from_benchmark(bm, *params)
            boot = [indirect_adjusted_product(m, natural_from_benchmark(b, *params))
                    for m, b in zip(plan.moments, bms)]
        except BoundaryR:
            # infeasible on the full sample or on any one resample
            assert batch[i] == np.inf
            n_inf += 1
            continue
        expected = obj.flip * indirect_adjusted_product(mm, s0) / np.std(boot, ddof=1)
        assert batch[i] == pytest.approx(expected, rel=1e-12)
    assert 0 < n_inf < len(r_a)


def test_cli_delta_grid_builds_stacks_once(tmp_path, monkeypatch):
    from test_cli import write_csv

    data = make_data(np.random.default_rng(9500), n=90, p=2, q=1)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    calls = {"n": 0}
    build = benchmarking.prepare_benchmark_stacks

    def counting(*args, **kwargs):
        calls["n"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(benchmarking, "prepare_benchmark_stacks", counting)
    code = cli.main(["benchmark", "--data", str(path), "--outcome", "y",
                     "--exposure", "a", "--mediators", "m1",
                     "--covariates", "c1,c2", "--j", "c1", "--bootstrap", "30",
                     "--delta-grid", "0.5:1:0.5", "--out", str(tmp_path / "b.json")])
    assert code == 0
    assert calls["n"] == 1


def test_cli_benchmark_fits_the_full_sample_once(tmp_path, monkeypatch):
    # every covariate's stacks take the CLI's one full-sample fit
    from test_cli import write_csv

    data = make_data(np.random.default_rng(9501), n=90, p=3, q=1)
    path = tmp_path / "data.csv"
    write_csv(path, data)
    calls = {"n": 0}
    fit = benchmarking.fit_observed

    def counting(*args, **kwargs):
        calls["n"] += 1
        return fit(*args, **kwargs)

    monkeypatch.setattr(benchmarking, "fit_observed", counting)
    monkeypatch.setattr(cli, "fit_observed", counting)
    code = cli.main(["benchmark", "--data", str(path), "--outcome", "y",
                     "--exposure", "a", "--mediators", "m1",
                     "--covariates", "c1,c2,c3", "--bootstrap", "30",
                     "--out", str(tmp_path / "b.json")])
    assert code == 0
    assert calls["n"] == 1


def _mirror_study(sign):
    local = np.random.default_rng(7)
    n = 300
    c = local.normal(size=(n, 2))
    a = c @ np.array([0.5, -0.4]) + local.normal(size=n)
    m = (0.6 * a + c @ np.array([0.5, 0.3]) + local.normal(size=n))[:, None]
    y = 0.8 * a + 0.7 * m[:, 0] + c @ np.array([0.3, 0.2]) + local.normal(size=n)
    return MediationData.from_arrays(y=sign * y, a=a, m=m, c=c)


@pytest.mark.parametrize("kind", ["direct", "indirect"])
def test_critical_delta_is_mirror_symmetric(kind):
    # y -> -y negates both effects: every critical delta stays put and every
    # curve, kept in the data's sign, is negated
    grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    sweeps = []
    for sign in (1.0, -1.0):
        data = _mirror_study(sign)
        plan = bootstrap_moments(data, n_resamples=60, seed=1)
        sweeps.append([critical_delta(data, 0, kind, threshold, grid, k_a_bound=1.0,
                                      plan=plan)
                       for threshold in (0.0, 1.96)])
    for (d_pos, curve_pos), (d_neg, curve_neg) in zip(*sweeps):
        assert d_pos == d_neg
        assert 0.5 < d_pos < np.inf
        assert [d for d, _ in curve_pos] == [d for d, _ in curve_neg]
        assert [v for _, v in curve_neg] == pytest.approx(
            [-v for _, v in curve_pos], rel=1e-9, abs=1e-12)


def test_critical_delta_searches_only_where_candidates_stay_above(monkeypatch):
    # a t threshold first tries each grid point's box candidates: DIRECT runs
    # exactly at the curve points whose candidate batch stays above it
    data = make_data(np.random.default_rng(9600), n=120, p=2, q=1)
    plan = bootstrap_moments(data, n_resamples=30, seed=2)
    started = []   # the upper corner of each search's box
    search = optimize.direct_lockstep

    def counting(objective, lowers, uppers, *args, **kwargs):
        started.extend(np.asarray(uppers).tolist())
        return search(objective, lowers, uppers, *args, **kwargs)

    monkeypatch.setattr(optimize, "direct_lockstep", counting)
    _, curve = critical_delta(data, 0, "direct", 1.96, [0.5, 1.0, 2.0, 4.0],
                              k_a_bound=1.0, plan=plan)
    assert curve[0][0] == 0.5
    stacks = prepare_benchmark_stacks(data, 0, plan)
    values = stacks.t_stat
    above = []
    for delta, _ in curve:
        spec = BenchmarkSpec(j=0, k_a_bound=1.0, k_m_bound=delta, k_y_bound=delta)
        box = stacks.box(spec, "direct")
        if np.min(values(*box.candidates)) > 1.96:
            above.append(box.space.upper)
    assert started == above


def test_mediator_ball_alone_can_make_a_candidate_infeasible():
    # zero anchors with a mixing block of 2 I: c = 0, r_a = r_a_lj,
    # r_cj_u_amc = 0 and r_y = r_y_lj stay inside their balls, while the
    # natural r_m = 2 r_m_lj leaves the unit ball at |r_m_lj| = 0.6, so only
    # the |r_m|^2 test decides that candidate
    data = make_data(np.random.default_rng(9700), n=120, p=2, q=2)
    plan = bootstrap_moments(data, n_resamples=20, seed=4)
    stacks = prepare_benchmark_stacks(data, 0, plan)

    def anchors(rows):
        return BenchmarkMoments(j=0, r_a_cj=np.zeros(rows), r_m_cj=np.zeros((rows, 2)),
                                r_y_cj=np.zeros(rows),
                                mix_leave_j=np.tile(2.0 * np.eye(2), (rows, 1, 1)))

    def t_value(est, flip):
        return est[:, 0] / est[:, 1:].std(axis=-1, ddof=1)

    r_a, r_y = np.array([0.2, 0.2]), np.array([0.3, 0.3])
    r_m = np.array([[0.6, 0.0], [0.3, 0.0]])
    objs = [stacks.objectives[kind] for kind in EFFECTS]
    coeffs = [tuple(None if f is None else np.concatenate([f, b], axis=-1)
                    for f, b in zip(obj.full, _boot_coeffs(kind, plan)))
              for kind, obj in zip(EFFECTS, objs)]
    kernels = [benchmarking._leave_j_kernel(anchors(1), [obj.full for obj in objs],
                                            [1.0, 1.0], lambda est, flip: est[:, 0]),
               benchmarking._leave_j_kernel(anchors(21), coeffs, [1.0, 1.0], t_value)]
    for effect in range(len(EFFECTS)):
        for values in kernels:
            got = values(*_leave_j_args(effect, r_a, r_m, r_y))
            assert got[0] == np.inf
            assert np.isfinite(got[1])
    bm = anchors(1)
    with pytest.raises(BoundaryR):
        natural_from_benchmark(bm, 0.2, r_m[0], 0.3)
    assert np.allclose(natural_from_benchmark(bm, 0.2, r_m[1], 0.3).r_m, [0.6, 0.0])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2, 3, 5]), p=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["direct", "indirect"]), seed=st.integers(0, 2**32 - 1))
@example(q=1, p=3, kind="indirect", seed=980)   # the effect nearly cancels
def test_t_kernel_matches_conversion_chain(q, p, kind, seed):
    # both search objectives evaluate the projection kernel; the oracle is
    # the explicit conversion -> _phis -> the point estimate, over the
    # bootstrap SD for t. The gap is bounded on the scale of the effect's
    # summed terms, since a relative bound fails where the effect cancels,
    # over the 1 - |r_m|^2 whose root divides phi_b, which cancels as the
    # natural r_m nears the unit sphere
    local = np.random.default_rng(seed)
    data = make_data(local, n=100, p=p, q=q)
    j = int(local.integers(0, p))
    plan = bootstrap_moments(data, n_resamples=20, seed=seed % 1000)
    stacks = prepare_benchmark_stacks(data, j, plan)
    obj = stacks.objectives[kind]
    r_a, r_m, r_y = _leave_j_candidates(local, 60, q)
    with np.errstate(invalid="ignore", divide="ignore"):
        *nat, ok = reference_convert_leave_j(benchmarking._anchors(stacks.bm),
                                             r_a, r_m, r_y)
        *nat_b, ok_b = reference_convert_leave_j(stacks.anchors, r_a, r_m, r_y)
        phis = _phis(kind, *(x[:, 0] for x in nat))
        est = obj.flip * obj.point_estimates(*phis)
        terms = _effect_values(tuple(None if f is None else np.abs(f) for f in obj.full),
                               *map(np.abs, phis))[:, 0]
        gap = 1.0 - (nat[1][:, 0] ** 2).sum(axis=-1)
        gap_t = np.minimum(gap, (1.0 - (nat_b[1] ** 2).sum(axis=-1)).min(axis=1))
        # each resample's effect at its own phi pair, one column at a time
        phi_a, phi_b = _phis(kind, *nat_b)
        boot_coeffs = _boot_coeffs(kind, plan)
        boot = np.column_stack([
            _effect_values(tuple(None if f is None else f[..., [b]] for f in boot_coeffs),
                           phi_a[:, b], phi_b[:, b])[:, 0]
            for b in range(phi_a.shape[1])])
        sd = boot.std(axis=1, ddof=1)
        expected = {stacks.estimate: (np.where(ok, est, np.inf), terms / gap),
                    stacks.t_stat: (np.where(ok & ok_b, est / sd, np.inf), terms / sd / gap_t)}
    for objective, (want, scale) in expected.items():
        got = objective(*_leave_j_args(EFFECTS.index(kind), r_a, r_m, r_y))
        assert np.array_equal(got == np.inf, want == np.inf)
        finite = got < np.inf
        assert finite.any()
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale[finite])


@pytest.mark.parametrize("kind", ["direct", "indirect"])
def test_critical_delta_stop_keeps_every_crossing(kind, monkeypatch):
    # the early exit decides each grid point as the full search does: the
    # same critical delta, and the same values before the crossing
    data = _mirror_study(1.0)
    plan = bootstrap_moments(data, n_resamples=60, seed=1)
    stacks = prepare_benchmark_stacks(data, 0, plan)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

    def sweeps():
        return [critical_delta(data, 0, kind, threshold, grid, k_a_bound=1.0,
                               plan=plan)
                for threshold in (1.0, 1.96, 3.0)]

    stopped = sweeps()
    search = optimize._minimize_over_boxes
    monkeypatch.setattr(optimize, "_minimize_over_boxes",
                        lambda searches, **kwargs: search(
                            [replace(s, stop=None) for s in searches], **kwargs))
    full = sweeps()
    assert all(0.5 < d < np.inf for d, _ in full)
    flip = stacks.objectives[kind].flip
    for threshold, (d_stop, c_stop), (d_full, c_full) in zip((1.0, 1.96, 3.0),
                                                             stopped, full):
        assert d_stop == d_full
        assert c_stop[:-1] == c_full[:-1]
        if d_full < np.inf:
            assert flip * c_stop[-1][1] <= threshold
