from dataclasses import fields, replace

import numpy as np
import pytest

from bksens.errors import EstimatorFailed
from bksens.inference import bootstrap_moments, bootstrap_se, effect_report
from bksens.mediation import (
    _RESAMPLED,
    EffectReport,
    MediationData,
    MediationMoments,
    NaturalSensitivity,
    direct_adjusted,
    fit_observed,
    indirect_adjusted_product,
    observed_indirect,
)

from conftest import classical_se, make_data, rare_exposure_data


def test_fixed_seed_reproducible(rng):
    data = make_data(rng, n=60, p=1, q=1)
    p1 = bootstrap_moments(data, n_resamples=50, seed=7)
    p2 = bootstrap_moments(data, n_resamples=50, seed=7)
    assert np.array_equal(p1.indices, p2.indices)
    for m1, m2 in zip(p1.moments, p2.moments):
        assert m1.theta1_obs == m2.theta1_obs
    p3 = bootstrap_moments(data, n_resamples=50, seed=8)
    assert not np.array_equal(p1.indices, p3.indices)


def test_thread_count_does_not_change_results(rng):
    data = make_data(rng, n=80, p=2, q=2)
    serial = bootstrap_moments(data, n_resamples=64, seed=3, n_workers=1)
    threaded = bootstrap_moments(data, n_resamples=64, seed=3, n_workers=8)
    assert np.array_equal(serial.indices, threaded.indices)
    a = np.array([m.theta1_obs for m in serial.moments])
    b = np.array([m.theta1_obs for m in threaded.moments])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n_resamples", [0, 1])
def test_fewer_than_two_resamples_rejected(rng, n_resamples):
    # one resample has no spread: its SE would be 0 (t infinite) or, as a
    # covariance, NaN, which reads as a never-attained robustness value
    data = make_data(rng, n=60, p=1, q=1)
    with pytest.raises(ValueError, match="n_resamples must be >= 2"):
        bootstrap_moments(data, n_resamples)


@pytest.mark.parametrize("n_workers", [0, -3])
def test_fewer_than_one_worker_rejected(rng, n_workers):
    data = make_data(rng, n=60, p=1, q=1)
    with pytest.raises(ValueError, match="n_workers must be >= 1"):
        bootstrap_moments(data, 20, n_workers=n_workers)


@pytest.mark.parametrize("counts", [dict(n_resamples=3.5), dict(n_resamples=np.float64(20)),
                                    dict(n_resamples=True), dict(n_workers=1.5),
                                    dict(n_workers=True)])
def test_counts_must_be_integers(rng, counts):
    data = make_data(rng, n=60, p=1, q=1)
    with pytest.raises(ValueError, match=f"{next(iter(counts))} must be an integer"):
        bootstrap_moments(data, **{"n_resamples": 20, **counts})


def test_nan_standard_error_gives_nan_t(rng):
    # a finite estimate over a NaN SE has no t; 1 / NaN is not +inf
    rep = EffectReport.from_estimate(1.0, np.nan, "direct", "product")
    assert np.isnan(rep.t_stat)
    data = make_data(rng, n=60, p=1, q=1)
    plan = bootstrap_moments(data, n_resamples=20, seed=0)
    calls = []

    def estimator(m):   # the full sample, then NaN on resample 2
        calls.append(m)
        return np.nan if len(calls) == 4 else m.theta1_obs

    rep = effect_report(fit_observed(data), plan, estimator, "direct", "product")
    assert np.isfinite(rep.estimate) and np.isnan(rep.std_err) and np.isnan(rep.t_stat)


def test_constant_estimator_zero_se(rng):
    data = make_data(rng, n=60, p=1, q=1)
    plan = bootstrap_moments(data, n_resamples=30, seed=0)
    out = bootstrap_se(plan, lambda m: 1.25)
    assert out.std_err == 0.0
    assert out.ci_percentile == (1.25, 1.25)


def test_estimator_failure_reports_index(rng):
    data = make_data(rng, n=60, p=1, q=1)
    plan = bootstrap_moments(data, n_resamples=5, seed=0)

    def bad(m):
        raise ValueError("boom")

    with pytest.raises(EstimatorFailed) as err:
        bootstrap_se(plan, bad)
    assert err.value.resample_index == 0


def test_bootstrap_se_of_mean_matches_textbook(rng):
    n = 1000
    y = rng.normal(size=n)
    a = rng.normal(size=n)
    m = rng.normal(size=(n, 1))
    data = MediationData.from_arrays(y=y, a=a, m=m)
    # estimator = mean of y via moments is not available; bootstrap the mean
    # directly through the stored indices instead
    plan = bootstrap_moments(data, n_resamples=1000, seed=11)
    means = np.array([y[idx].mean() for idx in plan.indices])
    se_boot = means.std(ddof=1)
    se_ref = y.std(ddof=1) / np.sqrt(n)
    assert abs(se_boot - se_ref) / se_ref < 0.15


def test_bootstrap_se_matches_classical_on_homoskedastic_design(rng):
    n = 1000
    c = rng.normal(size=(n, 1))
    a = rng.normal(size=n) + 0.5 * c[:, 0]
    m = 0.7 * a[:, None] + rng.normal(size=(n, 1))
    y = 1.0 * a + 0.8 * m[:, 0] + 0.5 * c[:, 0] + rng.normal(size=n)
    data = MediationData.from_arrays(y=y, a=a, m=m, c=c)
    plan = bootstrap_moments(data, n_resamples=1000, seed=5)
    out = bootstrap_se(plan, lambda mm: mm.theta1_obs)
    se_classical = classical_se(y, np.column_stack([a, m, data.c]), 0)
    assert abs(out.std_err - se_classical) / se_classical < 0.15


def test_effect_report_fields(rng):
    data = make_data(rng, n=80, p=1, q=1)
    mm = fit_observed(data)
    plan = bootstrap_moments(data, n_resamples=200, seed=1)
    rep = effect_report(mm, plan, lambda m: m.theta1_obs, "direct", "product")
    assert rep.t_stat == pytest.approx(rep.estimate / rep.std_err)
    assert rep.ci_lower == pytest.approx(rep.estimate - 1.96 * rep.std_err)
    assert rep.ci_upper == pytest.approx(rep.estimate + 1.96 * rep.std_err)


def test_zero_sensitivity_se_continuity(rng):
    from bksens.mediation import NaturalSensitivity, direct_adjusted

    data = make_data(rng, n=200, p=1, q=1)
    plan = bootstrap_moments(data, n_resamples=400, seed=2)
    tiny = NaturalSensitivity(r_y=1e-7, r_m=np.array([1e-7]), r_a=1e-7)
    se_zero = bootstrap_se(plan, lambda m: m.theta1_obs).std_err
    se_tiny = bootstrap_se(plan, lambda m: direct_adjusted(m, tiny)).std_err
    assert abs(se_tiny - se_zero) < 0.05 * se_zero


def test_singular_resample_redraw_and_exhaustion(rng):
    from bksens.errors import TooManySingularResamples
    from bksens.mediation import MediationData

    # every resample of this dataset is singular (mediator duplicates the
    # exposure), so the redraw budget runs out
    n = 20
    a = rng.normal(size=n)
    y = a + rng.normal(size=n)
    broken = MediationData(y=y, a=a, m=a[:, None], c=np.ones((n, 1)))
    with pytest.raises(TooManySingularResamples):
        bootstrap_moments(broken, n_resamples=2, seed=0)

    # a dataset where collinearity breaks only through one special row:
    # resamples that miss it get redrawn and counted
    m = a.copy()
    m[0] = a[0] + 50.0
    fragile = MediationData(y=y, a=a, m=m[:, None], c=np.ones((n, 1)))
    for seed in range(200):
        idx = np.array([
            np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(i,))
            ).integers(0, n, size=n)
            for i in range(4)
        ])
        if any(0 not in row for row in idx):
            plan = bootstrap_moments(fragile, n_resamples=4, seed=seed)
            assert plan.n_redraws >= 1
            assert len(plan.moments) == 4
            # the singular resamples took the exact path, which redrew each
            # until its draw held the special row
            assert plan.n_exact >= 1
            expected_redraws = 0
            for i in range(4):
                gen = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                while 0 not in gen.integers(0, n, size=n):
                    expected_redraws += 1
            assert plan.n_redraws == expected_redraws
            # the replayed rows are the draws the plan fitted: each holds the
            # special row, and the exact resamples refit to their moments
            for i in range(4):
                rows = plan.rows(i)
                assert 0 in rows
                if plan.exact[i]:
                    ref = fit_observed(fragile.subset(rows))
                    for f in fields(MediationMoments):
                        assert np.array_equal(getattr(plan.moments[i], f.name),
                                              getattr(ref, f.name)), f.name
            break
    else:
        pytest.fail("no seed produced a resample missing the special row")

    # a well-conditioned design never leaves the Gram path
    plan = bootstrap_moments(make_data(rng, n=80, p=2, q=2), n_resamples=64, seed=1)
    assert plan.n_exact == 0 and plan.n_redraws == 0


def test_resamples_with_a_constant_exposure_are_redrawn():
    # about one resample in twenty draws none of the three exposed rows; its
    # exposure is constant, and a constant column is singular, not data
    data = rare_exposure_data()
    plan = bootstrap_moments(data, n_resamples=400, seed=5)
    assert plan.n_redraws >= 1
    for i in range(plan.n_resamples):
        rows = plan.rows(i)
        assert np.ptp(data.a[rows]) > 0.0
        if plan.exact[i]:
            ref = fit_observed(data.subset(rows))
            assert plan.moments[i].theta1_obs == ref.theta1_obs
    # every redrawn resample had drawn a constant exposure
    for i in np.flatnonzero(plan.redraws):
        gen = np.random.default_rng(np.random.SeedSequence(entropy=5, spawn_key=(int(i),)))
        for _ in range(plan.redraws[i]):
            assert np.ptp(data.a[gen.integers(0, data.n, size=data.n)]) == 0.0
    assert np.all(np.isfinite(plan.moments.theta1_obs))
    assert np.std(plan.moments.theta1_obs, ddof=1) < 1.0


def test_plan_holds_no_index_matrix(rng):
    # the plan keeps per-resample redraw counts and replays rows on demand,
    # so no array it holds grows with n * B
    n, b = 20_000, 64
    data = make_data(rng, n=n, p=1, q=1)
    plan = bootstrap_moments(data, n_resamples=b, seed=3)
    held = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    held += [getattr(plan.moments, f.name) for f in fields(MediationMoments)]
    assert max(np.size(v) for v in held) < n * b
    assert plan.rows(5).shape == (n,)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def test_indexing_slices_every_field_bitwise(rng):
    data = make_data(rng, n=150, p=2, q=2)
    plan = bootstrap_moments(data, n_resamples=12, seed=3)
    for stacked, i in ((plan.moments, 4), (plan.moments, -1),
                       (plan.moments, slice(2, 5)), (fit_observed(data), None)):
        got = stacked[i]
        assert type(got) is MediationMoments
        for f in fields(MediationMoments):
            want = getattr(stacked, f.name)
            if f.name in _RESAMPLED:
                want = want[i]
            assert type(getattr(got, f.name)) is type(want), f.name
            assert _bits(getattr(got, f.name)) == _bits(want), f.name


def test_bootstrap_se_values_match_rebuilt_resamples(rng):
    # each resample rebuilt through the dataclass constructor, as indexing
    # did before it sliced the fields in place
    data = make_data(rng, n=150, p=2, q=2)
    plan = bootstrap_moments(data, n_resamples=40, seed=5)
    s = NaturalSensitivity(r_y=0.2, r_m=np.array([0.1, -0.2]), r_a=0.15)
    rebuilt = [replace(plan.moments, **{name: getattr(plan.moments, name)[i]
                                        for name in _RESAMPLED})
               for i in range(plan.n_resamples)]
    for estimator in (observed_indirect, lambda mm: direct_adjusted(mm, s),
                      lambda mm: indirect_adjusted_product(mm, s)):
        expected = np.array([estimator(mm) for mm in rebuilt])
        assert _bits(bootstrap_se(plan, estimator).values) == _bits(expected)
