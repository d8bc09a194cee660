"""The batched Gram path of the bootstrap against the exact per-resample fits.

Every resample the plan fits from its Gram must reproduce ``fit_observed``
and ``benchmark_moments`` on the resample's rows; resamples near a threshold
must take the exact path, so its errors and redraws are unchanged.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bksens.benchmarking import benchmark_moments, prepare_benchmark_stacks
from bksens.errors import RankDeficient
from bksens.inference import bootstrap_moments, resample_rng
from bksens.mediation import MediationData, MediationMoments, fit_observed

from conftest import make_data

TOL = 1e-10


def _rel_err(actual, expected) -> float:
    """Largest absolute difference relative to the largest entry."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    diff = np.max(np.abs(actual - expected))
    return float(diff and diff / np.max(np.abs(expected)))


def _anchor_vector(r_a, r_m, r_y) -> np.ndarray:
    return np.concatenate([[r_a], np.atleast_1d(r_m), [r_y]])


def _transformed(data: MediationData, shifts, scales) -> MediationData:
    c = data.c_user * scales + shifts
    return MediationData.from_arrays(y=data.y, a=data.a, m=data.m, c=c)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(0, 3), q=st.integers(1, 3),
       n=st.integers(30, 400), data=st.data())
def test_gram_path_matches_exact_fits(seed, p, q, n, data):
    rng = np.random.default_rng(seed)
    base = make_data(rng, n=n, p=p, q=q)
    if p:
        shifts = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=p,
                                             max_size=p)))
        scales = 10.0 ** np.array(data.draw(st.lists(st.floats(-3.0, 6.0),
                                                     min_size=p, max_size=p)))
        base = _transformed(base, shifts, scales)
    plan = bootstrap_moments(base, n_resamples=20, seed=seed % 1000)
    assert plan.n_exact < plan.n_resamples
    for i, mm in enumerate(plan.moments):
        ref = fit_observed(base.subset(plan.indices[i]))
        for f in fields(MediationMoments):
            err = _rel_err(getattr(mm, f.name), getattr(ref, f.name))
            assert err < TOL, f"resample {i}, {f.name}: {err:.2e}"
    for j in range(p):
        stacks = prepare_benchmark_stacks(base, j, plan)
        anc = stacks.anchors
        for i, idx in enumerate(plan.indices):
            bm = benchmark_moments(base.subset(idx), j)
            err = _rel_err(_anchor_vector(anc.a[i], anc.m[i], anc.y[i]),
                           _anchor_vector(bm.r_a_cj, bm.r_m_cj, bm.r_y_cj))
            assert err < TOL, f"resample {i}, covariate {j} anchors: {err:.2e}"
            err = _rel_err(anc.mix[i], bm.mix_leave_j)
            assert err < TOL, f"resample {i}, covariate {j} mixing block: {err:.2e}"


def test_constant_covariate_in_a_resample_raises_rank_deficient(rng):
    # a binary covariate with a single 1: resamples that miss its row have a
    # constant covariate, and the first such resample must raise as
    # fit_observed does on its rows
    n = 40
    base = make_data(rng, n=n, p=1, q=1)
    flag = np.zeros(n)
    flag[7] = 1.0
    data = MediationData.from_arrays(y=base.y, a=base.a, m=base.m,
                                     c=np.column_stack([base.c_user, flag]))
    for seed in range(100):
        first = resample_rng(seed, 0).integers(0, n, size=n)
        if 7 not in first:
            break
    with pytest.raises(RankDeficient):
        fit_observed(data.subset(first))
    with pytest.raises(RankDeficient):
        bootstrap_moments(data, n_resamples=3, seed=seed)


def test_shifted_rescaled_covariate_reproduces_effects_and_anchors(rng):
    base = make_data(rng, n=200, p=2, q=2)
    shifted_col = 1e6 + 1e-3 * base.c_user[:, 0]
    shifted = MediationData.from_arrays(
        y=base.y, a=base.a, m=base.m,
        c=np.column_stack([shifted_col, base.c_user[:, 1]]))
    # the unshifted column carrying exactly the information of the stored one
    # (the subtraction is exact), so only invariance is tested
    unshifted = MediationData.from_arrays(
        y=base.y, a=base.a, m=base.m,
        c=np.column_stack([(shifted_col - 1e6) * 1e3, base.c_user[:, 1]]))
    ref, got = fit_observed(unshifted), fit_observed(shifted)
    for f in fields(MediationMoments):
        assert _rel_err(getattr(got, f.name), getattr(ref, f.name)) < 1e-8, f.name
    for j in range(2):
        bm_ref, bm = benchmark_moments(unshifted, j), benchmark_moments(shifted, j)
        assert _rel_err(_anchor_vector(bm.r_a_cj, bm.r_m_cj, bm.r_y_cj),
                        _anchor_vector(bm_ref.r_a_cj, bm_ref.r_m_cj,
                                       bm_ref.r_y_cj)) < 1e-8
        assert _rel_err(bm.mix_leave_j, bm_ref.mix_leave_j) < 1e-8
    plan_ref = bootstrap_moments(unshifted, n_resamples=30, seed=4)
    plan = bootstrap_moments(shifted, n_resamples=30, seed=4)
    assert plan.n_exact == plan_ref.n_exact == 0
    for mm, mm_ref in zip(plan.moments, plan_ref.moments):
        assert _rel_err(mm.theta1_obs, mm_ref.theta1_obs) < 1e-8
        assert _rel_err(mm.beta1_obs, mm_ref.beta1_obs) < 1e-8
