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

from bksens.benchmarking import (BenchmarkMoments, _leave_j_anchors, benchmark_moments,
                                  prepare_benchmark_stacks)
from bksens.errors import (NegativeEigenvalue, RankDeficient, SingularCovariance,
                           TooManySingularResamples)
from bksens.inference import (GRAM_MARGIN, ROW_BLOCK, GramBasis, bootstrap_moments,
                              resample_rng)
from bksens.linalg import add_intercept, r_matrix, schur
from bksens.mediation import (
    MediationData,
    MediationMoments,
    fit_observed,
    moments_from_cov,
    observed_indirect,
)

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
            err = _rel_err(_anchor_vector(anc.r_a_cj[i], anc.r_m_cj[i], anc.r_y_cj[i]),
                           _anchor_vector(bm.r_a_cj, bm.r_m_cj, bm.r_y_cj))
            assert err < TOL, f"resample {i}, covariate {j} anchors: {err:.2e}"
            err = _rel_err(anc.mix_leave_j[i], bm.mix_leave_j)
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
    # the unshifted column carrying exactly the information of the stored one
    # (the subtraction is exact), so only invariance is tested
    unshifted = MediationData.from_arrays(
        y=base.y, a=base.a, m=base.m,
        c=np.column_stack([(shifted_col - 1e6) * 1e3, base.c_user[:, 1]]))
    ref = fit_observed(unshifted)
    bms_ref = [benchmark_moments(unshifted, j) for j in range(2)]
    plan_ref = bootstrap_moments(unshifted, n_resamples=30, seed=4)
    assert plan_ref.n_exact == 0
    ancs_ref = [prepare_benchmark_stacks(unshifted, j, plan_ref).anchors
                for j in range(2)]
    # the outcome and the exposure in other units as well: the effects scale
    # by s_y / s_a, the anchors and the certified resamples do not change
    for s_y, s_a in ((1.0, 1.0), (1e6, 1.0), (1e-6, 1.0), (1.0, 1e-6), (1.0, 1e5)):
        shifted = MediationData.from_arrays(
            y=s_y * base.y, a=s_a * base.a, m=base.m,
            c=np.column_stack([shifted_col, base.c_user[:, 1]]))
        got = fit_observed(shifted)
        if s_y == s_a == 1.0:
            for f in fields(MediationMoments):
                assert _rel_err(getattr(got, f.name), getattr(ref, f.name)) < 1e-8, f.name
        ratio = s_y / s_a
        assert _rel_err(got.theta1_obs, ratio * ref.theta1_obs) < 1e-8
        assert _rel_err(observed_indirect(got), ratio * observed_indirect(ref)) < 1e-8
        plan = bootstrap_moments(shifted, n_resamples=30, seed=4)
        assert plan.n_exact == 0, (s_y, s_a)
        for mm, mm_ref in zip(plan.moments, plan_ref.moments):
            assert _rel_err(mm.theta1_obs, ratio * mm_ref.theta1_obs) < 1e-8
            assert _rel_err(mm.beta1_obs, mm_ref.beta1_obs / s_a) < 1e-8
        for j in range(2):
            bm, bm_ref = benchmark_moments(shifted, j), bms_ref[j]
            assert _rel_err(_anchor_vector(bm.r_a_cj, bm.r_m_cj, bm.r_y_cj),
                            _anchor_vector(bm_ref.r_a_cj, bm_ref.r_m_cj,
                                           bm_ref.r_y_cj)) < 1e-8
            assert _rel_err(bm.mix_leave_j, bm_ref.mix_leave_j) < 1e-8
            anc = prepare_benchmark_stacks(shifted, j, plan).anchors
            for name in ("r_a_cj", "r_m_cj", "r_y_cj", "mix_leave_j"):
                assert _rel_err(getattr(anc, name), getattr(ancs_ref[j], name)) < 1e-8


@pytest.mark.parametrize("case", ["a = c_0", "a = 5 + 1e6 c_0", "y = c b", "y = 3 c_0"])
def test_response_in_the_covariate_span_raises_singular_covariance(rng, case):
    # an exposure or outcome that is a linear combination of the covariates
    # leaves only rounding noise once they are regressed out; the unit-free
    # singularity checks must not take that noise for a variable
    base = make_data(rng, n=200, p=2, q=2)
    c = base.c_user
    y, a = {
        "a = c_0": (base.y, c[:, 0]),
        "a = 5 + 1e6 c_0": (base.y, 5.0 + 1e6 * c[:, 0]),
        "y = c b": (c @ np.array([1.0, 2.0]), base.a),
        "y = 3 c_0": (3.0 * c[:, 0], base.a),
    }[case]
    data = MediationData.from_arrays(y=y, a=a, m=base.m, c=c)
    with pytest.raises(SingularCovariance):
        fit_observed(data)
    with pytest.raises(TooManySingularResamples):
        bootstrap_moments(data, n_resamples=2, seed=1)
    for j in range(2):
        # an exposure in the covariates' span makes the anchors' design
        # rank deficient before any covariance is formed
        with pytest.raises(RankDeficient if case.startswith("a") else SingularCovariance):
            benchmark_moments(data, j)
    with pytest.raises(SingularCovariance):
        r_matrix(y, a, add_intercept(c))


def _unbatched(fn, rows):
    """fn on each row alone: its result, or None where it raises."""
    out = []
    for row in rows:
        try:
            out.append(fn(row))
        except (SingularCovariance, NegativeEigenvalue):
            out.append(None)
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.integers(1, 3), q=st.integers(1, 3),
       kinds=st.lists(st.sampled_from(["fine", "zero exposure", "duplicated mediator"]),
                      min_size=1, max_size=8))
def test_batched_checks_mark_exactly_the_failing_rows(seed, p, q, kinds):
    # covariances of (c, a, m, y): well-conditioned rows beside exactly
    # singular ones (an exposure without variance, or with q >= 2 two equal
    # mediators); the batched calls must mark the rows the unbatched calls
    # raise on and agree with them elsewhere
    rng = np.random.default_rng(seed)
    d = p + q + 2
    stack = []
    for kind in kinds:
        x = rng.normal(size=(4 * d, d)) @ rng.normal(size=(d, d))
        if kind == "zero exposure" or (kind != "fine" and q == 1):
            x[:, p] = 0.0
        elif kind == "duplicated mediator":
            x[:, p + 2] = x[:, p + 1]
        stack.append(x.T @ x / (4 * d - 1))
    stack = np.array(stack)
    j = int(rng.integers(p))

    def anchors(cov, bad=None):
        if bad is None:
            return _leave_j_anchors(lambda k, g: schur(cov, k, g), j, p, q, GRAM_MARGIN)
        # a marked row's later blocks may be singular; the identity keeps
        # their solves defined
        eye = np.eye(d)
        return _leave_j_anchors(
            lambda k, g: schur(np.where(bad[:, None, None], eye, cov), k, g),
            j, p, q, GRAM_MARGIN, bad=bad)

    response = [p + q + 1, p, *range(p + 1, p + q + 1)]
    s = schur(stack, response, range(p))
    cases = (
        (lambda cov: moments_from_cov(cov, 100, p, q, GRAM_MARGIN), s,
         lambda cov, bad: moments_from_cov(cov, 100, p, q, GRAM_MARGIN, bad=bad),
         MediationMoments),
        (anchors, stack, anchors, BenchmarkMoments),
    )
    for single, inputs, batched, cls in cases:
        expected = _unbatched(single, inputs)
        bad = np.zeros(len(kinds), dtype=bool)
        with np.errstate(invalid="ignore", divide="ignore"):
            got = batched(inputs, bad)
        assert bad.tolist() == [e is None for e in expected]
        assert all(bad[i] for i, kind in enumerate(kinds) if kind != "fine")
        for i, ref in enumerate(expected):
            if ref is None:
                continue
            for f in fields(cls):
                if f.name in ("n", "p_user", "q", "j"):
                    continue
                err = _rel_err(getattr(got, f.name)[i], getattr(ref, f.name))
                assert err < 1e-12, f"row {i}, {f.name}: {err:.2e}"


@pytest.mark.parametrize("b", [1, 8, 32])
def test_grams_match_the_per_block_product_bitwise(b):
    # the reused count and product buffers change no bit of the Grams: the
    # per-block product of float counts and the fancy-indexed column
    # products, with a short last block
    n = 2 * ROW_BLOCK + 123
    data = make_data(np.random.default_rng(b), n=n, p=3, q=2)
    basis = GramBasis.of(data)
    counts = np.stack([np.bincount(resample_rng(7, i).integers(0, n, size=n), minlength=n)
                       for i in range(b)]).astype(np.int32)
    d = basis.z.shape[1]
    iu, ju = np.triu_indices(d)
    weights = counts.astype(float)
    flat = np.zeros((b, iu.size))
    for r0 in range(0, n, ROW_BLOCK):
        zb = basis.z[r0:r0 + ROW_BLOCK]
        flat += weights[:, r0:r0 + ROW_BLOCK] @ (zb[:, iu] * zb[:, ju])
    expected = np.empty((b, d, d))
    expected[:, iu, ju] = flat
    expected[:, ju, iu] = flat
    assert basis.grams(counts).tobytes() == expected.tobytes()
