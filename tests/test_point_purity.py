"""Every search value is a function of its point alone.

A sweep drops its later grid points once a point's best value so far
crosses the threshold, and the point's final value must then stay at or
below that bound. So no per-point value may depend on the other rows
evaluated beside it: each row's value in a batch must equal, bit for bit,
its value in any contiguous sub-batch. A BLAS product breaks this, since
its blocking, and with it the rounding of a row, follows the batch's shape.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bksens.benchmarking import BenchmarkSpec, _leave_j_box, prepare_benchmark_stacks
from bksens.inference import bootstrap_moments
from bksens.mediation import fit_observed
from bksens.robustness import _box_for, _build_objective

from conftest import make_data

RHOS = (0.05, 0.3, 0.7, 0.95)
DELTAS = (0.5, 1.0, 4.0)


def _bits(values):
    """The values' bit patterns, every NaN as one."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


def _batch(box, local, k=300):
    """The box's candidates followed by k points drawn inside it, unpacked."""
    space = box.space
    if not space.lower:
        return box.candidates
    x = local.uniform(space.lower, space.upper, size=(k, len(space.lower)))
    return tuple(np.concatenate(col) for col in zip(box.candidates, box.unpack(x)))


def _assert_rows_pure(value_fn, args, local):
    whole = _bits(value_fn(*args))
    k = len(whole)
    cuts = [(i, i + 1) for i in range(k)]
    for _ in range(12):
        lo = int(local.integers(0, k))
        cuts.append((lo, min(k, lo + int(local.integers(2, 65)))))
    for lo, hi in cuts:
        part = _bits(value_fn(*(a[lo:hi] for a in args)))
        assert np.array_equal(part, whole[lo:hi]), (lo, hi)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(p=st.integers(0, 3), q=st.integers(1, 4),
       kind=st.sampled_from(["direct", "indirect"]),
       mode=st.sampled_from(["scalar_u", "vector_u"]), randomized=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_every_row_value_is_its_value_alone(p, q, kind, mode, randomized, seed):
    local = np.random.default_rng(seed)
    data = make_data(local, n=80, p=p, q=q)
    plan = bootstrap_moments(data, n_resamples=30, seed=seed % 1000)
    obj = _build_objective(fit_observed(data), plan, kind, mode)
    for rho in RHOS:
        args = _batch(_box_for(obj, mode, rho, randomized), local)
        _assert_rows_pure(obj.t_values, args, local)
        _assert_rows_pure(obj.point_estimates, args, local)
    if p == 0:
        return
    j = int(local.integers(0, p))
    stacks = prepare_benchmark_stacks(data, j, plan)
    for delta in DELTAS:
        spec = BenchmarkSpec(j=j, k_a_bound=0.0 if randomized else delta,
                             k_m_bound=delta, k_y_bound=delta)
        args = _batch(_leave_j_box(stacks.bm, spec, q), local)
        _assert_rows_pure(stacks.estimates[kind], args, local)
        _assert_rows_pure(stacks.t_stats[kind], args, local)

