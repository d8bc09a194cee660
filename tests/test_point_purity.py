"""Every search value is a function of its point alone.

A sweep drops its later grid points once a point's best value so far
crosses the threshold, and the point's final value must then stay at or
below that bound. So no per-point value may depend on the other rows
evaluated beside it: each row's value in a batch must equal, bit for bit,
its value in any contiguous sub-batch. A BLAS product breaks this, since
its blocking, and with it the rounding of a row, follows the batch's shape.
The leave-one-out objectives serve both effects in one call, so a row's
value must not depend on the other effect's rows either, nor on where they
fall in the batch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bksens.benchmarking import EFFECTS, BenchmarkSpec, prepare_benchmark_stacks
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
    return tuple(np.concatenate(col) for col in zip(box.candidates, box.args(x)))


def _assert_rows_pure(value_fn, args, local, singles=True):
    """Each row's bits in the batch ``args`` equal its bits in 12 random
    contiguous slices of 2-64 rows and, with ``singles``, alone."""
    whole = _bits(value_fn(*args))
    k = len(whole)
    cuts = [(i, i + 1) for i in range(k)] if singles else []
    for _ in range(12):
        lo = int(local.integers(0, k))
        cuts.append((lo, min(k, lo + int(local.integers(2, 65)))))
    for lo, hi in cuts:
        part = _bits(value_fn(*(a[lo:hi] for a in args)))
        assert np.array_equal(part, whole[lo:hi]), (lo, hi)
    return whole


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
        # one batch per effect, then both effects' rows shuffled together:
        # each row keeps the bits it has alone and in its one-effect batch
        batches = [_batch(stacks.box(spec, effect_kind), local) for effect_kind in EFFECTS]
        mixed = tuple(np.concatenate(col) for col in zip(*batches))
        order = local.permutation(len(mixed[0]))
        mixed = tuple(a[order] for a in mixed)
        assert len(np.unique(mixed[0][:64])) == len(EFFECTS)   # the first slices mix
        for values in (stacks.estimate, stacks.t_stat):
            alone = np.concatenate([_assert_rows_pure(values, args, local)
                                    for args in batches])
            together = _assert_rows_pure(values, mixed, local, singles=False)
            assert np.array_equal(together, alone[order])

