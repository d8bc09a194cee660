"""The public product-method effects against the paper-form reference, and
the error paths of the adjusted-effect functions.

``bksens.mediation`` evaluates every product-method effect through one
coefficient form in the phi pairs; ``_paper_form_reference`` writes the same
effects out in the natural parameters. The two agree to rounding error at
every setting inside the unit balls, and exactly at zero.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _paper_form_reference as ref
from bksens.errors import BoundaryR, DegenerateObservedR, DimensionMismatch
from bksens.mediation import (
    NaturalSensitivity,
    adjusted_mediator_paths,
    direct_adjusted,
    direct_randomized,
    fit_observed,
    indirect_adjusted_difference,
    indirect_adjusted_product,
    indirect_randomized,
    observed_indirect,
    r_aumc_from_natural,
)

from conftest import make_data, random_sensitivity


def _close(got, want) -> bool:
    return bool(np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))))


def _pairs(mm, s):
    """(public value, reference value) for every function at setting s."""
    paths, ref_paths = adjusted_mediator_paths(mm, s), ref.adjusted_mediator_paths(mm, s)
    return [
        (direct_adjusted(mm, s), ref.direct_adjusted(mm, s)),
        (indirect_adjusted_product(mm, s), ref.indirect_adjusted_product(mm, s)),
        (paths[0], ref_paths[0]),
        (paths[1], ref_paths[1]),
        (direct_randomized(mm, s.r_y, s.r_m), ref.direct_randomized(mm, s.r_y, s.r_m)),
        (indirect_randomized(mm, s.r_y, s.r_m), ref.indirect_randomized(mm, s.r_y, s.r_m)),
    ]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), q=st.integers(1, 4), p=st.integers(0, 3))
def test_public_effects_match_paper_form(seed, q, p):
    rng = np.random.default_rng(seed)
    mm = fit_observed(make_data(rng, n=60, p=p, q=q))
    drawn = [random_sensitivity(rng, q, radius=0.95) for _ in range(4)]
    zero = NaturalSensitivity.zeros(q)
    for s in [*drawn, NaturalSensitivity(drawn[0].r_y, drawn[0].r_m, 0.0), zero]:
        for got, want in _pairs(mm, s):
            assert _close(got, want), (s, got, want)

    # exact at zero: the form is s0 + 0 + 0 there
    assert direct_adjusted(mm, zero) == ref.direct_adjusted(mm, zero) == mm.theta1_obs
    assert indirect_adjusted_product(mm, zero) == ref.indirect_adjusted_product(mm, zero)
    assert direct_randomized(mm, 0.0, zero.r_m) == ref.direct_randomized(mm, 0.0, zero.r_m)
    for got, want in zip(adjusted_mediator_paths(mm, zero),
                         ref.adjusted_mediator_paths(mm, zero)):
        assert np.array_equal(got, want)
    # the reference's randomized indirect effect at zero is theta3 @ beta1, a
    # second expression for the observed indirect effect, which may differ
    # from it in the last bit; the form has only the one
    assert indirect_randomized(mm, 0.0, zero.r_m) == observed_indirect(mm)


@pytest.fixture
def moments(rng):
    return fit_observed(make_data(rng, n=80, p=1, q=2))


def test_degenerate_observed_r_raises(moments, rng):
    # move the observed mediator-exposure R onto the unit sphere
    unit = moments.r_m_a_c / np.linalg.norm(moments.r_m_a_c)
    bad = dataclasses.replace(moments, r_m_a_c=unit)
    s = random_sensitivity(rng, 2, radius=0.5)
    for call in (lambda: direct_adjusted(bad, s),
                 lambda: direct_randomized(bad, s.r_y, s.r_m),
                 lambda: r_aumc_from_natural(bad, s),
                 lambda: indirect_adjusted_difference(bad, s)):
        with pytest.raises(DegenerateObservedR):
            call()
    # the dimension check comes first
    with pytest.raises(DimensionMismatch):
        direct_adjusted(bad, NaturalSensitivity(0.2, np.full(3, 0.1), 0.2))


def test_wrong_length_mediator_parameter_raises(moments):
    r_m = np.full(3, 0.1)
    for call in (lambda: indirect_adjusted_product(moments, NaturalSensitivity(0.2, r_m, 0.2)),
                 lambda: indirect_randomized(moments, 0.2, r_m),
                 lambda: direct_randomized(moments, 0.2, r_m)):
        with pytest.raises(DimensionMismatch):
            call()


def test_randomized_pair_checks_the_boundary_first(moments):
    bad = dataclasses.replace(moments, r_m_a_c=moments.r_m_a_c / np.linalg.norm(moments.r_m_a_c))
    for r_y in (1.0, -1.0):
        for fn in (direct_randomized, indirect_randomized):
            with pytest.raises(BoundaryR):
                fn(moments, r_y, np.full(2, 0.1))
            with pytest.raises(BoundaryR):   # before the length and degeneracy checks
                fn(bad, r_y, np.full(3, 0.1))
