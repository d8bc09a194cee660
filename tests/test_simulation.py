import numpy as np
import pytest

from bksens.errors import RootFindFailed
from bksens.linalg import partial_r2
from bksens.simulation import (
    S4Design,
    design_scales,
    exposure_loadings,
    mediator_noise_cov,
    outcome_loadings,
    rv_ratio_study,
    simulate_design,
)


def test_noise_covariance_banded():
    sigma = mediator_noise_cov(4)
    assert sigma[0, 0] == 1.0
    assert sigma[0, 1] == 0.5
    assert sigma[0, 2] == 0.25
    assert sigma[1, 3] == 0.25
    assert np.allclose(sigma, sigma.T)


def test_loading_ramps():
    w1 = exposure_loadings(4)
    assert w1[0] == 0.0 and w1[-1] == 1.0
    assert np.allclose(np.diff(w1), 1.0 / 3.0)
    w2 = outcome_loadings(4)
    assert w2[0] == 1.0 and w2[-1] == -0.5
    assert np.allclose(np.diff(w2), -0.5)


def test_scales_hit_targets_closed_form():
    # independent closed forms: lam^2 s / (1 + lam^2 s)
    for dim in (2, 4, 6):
        sigma = mediator_noise_cov(dim)
        w1 = exposure_loadings(dim)
        w2 = outcome_loadings(dim)
        s_am = w1 @ np.linalg.solve(sigma, w1)
        s_ym = w2 @ sigma @ w2
        for target in (0.1, 0.3, 0.5, 0.7):
            lam1, lam2 = design_scales(S4Design(dim_m=dim, r2_am=target,
                                                r2_ym=target))
            got_am = lam1 ** 2 * s_am / (1 + lam1 ** 2 * s_am)
            got_ym = lam2 ** 2 * s_ym / (1 + lam2 ** 2 * s_ym)
            assert abs(got_am - target) < 1e-12
            assert abs(got_ym - target) < 1e-12


def test_zero_scale_gives_zero_r2_and_targets_validated():
    with pytest.raises(RootFindFailed):
        design_scales(S4Design(dim_m=2, r2_am=0.0, r2_ym=0.3))
    with pytest.raises(RootFindFailed):
        design_scales(S4Design(dim_m=2, r2_am=0.3, r2_ym=1.0))


def test_simulated_sample_r2_near_population_target(rng):
    design = S4Design(dim_m=2, r2_am=0.3, r2_ym=0.5, n=20_000, seed=5)
    data = simulate_design(design)
    ones = data.c
    sample_r2_am = partial_r2(data.a, data.m, ones)
    ac = np.column_stack([data.a, ones])
    sample_r2_ym = partial_r2(data.y, data.m, ac)
    assert abs(sample_r2_am - 0.3) < 0.02
    assert abs(sample_r2_ym - 0.5) < 0.02


def test_simulation_reproducible():
    d = S4Design(dim_m=2, r2_am=0.3, r2_ym=0.3, n=200, seed=42)
    a = simulate_design(d)
    b = simulate_design(d)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.m, b.m)


def test_rv_ratio_study_small():
    designs = [S4Design(dim_m=2, r2_am=0.3, r2_ym=0.3, n=300)]
    rows = rv_ratio_study(designs, replications=3, base_seed=1)
    row = rows[0]
    assert row.ratio <= 1.0 + 1e-12
    assert 0.0 < row.rv_vector <= row.rv_scalar <= 1.0
    assert all(v <= s + 1e-12 for v, s in zip(row.rv_vector_all, row.rv_scalar_all))


@pytest.mark.parametrize("replications", [0, -1])
def test_rv_ratio_study_needs_a_replication(replications):
    # with none the means are of empty lists: NaN RVs beside a ratio of 1
    with pytest.raises(ValueError, match="at least 1"):
        rv_ratio_study([S4Design(dim_m=2, r2_am=0.3, r2_ym=0.3)],
                       replications=replications)


def test_more_mediators_do_not_shrink_the_ratio():
    # directional claim: the vector/scalar ratio at four mediators is not
    # below the two-mediator ratio by more than the tolerance
    cells = [S4Design(dim_m=2, r2_am=0.3, r2_ym=0.3, n=400),
             S4Design(dim_m=4, r2_am=0.3, r2_ym=0.3, n=400)]
    rows = rv_ratio_study(cells, replications=4, base_seed=7)
    ratio2 = rows[0].ratio
    ratio4 = rows[1].ratio
    assert ratio4 >= ratio2 - 0.05
