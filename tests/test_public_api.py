"""The package's public names and the signatures of the adjusted-effect
functions, pinned: a change to either must be made here on purpose."""

import inspect

import pytest

import bksens
from bksens import mediation

PUBLIC_NAMES = [
    "BenchmarkMoments", "BenchmarkResult", "BenchmarkSpec", "BkSensError",
    "BootstrapPlan", "ConfounderTarget", "EffectReport", "MediationData",
    "MediationMoments", "NaturalSensitivity", "OvbMoments", "RVReport",
    "S4Design", "adjust_scalar_u", "adjust_vector_u", "benchmark_moments",
    "benchmark_worst", "bootstrap_moments", "bootstrap_se",
    "construct_confounder", "construct_confounder_blocks", "cov_u_update",
    "critical_delta", "direct_adjusted", "direct_optimize", "direct_randomized",
    "direct_sample_classical", "effect_report", "fit_observed",
    "indirect_adjusted_difference", "indirect_adjusted_product",
    "indirect_randomized", "indirect_sample_classical", "min_t_direct",
    "min_t_indirect", "natural_from_benchmark", "observed_indirect", "ols_fit",
    "ovb_moments", "partial_r2", "r_matrix", "residualize", "robustness_value",
    "rv_estimate_only", "rv_ratio_study", "simulate_design", "sym_sqrt",
]

ON_MOMENTS = "(mm: 'MediationMoments', s: 'NaturalSensitivity') -> 'float'"
RANDOMIZED = "(mm: 'MediationMoments', r_y: 'float', r_m) -> 'float'"
SIGNATURES = {
    "direct_adjusted": ON_MOMENTS,
    "indirect_adjusted_product": ON_MOMENTS,
    "indirect_adjusted_difference": ON_MOMENTS,
    "direct_randomized": RANDOMIZED,
    "indirect_randomized": RANDOMIZED,
    "adjusted_mediator_paths": "(mm: 'MediationMoments', s: 'NaturalSensitivity')",
    "observed_indirect": "(mm: 'MediationMoments') -> 'float'",
    "r_aumc_from_natural": ON_MOMENTS,
    "r_yuac_from_natural": ON_MOMENTS,
}


def test_public_names_pinned():
    assert bksens.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(bksens, name), name


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_effect_function_signatures_pinned(name):
    assert str(inspect.signature(getattr(mediation, name))) == SIGNATURES[name]


def test_phi_map_still_importable_from_benchmarking():
    from bksens.benchmarking import _phis
    assert _phis is mediation._phis
