"""Sensitivity analysis for Baron-Kenny mediation under unmeasured confounding.

Bias-adjusted direct and indirect effects under partial-correlation
sensitivity parameters, nonparametric-bootstrap inference, robustness values
via deterministic global optimization, formal benchmarking against observed
covariates, and an exact confounder-construction engine that certifies every
formula against a long regression.
"""

from importlib import import_module

# the public names of each submodule; a submodule is imported when one of
# its names is first looked up, so a CLI job loads only what its command calls
_EXPORTS = {
    "benchmarking": ("BenchmarkMoments", "BenchmarkResult", "BenchmarkSpec",
                     "benchmark_moments", "benchmark_worst", "critical_delta",
                     "natural_from_benchmark"),
    "confounders": ("ConfounderTarget", "construct_confounder",
                    "construct_confounder_blocks"),
    "errors": ("BkSensError",),
    "inference": ("BootstrapPlan", "bootstrap_moments", "bootstrap_se", "effect_report"),
    "linalg": ("partial_r2", "r_matrix"),
    "mediation": ("EffectReport", "MediationData", "MediationMoments",
                  "NaturalSensitivity", "direct_adjusted", "direct_randomized",
                  "direct_sample_classical", "fit_observed",
                  "indirect_adjusted_difference", "indirect_adjusted_product",
                  "indirect_randomized", "indirect_sample_classical",
                  "observed_indirect"),
    "optimize": ("direct_optimize",),
    "ovb": ("OvbMoments", "adjust_scalar_u", "adjust_vector_u", "cov_u_update",
            "ovb_moments"),
    "robustness": ("RVReport", "min_t_direct", "min_t_indirect", "robustness_value",
                   "rv_estimate_only"),
    "simulation": ("S4Design", "rv_ratio_study", "simulate_design"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
