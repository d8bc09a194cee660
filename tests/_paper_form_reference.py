"""Reference paper-form adjusted effects for the tests: the natural-parameter
formulas that ``bksens.mediation`` now evaluates through the coefficient
form, kept as they were written out, zero special cases included.

Each public product-method function must agree with its counterpart here to
rounding error at every sensitivity setting.
"""

from __future__ import annotations

import numpy as np

from bksens.errors import BoundaryR, DegenerateObservedR, DimensionMismatch
from bksens.mediation import (
    BOUNDARY_TOL,
    MediationMoments,
    NaturalSensitivity,
    observed_indirect,
)


def _odds(r: float) -> float:
    return r / np.sqrt(1.0 - r * r)


def _check_sensitivity(mm: MediationMoments, s: NaturalSensitivity) -> None:
    if s.r_m.size != mm.q:
        raise DimensionMismatch(f"r_m has {s.r_m.size} entries, expected q={mm.q}")


def r_aumc_odds(mm: MediationMoments, s: NaturalSensitivity) -> float:
    """Odds form r/sqrt(1-r^2) of the exposure-confounder partial correlation
    after additionally conditioning on the mediators."""
    _check_sensitivity(mm, s)
    nr_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    if nr_hat2 >= 1.0 - BOUNDARY_TOL:
        raise DegenerateObservedR("observed mediator-exposure R has norm too close to 1")
    nrm2 = float(s.r_m @ s.r_m)
    term1 = (s.r_a * np.sqrt(1.0 - nr_hat2)
             / (np.sqrt(1.0 - s.r_a ** 2) * np.sqrt(1.0 - nrm2)))
    term2 = (float(mm.r_m_a_c @ mm.mix_c_ac @ s.r_m)
             / (np.sqrt(1.0 - nr_hat2) * np.sqrt(1.0 - nrm2)))
    return term1 - term2


def direct_adjusted(mm: MediationMoments, s: NaturalSensitivity) -> float:
    if s.r_y == 0.0 and s.r_a == 0.0 and not s.r_m.any():
        return mm.theta1_obs
    scale = np.sqrt(mm.var_y_res_amc / mm.var_a_res_mc)
    return mm.theta1_obs - s.r_y * r_aumc_odds(mm, s) * scale


def adjusted_mediator_paths(mm: MediationMoments, s: NaturalSensitivity):
    _check_sensitivity(mm, s)
    nrm2 = float(s.r_m @ s.r_m)
    beta1 = mm.beta1_obs - (_odds(s.r_a) / np.sqrt(mm.var_a_res_c)) * (mm.cov_m_res_ac_sqrt @ s.r_m)
    theta3 = mm.theta3_obs - (s.r_y * np.sqrt(mm.var_y_res_amc) / np.sqrt(1.0 - nrm2)) * (
        mm.cov_m_res_ac_inv_sqrt @ s.r_m)
    return beta1, theta3


def indirect_adjusted_product(mm: MediationMoments, s: NaturalSensitivity) -> float:
    if s.r_y == 0.0 and s.r_a == 0.0 and not s.r_m.any():
        return observed_indirect(mm)
    beta1, theta3 = adjusted_mediator_paths(mm, s)
    return float(theta3 @ beta1)


def direct_randomized(mm: MediationMoments, r_y: float, r_m) -> float:
    r_m = np.atleast_1d(np.asarray(r_m, dtype=float))
    if abs(r_y) >= 1.0 or np.linalg.norm(r_m) >= 1.0:
        raise BoundaryR("sensitivity parameters must lie strictly inside the unit balls")
    if r_m.size != mm.q:
        raise DimensionMismatch(f"r_m has {r_m.size} entries, expected q={mm.q}")
    nr_hat2 = float(mm.r_m_a_c @ mm.r_m_a_c)
    if nr_hat2 >= 1.0 - BOUNDARY_TOL:
        raise DegenerateObservedR("observed mediator-exposure R has norm too close to 1")
    nrm2 = float(r_m @ r_m)
    scale = np.sqrt(mm.var_y_res_amc / mm.var_a_res_mc)
    inner = float(mm.r_m_a_c @ mm.mix_c_ac @ r_m)
    return mm.theta1_obs + r_y * scale * inner / (
        np.sqrt(1.0 - nr_hat2) * np.sqrt(1.0 - nrm2))


def indirect_randomized(mm: MediationMoments, r_y: float, r_m) -> float:
    s = NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=0.0)
    _, theta3 = adjusted_mediator_paths(mm, s)
    return float(theta3 @ mm.beta1_obs)
