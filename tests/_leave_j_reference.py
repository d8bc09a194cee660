"""Reference leave-one-out conversion for the tests: the explicit
leave-j -> natural conversion, kept as it was written out, with the natural
r_m built per candidate and resample. ``bksens.benchmarking`` now splits it
into one scalar chain, shared by its search kernel (projected r_m) and its
witnesses (explicit r_m).

The benchmarking objectives must agree with ``reference_convert_leave_j``
followed by ``mediation._phis`` and the coefficient form to rounding error,
and mark exactly the same candidates infeasible.
"""

from __future__ import annotations

import numpy as np

from bksens.benchmarking import R_CLAMP, BenchmarkMoments


def reference_convert_leave_j(anc: BenchmarkMoments, r_a_lj, r_m_lj, r_y_lj):
    """Leave-one-covariate-out parameters -> natural parameters.

    Takes anchors with a leading axis of B (``_anchors``) and k candidates
    of shapes (k,), (k, q), (k,); returns (r_y, r_m, r_a) of shapes (k, B),
    (k, B, q), (k, B) plus a (k,) feasibility mask. A candidate is
    infeasible when, on any resample, an intermediate quantity leaves its
    open ball; a NaN passes these tests. Infeasible rows hold unspecified
    values, so call under ``np.errstate``.
    """
    den_a2 = 1.0 - anc.r_a_cj ** 2
    nm_cj2 = (anc.r_m_cj * anc.r_m_cj).sum(axis=-1)
    den_y2 = 1.0 - anc.r_y_cj ** 2
    nm_lj2 = np.matmul(r_m_lj[:, None, :], r_m_lj[:, :, None])[:, 0, 0]
    ra = r_a_lj[:, None]
    r_cj_u_ac = -(anc.r_a_cj * ra) / np.sqrt((1.0 - ra ** 2) * den_a2)
    r_a_nat = ra / np.sqrt(den_a2)
    num_m = r_m_lj[:, None, :] - anc.r_m_cj * r_cj_u_ac[..., None]
    r_m_nat = np.einsum("bij,kbj->kbi", anc.mix_leave_j, num_m) \
        / np.sqrt(1.0 - r_cj_u_ac ** 2)[..., None]
    r_cj_u_amc = (r_cj_u_ac - np.matmul(anc.r_m_cj, r_m_lj[:, :, None])[..., 0]) \
        / np.sqrt((1.0 - nm_cj2) * (1.0 - nm_lj2[:, None]))
    r_y_nat = (r_y_lj[:, None] - anc.r_y_cj * r_cj_u_amc) / np.sqrt(
        den_y2 * (1.0 - r_cj_u_amc ** 2))
    outside = ((np.abs(r_cj_u_ac) >= R_CLAMP) | (np.abs(r_a_nat) >= R_CLAMP)
               | ((r_m_nat * r_m_nat).sum(axis=-1) >= R_CLAMP ** 2)
               | (np.abs(r_cj_u_amc) >= R_CLAMP) | (np.abs(r_y_nat) >= R_CLAMP))
    ok = ~(outside.any(axis=-1) | (np.abs(r_a_lj) >= 1.0)
           | (np.abs(r_y_lj) >= 1.0) | (np.sqrt(nm_lj2) >= 1.0))
    return r_y_nat, r_m_nat, r_a_nat, ok
