"""Shared fixtures and independent oracles for the test suite.

The oracle helpers deliberately go through raw numpy.linalg calls rather
than the package's own linear algebra, so agreement between an adjusted
estimator and its long-regression counterpart is a genuine cross-check.
"""

import numpy as np
import pytest

from bksens.mediation import MediationData, NaturalSensitivity


def make_data(rng, n=120, p=2, q=2, confounded=True):
    """Synthetic mediation dataset with nontrivial observed effects."""
    c = rng.normal(size=(n, p)) if p > 0 else None
    base = c @ rng.normal(scale=0.5, size=p) if p > 0 else 0.0
    a = base + rng.normal(size=n)
    load = rng.normal(scale=0.7, size=q)
    m = np.outer(a, load) + (c @ rng.normal(scale=0.3, size=(p, q)) if p > 0 else 0.0)
    m = m + rng.normal(size=(n, q))
    theta3 = rng.normal(scale=0.8, size=q)
    y = 0.8 * a + m @ theta3 + base + rng.normal(size=n)
    if confounded:
        hidden = rng.normal(size=n)
        y = y + 0.5 * hidden
        m = m + 0.3 * hidden[:, None]
    return MediationData.from_arrays(y=y, a=a, m=m, c=c)


def rare_exposure_data():
    """A z-scored binary exposure with 3 of 60 rows exposed: about one
    resample in twenty draws no exposed row, so its exposure is constant."""
    rng = np.random.default_rng(3)
    c = rng.normal(size=60)
    b = np.zeros(60)
    b[:3] = 1.0
    a = (b - b.mean()) / b.std(ddof=1)
    m = 0.5 * a + rng.normal(size=60)
    y = 0.3 * a + 0.4 * m + rng.normal(size=60)
    return MediationData.from_arrays(y=y, a=a, m=m[:, None], c=c[:, None])


def random_sensitivity(rng, q, radius=0.9):
    r_y = radius * rng.uniform(-1, 1)
    r_a = radius * rng.uniform(-1, 1)
    direction = rng.normal(size=q)
    direction /= np.linalg.norm(direction)
    r_m = radius * rng.uniform(0, 1) * direction
    return NaturalSensitivity(r_y=r_y, r_m=r_m, r_a=r_a)


def lstsq_coef(response, design):
    """Plain least-squares coefficients, the reference implementation."""
    coef, *_ = np.linalg.lstsq(np.asarray(design, float),
                               np.asarray(response, float), rcond=None)
    return coef


def classical_se(response, design, col):
    """Classical (homoskedastic) SE of one coefficient via explicit inverse."""
    x = np.asarray(design, float)
    y = np.asarray(response, float).reshape(-1)
    n, k = x.shape
    coef = lstsq_coef(y, x)
    resid = y - x @ coef
    sigma2 = resid @ resid / (n - k)
    xtx_inv = np.linalg.inv(x.T @ x)
    return float(np.sqrt(sigma2 * xtx_inv[col, col]))


def long_design(data, u):
    """Design [a, m, c] with the confounder column appended."""
    return np.column_stack([data.a, data.m, data.c, u])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
