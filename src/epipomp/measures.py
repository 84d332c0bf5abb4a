"""Measurement-model building blocks on numpy alone, shared by the built-in models:

- normal, ``-z^2/2 - log(sqrt(2 pi)) - log(sd)`` with ``z = (x - mean)/sd``,
  summed in scipy's order so the values are scipy's to the last bit;
- log-normal reporting, the normal density of ``log(y + 1)`` around
  ``log(mean + 1)``.

The negative binomial, which needs ``scipy.special``, is in
:mod:`epipomp.nbinom`, so building model2 does not load it.
"""

from __future__ import annotations

import numpy as np

_LOG_SQRT_2PI = np.log(np.sqrt(2.0 * np.pi))


def norm_logpdf(x, mean, sd):
    """Normal log-density, vectorized; ``sd`` must be positive."""
    z = (np.asarray(x, dtype=float) - mean) / sd
    return -0.5 * z * z - _LOG_SQRT_2PI - np.log(sd)


def lognormal_case_logpdf(y, mean_cases, sd):
    """Log-density of log(y+1) ~ Normal(log(mean_cases+1), sd^2)."""
    return norm_logpdf(np.log1p(np.asarray(y, dtype=float)), np.log1p(mean_cases), sd)


def lognormal_case_sample(mean_cases, sd, rng: np.random.Generator):
    """Sample reported cases whose log(y+1) is Gaussian around log(mean+1)."""
    mean_cases = np.asarray(mean_cases, dtype=float)
    z = rng.normal(size=mean_cases.shape)
    return np.expm1(np.log1p(mean_cases) + sd * z)
