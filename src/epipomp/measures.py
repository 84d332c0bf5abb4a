"""Measurement-model building blocks shared by the built-in models.

Every density is a closed form on numpy and ``scipy.special``:

- negative binomial, in the (mean, size) parameterization with variance
  ``mean + mean^2/size``, ``gammaln(y + size) - gammaln(y + 1) -
  gammaln(size) + size log p + y log(1 - p)`` with ``p = size/(size + mean)``;
  a zero mean is the distribution degenerate at zero;
- normal, ``-z^2/2 - log(sqrt(2 pi)) - log(sd)`` with ``z = (x - mean)/sd``,
  summed in scipy's order so the values are scipy's to the last bit;
- log-normal reporting, the normal density of ``log(y + 1)`` around
  ``log(mean + 1)``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, xlog1py

from .errors import ValidationError


def nb_logpmf(y, mean, size):
    """Negative binomial log-pmf, vectorized, with the mean-0 degenerate case.

    Closed form in the (size, p = size / (size + mean)) parameterization:
    ``lgamma(y + size) - lgamma(y + 1) - lgamma(size) + size log p +
    y log(1 - p)``. A non-integer ``y`` has log-pmf -inf.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValidationError("observed counts must be nonnegative")
    mean = np.asarray(mean, dtype=float)
    size = np.asarray(size, dtype=float)
    degenerate = mean <= 0
    p = size / (size + np.where(degenerate, 1.0, mean))
    out = gammaln(y + size) - gammaln(y + 1.0) - gammaln(size) + size * np.log(p) + xlog1py(y, -p)
    fractional = y - np.floor(y) > 0
    if np.any(fractional):
        out = np.where(fractional, -np.inf, out)
    if np.any(degenerate):
        out = np.where(degenerate, np.where(y == 0, 0.0, -np.inf), out)
    return out


def nb_sample(mean, size, rng: np.random.Generator):
    """Negative binomial draw with the given mean and size."""
    mean = np.asarray(mean, dtype=float)
    size_b = np.broadcast_to(np.asarray(size, dtype=float), mean.shape)
    out = np.zeros(mean.shape)
    pos = mean > 0
    if np.any(pos):
        p = size_b[pos] / (size_b[pos] + mean[pos])
        out[pos] = rng.negative_binomial(size_b[pos], p)
    return out


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
