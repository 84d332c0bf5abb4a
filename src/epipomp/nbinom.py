"""Negative binomial reporting: the only module that imports ``scipy.special`` at load time.

The density is in the (mean, size) parameterization with variance
``mean + mean^2/size``: ``gammaln(y + size) - gammaln(y + 1) - gammaln(size)
+ size log p + y log(1 - p)`` with ``p = size/(size + mean)``; a zero mean is
the distribution degenerate at zero.

Importing ``scipy.special`` costs about 0.15 s and 20 MB of start-up, since
scipy's array-API layer loads ``numpy.f2py``, ``numpy.testing`` and
``numpy.ma`` with it. So only the modules that build a negative-binomial
model (``haiti.model1``, ``haiti.model3``, ``toys``) import this one at load
time, and ``cli.build_bundle`` imports those when it builds their model:
building model2, whose log-normal reporting is in :mod:`epipomp.measures`,
does not load it.
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
