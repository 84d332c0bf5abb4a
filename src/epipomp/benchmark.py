"""Associative benchmark: per-unit autoregressive negative binomial fits.

The benchmark conditions on the previous observation: Y_n | Y_{n-1} has a
negative binomial distribution with mean alpha + b * y_{n-1} and size phi.
The first observation conditions the series and contributes no term; terms
involving a missing value are omitted. Unit log-likelihoods add up to the
total in fixed unit order, matching the independence assumption.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .optimize import restarted_nelder_mead
from .series import ObservationSeries

ALPHA_FLOOR = 1e-6


def aic(loglik: float, k: int) -> float:
    """Akaike information criterion, 2k - 2*loglik."""
    if k < 0:
        raise ValidationError("parameter count must be nonnegative")
    return 2.0 * k - 2.0 * float(loglik)


@dataclass(frozen=True)
class BenchmarkParams:
    alpha: float
    b: float
    phi: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.b < 0 or self.phi <= 0:
            raise ValidationError("benchmark parameters must satisfy alpha>0, b>=0, phi>0")


@dataclass
class BenchmarkFit:
    units: tuple[str, ...]
    params: dict[str, BenchmarkParams]
    unit_logliks: dict[str, float]
    loglik: float
    k: int
    aic: float
    notes: tuple[str, ...] = ()


def ar_nb_loglik(y: np.ndarray, alpha: float, b: float, phi: float) -> float:
    """Conditional log-likelihood of one series under the AR-NB model."""
    # imported here, not at load time: only a benchmark fit needs scipy.special
    from .nbinom import nb_logpmf

    y = np.asarray(y, dtype=float)
    prev, curr = y[:-1], y[1:]
    valid = ~np.isnan(prev) & ~np.isnan(curr)
    if not np.any(valid):
        return 0.0
    mean = alpha + b * prev[valid]
    return float(np.sum(nb_logpmf(curr[valid], mean, phi)))


def _fit_one(y: np.ndarray) -> tuple[BenchmarkParams, float]:
    y = np.asarray(y, dtype=float)
    present = y[~np.isnan(y)]
    if present.size < 3:
        raise ValidationError("benchmark fitting needs a series of length >= 3")
    if np.all(present == 0):
        warnings.warn("all-zero series: benchmark alpha pinned at floor", stacklevel=2)
        p = BenchmarkParams(ALPHA_FLOOR, 0.0, 1.0)
        return p, ar_nb_loglik(y, p.alpha, p.b, p.phi)

    mean = float(np.mean(present))
    x0 = np.log([max(0.5 * mean, 1e-3), 0.5, 5.0])

    def objective(est: np.ndarray) -> float:
        est = np.clip(est, -40.0, 40.0)
        a, b, phi = np.exp(est)
        return -ar_nb_loglik(y, a, b, phi)

    res = restarted_nelder_mead(objective, x0, max_restarts=6, xatol=1e-7, fatol=1e-9)
    a, b, phi = np.exp(np.clip(res.x, -40.0, 40.0))
    return BenchmarkParams(max(a, ALPHA_FLOOR), b, phi), -res.fun


def fit_benchmark(data: ObservationSeries, per_unit: bool = True) -> BenchmarkFit:
    """Fit independent AR-NB benchmarks, one per spatial unit.

    With ``per_unit=False`` the series is aggregated nationally first. Total
    log-likelihood is the sum of the unit log-likelihoods (fixed unit order);
    three parameters are counted per fitted unit.
    """
    if not per_unit:
        data = data.aggregate()
    params: dict[str, BenchmarkParams] = {}
    unit_ll: dict[str, float] = {}
    for i, u in enumerate(data.units):
        p, ll = _fit_one(data.values[i])
        params[u] = p
        unit_ll[u] = ll
    total = float(np.sum(np.array([unit_ll[u] for u in data.units])))
    k = 3 * len(data.units)
    notes = (
        "AIC values of models that initialize latent states from different "
        "portions of the data are not directly comparable.",
    )
    return BenchmarkFit(
        units=tuple(data.units),
        params=params,
        unit_logliks=unit_ll,
        loglik=total,
        k=k,
        aic=aic(total, k),
        notes=notes,
    )
