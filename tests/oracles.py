"""Exact references and invariant helpers that only the tests use.

- :func:`hmm_forward_loglik` and :func:`kalman_loglik` are the exact
  likelihoods of ``toys.hmm_model`` and ``toys.lgssm_model`` (forward
  algorithm and Kalman filter), the oracles the particle filter is checked
  against.
- :func:`logmeanexp` and :func:`effective_sample_size` weigh one 1-d
  log-weight vector, the references for ``filtering.column_weights``.
- :func:`person_counts` and :func:`person_total` sum the person compartments
  of model3 and model2 states, for the population-conservation checks.
- :func:`save_cases` writes a case series in the format ``io.load_cases``
  reads.
- :func:`toy_grid` is the toys' weekly grid, in their time unit of weeks.
"""

import csv
from pathlib import Path

import numpy as np

from epipomp.errors import DataFormatError
from epipomp.grid import TimeGrid, weekly_grid
from epipomp.haiti.geography import GeographyData
from epipomp.series import ObservationSeries


def hmm_forward_loglik(
    obs: np.ndarray,
    transition: np.ndarray,
    emission: np.ndarray,
    initial: np.ndarray,
) -> float:
    """Exact HMM log-likelihood by the forward algorithm."""
    alpha = np.asarray(initial, dtype=float)
    loglik = 0.0
    for y in np.asarray(obs, dtype=int):
        alpha = (alpha @ np.asarray(transition)) * np.asarray(emission)[:, y]
        s = alpha.sum()
        loglik += np.log(s)
        alpha /= s
    return float(loglik)


def kalman_loglik(obs: np.ndarray, a: float, sig_proc: float, sig_obs: float) -> float:
    """Exact scalar Kalman-filter log-likelihood, starting from x0 ~ N(0, 1)
    as ``lgssm_model`` does."""
    mean, var = 0.0, 1.0
    q, r = sig_proc**2, sig_obs**2
    loglik = 0.0
    for y in np.asarray(obs, dtype=float):
        pm = a * mean
        pv = a * a * var + q
        s = pv + r
        loglik += -0.5 * (np.log(2.0 * np.pi * s) + (y - pm) ** 2 / s)
        k = pv / s
        mean = pm + k * (y - pm)
        var = (1.0 - k) * pv
    return float(loglik)


def logmeanexp(logw: np.ndarray) -> float:
    """log of the mean of exponentials, stable under -inf entries."""
    m = logw.max()
    if not np.isfinite(m):
        return float(m)
    e = np.exp(logw - m)
    return float(m + np.log(e.sum() / e.size))


def effective_sample_size(logw: np.ndarray) -> float:
    """ESS of a log-weight vector; equals J for constant weights."""
    m = np.max(logw)
    if not np.isfinite(m):
        return 1.0
    w = np.exp(logw - m)
    s = w.sum()
    return float(s * s / np.sum(w * w))


def person_counts(X: np.ndarray, n_units: int) -> np.ndarray:
    """Per-unit person totals (J, U) of a model3 state array: everything but
    the water variable and the accumulators."""
    V = X.shape[1] // n_units
    Y = X.reshape(X.shape[0], n_units, V)
    return Y[:, :, : V - 3].sum(axis=2)


def person_total(X: np.ndarray, geography: GeographyData) -> np.ndarray:
    """National person total of a model2 state array (J, S)."""
    U = geography.n_units
    V = X.shape[1] // U
    Y = X.reshape(X.shape[0], U, V)
    return Y[:, :, :30].sum(axis=(1, 2))


def save_cases(series: ObservationSeries, path: str | Path) -> None:
    """Inverse of ``io.load_cases`` (round-trip identity on the data values)."""
    if series.dates is None:
        raise DataFormatError("series has no dates; cannot write a date-indexed CSV")
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "department", "cases"])
        for n, d in enumerate(series.dates):
            for u, dep in enumerate(series.units):
                v = series.values[u, n]
                w.writerow([d, dep, "NA" if np.isnan(v) else int(v)])


def toy_grid(n_obs: int, steps_per_week: int = 1) -> TimeGrid:
    """Observations at t = 1..n_obs weeks, stepped ``steps_per_week`` times a week."""
    return weekly_grid(n_obs, week=1.0, steps_per_week=steps_per_week)
