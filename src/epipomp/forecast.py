"""Filtering-conditioned forecasting and elimination probabilities.

Forecasts launch from latent states drawn from the filtering distribution at
the last observation time, optionally with likelihood-weighted parameter
draws, and run the process model forward under a vaccination scenario's
covariates. Elimination means at least ``window`` (default 52) consecutive
weeks with zero new true infections summed nationally; windows start at the
forecast origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .filtering import sample_params_by_likelihood
from .grid import TimeGrid
from .model import PompModel, advance, compile_theta, make_rng
from .params import ParameterSet
from .series import CovariateTable
from .units import WEEK

ELIMINATION_WINDOW = 52


@dataclass
class ForecastResult:
    """Per-simulation weekly true-infection and reported-case series."""

    scenario: str
    source: str
    times: np.ndarray
    units: tuple[str, ...]
    true_infections: np.ndarray  # (n_sims, H, U)
    reported: np.ndarray         # (n_sims, H, U)
    eliminated: np.ndarray       # (n_sims,) bool
    probability: float
    window: int = ELIMINATION_WINDOW
    latent: np.ndarray | None = None  # (n_sims, H, S) when retained


def longest_zero_run(x: np.ndarray) -> int:
    """Length of the longest run of exact zeros in a 1-d array."""
    best = run = 0
    for v in np.asarray(x).ravel():
        run = run + 1 if v == 0 else 0
        best = max(best, run)
    return best


def elimination_probability(
    true_infections, window: int = ELIMINATION_WINDOW
) -> tuple[float, np.ndarray]:
    """Fraction of simulations with >= ``window`` consecutive weeks of zero
    national new infections. Accepts a (n_sims, H[, U]) array or a
    ForecastResult. Returns (probability, per-sim flags)."""
    if isinstance(true_infections, ForecastResult):
        true_infections = true_infections.true_infections
    arr = np.asarray(true_infections, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    n_sims, horizon, _ = arr.shape
    if horizon < window:
        raise ValidationError(
            f"forecast horizon ({horizon} weeks) is shorter than the elimination window ({window})"
        )
    national = arr.sum(axis=2)
    flags = np.array([longest_zero_run(national[i]) >= window for i in range(n_sims)])
    return float(np.sum(flags)) / n_sims, flags


def _stack_thetas(model: PompModel, draws: Sequence[ParameterSet]) -> dict:
    """Merge per-simulation parameter sets into per-particle theta arrays."""
    n = len(draws)
    base = compile_theta(model, draws[0])
    out = dict(base)
    thetas = [compile_theta(model, d) for d in draws]
    for name, v0 in base.items():
        if np.ndim(v0) == 0:
            col = np.array([t[name] for t in thetas])
            if np.ptp(col) > 0:
                out[name] = np.tile(col[:, None], (1, model.n_units))
        else:
            mats = np.stack([np.broadcast_to(t[name], (1, model.n_units))[0] for t in thetas])
            if np.ptp(mats) > 0 or not np.allclose(mats, mats[0]):
                out[name] = mats  # (n, U)
    return out


def forecast_from_filter(
    model: PompModel,
    params: ParameterSet,
    filter_sample: np.ndarray,
    scenario: str,
    covs: CovariateTable | None,
    origin: float,
    horizon_weeks: int,
    n_sims: int,
    seed: int = 0,
    param_candidates: Sequence[tuple[ParameterSet, float]] | None = None,
    window: int = ELIMINATION_WINDOW,
    euler_step: float | None = None,
    retain_states: bool = False,
    source: str = "filtering",
    week_duration: float = WEEK,
) -> ForecastResult:
    """Simulate forward from filtering-distribution particles under a scenario.

    Each simulation starts from a uniformly drawn particle of
    ``filter_sample`` and, when ``param_candidates`` is given, a
    likelihood-weighted parameter draw. ``covs`` must cover
    [origin, origin + horizon] or the call fails. ``week_duration`` is the
    reporting interval in the model's time unit (1/52.14 yr for the built-in
    models, 1.0 for the weekly-unit toys).
    """
    sample = np.asarray(filter_sample, dtype=float)
    if sample.ndim != 2 or sample.shape[0] == 0:
        raise ValidationError("filter_sample must be a nonempty (K, S) array")
    if sample.shape[1] != model.n_states:
        raise ValidationError(
            f"filter_sample has {sample.shape[1]} state columns, model expects {model.n_states}"
        )
    if horizon_weeks < 1:
        raise ValidationError("horizon must be at least one week")
    times = origin + np.arange(1, horizon_weeks + 1) * week_duration
    grid = TimeGrid(t0=origin, obs_times=times, euler_step=euler_step or week_duration / 7.0)
    if model.needs_covariates:
        if covs is None:
            raise ValidationError(f"model {model.name!r} requires covariates")
        covs.check_span(origin, float(times[-1]))
    model.check_params(params)

    rng = make_rng(seed)
    start_idx = rng.integers(0, sample.shape[0], size=n_sims)
    X = sample[start_idx].copy()

    if param_candidates:
        draws = sample_params_by_likelihood(param_candidates, n_sims, seed=seed + 1)
        theta = _stack_thetas(model, draws)
    else:
        theta = compile_theta(model, params)

    U = model.n_units
    if model.true_infection_states and len(model.true_infection_states) != U:
        raise ValidationError("model must track one true-infection accumulator per unit")
    true_idx = model.indices(model.true_infection_states) if model.true_infection_states else None
    acc = model.accum_indices
    true_inf = np.zeros((n_sims, horizon_weeks, U))
    reported = np.zeros((n_sims, horizon_weeks, U))
    latent = np.zeros((n_sims, horizon_weeks, model.n_states)) if retain_states else None

    t_prev = origin
    for h in range(horizon_weeks):
        if acc.size:
            X[:, acc] = 0.0
        t_next = float(times[h])
        X = advance(model, X, t_prev, t_next, theta, covs, grid, rng)
        if true_idx is not None:
            true_inf[:, h, :] = X[:, true_idx]
        if model.runit_measure is not None:
            reported[:, h, :] = model.runit_measure(X, t_next, theta, rng)
        if latent is not None:
            latent[:, h, :] = X
        t_prev = t_next

    probability, flags = elimination_probability(true_inf, window=window)
    return ForecastResult(
        scenario=scenario,
        source=source,
        times=times,
        units=model.units,
        true_infections=true_inf,
        reported=reported,
        eliminated=flags,
        probability=probability,
        window=window,
        latent=latent,
    )


@dataclass
class ProjectionResult:
    """Deterministic trajectory plus measurement-band quantiles."""

    scenario: str
    times: np.ndarray
    units: tuple[str, ...]
    mean_reported: np.ndarray  # (H, U) reporting-rate * incidence
    lower: np.ndarray
    upper: np.ndarray
    latent: np.ndarray         # (H, S)


def trajectory_projection(
    model: PompModel,
    params: ParameterSet,
    scenario: str,
    covs: CovariateTable | None,
    origin: float,
    horizon_weeks: int,
    euler_step: float | None = None,
    level: float = 0.95,
    week_duration: float = WEEK,
) -> ProjectionResult:
    """Skeleton projection with log-normal measurement band.

    The band is the per-week (1-level)/2 and (1+level)/2 quantiles of the
    log-normal reporting model: exp(log(rho*m + 1) +/- z*psi) - 1 around the
    deterministic mean m; psi -> 0 collapses the band onto rho*m.
    """
    if model.stochastic:
        raise ValidationError("trajectory projection requires a deterministic model")
    z = float(ndtri(0.5 + level / 2.0))
    times = origin + np.arange(1, horizon_weeks + 1) * week_duration
    grid = TimeGrid(t0=origin, obs_times=times, euler_step=euler_step or week_duration / 7.0)
    if model.needs_covariates and covs is not None:
        covs.check_span(origin, float(times[-1]))
    theta = compile_theta(model, params)
    X = np.asarray(model.rinit(theta, 1, None), dtype=float)
    acc = model.accum_indices

    if len(model.measured_states) != model.n_units:
        raise ValidationError("model must track one measured-incidence accumulator per unit")
    meas_idx = model.indices(model.measured_states)
    rho = float(params["rho"]) if "rho" in params else 1.0
    psi = float(params["psi"]) if "psi" in params else 0.0

    H, U = horizon_weeks, model.n_units
    mean_rep = np.zeros((H, U))
    latent = np.zeros((H, model.n_states))
    t_prev = origin
    for h in range(H):
        if acc.size:
            X[:, acc] = 0.0
        t_next = float(times[h])
        X = advance(model, X, t_prev, t_next, theta, covs, grid, None)
        latent[h] = X[0]
        mean_rep[h] = rho * X[0, meas_idx]
        t_prev = t_next
    lower = np.exp(np.log(mean_rep + 1.0) - z * psi) - 1.0
    upper = np.exp(np.log(mean_rep + 1.0) + z * psi) - 1.0
    return ProjectionResult(
        scenario=scenario,
        times=times,
        units=model.units,
        mean_reported=mean_rep,
        lower=lower,
        upper=upper,
        latent=latent,
    )
