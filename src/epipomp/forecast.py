"""Filtering-conditioned forecasting and elimination probabilities.

A forecast is simulation from given states: :func:`epipomp.model.propagate`
run from particles drawn from the filtering distribution at the last
observation time, optionally with likelihood-weighted parameter draws, under
a vaccination scenario's covariates. Elimination means at least ``window``
(default 52) consecutive weeks with zero new true infections summed
nationally; windows start at the forecast origin."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .filtering import sample_params_by_likelihood
from .grid import TimeGrid
# ``advance`` is unused here but stays bound: the benchmark tracer
# (perfbench/tracer.py) patches it as an attribute of this module.
from .model import PompModel, advance, compile_theta, make_rng, propagate, simulate
from .params import ParameterSet
from .series import CovariateTable

ELIMINATION_WINDOW = 52
#: standard normal quantile of a 95% measurement band, ``float(scipy.special.ndtri(0.975))``
#: written out so that importing this module does not load scipy.special
BAND_Z = 1.959963984540054


@dataclass
class ForecastResult:
    """Per-simulation weekly true-infection and reported-case series."""

    times: np.ndarray
    units: tuple[str, ...]
    true_infections: np.ndarray  # (n_sims, H, U)
    reported: np.ndarray         # (n_sims, H, U)
    eliminated: np.ndarray       # (n_sims,) bool
    probability: float
    window: int


def longest_zero_run(x: np.ndarray) -> int:
    """Length of the longest run of exact zeros in a 1-d array."""
    best = run = 0
    for v in np.asarray(x).ravel():
        run = run + 1 if v == 0 else 0
        best = max(best, run)
    return best


def check_window(window: int, horizon_weeks: int) -> None:
    """Require ``1 <= window <= horizon_weeks`` for an elimination window."""
    if window < 1:
        raise ValidationError(f"the elimination window must be at least one week, not {window}")
    if horizon_weeks < window:
        raise ValidationError(
            f"forecast horizon ({horizon_weeks} weeks) is shorter than the elimination window ({window})"
        )


def elimination_probability(
    true_infections, window: int = ELIMINATION_WINDOW
) -> tuple[float, np.ndarray]:
    """Fraction of simulations with >= ``window`` consecutive weeks of zero
    national new infections, from a (n_sims, H[, U]) array. Returns
    (probability, per-sim flags)."""
    arr = np.asarray(true_infections, dtype=float)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    n_sims, horizon, _ = arr.shape
    check_window(window, horizon)
    national = arr.sum(axis=2)
    flags = np.array([longest_zero_run(national[i]) >= window for i in range(n_sims)])
    return float(np.sum(flags)) / n_sims, flags


def _stack_thetas(model: PompModel, draws: Sequence[ParameterSet]) -> dict:
    """Merge per-simulation parameter sets into per-particle theta arrays."""
    thetas = [compile_theta(model, d) for d in draws]
    out = dict(thetas[0])
    for name, v0 in thetas[0].items():
        if np.ndim(v0) == 0:
            col = np.array([t[name] for t in thetas])
            if np.ptp(col) > 0:
                out[name] = np.tile(col[:, None], (1, model.n_units))
        else:
            mats = np.stack([np.broadcast_to(t[name], (1, model.n_units))[0] for t in thetas])
            if (mats != mats[0]).any():  # varies across draws
                out[name] = mats  # (n, U)
    return out


def forecast_from_filter(
    model: PompModel,
    params: ParameterSet,
    filter_sample: np.ndarray,
    covs: CovariateTable | None,
    grid: TimeGrid,
    n_sims: int,
    seed: int = 0,
    param_candidates: Sequence[tuple[ParameterSet, float]] | None = None,
    window: int = ELIMINATION_WINDOW,
) -> ForecastResult:
    """Simulate forward from filtering-distribution particles under a scenario.

    Each simulation starts from a uniformly drawn particle of
    ``filter_sample`` and, when ``param_candidates`` is given, a
    likelihood-weighted parameter draw, and runs over ``grid``: ``grid.t0``
    is the forecast origin and each observation time one forecast week.
    ``covs`` must cover [grid.t0, grid.t_end] or the call fails. The model
    must track one true-infection accumulator per unit, which elimination is
    measured on.
    """
    sample = np.asarray(filter_sample, dtype=float)
    if sample.ndim != 2 or sample.shape[0] == 0:
        raise ValidationError("filter_sample must be a nonempty (K, S) array")
    if sample.shape[1] != model.n_states:
        raise ValidationError(
            f"filter_sample has {sample.shape[1]} state columns, model expects {model.n_states}"
        )
    if n_sims < 1:
        raise ValidationError("n_sims must be >= 1")
    if len(model.true_infection_states) != model.n_units:
        raise ValidationError(f"model {model.name!r} must track one true-infection accumulator per unit")
    check_window(window, grid.n_obs)

    rng = make_rng(seed)
    X = sample[rng.integers(0, sample.shape[0], size=n_sims)]
    if param_candidates:
        draws = sample_params_by_likelihood(param_candidates, n_sims, seed=seed + 1)
        theta = _stack_thetas(model, draws)
    else:
        theta = compile_theta(model, params)

    true_cols = model.indices(model.true_infection_states)
    true_inf, reported = propagate(model, X, theta, grid, covs, rng, true_cols)
    true_inf = true_inf[:, 1:]
    probability, flags = elimination_probability(true_inf, window=window)
    return ForecastResult(
        times=grid.obs_times,
        units=model.units,
        true_infections=true_inf,
        reported=reported,
        eliminated=flags,
        probability=probability,
        window=window,
    )


@dataclass
class ProjectionResult:
    """Deterministic trajectory plus measurement-band quantiles."""

    times: np.ndarray
    units: tuple[str, ...]
    mean_reported: np.ndarray  # (H, U) reporting-rate * incidence
    lower: np.ndarray
    upper: np.ndarray
    latent: np.ndarray         # (H, S)


def trajectory_projection(
    model: PompModel,
    params: ParameterSet,
    covs: CovariateTable | None,
    grid: TimeGrid,
) -> ProjectionResult:
    """Skeleton projection with log-normal measurement band.

    The skeleton is one ``simulate`` run from ``rinit`` over ``grid``. The
    band is the per-week 2.5% and 97.5% quantiles of the log-normal
    reporting model: exp(log(rho*m + 1) +/- z*psi) - 1 around the
    deterministic mean m; psi -> 0 collapses the band onto rho*m. ``params``
    must hold ``rho`` and ``psi``.
    """
    if model.stochastic:
        raise ValidationError("trajectory projection requires a deterministic model")
    if len(model.measured_states) != model.n_units:
        raise ValidationError("model must track one measured-incidence accumulator per unit")
    params.require(["rho", "psi"])
    latent = simulate(model, params, grid, covs).states[0, 1:]
    rho, psi = float(params["rho"]), float(params["psi"])
    mean_rep = rho * latent[:, model.indices(model.measured_states)]
    lower = np.exp(np.log(mean_rep + 1.0) - BAND_Z * psi) - 1.0
    upper = np.exp(np.log(mean_rep + 1.0) + BAND_Z * psi) - 1.0
    return ProjectionResult(
        times=grid.obs_times,
        units=model.units,
        mean_reported=mean_rep,
        lower=lower,
        upper=upper,
        latent=latent,
    )
