"""Derivative-free optimization and trajectory matching.

Trajectory matching maximizes the measurement log-density of a deterministic
skeleton over free parameters on the estimation scale, using a restarted
Nelder-Mead simplex (the restart-until-no-improvement scheme plays the role
of subplex: repeated simplex solves from the incumbent defeat premature
collapse of the simplex). The skeleton is scored by the particle filter's
pass at one particle, with the pass's checks and missing-data rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .filtering import _filter_pass
from .grid import TimeGrid
# ``advance`` is unused here but stays bound: the benchmark tracer
# (perfbench/tracer.py) patches it as an attribute of this module.
from .model import PompModel, advance, compile_theta
from .params import ParameterSet
from .series import CovariateTable, ObservationSeries


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    n_eval: int
    restarts: int


def restarted_nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    max_restarts: int = 10,
    xatol: float = 1e-9,
    fatol: float = 1e-11,
) -> OptimResult:
    """Minimize ``f`` by Nelder-Mead, restarting at the incumbent until a
    restart improves it by no more than 1e-9. Each solve takes at most 400
    iterations per dimension. Deterministic for deterministic ``f``."""
    # imported here so that commands which never optimize do not load scipy.optimize
    from scipy import optimize as sciopt

    x = np.atleast_1d(np.asarray(x0, dtype=float))
    best = float(f(x))
    n_eval, restarts = 1, 0
    for _ in range(max_restarts):
        res = sciopt.minimize(
            f, x, method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxiter": 400 * x.size},
        )
        n_eval += int(res.nfev)
        restarts += 1
        if res.fun < best - 1e-9:
            x, best = np.atleast_1d(res.x), float(res.fun)
        else:
            if res.fun < best:
                x, best = np.atleast_1d(res.x), float(res.fun)
            break
    return OptimResult(x=x, fun=best, n_eval=n_eval, restarts=restarts)


def deterministic_loglik(
    model: PompModel,
    params: ParameterSet,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None = None,
) -> float:
    """Measurement log-density summed along the deterministic skeleton, with
    missing entries adding zero.

    This is the filter's pass at one particle. One particle has no weight
    spread, so the pass never resamples and draws nothing: it runs with
    ``rng=None``. It checks the data's units and length and the covariates.
    """
    return _filter_pass(model, compile_theta(model, params), data, grid, covs, 1, None, None).loglik


@dataclass
class TrajMatchResult:
    best: ParameterSet
    loglik: float
    n_eval: int
    restarts: int


def trajectory_match(
    model: PompModel,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None,
    params: ParameterSet | None = None,
    free: Sequence[str] = (),
) -> TrajMatchResult:
    """Maximize the skeleton measurement log-density over ``free`` parameters.

    ``free`` may name shared parameters or unit-specific keys. An empty list
    returns the input parameters and their log-likelihood unchanged. The
    start must lie in the model's domain (:meth:`PompModel.check_params`);
    a candidate the search proposes outside it scores ``-inf``.
    """
    if model.stochastic:
        raise ValidationError("trajectory matching requires a deterministic skeleton")
    params = params if params is not None else model.params
    free = list(free)
    if not free:
        return TrajMatchResult(params, deterministic_loglik(model, params, data, grid, covs), 0, 0)
    params.require(free)
    model.check_params(params)

    def objective(est: np.ndarray) -> float:
        ps = params.from_est(free, est)
        # a step outside the model's domain is a bad candidate, not a bad config
        try:
            model.check_params(ps)
        except ValidationError:
            return np.inf
        return -deterministic_loglik(model, ps, data, grid, covs)

    x0 = params.to_est(free)
    f0 = objective(x0)
    if not np.isfinite(f0):
        bad = [n for n in free if not np.isfinite(params[n])]
        raise ValidationError(
            f"objective is non-finite at the starting parameters; "
            f"check free parameters {bad or free}"
        )
    res = restarted_nelder_mead(objective, x0)
    return TrajMatchResult(
        best=params.from_est(free, res.x),
        loglik=-res.fun,
        n_eval=res.n_eval,
        restarts=res.restarts,
    )
