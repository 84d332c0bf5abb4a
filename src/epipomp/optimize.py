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


def _nelder_mead(
    f: Callable[[np.ndarray], float], x0: np.ndarray, xatol: float, fatol: float, maxiter: int
) -> tuple[np.ndarray, np.float64, int]:
    """One Nelder-Mead solve from ``x0``: the minimizer, its value and the
    number of evaluations of ``f``.

    A port of the path that scipy 1.17.1's
    ``minimize(f, x0, method="Nelder-Mead", options={"xatol", "fatol",
    "maxiter"})`` takes: the default initial simplex, the standard
    coefficients (reflection 1, expansion 2, contraction and shrink 1/2), no
    bounds and no limit on evaluations. Every step is scipy's, in scipy's
    order, so the results are scipy's bit for bit.
    """
    nfev = 0

    def func(x: np.ndarray):
        nonlocal nfev
        nfev += 1
        fx = f(np.copy(x))
        # a number passes as it is; a one-element array gives its item
        return fx if np.isscalar(fx) else np.asarray(fx).item()

    N = x0.size
    sim = np.tile(x0, (N + 1, 1))
    for k in range(N):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full((N + 1,), np.inf, dtype=float)
    for k in range(N + 1):
        fsim[k] = func(sim[k])
    # sorted twice, as scipy does: argsort is not stable, so a second sort may move ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = func(xr)
        shrink = False
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = 1.5 * xbar - 0.5 * sim[-1]
            fxc = func(xc)
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = 0.5 * xbar + 0.5 * sim[-1]
            fxcc = func(xcc)
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, N + 1):
                sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                fsim[j] = func(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev


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
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    best = float(f(x))
    n_eval, restarts = 1, 0
    for _ in range(max_restarts):
        x_new, fun, nfev = _nelder_mead(f, x, xatol, fatol, 400 * x.size)
        n_eval += nfev
        restarts += 1
        improved = fun < best - 1e-9
        if fun < best:
            x, best = x_new, float(fun)
        if not improved:
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
