"""Bootstrap particle filtering with optional block resampling.

One pass propagates the particles, weights them by the measurement density,
and resamples them systematically within each block of spatial units. The
plain particle filter is the one-block case in which every particle shares
one parameter vector; IF2 and IBPF (:mod:`epipomp.iterfilter`) run the same
pass with a per-particle, randomly perturbed parameter swarm that is
resampled together with the states. Each week one column-wise step,
:func:`column_weights`, gives every unit and every block its conditional
log-likelihood and effective sample size; only the blocks whose weights are
finite and not constant are resampled, and a missing observation weighs 0.
Conditional log-likelihoods, effective sample sizes, and the final filtering
particles are returned for diagnostics and forecasting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .grid import TimeGrid
from .model import PompModel, Theta, advance, check_covariates, compile_theta, make_rng
from .params import ParameterSet
from .series import CovariateTable, ObservationSeries


def column_weights(logw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log mean exp and the ESS of each column of a (J, K) log-weight array.

    Each column's weights are summed as one contiguous row, so a column gets
    the bits a 1-d ``log(mean(exp(w)))`` of it has. A column without a finite
    maximum keeps that maximum and has ESS 1; constant weights have ESS J.
    """
    m = logw.max(0)
    ess = np.ones_like(m)
    live = np.isfinite(m)
    w = np.ascontiguousarray(np.exp(logw[:, live] - m[live]).T)
    s = w.sum(axis=1)
    m[live] += np.log(s / logw.shape[0])
    ess[live] = s * s / (w * w).sum(axis=1)
    return m, ess


def systematic_indices(logw: np.ndarray, u: float) -> np.ndarray:
    """Systematic resampling indices for one block.

    ``u`` is a single uniform(0,1) draw; offspring are chosen at the J
    equally spaced points (u + j)/J against the cumulative normalized weights.
    """
    m = np.max(logw)
    w = np.exp(logw - m)
    cum = np.cumsum(w)
    cum /= cum[-1]
    points = (u + np.arange(logw.size)) / logw.size
    return np.searchsorted(cum, points, side="right").clip(max=logw.size - 1)


def resolve_blocks(model: PompModel, blocks: Sequence[Sequence[str]] | None) -> list[list[str]]:
    """Validate a block partition of the model's units (default: one block)."""
    if blocks is None:
        return [list(model.units)]
    blocks = [list(b) for b in blocks]
    flat = [u for b in blocks for u in b]
    if sorted(flat) != sorted(model.units) or len(flat) != len(set(flat)):
        raise ValidationError(
            f"blocks must partition the units {list(model.units)} exactly, got {blocks}"
        )
    return blocks


@dataclass
class PfResult:
    """Particle filter output.

    ``cond_logliks[n]`` is the left-to-right sum over blocks of each block's
    log mean weight, and they sum to ``loglik`` exactly (fixed summation
    order); ``unit_cond_logliks`` (N, U) holds each unit's own. ``block_ess``
    (N, B) is each block's ESS: J for constant weights, 1 for a block whose
    particles all had zero weight. ``ess`` is its minimum over blocks.
    ``filter_sample`` holds the J particles of the filtering distribution at
    the final observation time. ``failed_times`` flags observation indices
    where every particle of some block had zero weight; that block keeps its
    particles, and the total log-likelihood is -inf rather than an exception.
    """

    loglik: float
    cond_logliks: np.ndarray
    ess: np.ndarray
    filter_sample: np.ndarray
    unit_cond_logliks: np.ndarray
    block_ess: np.ndarray
    failed_times: tuple[int, ...] = ()
    n_particles: int = 0


def particle_filter(
    model: PompModel,
    params: ParameterSet,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None = None,
    J: int = 1000,
    seed: int | np.random.SeedSequence = 0,
    blocks: Sequence[Sequence[str]] | None = None,
) -> PfResult:
    """Bootstrap particle filter log-likelihood estimate.

    ``blocks`` partitions the units for block resampling (default: a single
    block, the standard filter). Missing observations contribute zero to the
    measurement density and trigger no resampling at that time/unit.
    """
    theta = compile_theta(model, params)
    return _filter_pass(model, theta, data, grid, covs, J, make_rng(seed), blocks)


def _filter_pass(
    model: PompModel,
    theta: Theta | None,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None,
    J: int,
    rng: np.random.Generator | None,
    blocks: Sequence[Sequence[str]] | None,
    swarm=None,
) -> PfResult:
    """One propagate→weight→resample pass over the data. ``rng`` may be
    ``None`` for a deterministic model at J=1, which never resamples.

    Every particle shares ``theta`` unless a parameter ``swarm`` is given
    (IF2/IBPF): ``swarm.theta()`` perturbs the per-particle parameters and
    returns their theta, and is called before ``rinit`` and before every later
    interval; ``swarm.resample(b, idx)`` moves the parameters that block ``b``
    owns with the same indices as the block's states.
    """
    if J < 1:
        raise ValidationError("J must be >= 1")
    if tuple(data.units) != tuple(model.units):
        raise ValidationError(
            f"data units {data.units} do not match model units {model.units}"
        )
    if data.n_obs != grid.n_obs:
        raise ValidationError(
            f"data has {data.n_obs} observations but grid has {grid.n_obs}"
        )
    check_covariates(model, covs, grid)
    block_cols = [np.array([model.units.index(u) for u in b]) for b in resolve_blocks(model, blocks)]
    if len(block_cols) > 1:
        unit_slices = model.unit_state_indices()
        block_states = [np.concatenate([unit_slices[i] for i in cols]) for cols in block_cols]

    if swarm is not None:
        theta = swarm.theta()
    X = np.asarray(model.rinit(theta, J, rng), dtype=float)
    N, U, B = grid.n_obs, model.n_units, len(block_cols)
    cond = np.zeros(N)
    ess = np.zeros(N)
    block_ess = np.zeros((N, B))
    unit_cond = np.zeros((N, U))
    failed: list[int] = []

    for n, (t_prev, t_next) in enumerate(grid.intervals()):
        if swarm is not None and n > 0:
            theta = swarm.theta()
        X = advance(model, X, t_prev, t_next, theta, covs, grid, rng)
        y = data.values[:, n]
        missing = np.isnan(y)
        logw_units = np.asarray(
            model.dunit_measure(np.where(missing, 0.0, y), X, t_next, theta), dtype=float
        )
        logw_units[:, missing] = 0.0  # weighs 0.0: a week with no observation resamples nothing
        unit_cond[n] = column_weights(logw_units)[0]
        logw = np.column_stack([logw_units[:, cols].sum(axis=1) for cols in block_cols])
        c, block_ess[n] = column_weights(logw)
        cond[n] = sum(c.tolist())  # left to right over blocks
        ess[n] = block_ess[n].min()
        live = np.isfinite(c)
        if not live.all():
            failed.append(n)
        for b in np.flatnonzero(live)[np.ptp(logw[:, live], axis=0) >= 1e-14]:
            # a failed block keeps its particles; constant weights make resampling a no-op
            idx = systematic_indices(logw[:, b], rng.random())
            if B == 1:
                X = X[idx]
            else:
                sl = block_states[b]
                X[:, sl] = X[np.ix_(idx, sl)]
            if swarm is not None:
                swarm.resample(b, idx)

    return PfResult(
        loglik=float(np.sum(cond)),
        cond_logliks=cond,
        ess=ess,
        filter_sample=X,
        unit_cond_logliks=unit_cond,
        block_ess=block_ess,
        failed_times=tuple(failed),
        n_particles=J,
    )


def sample_params_by_likelihood(
    candidates: Sequence[tuple[ParameterSet, float]],
    K: int,
    seed: int = 0,
) -> list[ParameterSet]:
    """Draw K parameter sets with probability proportional to their likelihoods.

    Numerically stable via max-subtraction of the log-likelihoods. Raises if
    no candidate has a finite log-likelihood.
    """
    if not candidates:
        raise ValidationError("no candidate parameter sets given")
    logliks = np.array([float(ll) for _, ll in candidates])
    m = np.max(logliks)
    if not np.isfinite(m):
        raise ValidationError("all candidate log-likelihoods are -inf")
    w = np.exp(logliks - m)
    p = w / w.sum()
    rng = make_rng(seed)
    idx = rng.choice(len(candidates), size=K, p=p)
    return [candidates[i][0] for i in idx]
