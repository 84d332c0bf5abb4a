"""Iterated filtering: IF2 and the iterated block particle filter.

Both algorithms repeat the block particle filter's pass
(:func:`epipomp.filtering._filter_pass`) with a parameter swarm: each
particle carries its own parameter vector, perturbed by a geometrically
cooled random walk on the estimation scale before every interval and
resampled together with the latent states. IF2 is the one-block special case
of the block variant and is implemented as such, so a one-block IBPF run is
bit-identical to IF2 under shared seeds.

The swarm keeps one copy of every searched column per block, and each unit
reads a column from its own block's copy, so a unit-specific column is read
only from its home block (the one holding its unit). The copies of a shared
column are reconciled to their per-particle mean on the estimation scale at
the end of every iteration.

After every iteration the swarm center (mean on the estimation scale) is
evaluated with a fresh-seeded filtering pass (same block structure: a plain
particle filter evaluation would collapse on high-dimensional models), so
the trace is not optimized to a single noise realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ValidationError
# ``advance`` and ``systematic_indices`` are unused here but stay bound: the
# benchmark tracer (perfbench/tracer.py) patches them as attributes of this module.
from .filtering import _filter_pass, particle_filter, resolve_blocks, systematic_indices
from .grid import TimeGrid
from .model import PompModel, advance, compile_theta, make_rng
from .params import ParameterSet, from_estimation, split_key
from .series import CovariateTable, ObservationSeries


@dataclass(frozen=True)
class If2Settings:
    """IF2 hyperparameters.

    ``rw_sd`` maps searched parameter names (shared names, unit-specific
    keys ``"name[unit]"``, or family bases covering every unit) to their
    random-walk standard deviation on the estimation scale. ``cooling`` is
    the fraction of the initial sd remaining after 50 iterations. Every
    particle starts at ``initial``.
    """

    J: int
    M: int
    rw_sd: Mapping[str, float]
    cooling: float = 0.5
    initial: ParameterSet | None = None
    eval_particles: int | None = None

    def __post_init__(self) -> None:
        if self.J < 1 or self.M < 1:
            raise ValidationError("J and M must be >= 1")
        if not 0.0 < self.cooling <= 1.0:
            raise ValidationError("cooling fraction must lie in (0, 1]")
        for k, v in self.rw_sd.items():
            if not 0.0 <= v < np.inf:
                raise ValidationError(f"rw sd for {k!r} must be finite and >= 0, got {v}")
        if self.eval_particles is not None and self.eval_particles < 1:
            raise ValidationError("eval_particles must be >= 1 when given")


def cooled_sd(sd0: float, cooling: float, iteration: int) -> float:
    """Random-walk sd at a given iteration under geometric cooling.

    Iteration 0 is the uncooled value; after 50 iterations the sd is
    ``cooling * sd0``.
    """
    return sd0 * cooling ** (iteration / 50.0)


@dataclass
class IterationRecord:
    iteration: int
    pass_loglik: float
    eval_loglik: float
    center: ParameterSet


@dataclass
class If2Result:
    """Search output: best center parameters, per-iteration trace, and the
    final parameter swarm (natural scale, one row per particle) usable for
    likelihood-weighted empirical-Bayes sampling."""

    best: ParameterSet
    best_loglik: float
    trace: list[IterationRecord]
    swarm: np.ndarray
    searched: tuple[str, ...]
    aborted: bool = False


@dataclass
class _SearchLayout:
    """Searched-parameter bookkeeping for one run."""

    keys: tuple[str, ...]          # explicit parameter keys, in column order
    sds: np.ndarray                # (P,) estimation-scale random-walk sds
    transforms: tuple[str, ...]
    home: np.ndarray               # home block per column (-1 = shared)
    readers: tuple[slice, ...]     # model units that read each column
    unit_block: np.ndarray         # block index per model unit
    bases: tuple[str, ...]         # base name per column


def _expand_search(
    model: PompModel, params: ParameterSet, rw_sd: Mapping[str, float],
    blocks: list[list[str]],
) -> _SearchLayout:
    """Lay out the searched columns; ``params`` already passed ``compile_theta``,
    so every unit-specific key names one of the model's units."""
    keys: list[str] = []
    sds: list[float] = []
    for name, sd in rw_sd.items():
        if name in params:
            keys.append(name)
            sds.append(float(sd))
        else:
            fam = [k for k in params if split_key(k)[0] == name and split_key(k)[1] is not None]
            if not fam:
                raise ValidationError(f"rw_sd names unknown parameter {name!r}")
            keys.extend(sorted(fam, key=lambda k: model.units.index(split_key(k)[1])))
            sds.extend([float(sd)] * len(fam))
    split = [split_key(k) for k in keys]
    block_of_unit = {u: b for b, bu in enumerate(blocks) for u in bu}
    unit_block = np.array([block_of_unit[u] for u in model.units])
    col_unit = [None if u is None else model.units.index(u) for _, u in split]
    return _SearchLayout(
        keys=tuple(keys),
        sds=np.array(sds),
        transforms=tuple(params.transform_of(k) for k in keys),
        home=np.array([-1 if u is None else unit_block[u] for u in col_unit], dtype=int),
        readers=tuple(slice(None) if u is None else slice(u, u + 1) for u in col_unit),
        unit_block=unit_block,
        bases=tuple(base for base, _ in split),
    )


def _natural_theta(
    model: PompModel,
    fixed_theta: dict,
    layout: _SearchLayout,
    est: np.ndarray,   # (B, J, P)
) -> dict:
    """Assemble the per-particle natural-scale theta mapping for one pass.

    Each searched base becomes a (J, U) array; every unit that reads a column
    takes the copy held by its own block.
    """
    theta = dict(fixed_theta)
    for base in dict.fromkeys(layout.bases):
        theta[base] = np.full((est.shape[1], model.n_units), fixed_theta[base])
    for ci, (units, tr) in enumerate(zip(layout.readers, layout.transforms)):
        theta[layout.bases[ci]][:, units] = from_estimation(est[layout.unit_block[units], :, ci], tr).T
    return theta


def _center_params(params: ParameterSet, layout: _SearchLayout, est: np.ndarray) -> ParameterSet:
    """The swarm mean on the estimation scale (a unit-specific column's over its home block)."""
    updates = {}
    for ci, (key, b) in enumerate(zip(layout.keys, layout.home)):
        copies = est[:, :, ci] if b < 0 else est[b, :, ci]
        updates[key] = from_estimation(np.mean(copies), layout.transforms[ci])
    return params.replace(updates)


@dataclass
class _Swarm:
    """The parameter swarm an IF2/IBPF filtering pass carries.

    ``est`` holds one estimation-scale copy of every searched column per
    block; a unit-specific column is read, and perturbed, only in its home
    block. ``sd`` holds this iteration's random-walk sds.
    """

    model: PompModel
    fixed: dict
    layout: _SearchLayout
    est: np.ndarray           # (B, J, P)
    sd: np.ndarray            # (P,)
    rng: np.random.Generator

    def theta(self) -> dict:
        """Perturb every particle's parameters and return their theta."""
        home = self.layout.home
        shared, unit = home < 0, np.flatnonzero(home >= 0)
        B, J, _ = self.est.shape
        # shared noise for every block, then unit-specific noise for the home
        # blocks only (a size-0 draw takes nothing from the stream); the copy
        # keeps resampling from writing into the array the swarm started from
        self.est = self.est.copy()
        self.est[:, :, shared] += self.rng.normal(size=(B, J, shared.sum())) * self.sd[shared]
        self.est[home[unit], :, unit] += (self.rng.normal(size=(J, unit.size)) * self.sd[unit]).T
        return _natural_theta(self.model, self.fixed, self.layout, self.est)

    def resample(self, b: int, idx: np.ndarray) -> None:
        """Move block ``b``'s copy of the swarm to ``idx``."""
        self.est[b] = self.est[b][idx]


def ibpf(
    model: PompModel,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None,
    settings: If2Settings,
    seed: int = 0,
    blocks: Sequence[Sequence[str]] | None = None,
) -> If2Result:
    """Iterated block particle filter parameter search over a block partition
    of the units (default: one block per unit)."""
    blocks = resolve_blocks(model, blocks if blocks is not None else [[u] for u in model.units])
    return _iterated_filter(model, data, grid, covs, settings, blocks, seed)


def if2(
    model: PompModel,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None,
    settings: If2Settings,
    seed: int = 0,
) -> If2Result:
    """IF2 iterated filtering: the one-block case of the block search."""
    return _iterated_filter(model, data, grid, covs, settings, [list(model.units)], seed)


def _iterated_filter(
    model: PompModel,
    data: ObservationSeries,
    grid: TimeGrid,
    covs: CovariateTable | None,
    settings: If2Settings,
    blocks: list[list[str]],
    seed: int,
) -> If2Result:
    params = settings.initial if settings.initial is not None else model.params
    J, M, B = settings.J, settings.M, len(blocks)
    fixed = compile_theta(model, params)
    layout = _expand_search(model, params, settings.rw_sd, blocks)

    children = np.random.SeedSequence(seed).spawn(2 * M + 1)

    # initial swarm on the estimation scale; children[0] is left unused, so
    # the pass and evaluation seeds keep their indices
    est = np.tile(params.to_est(layout.keys), (B, J, 1))

    trace: list[IterationRecord] = []
    best: tuple[float, ParameterSet] | None = None
    aborted = False

    for m in range(1, M + 1):
        pass_rng = make_rng(children[2 * m - 1])
        sd_m = np.array([cooled_sd(s, settings.cooling, m) for s in layout.sds])
        swarm = _Swarm(model, fixed, layout, est, sd_m, pass_rng)
        res = _filter_pass(model, None, data, grid, covs, J, pass_rng, blocks, swarm)
        if res.failed_times:
            # total filtering failure: keep the swarm from before the pass and
            # stop after tracing
            aborted = True
        else:
            est = swarm.est

        # reconcile shared parameters across blocks (mean on estimation scale)
        shared = layout.home < 0
        if B > 1:
            est[:, :, shared] = est[:, :, shared].mean(axis=0, keepdims=True)

        center = _center_params(params, layout, est)
        eval_res = particle_filter(
            model, center, data, grid, covs, J=settings.eval_particles or J,
            seed=children[2 * m], blocks=blocks,
        )
        trace.append(IterationRecord(m, res.loglik, eval_res.loglik, center))
        if np.isfinite(eval_res.loglik) and (best is None or eval_res.loglik >= best[0]):
            best = (eval_res.loglik, center)
        if aborted:
            break

    if best is None:
        best = (trace[-1].eval_loglik, trace[-1].center)

    # the copies of a shared column agree after reconciliation: take block 0's
    natural = np.empty((J, len(layout.keys)))
    for ci, (b, tr) in enumerate(zip(layout.home, layout.transforms)):
        natural[:, ci] = from_estimation(est[max(b, 0), :, ci], tr)

    return If2Result(
        best=best[1],
        best_loglik=best[0],
        trace=trace,
        swarm=natural,
        searched=layout.keys,
        aborted=aborted,
    )
