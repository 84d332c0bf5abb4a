"""Iterated filtering: IF2 and the iterated block particle filter.

Both algorithms repeat the block particle filter's pass
(:func:`epipomp.filtering._filter_pass`) with a parameter swarm: each
particle carries its own parameter vector, perturbed by a geometrically
cooled random walk on the estimation scale before every interval and
resampled together with the latent states. IF2 is the one-block special case
of the block variant and is implemented as such, so a one-block IBPF run is
bit-identical to IF2 under shared seeds.

Unit-specific parameters are owned by the block containing their unit and
are resampled only with that block. Shared parameters keep one copy per
block during a pass; the copies are reconciled to their per-particle mean on
the estimation scale at the end of every iteration.

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
from .params import ParamDef, ParameterSet, from_estimation, split_key, to_estimation
from .series import CovariateTable, ObservationSeries


@dataclass(frozen=True)
class If2Settings:
    """IF2 hyperparameters.

    ``rw_sd`` maps searched parameter names (shared names, unit-specific
    keys ``"name[unit]"``, or family bases covering every unit) to their
    random-walk standard deviation on the estimation scale. ``cooling`` is
    the fraction of the initial sd remaining after 50 iterations.
    ``hypercube`` optionally samples the initial swarm uniformly (natural
    scale) instead of starting every particle at ``initial``.
    """

    J: int
    M: int
    rw_sd: Mapping[str, float]
    cooling: float = 0.5
    initial: ParameterSet | None = None
    hypercube: Mapping[str, tuple[float, float]] | None = None
    eval_particles: int | None = None

    def __post_init__(self) -> None:
        if self.J < 1 or self.M < 1:
            raise ValidationError("J and M must be >= 1")
        if not 0.0 < self.cooling <= 1.0:
            raise ValidationError("cooling fraction must lie in (0, 1]")
        for k, v in self.rw_sd.items():
            if v < 0.0:
                raise ValidationError(f"rw sd for {k!r} must be >= 0")
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
    shared_cols: np.ndarray        # column indices of shared parameters
    unit_cols: np.ndarray          # column indices of unit-specific parameters
    col_pos: np.ndarray            # position of each column in est_shared or est_unit
    col_unit: np.ndarray           # model unit index per column (-1 = shared)
    unit_block: np.ndarray         # block index per model unit
    owned: list[np.ndarray]        # per block: positions in est_unit it owns
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
    col_unit = np.array([-1 if u is None else model.units.index(u) for _, u in split], dtype=int)
    shared_cols = np.flatnonzero(col_unit < 0)
    unit_cols = np.flatnonzero(col_unit >= 0)
    col_pos = np.empty(len(keys), dtype=int)
    col_pos[shared_cols] = np.arange(shared_cols.size)
    col_pos[unit_cols] = np.arange(unit_cols.size)
    return _SearchLayout(
        keys=tuple(keys),
        sds=np.array(sds),
        transforms=tuple(params.transform_of(k) for k in keys),
        shared_cols=shared_cols,
        unit_cols=unit_cols,
        col_pos=col_pos,
        col_unit=col_unit,
        unit_block=unit_block,
        owned=[np.flatnonzero(unit_block[col_unit[unit_cols]] == b) for b in range(len(blocks))],
        bases=tuple(base for base, _ in split),
    )


def _natural_theta(
    model: PompModel,
    fixed_theta: dict,
    layout: _SearchLayout,
    est_shared: np.ndarray,   # (B, J, P_sh)
    est_unit: np.ndarray,     # (J, P_us)
) -> dict:
    """Assemble the per-particle natural-scale theta mapping for one pass.

    Each searched base becomes a (J, U) array; a shared column takes, at every
    unit, the copy held by the block owning that unit.
    """
    shape = (est_shared.shape[1], model.n_units)
    theta = dict(fixed_theta)
    for base in dict.fromkeys(layout.bases):
        theta[base] = np.full(shape, fixed_theta[base])
    for ci, tr in enumerate(layout.transforms):
        mat, pos = theta[layout.bases[ci]], layout.col_pos[ci]
        if layout.col_unit[ci] < 0:
            mat[:] = _vec_from_est(est_shared[layout.unit_block, :, pos], tr).T
        else:
            mat[:, layout.col_unit[ci]] = _vec_from_est(est_unit[:, pos], tr)
    return theta


def _vec_from_est(values: np.ndarray, transform: str) -> np.ndarray:
    if transform == "identity":
        return values
    if transform == "log":
        return np.exp(values)
    if transform == "logit":
        return 1.0 / (1.0 + np.exp(-values))
    raise ValidationError(f"unknown transform {transform!r}")


def _center_params(
    params: ParameterSet, layout: _SearchLayout,
    est_shared: np.ndarray, est_unit: np.ndarray,
) -> ParameterSet:
    updates = {}
    for ci, key in enumerate(layout.keys):
        pos = layout.col_pos[ci]
        est = est_shared[:, :, pos] if layout.col_unit[ci] < 0 else est_unit[:, pos]
        updates[key] = from_estimation(float(np.mean(est)), layout.transforms[ci])
    return params.replace(updates)


@dataclass
class _Swarm:
    """The parameter swarm an IF2/IBPF filtering pass carries.

    Shared columns keep one copy per block, unit-specific columns one copy;
    the sds are this iteration's random-walk sds of those columns.
    """

    model: PompModel
    fixed: dict
    layout: _SearchLayout
    shared: np.ndarray        # (B, J, P_sh)
    unit: np.ndarray          # (J, P_us)
    sd_shared: np.ndarray     # (P_sh,)
    sd_unit: np.ndarray       # (P_us,)
    rng: np.random.Generator

    def theta(self) -> dict:
        """Perturb every particle's parameters and return their theta."""
        # the sums are new arrays, so resampling never writes into the arrays
        # the swarm started from (a size-0 draw takes nothing from the stream)
        self.shared = self.shared + self.rng.normal(size=self.shared.shape) * self.sd_shared
        self.unit = self.unit + self.rng.normal(size=self.unit.shape) * self.sd_unit
        return _natural_theta(self.model, self.fixed, self.layout, self.shared, self.unit)

    def resample(self, b: int, idx: np.ndarray) -> None:
        """Move block ``b``'s shared copy and the unit columns it owns to ``idx``."""
        self.shared[b] = self.shared[b][idx]
        owned = self.layout.owned[b]
        self.unit[:, owned] = self.unit[np.ix_(idx, owned)]


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
    init_rng = make_rng(children[0])

    # initial swarm on the estimation scale
    est0 = params.to_est(layout.keys)
    est_unit = np.tile(est0[layout.unit_cols], (J, 1))
    est_shared = np.tile(est0[layout.shared_cols], (B, J, 1))
    for name, (lo, hi) in (settings.hypercube or {}).items():
        matches = [i for i, k in enumerate(layout.keys) if k == name or split_key(k)[0] == name]
        if not matches:
            raise ValidationError(f"hypercube names unsearched parameter {name!r}")
        for ci in matches:
            tr = layout.transforms[ci]
            try:  # both bounds inside the transform's domain, as a parameter value must be
                ParamDef(lo, tr), ParamDef(hi, tr)
            except ValidationError as err:
                raise ValidationError(f"hypercube for {name!r}: {err}") from None
            if lo > hi:
                raise ValidationError(f"hypercube for {name!r}: lower bound {lo} exceeds upper bound {hi}")
            est = np.array([to_estimation(v, tr) for v in init_rng.uniform(lo, hi, size=J)])
            if layout.col_unit[ci] < 0:
                est_shared[:, :, layout.col_pos[ci]] = est
            else:
                est_unit[:, layout.col_pos[ci]] = est

    trace: list[IterationRecord] = []
    best: tuple[float, ParameterSet] | None = None
    aborted = False

    for m in range(1, M + 1):
        pass_rng = make_rng(children[2 * m - 1])
        sd_m = np.array([cooled_sd(s, settings.cooling, m) for s in layout.sds])
        swarm = _Swarm(
            model, fixed, layout, est_shared, est_unit,
            sd_m[layout.shared_cols], sd_m[layout.unit_cols], pass_rng,
        )
        res = _filter_pass(model, None, data, grid, covs, J, pass_rng, blocks, swarm)
        if res.failed_times:
            # total filtering failure: keep the swarm from before the pass and
            # stop after tracing
            aborted = True
        else:
            est_shared, est_unit = swarm.shared, swarm.unit

        # reconcile shared parameters across blocks (mean on estimation scale)
        if est_shared.size and B > 1:
            est_shared[:] = est_shared.mean(axis=0, keepdims=True)

        center = _center_params(params, layout, est_shared, est_unit)
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

    natural = np.empty((J, len(layout.keys)))
    for ci, tr in enumerate(layout.transforms):
        pos = layout.col_pos[ci]
        vals = est_shared[0, :, pos] if layout.col_unit[ci] < 0 else est_unit[:, pos]
        natural[:, ci] = _vec_from_est(vals, tr)

    return If2Result(
        best=best[1],
        best_loglik=best[0],
        trace=trace,
        swarm=natural,
        searched=layout.keys,
        aborted=aborted,
    )
