"""The POMP model abstraction and the one forward simulator.

A :class:`PompModel` bundles an initializer, a process stepper, a measurement
density/sampler, and structural metadata (units, state layout, accumulator
variables). All model functions are vectorized over a leading particle axis:
states are (J, S) arrays, and parameter values passed to them are floats or
2-d arrays broadcastable against (J, U) blocks (see :func:`compile_theta`).

Accumulator state variables (weekly incidence trackers) are zeroed by
:func:`advance` at the start of each observation interval; the recorded
trajectory keeps the accumulated value at each observation. Outside the
filter's pass, :func:`propagate` is the one loop over observation intervals:
``simulate`` and the forecasts run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .grid import TimeGrid
from .params import ParameterSet, split_key
from .series import CovariateTable, ObservationSeries

Theta = Mapping[str, Any]  # name -> float | (1,U) | (J,1) | (J,U) array


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Counter-based (Philox) generator for reproducible streams, from an int
    seed or a spawned ``SeedSequence``."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True, eq=False)
class PompModel:
    """A partially observed Markov process model.

    Component signatures (J = particle count, S = state dim, U = unit count):

    - ``rinit(theta, J, rng) -> (J, S)``
    - ``prepare(theta) -> prepared``: the part of ``step`` that depends on
      theta alone, done once per observation interval by :func:`advance`;
      the identity by default.
    - ``step(X, t, dt, prepared, covs, rng) -> (J, S)``: one Euler substep,
      handed ``prepare(theta)`` in theta's place (deterministic models
      ignore ``rng``).
    - ``dunit_measure(y, X, t, theta) -> (J, U)`` per-unit observation
      log-densities for one observation row ``y`` (length U).
    - ``runit_measure(X, t, theta, rng) -> (J, U)`` observation sampler.

    Every function reads a parameter as ``theta[name]``, a float or a 2-d
    array broadcastable against (J, U): :func:`compile_theta` gives floats
    and (1, U) family rows, and a parameter search gives a searched
    parameter one row per particle. A one-unit model therefore computes in
    (J, 1) columns, the shape its measures return.

    In a multi-unit model each state is named ``"name[unit]"`` (spelled by
    :func:`epipomp.params.family_key`), as unit-specific parameters are: the
    suffix is the one record of which unit owns the state, and block filters
    resample each unit's states by it (:meth:`unit_state_indices`).
    """

    name: str
    units: tuple[str, ...]
    state_names: tuple[str, ...]
    params: ParameterSet
    rinit: Callable[[Theta, int, np.random.Generator | None], np.ndarray]
    step: Callable[..., np.ndarray]
    dunit_measure: Callable[..., np.ndarray]
    runit_measure: Callable[..., np.ndarray]
    accumulators: tuple[str, ...] = ()
    true_infection_states: tuple[str, ...] = ()
    measured_states: tuple[str, ...] = ()
    stochastic: bool = True
    needs_covariates: bool = False
    validate_params: Callable[[ParameterSet], None] | None = None
    prepare: Callable[[Theta], Any] = lambda theta: theta
    _position: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(set(self.state_names)) != len(self.state_names):
            raise ValidationError("duplicate state names")
        object.__setattr__(self, "_position", {n: i for i, n in enumerate(self.state_names)})
        for a in self.accumulators + self.true_infection_states + self.measured_states:
            if a not in self.state_names:
                raise ValidationError(f"accumulator {a!r} is not a state variable")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_units(self) -> int:
        return len(self.units)

    def indices(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self._position[n] for n in names], dtype=int)

    @property
    def accum_indices(self) -> np.ndarray:
        return self.indices(self.accumulators)

    def unit_state_indices(self) -> list[np.ndarray]:
        """State indices owned by each unit, in unit order, read from the
        ``[unit]`` suffix of the state names (for block resampling)."""
        owned: dict[str, list[int]] = {u: [] for u in self.units}
        for i, name in enumerate(self.state_names):
            unit = split_key(name)[1]
            if unit not in owned:
                raise ValidationError(
                    f"state {name!r} of model {self.name!r} names no unit of "
                    f"{list(self.units)}; block filtering needs every state keyed name[unit]"
                )
            owned[unit].append(i)
        return [np.array(owned[u], dtype=int) for u in self.units]

    def check_params(self, params: ParameterSet) -> None:
        missing = [k for k in self.params if k not in params]
        if missing:
            raise ValidationError(
                f"model {self.name!r} requires parameters {missing} absent from the given set"
            )
        if self.validate_params is not None:
            self.validate_params(params)


def compile_theta(model: PompModel, params: ParameterSet) -> dict[str, Any]:
    """Check a ParameterSet with :meth:`PompModel.check_params` and flatten it
    into the value mapping passed to model functions.

    Shared entries become floats; unit-specific families become (1, U) arrays
    ordered like ``model.units``. Validates family completeness and unit
    names against the model.
    """
    model.check_params(params)
    units = list(model.units)
    theta: dict[str, Any] = {}
    families: dict[str, dict[str, float]] = {}
    for key in params:
        base, unit = split_key(key)
        if unit is None:
            theta[base] = float(params[key])
        else:
            if unit not in units:
                raise ValidationError(f"parameter {key!r} references unknown unit {unit!r}")
            families.setdefault(base, {})[unit] = float(params[key])
    for base, by_unit in families.items():
        missing = [u for u in units if u not in by_unit]
        if missing:
            raise ValidationError(f"parameter family {base!r} missing units {missing}")
        if base in theta:
            raise ValidationError(f"parameter {base!r} is both shared and unit-specific")
        theta[base] = np.array([[by_unit[u] for u in units]])
    return theta


def advance(
    model: PompModel,
    X: np.ndarray,
    t_from: float,
    t_to: float,
    theta: Theta,
    covs: CovariateTable | None,
    grid: TimeGrid,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """One observation interval: zero the accumulators of ``X`` in place, then
    propagate the particles from t_from to t_to in equal Euler substeps, so
    that the accumulators hold the interval's totals at t_to. The model
    prepares ``theta`` once, here, for every substep of the interval."""
    acc = model.accum_indices
    if acc.size:
        X[:, acc] = 0.0
    n, h = grid.substeps(t_from, t_to)
    prepared = model.prepare(theta)
    for k in range(n):
        X = model.step(X, t_from + k * h, h, prepared, covs, rng)
    return X


@dataclass
class SimulationResult:
    """Latent trajectories and synthetic observations from ``simulate``.

    ``states`` has shape (n_sims, N+1, S) with row 0 the state at t0;
    accumulator columns hold the within-week totals at each observation time.
    ``observations`` has shape (n_sims, N, U).
    """

    units: tuple[str, ...]
    state_names: tuple[str, ...]
    times: np.ndarray
    t0: float
    states: np.ndarray
    observations: np.ndarray

    @property
    def n_sims(self) -> int:
        return int(self.states.shape[0])

    def observation_series(self, sim: int) -> ObservationSeries:
        obs = self.observations[sim].T
        present = obs[~np.isnan(obs)]
        is_counts = bool(np.all(present >= 0) and np.all(present == np.round(present)))
        return ObservationSeries(self.units, obs, counts=is_counts)


def check_covariates(model: PompModel, covs: CovariateTable | None, grid: TimeGrid) -> None:
    """Require covariates spanning [grid.t0, grid.t_end] when the model reads
    them, with rainfall rows for the model's units in the model's order."""
    if model.needs_covariates:
        if covs is None:
            raise ValidationError(f"model {model.name!r} requires covariates")
        covs.check_span(grid.t0, grid.t_end)
        if covs.rainfall is not None and covs.units != model.units:
            raise ValidationError(
                f"rainfall units {list(covs.units)} differ from model {model.name!r} "
                f"units {list(model.units)}"
            )


def propagate(
    model: PompModel,
    X: np.ndarray,
    theta: Theta,
    grid: TimeGrid,
    covs: CovariateTable | None,
    rng: np.random.Generator | None,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The one forward loop: run the particles ``X`` (J, S) from ``grid.t0``
    through each observation interval (:func:`advance`, then an observation
    draw). Returns the columns ``cols`` of the states at t0 and at each
    observation time, (J, N+1, C), and the observations, (J, N, U).
    """
    check_covariates(model, covs, grid)
    states = np.empty((X.shape[0], grid.n_obs + 1, len(cols)))
    observations = np.empty((X.shape[0], grid.n_obs, model.n_units))
    states[:, 0] = X[:, cols]
    for n, (t_prev, t_next) in enumerate(grid.intervals()):
        X = advance(model, X, t_prev, t_next, theta, covs, grid, rng)
        states[:, n + 1] = X[:, cols]
        observations[:, n] = model.runit_measure(X, t_next, theta, rng)
    return states, observations


def simulate(
    model: PompModel,
    params: ParameterSet,
    grid: TimeGrid,
    covs: CovariateTable | None = None,
    n_sims: int = 1,
    seed: int = 0,
) -> SimulationResult:
    """Draw ``n_sims`` independent realizations of the model: ``rinit``, then
    :func:`propagate` over ``grid``, recording every state.

    Equal (seed, inputs) reproduce bit-identical output regardless of the
    worker count: all randomness comes from a single counter-based stream
    consumed in a fixed order.
    """
    if n_sims < 1:
        raise ValidationError("n_sims must be >= 1")
    theta = compile_theta(model, params)
    rng = make_rng(seed)
    X = np.asarray(model.rinit(theta, n_sims, rng), dtype=float)
    if X.shape != (n_sims, model.n_states):
        raise ValidationError(
            f"rinit returned shape {X.shape}, expected {(n_sims, model.n_states)}"
        )
    states, observations = propagate(model, X, theta, grid, covs, rng, np.arange(model.n_states))
    return SimulationResult(
        units=model.units,
        state_names=model.state_names,
        times=grid.obs_times.copy(),
        t0=grid.t0,
        states=states,
        observations=observations,
    )
