"""The POMP model abstraction and the generic simulator.

A :class:`PompModel` bundles an initializer, a process stepper, a measurement
density/sampler, and structural metadata (units, state layout, accumulator
variables). All model functions are vectorized over a leading particle axis:
states are (J, S) arrays, and parameter values passed to them are floats or
2-d arrays broadcastable against (J, U) blocks (see :func:`compile_theta`).

Accumulator state variables (weekly incidence trackers) are zeroed
immediately after each observation time; the recorded trajectory keeps the
accumulated value at each observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .grid import TimeGrid
from .params import ParameterSet, split_key
from .series import CovariateTable, ObservationSeries

Theta = Mapping[str, Any]  # name -> float | (1,U) | (J,1) | (J,U) array


def make_rng(seed) -> np.random.Generator:
    """Counter-based (Philox) generator for reproducible streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True, eq=False)
class PompModel:
    """A partially observed Markov process model.

    Component signatures (J = particle count, S = state dim, U = unit count):

    - ``rinit(theta, J, rng) -> (J, S)``
    - ``step(X, t, dt, theta, covs, rng) -> (J, S)``: one Euler substep
      (deterministic models ignore ``rng``).
    - ``dunit_measure(y, X, t, theta) -> (J, U)`` per-unit observation
      log-densities for one observation row ``y`` (length U).
    - ``runit_measure(X, t, theta, rng) -> (J, U)`` observation sampler.
    """

    name: str
    units: tuple[str, ...]
    state_names: tuple[str, ...]
    params: ParameterSet
    rinit: Callable[[Theta, int, np.random.Generator | None], np.ndarray]
    step: Callable[..., np.ndarray]
    dunit_measure: Callable[..., np.ndarray]
    runit_measure: Callable[..., np.ndarray] | None = None
    accumulators: tuple[str, ...] = ()
    true_infection_states: tuple[str, ...] = ()
    measured_states: tuple[str, ...] = ()
    stochastic: bool = True
    needs_covariates: bool = False
    unit_states: tuple[tuple[str, ...], ...] | None = None
    validate_params: Callable[[ParameterSet], None] | None = None

    def __post_init__(self) -> None:
        if len(set(self.state_names)) != len(self.state_names):
            raise ValidationError("duplicate state names")
        for a in self.accumulators + self.true_infection_states + self.measured_states:
            if a not in self.state_names:
                raise ValidationError(f"accumulator {a!r} is not a state variable")

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_units(self) -> int:
        return len(self.units)

    def state_index(self, name: str) -> int:
        return self.state_names.index(name)

    def indices(self, names: Sequence[str]) -> np.ndarray:
        return np.array([self.state_names.index(n) for n in names], dtype=int)

    @property
    def accum_indices(self) -> np.ndarray:
        return self.indices(self.accumulators)

    def unit_state_indices(self) -> list[np.ndarray]:
        """State indices belonging to each unit (for block resampling)."""
        if self.unit_states is None:
            return [np.arange(self.n_states)]
        return [self.indices(names) for names in self.unit_states]

    def check_params(self, params: ParameterSet) -> None:
        missing = [k for k in self.params if k not in params]
        if missing:
            raise ValidationError(
                f"model {self.name!r} requires parameters {missing} absent from the given set"
            )
        if self.validate_params is not None:
            self.validate_params(params)


def compile_theta(model: PompModel, params: ParameterSet) -> dict[str, Any]:
    """Flatten a ParameterSet into the value mapping passed to model functions.

    Shared entries become floats; unit-specific families become (1, U) arrays
    ordered like ``model.units``. Validates family completeness and unit
    names against the model.
    """
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


def scalar_param(theta: Theta, name: str):
    """Parameter as float or (J,) column (single-unit models)."""
    v = theta[name]
    if np.ndim(v) == 0:
        return v
    a = np.asarray(v, dtype=float)
    return a[:, 0] if a.ndim == 2 else a


def unit_param(theta: Theta, name: str):
    """Parameter as float or 2-d array broadcastable against (J, U)."""
    v = theta[name]
    return v if np.ndim(v) == 0 else np.asarray(v, dtype=float)


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
    """Propagate particles from t_from to t_to in equal Euler substeps."""
    n, h = grid.substeps(t_from, t_to)
    for k in range(n):
        X = model.step(X, t_from + k * h, h, theta, covs, rng)
    return X


@dataclass
class SimulationResult:
    """Latent trajectories and synthetic observations from ``simulate``.

    ``states`` has shape (n_sims, N+1, S) with row 0 the state at t0;
    accumulator columns hold the within-week totals at each observation time.
    ``observations`` has shape (n_sims, N, U).
    """

    model_name: str
    units: tuple[str, ...]
    state_names: tuple[str, ...]
    times: np.ndarray
    t0: float
    states: np.ndarray
    observations: np.ndarray

    @property
    def n_sims(self) -> int:
        return int(self.states.shape[0])

    def state_series(self, name: str) -> np.ndarray:
        return self.states[:, :, list(self.state_names).index(name)]

    def observation_series(self, sim: int) -> ObservationSeries:
        obs = self.observations[sim].T
        present = obs[~np.isnan(obs)]
        is_counts = bool(np.all(present >= 0) and np.all(present == np.round(present)))
        return ObservationSeries(self.units, obs, counts=is_counts)

    def as_pairs(self) -> list[tuple[np.ndarray, ObservationSeries]]:
        return [(self.states[i], self.observation_series(i)) for i in range(self.n_sims)]


def simulate(
    model: PompModel,
    params: ParameterSet,
    grid: TimeGrid,
    covs: CovariateTable | None = None,
    n_sims: int = 1,
    seed: int = 0,
) -> SimulationResult:
    """Draw ``n_sims`` independent realizations of the model.

    Equal (seed, inputs) reproduce bit-identical output regardless of the
    worker count: all randomness comes from a single counter-based stream
    consumed in a fixed order.
    """
    if n_sims < 1:
        raise ValidationError("n_sims must be >= 1")
    model.check_params(params)
    if model.needs_covariates:
        if covs is None:
            raise ValidationError(f"model {model.name!r} requires covariates")
        covs.check_span(grid.t0, grid.t_end)
    theta = compile_theta(model, params)
    rng = make_rng(seed)
    X = np.asarray(model.rinit(theta, n_sims, rng), dtype=float)
    if X.shape != (n_sims, model.n_states):
        raise ValidationError(
            f"rinit returned shape {X.shape}, expected {(n_sims, model.n_states)}"
        )
    n_obs = grid.n_obs
    states = np.empty((n_sims, n_obs + 1, model.n_states))
    observations = np.empty((n_sims, n_obs, model.n_units))
    states[:, 0] = X
    acc = model.accum_indices
    for n, (t_prev, t_next) in enumerate(grid.intervals()):
        if acc.size:
            X[:, acc] = 0.0
        X = advance(model, X, t_prev, t_next, theta, covs, grid, rng)
        states[:, n + 1] = X
        if model.runit_measure is None:
            raise ValidationError(f"model {model.name!r} has no measurement sampler")
        observations[:, n] = model.runit_measure(X, t_next, theta, rng)
    return SimulationResult(
        model_name=model.name,
        units=model.units,
        state_names=model.state_names,
        times=grid.obs_times.copy(),
        t0=grid.t0,
        states=states,
        observations=observations,
    )
