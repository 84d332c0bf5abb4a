"""The parameter convention every built-in model keeps.

A model function reads ``theta[name]`` as a float or a 2-d array
broadcastable against (J, U). ``compile_theta`` gives floats and (1, U)
family rows; a parameter search gives (J, U) arrays. Whichever of these a
model is handed, with equal values it must produce the same bits, and its
measures must have shape (J, U). The (J, U) case also catches a one-unit
model whose (J, 1) parameters meet (J,) state columns and broadcast to
(J, J). ``advance`` hands ``step`` what ``model.prepare`` makes of theta,
once per observation interval, so every model is stepped through its
``prepare`` here.
"""

import dataclasses

import numpy as np
import pytest
from oracles import toy_grid

from epipomp.grid import weekly_grid
from epipomp.haiti.geography import synthetic_geography
from epipomp.haiti.model1 import build_model1
from epipomp.haiti.model2 import build_model2
from epipomp.haiti.model3 import build_model3
from epipomp.haiti.scenarios import apply_vaccination_scenario, builtin_scenario
from epipomp.model import advance, compile_theta, make_rng
from epipomp.params import family_key
from epipomp.series import CovariateTable, standardize_rainfall
from epipomp.toys import (
    hmm_model,
    lgssm_model,
    metapop_model,
    pure_death_model,
    sir_model,
)
from epipomp.units import WEEK

J = 4
N_WEEKS = 3


def _haiti_grid():
    return weekly_grid(N_WEEKS)


def _build(name):
    """(model, grid, covariates) for one built-in model; the Haiti models run
    with V4 cohorts so their vaccinated-cohort flows are exercised."""
    geo = synthetic_geography()
    toys = {
        "toy:sir": lambda: sir_model(),
        "toy:sir-det": lambda: sir_model(stochastic=False),
        "toy:metapop": lambda: metapop_model(),
        "toy:puredeath": lambda: pure_death_model(),
        "toy:puredeath-det": lambda: pure_death_model(stochastic=False),
        "toy:hmm": lambda: hmm_model(),
        "toy:lgssm": lambda: lgssm_model(),
    }
    if name in toys:
        return toys[name](), toy_grid(N_WEEKS, steps_per_week=2), None
    schedule = apply_vaccination_scenario(builtin_scenario("V4", geo), name, geo, origin=0.0)
    if name == "model1":
        return build_model1(trend_window=(0.0, 2.0), schedule=schedule), _haiti_grid(), None
    if name == "model2":
        init_cases = np.arange(1.0, geo.n_units + 1.0) * 10.0
        return build_model2(init_cases, geo, schedule), _haiti_grid(), None
    init_obs = np.tile([8.0, 10.0, 12.0, 9.0], (geo.n_units, 1))
    init_obs[2] = 0.0  # one unit starts from its i0 parameter
    raw = make_rng(77).gamma(2.0, 25.0, size=(geo.n_units, N_WEEKS + 1))
    covs = CovariateTable(
        times=np.arange(N_WEEKS + 1) * WEEK, step=WEEK,
        rainfall=standardize_rainfall(raw, geo.units), units=geo.units, hurricane_time=WEEK,
    )
    return build_model3(init_obs, geo, schedule), _haiti_grid(), covs


def _run(model, theta, grid, covs):
    """Initial and weekly states and one observation draw, from one seeded
    stream."""
    rng = make_rng(3)
    X = model.rinit(theta, J, rng)
    states = [X.copy()]
    for t_prev, t_next in grid.intervals():
        X = advance(model, X, t_prev, t_next, theta, covs, grid, rng)
        states.append(X.copy())
    return np.stack(states), model.runit_measure(X, grid.t_end, theta, rng)


MODELS = ["toy:sir", "toy:sir-det", "toy:metapop", "toy:puredeath", "toy:puredeath-det",
          "toy:hmm", "toy:lgssm", "model1", "model2", "model3"]


@pytest.mark.parametrize("name", MODELS)
def test_per_particle_theta_gives_the_compiled_bits(name):
    model, grid, covs = _build(name)
    U = model.n_units
    theta = compile_theta(model, model.params)
    wide = {k: np.broadcast_to(v, (J, U)).copy() for k, v in theta.items()}
    states, obs = _run(model, theta, grid, covs)
    states_w, obs_w = _run(model, wide, grid, covs)
    y = obs[0]
    dens = model.dunit_measure(y, states[-1], grid.t_end, theta)
    dens_w = model.dunit_measure(y, states_w[-1], grid.t_end, wide)

    assert states.shape == (N_WEEKS + 1, J, model.n_states)
    assert obs.shape == dens.shape == obs_w.shape == dens_w.shape == (J, U)
    np.testing.assert_array_equal(states_w, states)
    np.testing.assert_array_equal(obs_w, obs)
    np.testing.assert_array_equal(dens_w, dens)


@pytest.mark.parametrize("name", MODELS)
def test_advance_prepares_theta_once_per_interval(name):
    model, grid, covs = _build(name)
    theta = compile_theta(model, model.params)
    prepared, handed = [], []

    def prepare(th):
        assert th is theta
        prepared.append(model.prepare(th))
        return prepared[-1]

    def step(X, t, dt, p, covs, rng):
        handed.append(p is prepared[-1])
        return model.step(X, t, dt, p, covs, rng)

    _run(dataclasses.replace(model, prepare=prepare, step=step), theta, grid, covs)
    assert len(prepared) == N_WEEKS
    assert len(handed) == sum(grid.substeps(a, b)[0] for a, b in grid.intervals())
    assert all(handed)


def test_metapop_units_start_from_their_own_i0_copies():
    m = metapop_model()
    theta = compile_theta(m, m.params)
    theta["i0"] = np.array([[5.0, 20.0, 40.0]])  # a block search's per-unit copies
    X = m.rinit(theta, 2, None)
    infected = X[:, m.indices([family_key("I", u) for u in m.units])]
    susceptible = X[:, m.indices([family_key("S", u) for u in m.units])]
    np.testing.assert_array_equal(infected, [[5.0, 20.0, 40.0]] * 2)
    np.testing.assert_array_equal(susceptible + infected, [[4000.0, 5000.0, 6000.0]] * 2)


def test_deterministic_pure_death_is_named_for_its_variant():
    assert pure_death_model(stochastic=False).name == "toy:puredeath-det"
