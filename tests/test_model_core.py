"""Generic simulator contracts: reproducibility, accumulator semantics,
covariate coverage, and the pure-death closed-form oracle."""

import numpy as np
import pytest
from oracles import toy_grid

from epipomp.errors import CoverageError, ValidationError
from epipomp.grid import TimeGrid
from epipomp.model import compile_theta, simulate
from epipomp.params import ParamDef, ParameterSet
from epipomp.series import CovariateTable
from epipomp.toys import pure_death_model, sir_model


def _rebuilt(params, drop=None, add=None):
    """``params`` less the entry ``drop`` and plus an entry ``add`` of value 1."""
    entries = {k: ParamDef(params[k], params.transform_of(k)) for k in params if k != drop}
    if add is not None:
        entries[add] = ParamDef(1.0)
    return ParameterSet(entries)


class TestSimulate:
    def test_bit_identical_under_equal_seeds(self):
        m = sir_model()
        g = toy_grid(20, steps_per_week=2)
        a = simulate(m, m.params, g, n_sims=4, seed=123)
        b = simulate(m, m.params, g, n_sims=4, seed=123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)
        c = simulate(m, m.params, g, n_sims=4, seed=124)
        assert not np.array_equal(a.observations, c.observations)

    def test_no_infection_source_gives_all_zero_observations(self):
        m = sir_model()
        params = m.params.replace({"beta": 1e-12, "i0": 1e-9, "rho": 0.9})
        res = simulate(m, params, toy_grid(15), n_sims=3, seed=5)
        assert np.all(res.observations == 0.0)

    def test_zero_process_noise_still_stochastic(self):
        # demographic stochasticity remains with sigma_proc ~ 0
        m = sir_model()
        res = simulate(m, m.params, toy_grid(20), n_sims=2, seed=9)
        assert not np.array_equal(res.states[0], res.states[1])

    def test_pure_death_skeleton_exponential_decay(self):
        # I' = -mu I with mu = 1/wk, I(0)=1e6: I(52wk) = 1e6 * e^-52
        m = pure_death_model(stochastic=False)
        params = m.params.replace({"mu": 1.0, "i0": 1e6})
        grid = TimeGrid(0.0, np.arange(1.0, 53.0), euler_step=0.005)
        res = simulate(m, params, grid, n_sims=1, seed=0)
        final = res.states[:, :, res.state_names.index("I")][0, -1]
        expected = 1e6 * np.exp(-52.0)
        assert abs(final - expected) / expected < 1e-6

    def test_accumulators_reset_each_week(self):
        m = sir_model()
        res = simulate(m, m.params, toy_grid(10), n_sims=1, seed=2)
        weekly = res.states[:, :, res.state_names.index("C_inc")][0, 1:]
        # cumulative infections bounded by population; weekly resets keep each
        # entry at most the whole population but their sum can exceed it only
        # through waning; at least assert accumulators are not monotone sums
        assert weekly.max() <= m.params["pop"]
        assert not np.all(np.diff(weekly) >= 0)

    def test_invalid_parameter_fails_before_simulation(self):
        m = sir_model()
        with pytest.raises(ValidationError):
            m.params.replace({"beta": -0.5})

    def test_covariate_gap_is_descriptive(self):
        m = sir_model()
        object.__setattr__(m, "needs_covariates", True)
        covs = CovariateTable(times=np.array([0.0, 1.0]), step=1.0)
        with pytest.raises(CoverageError, match="uncovered"):
            simulate(m, m.params, toy_grid(10), covs, n_sims=1, seed=0)

    def test_n_sims_validation(self):
        m = sir_model()
        with pytest.raises(ValidationError):
            simulate(m, m.params, toy_grid(5), n_sims=0, seed=0)

    def test_missing_required_parameter_rejected_at_binding(self):
        m = sir_model()
        incomplete = _rebuilt(m.params, drop="gamma")
        with pytest.raises(ValidationError, match="gamma"):
            simulate(m, incomplete, toy_grid(5), n_sims=1, seed=0)


class TestCompileTheta:
    def test_families_become_unit_row_vectors(self):
        from epipomp.toys import metapop_model

        m = metapop_model(units=("a", "b"), pops=(100.0, 200.0))
        theta = compile_theta(m, m.params)
        assert np.shape(theta["beta"]) == (1, 2)
        assert isinstance(theta["gamma"], float)

    def test_incomplete_family_rejected(self):
        from epipomp.toys import metapop_model

        m = metapop_model(units=("a", "b"), pops=(100.0, 200.0))
        bad = _rebuilt(m.params, drop="beta[b]")
        with pytest.raises(ValidationError, match="beta"):
            compile_theta(m, bad)

    def test_unknown_unit_rejected(self):
        m = sir_model()
        bad = _rebuilt(m.params, add="x[elsewhere]")
        with pytest.raises(ValidationError, match="elsewhere"):
            compile_theta(m, bad)
