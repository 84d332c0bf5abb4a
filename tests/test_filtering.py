"""Particle filter against exact oracles (forward algorithm, Kalman filter)
plus the structural contracts: ESS bounds, conditional decomposition,
failure flagging, missing-data handling, and likelihood-weighted sampling."""

import numpy as np
import pytest
from conftest import mc_se_mean, se_proportion

from epipomp.errors import ValidationError
from epipomp.filtering import (
    effective_sample_size,
    logmeanexp,
    particle_filter,
    sample_params_by_likelihood,
    systematic_indices,
)
from epipomp.model import simulate
from epipomp.params import ParamDef, ParameterSet
from epipomp.toys import (
    hmm_forward_loglik,
    hmm_model,
    kalman_loglik,
    lgssm_model,
    pure_death_model,
    sir_model,
    toy_grid,
)

TRANS = np.array([[0.9, 0.1], [0.2, 0.8]])
EMIT = np.array([[0.8, 0.15, 0.05], [0.1, 0.3, 0.6]])
INIT = np.array([0.6, 0.4])


@pytest.fixture(scope="module")
def hmm_data():
    m = hmm_model(TRANS, EMIT, INIT)
    g = toy_grid(50)
    sim = simulate(m, m.params, g, n_sims=1, seed=2024)
    return m, g, sim.observation_series(0)


class TestAgainstForwardAlgorithm:
    def test_pf_matches_exact_loglik_within_3se(self, hmm_data):
        m, g, data = hmm_data
        exact = hmm_forward_loglik(data.values[0].astype(int), TRANS, EMIT, INIT)
        lls = np.array(
            [particle_filter(m, m.params, data, g, J=1000, seed=s).loglik for s in range(10)]
        )
        assert abs(lls.mean() - exact) < 3 * mc_se_mean(lls)

    def test_pf_likelihood_unbiasedness_proxy(self, hmm_data):
        # mean of likelihood (not log) estimates near the exact likelihood
        m, g, data = hmm_data
        short = data.subset(0, 20)
        gshort = toy_grid(20)
        exact = np.exp(hmm_forward_loglik(short.values[0].astype(int), TRANS, EMIT, INIT))
        liks = np.exp(
            [particle_filter(m, m.params, short, gshort, J=500, seed=s).loglik for s in range(50)]
        )
        assert abs(liks.mean() - exact) < 3 * mc_se_mean(liks)


class TestAgainstKalman:
    def test_pf_matches_kalman_within_3se(self):
        m = lgssm_model(a=0.8, sig_proc=1.0, sig_obs=0.5)
        g = toy_grid(100)
        data = simulate(m, m.params, g, n_sims=1, seed=77).observation_series(0)
        exact = kalman_loglik(data.values[0], 0.8, 1.0, 0.5)
        lls = np.array(
            [particle_filter(m, m.params, data, g, J=2000, seed=s).loglik for s in range(8)]
        )
        assert abs(lls.mean() - exact) < 3 * mc_se_mean(lls)


class TestStructure:
    def test_deterministic_model_loglik_independent_of_J_and_seed(self):
        m = pure_death_model(stochastic=False)
        g = toy_grid(12, euler_step=0.25)
        data = simulate(m, m.params, g, n_sims=1, seed=3).observation_series(0)
        lls = {
            particle_filter(m, m.params, data, g, J=j, seed=s).loglik
            for j in (1, 7, 50)
            for s in (0, 1, 2)
        }
        assert len(lls) == 1

    def test_cond_logliks_sum_to_loglik_exactly(self, hmm_data):
        m, g, data = hmm_data
        res = particle_filter(m, m.params, data, g, J=300, seed=4)
        assert res.loglik == np.sum(res.cond_logliks)

    def test_ess_within_bounds_and_equal_weights_gives_J(self, hmm_data):
        m, g, data = hmm_data
        res = particle_filter(m, m.params, data, g, J=64, seed=1)
        assert np.all(res.ess >= 1.0) and np.all(res.ess <= 64.0)
        logw = np.zeros(64)
        assert effective_sample_size(logw) == pytest.approx(64.0)

    def test_all_zero_weights_flags_time_and_returns_neg_inf(self):
        m = pure_death_model()
        g = toy_grid(5)
        # impossible data: cases reported while prevalence is zero
        data_values = np.array([[0.0, 0.0, 50.0, 0.0, 0.0]])
        from epipomp.series import ObservationSeries

        params = m.params.replace({"i0": 1e-9})
        data = ObservationSeries(("unit",), data_values)
        res = particle_filter(m, params, data, g, J=50, seed=0)
        assert res.loglik == -np.inf
        assert 2 in res.failed_times

    def test_missing_observations_contribute_zero_and_skip_resampling(self):
        m = sir_model()
        g = toy_grid(10)
        data = simulate(m, m.params, g, n_sims=1, seed=8).observation_series(0)
        vals = data.values.copy()
        vals[0, 4] = np.nan
        from epipomp.series import ObservationSeries

        data_missing = ObservationSeries(("unit",), vals)
        res = particle_filter(m, m.params, data_missing, g, J=100, seed=5)
        assert res.cond_logliks[4] == 0.0
        assert res.ess[4] == 100.0
        assert np.isfinite(res.loglik)

    def test_all_missing_weeks_add_zero_and_keep_ess_J(self):
        m = sir_model()
        g = toy_grid(10)
        vals = simulate(m, m.params, g, n_sims=1, seed=8).observation_series(0).values.copy()
        vals[:, [3, 6]] = np.nan
        from epipomp.series import ObservationSeries

        res = particle_filter(m, m.params, ObservationSeries(("unit",), vals), g, J=100, seed=5)
        assert res.cond_logliks[3] == 0.0 and res.cond_logliks[6] == 0.0
        assert res.ess[3] == 100.0 and res.ess[6] == 100.0
        assert np.all(res.block_ess[[3, 6]] == 100.0)
        assert np.isfinite(res.loglik)

    def test_filter_sample_shape(self, hmm_data):
        # the sample is the J particles of the final filtering distribution
        m, g, data = hmm_data
        res = particle_filter(m, m.params, data, g, J=40, seed=0)
        assert res.filter_sample.shape == (40, m.n_states)

    def test_data_unit_mismatch_rejected(self, hmm_data):
        m, g, data = hmm_data
        from epipomp.series import ObservationSeries

        bad = ObservationSeries(("x",), data.values)
        with pytest.raises(ValidationError):
            particle_filter(m, m.params, bad, g, J=10, seed=0)


class TestSystematicResampling:
    def test_offspring_proportional_to_weights(self):
        logw = np.log(np.array([0.5, 0.25, 0.25]) * 3)
        idx = systematic_indices(np.tile(logw, 100), 0.37)
        counts = np.bincount(idx, minlength=300)
        assert counts.sum() == 300

    def test_logmeanexp_handles_neg_inf(self):
        assert logmeanexp(np.array([-np.inf, -np.inf])) == -np.inf
        assert logmeanexp(np.array([0.0, -np.inf])) == pytest.approx(np.log(0.5))


class TestSampleParamsByLikelihood:
    def _ps(self, v):
        return ParameterSet({"x": ParamDef(float(v))})

    def test_single_candidate_all_draws_identical(self):
        out = sample_params_by_likelihood([(self._ps(3), -5.0)], K=7, seed=0)
        assert all(p["x"] == 3 for p in out)

    def test_softmax_frequencies(self):
        # logliks (0, -ln 3) => probabilities (0.75, 0.25)
        cands = [(self._ps(0), 0.0), (self._ps(1), -np.log(3.0))]
        draws = sample_params_by_likelihood(cands, K=100_000, seed=1)
        frac = np.mean([p["x"] for p in draws])
        assert abs(frac - 0.25) < 3 * se_proportion(0.25, 100_000)

    def test_equal_logliks_uniform(self):
        cands = [(self._ps(i), -12.3) for i in range(4)]
        draws = sample_params_by_likelihood(cands, K=100_000, seed=2)
        counts = np.bincount([int(p["x"]) for p in draws], minlength=4) / 100_000
        for c in counts:
            assert abs(c - 0.25) < 3 * se_proportion(0.25, 100_000)

    def test_all_neg_inf_fails(self):
        with pytest.raises(ValidationError):
            sample_params_by_likelihood([(self._ps(0), -np.inf)], K=3, seed=0)
