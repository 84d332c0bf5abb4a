"""Particle filter against exact oracles (forward algorithm, Kalman filter)
plus the structural contracts: ESS bounds, conditional decomposition,
failure flagging, missing-data handling, and likelihood-weighted sampling."""

import dataclasses
import warnings

import numpy as np
import pytest
from conftest import mc_se_mean, se_proportion
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import effective_sample_size, hmm_forward_loglik, kalman_loglik, logmeanexp, toy_grid

from epipomp import filtering, iterfilter
from epipomp.errors import ValidationError
from epipomp.filtering import (
    column_weights,
    particle_filter,
    sample_params_by_likelihood,
    systematic_indices,
)
from epipomp.haiti.geography import synthetic_geography
from epipomp.haiti.model2 import build_model2
from epipomp.haiti.model3 import build_model3
from epipomp.haiti.scenarios import apply_vaccination_scenario, builtin_scenario
from epipomp.iterfilter import If2Settings, ibpf
from epipomp.model import simulate
from epipomp.params import ParamDef, ParameterSet
from epipomp.series import ObservationSeries
from epipomp.toys import (
    hmm_model,
    lgssm_model,
    metapop_model,
    pure_death_model,
    sir_model,
)
from epipomp.units import WEEK

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
        g = toy_grid(12, steps_per_week=4)
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
        _, ess = column_weights(np.zeros((64, 3)))
        assert np.all(ess == 64.0)

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

    def test_hmm_count_outside_the_emission_table_fails_its_week(self):
        # a category the emission table lacks has probability 0, as a
        # fractional count has for the negative binomial
        m = hmm_model(TRANS, EMIT, INIT)
        data = ObservationSeries(("unit",), np.array([[0.0, 2.0, 5.0, 1.0, 600.0, 3.0]]))
        res = particle_filter(m, m.params, data, toy_grid(6), J=50, seed=0)
        assert res.failed_times == (2, 4, 5)
        assert res.loglik == -np.inf
        assert np.isfinite(res.cond_logliks[[0, 1, 3]]).all()

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
        lme, ess = column_weights(np.array([[-np.inf, 0.0], [-np.inf, -np.inf]]))
        assert lme[0] == -np.inf and ess[0] == 1.0
        assert lme[1] == pytest.approx(np.log(0.5)) and ess[1] == 1.0

    def test_column_weights_bit_identical_to_each_column(self):
        rng = np.random.default_rng(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an all -inf column warns nothing
            for _ in range(300):
                J, U = int(rng.integers(1, 300)), int(rng.integers(1, 12))
                a = rng.normal(size=(J, U)) * rng.choice([0.1, 10.0, 500.0])
                a[rng.random((J, U)) < rng.random() * 0.5] = -np.inf
                if rng.random() < 0.3:
                    a[:, rng.integers(U)] = -np.inf
                lme, ess = column_weights(a)
                assert np.array_equal(lme, [logmeanexp(a[:, u]) for u in range(U)])
                assert np.array_equal(ess, [effective_sample_size(a[:, u]) for u in range(U)])


def _v4_schedule():
    geo = synthetic_geography()
    return apply_vaccination_scenario(builtin_scenario("V4", geo), "model3", geo, origin=4 * WEEK)


def _unsuffixed(m):
    """``m`` with every state renamed from name[unit] to name_unit."""
    def rename(names):
        return tuple(n.replace("[", "_").rstrip("]") for n in names)

    return dataclasses.replace(
        m,
        state_names=rename(m.state_names),
        accumulators=rename(m.accumulators),
        true_infection_states=rename(m.true_infection_states),
        measured_states=rename(m.measured_states),
    )


class TestUnitStateNames:
    """The ``[unit]`` suffix of a state name is the one record of its unit."""

    @pytest.fixture(scope="class")
    def metapop(self):
        m = metapop_model(units=("a", "b"), pops=(3000.0, 4000.0))
        g = toy_grid(8)
        return m, g, simulate(m, m.params, g, n_sims=1, seed=5).observation_series(0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: metapop_model(),
            lambda: build_model2(np.arange(10.0) + 1.0),
            lambda: build_model3(np.full((10, 4), 5.0)),
            lambda: build_model3(np.full((10, 4), 5.0), schedule=_v4_schedule()),
        ],
        ids=["toy-metapop", "model2", "model3", "model3-v4"],
    )
    def test_each_unit_owns_its_contiguous_states(self, build):
        m = build()
        V = m.n_states // m.n_units
        got = m.unit_state_indices()
        assert len(got) == m.n_units
        for u, idx in enumerate(got):
            np.testing.assert_array_equal(idx, np.arange(u * V, (u + 1) * V))

    def test_unsuffixed_states_rejected_by_block_filters(self, metapop):
        m, g, data = metapop
        bare = _unsuffixed(m)
        with pytest.raises(ValidationError, match=r"state 'S_a'"):
            particle_filter(bare, bare.params, data, g, J=20, seed=1, blocks=[["a"], ["b"]])
        with pytest.raises(ValidationError, match=r"state 'S_a'"):
            ibpf(bare, data, g, None, If2Settings(J=20, M=1, rw_sd={"beta": 0.02}), seed=1)

    def test_unsuffixed_states_one_block_bit_identical(self, metapop):
        m, g, data = metapop
        bare = _unsuffixed(m)
        a = particle_filter(m, m.params, data, g, J=50, seed=3)
        b = particle_filter(bare, bare.params, data, g, J=50, seed=3)
        assert a.loglik == b.loglik
        np.testing.assert_array_equal(a.cond_logliks, b.cond_logliks)
        np.testing.assert_array_equal(a.filter_sample, b.filter_sample)


_N_WEEKS, _UNITS = 8, ("north", "center", "south")


def _metapop_series():
    m = metapop_model(units=_UNITS)
    g = toy_grid(_N_WEEKS)
    return m, g, simulate(m, m.params, g, n_sims=1, seed=12).observations[0].T


_METAPOP = _metapop_series()


class TestRandomMissingPatterns:
    """ROADMAP 3(b): any missing-data pattern adds exactly 0 and resamples
    nothing, in the block filter and in an IBPF pass (per-unit blocks)."""

    @settings(max_examples=20, deadline=None)
    @given(
        cells=st.lists(st.booleans(), min_size=_N_WEEKS * len(_UNITS), max_size=_N_WEEKS * len(_UNITS)),
        weeks=st.lists(st.booleans(), min_size=_N_WEEKS, max_size=_N_WEEKS),
        seed=st.integers(0, 2**16),
    )
    def test_missing_adds_zero_and_draws_nothing(self, cells, weeks, seed):
        m, g, obs = _METAPOP
        U = len(_UNITS)
        missing = np.array(cells).reshape(U, _N_WEEKS) | np.array(weeks)[None, :]
        data = ObservationSeries(_UNITS, np.where(missing, np.nan, obs))
        blocks = [[u] for u in _UNITS]
        J = 30
        passes, draws, week = [], [], [None]

        def advance(model, X, t_from, t_to, *rest):
            week[0] = int(np.searchsorted(g.obs_times, t_to))
            return real_advance(model, X, t_from, t_to, *rest)

        def resample(logw, u):
            draws.append(week[0])
            return real_systematic(logw, u)

        def ibpf_pass(*args):
            res = real_pass(*args)
            passes.append(res)
            return res

        real_advance, real_systematic = filtering.advance, filtering.systematic_indices
        real_pass = iterfilter._filter_pass
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtering, "advance", advance)
            mp.setattr(filtering, "systematic_indices", resample)
            mp.setattr(iterfilter, "_filter_pass", ibpf_pass)
            pf = particle_filter(m, m.params, data, g, J=J, seed=seed, blocks=blocks)
            ibpf(m, data, g, None, If2Settings(J=J, M=1, rw_sd={"beta": 0.02}), seed=seed, blocks=blocks)
        # three block filters drew: the filter, the IBPF pass and its evaluation
        per_week = np.bincount(draws, minlength=_N_WEEKS)
        for res in (pf, passes[0]):
            assert np.all(res.unit_cond_logliks[missing.T] == 0.0)
            all_missing = missing.all(axis=0)
            assert np.all(res.cond_logliks[all_missing] == 0.0)
            assert np.all(res.ess[all_missing] == J)
        assert np.all(per_week[missing.all(axis=0)] == 0)
        assert np.all(per_week <= 3 * (~missing).sum(axis=0))


def test_a_failed_block_keeps_its_particles_and_the_others_resample(monkeypatch):
    # every particle of the center block has zero weight in week 3
    m, g, obs = _METAPOP
    week, draws = [None], []

    def dunit(y, X, t, theta):
        week[0] = int(np.searchsorted(g.obs_times, t))
        logw = np.array(m.dunit_measure(y, X, t, theta), dtype=float)
        if week[0] == 3:
            logw[:, 1] = -np.inf
        return logw

    real_systematic = filtering.systematic_indices

    def resample(logw, u):
        draws.append(week[0])
        return real_systematic(logw, u)

    monkeypatch.setattr(filtering, "systematic_indices", resample)
    failing = dataclasses.replace(m, dunit_measure=dunit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # weighing the failed block warns nothing
        res = particle_filter(failing, m.params, ObservationSeries(_UNITS, obs), g, J=50, seed=0,
                              blocks=[[u] for u in _UNITS])
    assert res.failed_times == (3,)
    assert res.block_ess[3, 1] == 1.0 and np.all(res.block_ess[3, [0, 2]] > 1.0)
    assert draws.count(3) == 2


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
