"""Forecasting, the elimination predicate, and deterministic projections."""

import numpy as np
import pytest
from oracles import toy_grid
from conftest import se_proportion
from hypothesis import given, settings
from hypothesis import strategies as st

from epipomp.errors import ValidationError
from epipomp.filtering import particle_filter
from epipomp.grid import weekly_grid
from epipomp.forecast import (
    BAND_Z,
    elimination_probability,
    forecast_from_filter,
    longest_zero_run,
    trajectory_projection,
)
from epipomp.model import simulate
from epipomp.params import family_key
from epipomp.toys import metapop_model, pure_death_model, sir_model


def brute_force_eliminates(x: np.ndarray, window: int) -> bool:
    """Oracle: scan every window of the given length for an all-zero run."""
    x = np.asarray(x)
    for k in range(x.size - window + 1):
        if np.sum(x[k : k + window]) == 0:
            return True
    return False


class TestEliminationPredicate:
    def test_all_zero_series_eliminates(self):
        p, flags = elimination_probability(np.zeros((1, 60)), window=52)
        assert p == 1.0 and flags[0]

    def test_regular_reinfection_does_not(self):
        x = np.zeros((1, 104))
        x[0, ::10] = 1.0
        p, _ = elimination_probability(x, window=52)
        assert p == 0.0

    def test_exact_counting(self):
        arr = np.zeros((10, 60))
        arr[3:, ::5] = 2.0  # seven sims never eliminate
        p, flags = elimination_probability(arr, window=52)
        assert p == 0.3
        assert flags.sum() == 3

    def test_horizon_shorter_than_window_fails(self):
        with pytest.raises(ValidationError):
            elimination_probability(np.zeros((2, 51)), window=52)

    @given(st.integers(0, 2**32 - 1), st.integers(5, 30))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_window_scan(self, seed, window):
        rng = np.random.Generator(np.random.Philox(seed))
        x = (rng.random(120) < 0.12).astype(float) * rng.integers(1, 4, size=120)
        assert (longest_zero_run(x) >= window) == brute_force_eliminates(x, window)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(5, 30))
    @settings(max_examples=100, deadline=None)
    def test_per_unit_arrays_match_brute_force_on_national_sums(self, seed, n_units, window):
        rng = np.random.Generator(np.random.Philox(seed))
        shape = (4, 80, n_units)
        arr = (rng.random(shape) < 0.04) * rng.integers(1, 4, size=shape).astype(float)
        p, flags = elimination_probability(arr, window=window)
        brute = [brute_force_eliminates(arr[i].sum(axis=1), window) for i in range(4)]
        assert list(flags) == brute
        assert p == sum(brute) / 4

    def test_national_sum_across_units(self):
        # unit-level zeros do not eliminate if another unit stays infected
        arr = np.zeros((1, 60, 2))
        arr[0, :, 1] = 1.0
        p, _ = elimination_probability(arr, window=52)
        assert p == 0.0


class TestForecastFromFilter:
    def test_identical_particles_deterministic_model_identical_trajectories(self):
        m = pure_death_model(stochastic=False)
        params = m.params.replace({"i0": 50})
        res = simulate(m, params, toy_grid(60, steps_per_week=2), n_sims=6, seed=1)
        for s in range(1, 6):
            np.testing.assert_array_equal(res.states[s], res.states[0])
        infected = res.states[0, 1:, m.state_names.index("I")]
        assert infected[0] < 50.0 and np.all(np.diff(infected) < 0)

    def test_zero_transmission_always_eliminates(self):
        m = sir_model()
        params = m.params.replace({"beta": 1e-12})
        g = toy_grid(10)
        data = simulate(m, m.params, g, n_sims=1, seed=3).observation_series(0)
        pf = particle_filter(m, m.params, data, g, J=30, seed=0)
        res = forecast_from_filter(
            m, params, pf.filter_sample, None, weekly_grid(60, g.t_end, week=1.0),
            n_sims=20, seed=5,
        )
        assert res.probability == 1.0

    def test_pure_death_extinction_matches_closed_form(self):
        # 10 infecteds each recover w.p. 0.5/week: P(none left by week 10)
        m = pure_death_model(stochastic=True)
        params = m.params.replace({"mu": np.log(2.0), "i0": 10})
        n_sims = 4000
        res = simulate(m, params, toy_grid(60), n_sims=n_sims, seed=11)
        p_hat = np.mean(res.states[:, 10, 0] == 0.0)
        p_exact = (1.0 - 0.5**10) ** 10
        assert p_exact == pytest.approx(0.990277, abs=1e-6)
        assert abs(p_hat - p_exact) < 3 * se_proportion(p_exact, n_sims)

    def test_dominant_candidate_forecasts_as_its_parameters(self):
        # all the likelihood weight on A: every draw is A, so the stacked
        # theta must forecast exactly as A passed directly
        m = metapop_model()
        a = m.params.replace({family_key("beta", "north"): 2.6})
        b = m.params.replace({family_key("beta", "south"): 0.4})
        sample = simulate(m, m.params, toy_grid(6), n_sims=20, seed=4).states[:, -1]
        kwargs = dict(covs=None, grid=weekly_grid(60, 6.0, week=1.0), n_sims=12, seed=8)
        weighted = forecast_from_filter(
            m, m.params, sample, param_candidates=[(a, 0.0), (b, -1e6)], **kwargs
        )
        direct = forecast_from_filter(m, a, sample, **kwargs)
        np.testing.assert_array_equal(weighted.true_infections, direct.true_infections)
        np.testing.assert_array_equal(weighted.reported, direct.reported)

    def test_forecast_from_the_rinit_start_is_simulate(self):
        # a forecast is simulation from given states: one particle equal to
        # rinit's start reproduces simulate's stream draw for draw
        m = sir_model()
        grid = toy_grid(60)
        sim = simulate(m, m.params, grid, n_sims=8, seed=21)
        start = sim.states[:1, 0]
        res = forecast_from_filter(m, m.params, start, None, grid, 8, seed=21)
        c_col = m.state_names.index("C_inc")
        np.testing.assert_array_equal(res.true_infections[:, :, 0], sim.states[:, 1:, c_col])
        np.testing.assert_array_equal(res.reported, sim.observations)

    def test_empty_filter_sample_fails(self):
        m = pure_death_model()
        with pytest.raises(ValidationError):
            forecast_from_filter(m, m.params, np.zeros((0, 2)), None, toy_grid(60), 5, 0)

    def test_horizon_exceeding_covariates_fails(self):
        from epipomp.series import CovariateTable
        from epipomp.units import WEEK

        m = sir_model()
        object.__setattr__(m, "needs_covariates", True)
        covs = CovariateTable(times=np.arange(10) * WEEK, step=WEEK)
        sample = np.zeros((3, 4))
        sample[:, 0] = 100.0
        with pytest.raises(ValidationError):
            forecast_from_filter(m, m.params, sample, covs, weekly_grid(520), 5, 0)


class TestTrajectoryProjection:
    def test_band_collapses_when_psi_vanishes(self):
        m = sir_model(stochastic=False)
        params = m.params.replace({"psi": 1e-12})
        # the sir toy uses an NB measurement; the band formula is log-normal,
        # exercised through the projection surface
        proj = trajectory_projection(m, params, None, toy_grid(30, steps_per_week=2))
        np.testing.assert_allclose(proj.lower, proj.mean_reported, atol=1e-6)
        np.testing.assert_allclose(proj.upper, proj.mean_reported, atol=1e-6)

    def test_band_quantile_formula(self):
        from scipy import stats

        m = sir_model(stochastic=False)
        params = m.params.replace({"psi": 0.3})
        proj = trajectory_projection(m, params, None, toy_grid(20, steps_per_week=2))
        z = 1.959964
        np.testing.assert_allclose(
            proj.upper, np.exp(np.log(proj.mean_reported + 1.0) + z * 0.3) - 1.0, rtol=1e-6
        )
        np.testing.assert_allclose(
            proj.lower, np.exp(np.log(proj.mean_reported + 1.0) - z * 0.3) - 1.0, rtol=1e-6
        )
        z = stats.norm.ppf(0.975)
        log_mean = np.log(proj.mean_reported + 1.0)
        np.testing.assert_allclose(proj.upper, np.exp(log_mean + z * 0.3) - 1.0, rtol=1e-12)
        np.testing.assert_allclose(proj.lower, np.exp(log_mean - z * 0.3) - 1.0, rtol=1e-12)

    def test_band_z_is_scipy_normal_quantile(self):
        # BAND_Z is written out so that importing forecast does not load
        # scipy.special; it must stay scipy's quantile to the last bit
        from scipy.special import ndtri

        assert BAND_Z == float(ndtri(0.975))

    def test_stochastic_model_rejected(self):
        m = sir_model(stochastic=True)
        with pytest.raises(ValidationError):
            trajectory_projection(m, m.params, None, weekly_grid(60))

    def test_vaccination_never_increases_cumulative_infections(self):
        # deterministic skeleton: V4-style dosing removes susceptibles, so
        # cumulative projected infections stay at or below the V0 baseline
        from epipomp.haiti import apply_vaccination_scenario, builtin_scenario, synthetic_geography
        from epipomp.haiti.model2 import build_model2

        geo = synthetic_geography()
        init = np.array([100, 20, 0, 0, 30, 5, 15, 200, 10, 8], float)
        sched = apply_vaccination_scenario(
            builtin_scenario("V4", geo), "model2", geo, origin=0.0
        )
        m_v4 = build_model2(init, geo, schedule=sched)
        m_v0 = build_model2(init, geo)
        # over the two-year campaign window; on longer horizons waned vaccine
        # protection against near-permanent natural immunity lets delayed
        # epidemics overtake the baseline (honeymoon effect), so the
        # comparison is only meaningful while protection is active
        horizon = 104
        proj_v4 = trajectory_projection(m_v4, m_v4.params, None, weekly_grid(horizon))
        proj_v0 = trajectory_projection(m_v0, m_v0.params, None, weekly_grid(horizon))
        ti_cols = [m_v0.state_names.index(c) for c in m_v0.true_infection_states]
        cum_v4 = proj_v4.latent[:, ti_cols].sum()
        cum_v0 = proj_v0.latent[:, ti_cols].sum()
        assert cum_v4 <= cum_v0
        # weekly dominance holds pointwise inside the window as well
        weekly_v4 = proj_v4.latent[:, ti_cols].sum(axis=1)
        weekly_v0 = proj_v0.latent[:, ti_cols].sum(axis=1)
        assert np.all(weekly_v4 <= weekly_v0 + 1e-9)
