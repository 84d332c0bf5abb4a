"""Stochastic metapopulation model: hurricane forcing, rainfall-driven
shedding, Erlang immunity, measurement, initialization, and exact
population conservation."""

import warnings

import numpy as np
import pytest
from conftest import mc_se_mean

from epipomp.errors import ValidationError
from epipomp.forecast import forecast_from_filter
from epipomp.grid import TimeGrid
from epipomp.haiti.geography import synthetic_geography
from epipomp.haiti.model3 import (
    build_model3,
    default_params,
    model3_force_of_infection,
    person_counts,
)
from epipomp.haiti.scenarios import apply_vaccination_scenario, builtin_scenario
from epipomp.measures import nb_logpmf
from epipomp.model import compile_theta, make_rng, simulate
from epipomp.series import CovariateTable, standardize_rainfall
from epipomp.units import DAYS_PER_YEAR, WEEK, per_day

INIT_OBS = np.array(
    [
        [30, 40, 50, 45], [5, 8, 10, 9], [0, 0, 0, 0], [0, 0, 0, 0],
        [10, 12, 15, 13], [2, 3, 4, 3], [8, 9, 11, 10], [60, 70, 90, 80],
        [6, 7, 9, 8], [4, 5, 6, 5],
    ],
    dtype=float,
)


@pytest.fixture(scope="module")
def geo():
    return synthetic_geography()


@pytest.fixture(scope="module")
def covs(geo):
    rng = np.random.Generator(np.random.Philox(77))
    n_weeks = 60
    raw = rng.gamma(2.0, 25.0, size=(geo.n_units, n_weeks))
    rain = standardize_rainfall(raw, geo.units)
    return CovariateTable(
        times=np.arange(n_weeks) * WEEK, step=WEEK, rainfall=rain,
        units=geo.units, hurricane_time=0.5,
    )


class TestForceOfInfection:
    def test_indicator_off_before_hurricane(self):
        lam_pre = model3_force_of_infection(
            np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]),
            0.4, 10.0, 36.88, 98.98, 0.5, 1e-6, 1.0,
        )
        assert lam_pre[0, 0] == pytest.approx(10.0 * 0.5)

    def test_saturation_at_unit_water(self):
        # W = 1: saturation factor exactly 1/2
        lam = model3_force_of_infection(
            np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]),
            0.0, 8.0, 0.0, 1.0, None, 0.0, 1.0,
        )
        assert lam[0, 0] == pytest.approx(4.0)

    def test_hurricane_half_life(self):
        # department 3 at t = t_hm + ln2/98.98: increment 36.88/2 = 18.44
        t_hm = 0.5
        t = t_hm + np.log(2.0) / 98.98
        lam = model3_force_of_infection(
            np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]),
            t, 0.0, 36.88, 98.98, t_hm, 0.0, 1.0,
        )
        assert lam[0, 0] == pytest.approx(18.44 * 0.5, rel=1e-4)

    def test_between_unit_coupling_excludes_own_unit(self):
        I = np.array([[100.0, 50.0]])
        lam = model3_force_of_infection(
            np.zeros((1, 2)), I, np.zeros((1, 2)), 0.0,
            np.zeros(2), np.zeros(2), np.ones(2), None, 1e-3, 1.0,
        )
        assert lam[0, 0] == pytest.approx(1e-3 * 50.0)
        assert lam[0, 1] == pytest.approx(1e-3 * 100.0)


class TestRates:
    def test_rainfall_amplification_factor(self):
        # J = 1, a = 1.00, r = 0.78: shedding factor 1 + 1*1^0.78 = 2
        params = default_params()
        assert params["a_rain"] == 1.0
        assert params["r_rain"] == 0.78
        assert 1.0 + params["a_rain"] * 1.0 ** params["r_rain"] == 2.0
        assert 1.0 + params["a_rain"] * 0.0 ** params["r_rain"] == 1.0

    def test_erlang_waning_components(self):
        # three recovery stages at 3 * mu_RS with mu_RS^-1 = 8 yr
        params = default_params()
        assert 3.0 * params["mu_rs"] == pytest.approx(3.0 / 8.0)

    def test_missing_rainfall_names_time(self, geo):
        m = build_model3(INIT_OBS, geo)
        theta = compile_theta(m, m.params)
        X = m.rinit(theta, 1, make_rng(0))
        with pytest.raises(ValidationError, match="rainfall"):
            m.step(X, 0.1, 0.001, theta, None, make_rng(0))


class TestMeasurement:
    def test_nb_variance_formula(self):
        # mean 49, psi 88.58: variance = 49 + 49^2/88.58 = 76.11
        mean, psi = 49.0, 88.58
        assert mean + mean**2 / psi == pytest.approx(76.105, abs=0.01)

    def test_pmf_normalizes_to_one(self):
        y = np.arange(0, 1_000_001, dtype=float)
        total = np.exp(nb_logpmf(y, 100.0, 88.58)).sum()
        assert abs(total - 1.0) < 1e-8

    def test_zero_accumulator_zero_observation(self, geo, covs):
        m = build_model3(INIT_OBS, geo)
        theta = compile_theta(m, m.params)
        X = np.zeros((1, len(m.state_names)))
        y = np.zeros(geo.n_units)
        ll = m.dunit_measure(y, X, 0.1, theta)
        assert np.all(ll == 0.0)

    def test_rmeasure_mean_is_rho_times_incidence(self, geo):
        m = build_model3(INIT_OBS, geo)
        theta = compile_theta(m, m.params)
        X = np.zeros((1, len(m.state_names)))
        X[0, m.state_index("CI[Artibonite]")] = 50.0
        n = 100_000
        draws = m.runit_measure(np.tile(X, (n, 1)), 0.0, theta, make_rng(2))[:, 0]
        assert abs(draws.mean() - 0.98 * 50.0) < 3 * mc_se_mean(draws)


class TestInitialization:
    def test_direct_formula_evaluation(self, geo):
        # y* = 7 in the week before t0, table rates
        obs = INIT_OBS.copy()
        obs[4] = [3.0, 5.0, 7.0, 6.0]  # Nord: y_{-1} = 7
        m = build_model3(obs, geo)
        theta = compile_theta(m, m.params)
        X = m.rinit(theta, 1, make_rng(0))
        p = m.params
        mu_ir_day = p["mu_ir"] / DAYS_PER_YEAR
        expected = 7.0 / (7.0 * p["rho"] * (mu_ir_day + (p["delta"] + p["delta_c"]) / 365.0))
        assert X[0, m.state_index("I[Nord]")] == np.round(expected)

    def test_zero_week_with_zero_parameter_gives_empty_unit(self, geo):
        m = build_model3(INIT_OBS, geo)
        params = m.params.replace({"i0[Grand'Anse]": 1e-9})
        theta = compile_theta(m, params)
        X = m.rinit(theta, 1, make_rng(0))
        assert X[0, m.state_index("I[Grand'Anse]")] == 0.0
        assert X[0, m.state_index("A[Grand'Anse]")] == 0.0
        assert X[0, m.state_index("W[Grand'Anse]")] == 0.0

    def test_zero_week_units_use_estimated_parameters(self, geo):
        m = build_model3(INIT_OBS, geo)
        theta = compile_theta(m, m.params)
        X = m.rinit(theta, 1, make_rng(0))
        assert X[0, m.state_index("I[Grand'Anse]")] == 21.0
        assert X[0, m.state_index("I[Nippes]")] == 6.0

    def test_person_total_equals_population_exactly(self, geo):
        m = build_model3(INIT_OBS, geo)
        theta = compile_theta(m, m.params)
        X = m.rinit(theta, 3, make_rng(0))
        counts = person_counts(m, X, geo.n_units)
        np.testing.assert_array_equal(counts, np.tile(np.round(geo.populations), (3, 1)))

    def test_negative_recovered_clamped_with_warning(self, geo):
        # a slow recovery (hazard ~0.014/day) makes I0 = y_prev/(7 rho hazard)
        # outgrow the reports: total < y_prev/(7 hazard) in every reporting unit
        m = build_model3(INIT_OBS, geo)
        params = m.params.replace({"mu_ir": per_day(1.0 / 100.0)})
        with pytest.warns(UserWarning, match="clamped") as record:
            X = m.rinit(compile_theta(m, params), 2, make_rng(0))
        assert str(record[0].message).endswith(
            "in Artibonite, Centre, Nord, Nord-Est, Nord-Ouest, Ouest, Sud, Sud-Est"
        )
        assert X[0, m.state_index("R1[Nord]")] == 0.0
        counts = person_counts(m, X, geo.n_units)
        np.testing.assert_array_equal(counts, np.tile(np.round(geo.populations), (2, 1)))

    def test_units_started_from_i0_clamp_without_warning(self, geo):
        # Grand'Anse and Nippes report 0 in all four weeks, so their
        # R = -(I0 + A0)/3 < 0 is structural and is clamped silently
        m = build_model3(INIT_OBS, geo)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X = m.rinit(compile_theta(m, m.params), 1, make_rng(0))
        assert X[0, m.state_index("I[Grand'Anse]")] == 21.0
        assert X[0, m.state_index("R1[Grand'Anse]")] == 0.0


class TestStochasticity:
    def test_two_sims_distinct_with_vanishing_process_noise(self, geo, covs):
        # demographic stochasticity remains when sigma_proc ~ 0
        m = build_model3(INIT_OBS, geo)
        params = m.params.replace({"sigma_proc": 1e-12})
        t0 = 3 * WEEK
        grid = TimeGrid(t0, t0 + np.arange(1, 11) * WEEK, euler_step=WEEK / 7)
        res = simulate(m, params, grid, covs, n_sims=2, seed=17)
        assert not np.array_equal(res.states[0], res.states[1])


class TestConservation:
    def test_person_totals_constant_over_simulation(self, geo, covs):
        m = build_model3(INIT_OBS, geo)
        t0 = 3 * WEEK
        grid = TimeGrid(t0, t0 + np.arange(1, 41) * WEEK, euler_step=WEEK / 7)
        res = simulate(m, m.params, grid, covs, n_sims=2, seed=12)
        for n in range(res.states.shape[1]):
            counts = person_counts(m, res.states[:, n, :], geo.n_units)
            np.testing.assert_array_equal(counts, np.tile(np.round(geo.populations), (2, 1)))

    def test_person_totals_constant_over_v4_forecast(self, geo):
        # vaccinated cohorts (Z > 0) take the same fused flow kernel
        rng = np.random.Generator(np.random.Philox(31))
        rain = standardize_rainfall(rng.gamma(2.0, 25.0, size=(geo.n_units, 120)), geo.units)
        covs = CovariateTable(times=np.arange(120) * WEEK, step=WEEK, rainfall=rain, units=geo.units)
        origin = 4 * WEEK
        sched = apply_vaccination_scenario(builtin_scenario("V4", geo), "model3", geo, origin=origin)
        assert sched.n_cohorts > 0
        m = build_model3(INIT_OBS, geo, schedule=sched)
        start = m.rinit(compile_theta(m, m.params), 4, make_rng(3))
        res = forecast_from_filter(
            m, m.params, start, "V4", covs, origin, horizon_weeks=104, n_sims=4, seed=5, retain_states=True
        )
        pops = np.tile(np.round(geo.populations), (4, 1))
        for h in range(104):
            np.testing.assert_array_equal(person_counts(m, res.latent[:, h, :], geo.n_units), pops)
        V = len(m.state_names) // geo.n_units
        vaccinated = res.latent[:, -1, :].reshape(4, geo.n_units, V)[:, :, 1 : sched.n_cohorts + 1]
        assert vaccinated.sum() > 0

    def test_hurricane_continuity_jump(self, geo, covs):
        # right-continuous at t_hm with jump exactly beta_hm * W/(1+W)
        W = np.array([[2.0]])
        args = (W, np.zeros((1, 1)), np.zeros((1, 1)))
        t_hm = 0.5
        lam_before = model3_force_of_infection(*args, t_hm - 1e-9, 5.0, 36.88, 98.98, t_hm, 0.0, 1.0)
        lam_at = model3_force_of_infection(*args, t_hm, 5.0, 36.88, 98.98, t_hm, 0.0, 1.0)
        jump = lam_at - lam_before
        assert jump[0, 0] == pytest.approx(36.88 * (2.0 / 3.0), rel=1e-9)
