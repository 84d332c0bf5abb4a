"""Deterministic metapopulation model: force of infection, gravity coupling,
log-scale measurement, initialization, and skeleton properties."""

import numpy as np
import pytest
from conftest import mc_se_mean

from epipomp.grid import TimeGrid
from epipomp.haiti.geography import GeographyData, synthetic_geography
from epipomp.haiti.model2 import (
    COHORT_EFFICACY,
    build_model2,
    default_params,
    model2_force_of_infection,
    person_total,
)
from epipomp.measures import lognormal_case_logpdf, norm_logpdf
from epipomp.model import compile_theta, make_rng, simulate
from epipomp.units import WEEK, per_week


class TestForceOfInfection:
    def test_no_water_no_infections_gives_zero(self):
        lam = model2_force_of_infection(0.0, 0.0, 0.0, 0.0, 0.4, 0.97, 1.1, 1e5, 5.97e-15, 0.001)
        assert lam == 0.0

    def test_saturation_at_wsat(self):
        # W = Wsat, a = 0, beta = 0: lam = 0.5 * beta_w * 0.5 = beta_w / 4
        lam = model2_force_of_infection(1e5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.1, 1e5, 0.0, 0.001)
        assert lam == pytest.approx(1.1 / 4.0)
        assert lam == pytest.approx(0.275)

    def test_cosine_seasonal_factor(self):
        # a=0.4, phi=0, t=0: seasonal coefficient = 0.5 * 1.4 = 0.7
        # (read off at W = Wsat where the saturation factor is exactly 1/2)
        lam = model2_force_of_infection(1e5, 0.0, 0.0, 0.0, 0.4, 0.0, 1.0, 1e5, 0.0, 0.001)
        assert 2.0 * lam == pytest.approx(0.7)

    def test_cohort_efficacy_values(self):
        # theta_4 = 0.519: vaccinated susceptibles infected at 0.481 * lam
        assert COHORT_EFFICACY[4] == pytest.approx(0.519)
        assert 1.0 - COHORT_EFFICACY[4] == pytest.approx(0.481)
        assert COHORT_EFFICACY[1] == pytest.approx(0.429 * 0.4688)
        assert COHORT_EFFICACY[2] == pytest.approx(0.519 * 0.4688)


class TestGravity:
    def test_direct_evaluation(self):
        # Pop_u = Pop_v = 1e6, D = 100 km, v_rate = 1e-12: T = 1e-4 / yr
        geo = GeographyData(
            ("a", "b"),
            np.array([1e6, 1e6]),
            np.array([100.0, 100.0]),
            np.array([[0.0, 100.0], [100.0, 0.0]]),
            np.zeros((2, 2)),
        )
        T = geo.gravity_matrix(1e-12)
        assert T[0, 1] == pytest.approx(1e-4)
        assert T[0, 0] == 0.0

    def test_single_department_has_no_transport(self):
        geo = GeographyData(("solo",), np.array([5e5]), np.array([200.0]),
                            np.zeros((1, 1)), np.zeros((1, 1)))
        m = build_model2(np.array([50.0]), geo)
        grid = TimeGrid(0.0, np.arange(1, 27) * WEEK, WEEK / 7)
        res = simulate(m, m.params, grid, n_sims=1, seed=0)
        # a closed SEIAR+W system conserves its person total exactly
        pt = person_total(m, res.states[0], geo)
        np.testing.assert_allclose(pt, pt[0], rtol=1e-12)


class TestSkeletonProperties:
    @pytest.fixture(scope="class")
    def geo(self):
        return synthetic_geography()

    def test_no_transmission_keeps_infected_monotone_nonincreasing(self, geo):
        m = build_model2(np.array([100, 20, 0, 0, 30, 5, 15, 200, 10, 8], float), geo)
        params = m.params.replace({"beta": 1e-30, "beta_w": 1e-30})
        grid = TimeGrid(0.0, np.arange(1, 53) * WEEK, WEEK / 7)
        res = simulate(m, params, grid, n_sims=1, seed=0)
        infected = np.zeros(res.states.shape[1])
        for u in geo.units:
            for z in range(5):
                infected += res.state_series(f"I{z}[{u}]")[0] + res.state_series(f"E{z}[{u}]")[0]
        assert np.all(np.diff(infected) <= 1e-9)

    def test_national_person_total_conserved(self, geo):
        m = build_model2(np.array([100, 20, 0, 0, 30, 5, 15, 200, 10, 8], float), geo)
        grid = TimeGrid(0.0, np.arange(1, 105) * WEEK, WEEK / 7)
        res = simulate(m, m.params, grid, n_sims=1, seed=0)
        pt = person_total(m, res.states[0], geo)
        assert np.max(np.abs(pt - pt[0])) / pt[0] < 1e-8

    def test_waning_immunity_magnitude(self):
        params = default_params()
        assert params["mu_rs"] == pytest.approx(1.0 / 1.4e11)
        assert params["omega1"] == 1.0
        assert params["omega2"] == pytest.approx(0.2)
        assert params["mu_w"] == pytest.approx(per_week(179.0))


class TestMeasurement:
    def test_density_at_mode(self):
        # log(y+1) == log(rho*delta+1): density = -log(psi * sqrt(2 pi))
        psi = 1.319
        val = float(lognormal_case_logpdf(99.0, 99.0, psi))
        assert val == pytest.approx(-np.log(psi * np.sqrt(2 * np.pi)), rel=1e-12)

    def test_rho_cancels_at_matched_observation(self):
        # rho = 0.2, delta = 495: mean cases 99; y = 99 maximizes the density
        rho, delta = 0.2, 495.0
        mean = rho * delta
        assert mean == pytest.approx(99.0)
        dens_at_mean = float(lognormal_case_logpdf(99.0, mean, 1.319))
        for y in (10.0, 50.0, 200.0):
            assert float(lognormal_case_logpdf(y, mean, 1.319)) < dens_at_mean

    def test_one_sd_residual(self):
        # residual of one sd: density = -log(psi sqrt(2 pi)) - 1/2
        psi = 1.319
        y = np.exp(np.log(100.0) + psi) - 1.0
        val = float(lognormal_case_logpdf(y, 99.0, psi))
        assert val == pytest.approx(-np.log(psi * np.sqrt(2 * np.pi)) - 0.5, rel=1e-12)

    def test_closed_forms_match_scipy_norm(self):
        # |z| up to 1e3, (J, U) against (U,), sd over six decades
        from scipy import stats

        rng = np.random.default_rng(11)
        sd = 10.0 ** np.linspace(-3.0, 3.0, 7)
        mean = rng.normal(0.0, 5.0, size=sd.size)
        z = np.concatenate([np.linspace(-1e3, 1e3, 41), rng.normal(0.0, 3.0, size=59)])
        x = mean + z[:, None] * sd
        np.testing.assert_allclose(
            norm_logpdf(x, mean, sd), stats.norm.logpdf(x, loc=mean, scale=sd), rtol=0, atol=1e-12
        )
        mean_cases = rng.uniform(0.0, 1e4, size=sd.size)
        y = rng.integers(0, 10**5, size=(100, sd.size)).astype(float)
        np.testing.assert_allclose(
            lognormal_case_logpdf(y, mean_cases, sd),
            stats.norm.logpdf(np.log1p(y), loc=np.log1p(mean_cases), scale=sd),
            rtol=0,
            atol=1e-12,
        )

    def test_rmeasure_mean_matches_lognormal_analytic_mean(self):
        geo = synthetic_geography()
        m = build_model2(np.array([100, 20, 0, 0, 30, 5, 15, 200, 10, 8], float), geo)
        theta = compile_theta(m, m.params)
        X = np.zeros((1, len(m.state_names)))
        ci_idx = m.state_index("CI[Artibonite]")
        X[0, ci_idx] = 495.0
        rng = make_rng(5)
        n = 100_000
        draws = m.runit_measure(np.tile(X, (n, 1)), 0.0, theta, rng)[:, 0]
        psi = m.params["psi"]
        analytic = (0.2 * 495.0 + 1.0) * np.exp(psi**2 / 2.0) - 1.0
        assert abs(draws.mean() - analytic) < 3 * mc_se_mean(draws)


class TestInitialization:
    def test_first_week_cases_over_rho(self):
        geo = synthetic_geography()
        m = build_model2(np.array([20, 0, 0, 0, 0, 0, 0, 0, 0, 0], float), geo)
        theta = compile_theta(m, m.params)
        X = m.rinit(theta, 1, None)
        i0 = X[0, m.state_index("I0[Artibonite]")]
        assert i0 == pytest.approx(20.0 / 0.2)
        assert i0 == pytest.approx(100.0)
        s0 = X[0, m.state_index("S0[Artibonite]")]
        assert s0 == pytest.approx(geo.populations[0] - 100.0)
        # recovered starts empty
        assert X[0, m.state_index("R0[Artibonite]")] == 0.0
