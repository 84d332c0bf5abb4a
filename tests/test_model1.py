"""National model: seasonality, force of infection, measurement, and
initialization against closed-form and published-value checks."""

import numpy as np
import pytest
from conftest import mc_se_mean
from scipy.special import gammaln

from epipomp.errors import ValidationError
from epipomp.grid import weekly_grid
from epipomp.haiti.model1 import (
    build_model1,
    default_params,
    model1_force_of_infection,
    seasonal_beta,
)
from epipomp.model import compile_theta, make_rng, simulate
from epipomp.nbinom import nb_logpmf
from epipomp.units import per_day


def nb_logpmf_reference(y, mean, size):
    """Textbook NB log-pmf via direct gamma-function arithmetic (oracle)."""
    p = size / (size + mean)
    return (
        gammaln(y + size) - gammaln(size) - gammaln(y + 1)
        + size * np.log(p) + y * np.log(1 - p)
    )


class TestSeasonalBeta:
    def test_zero_coefficients_give_unit_weekly_rate(self):
        for t in (0.0, 0.25, 1.7):
            assert seasonal_beta(t, [0.0] * 6, 0.0, 0.0, 8.0) == pytest.approx(1.0)

    def test_trend_reduction_matches_published_percentage(self):
        # zeta = -0.0378: beta(t_N)/beta(t_0) = e^-0.0756, a 7.3% reduction
        ratio = seasonal_beta(8.0, [0.0] * 6, -0.0378, 0.0, 8.0) / seasonal_beta(
            0.0, [0.0] * 6, -0.0378, 0.0, 8.0
        )
        assert ratio == pytest.approx(np.exp(-0.0756), rel=1e-12)
        reduction = 100.0 * (1.0 - ratio)
        assert abs(reduction - 7.3) < 0.3

    def test_equal_coefficients_use_partition_of_unity(self):
        # all beta_j = k: beta = e^k since the basis sums to one
        k = 0.73
        for t in (0.1, 0.5, 0.9):
            assert seasonal_beta(t, [k] * 6, 0.0, 0.0, 8.0) == pytest.approx(np.exp(k))

    def test_periodicity_without_trend(self):
        for t in np.linspace(0, 1, 29):
            np.testing.assert_allclose(
                seasonal_beta(t, [1.4, 1.2, 1.1, 1.1, 1.4, 1.0], 0.0, 0.0, 8.0),
                seasonal_beta(t + 1.0, [1.4, 1.2, 1.1, 1.1, 1.4, 1.0], 0.0, 0.0, 8.0),
                rtol=1e-12,
            )


class TestForceOfInfection:
    def test_no_infections_no_force(self):
        assert model1_force_of_infection(0.0, 0.0, 1.0, 1.0, 1e4, 0.05, 0.978) == 0.0

    def test_direct_evaluation(self):
        # nu=1, eps=0.05, I=100, A=200, beta=1/wk, N=1e4 -> 0.011 / wk
        lam_per_year = model1_force_of_infection(100.0, 200.0, 1.0, 1.0, 1e4, 0.05, 1.0)
        assert lam_per_year / 52.14 == pytest.approx(0.011, rel=1e-12)

    def test_sublinear_mixing(self):
        # doubling infections multiplies the force by 2^nu < 2 at nu = 0.978
        lam1 = model1_force_of_infection(100.0, 0.0, 1.0, 1.0, 1e4, 0.5, 0.978)
        lam2 = model1_force_of_infection(200.0, 0.0, 1.0, 1.0, 1e4, 0.5, 0.978)
        assert lam2 / lam1 == pytest.approx(2.0**0.978, rel=1e-12)
        assert lam2 / lam1 < 2.0


class TestRatesAndUnits:
    def test_fixed_recovery_rate_unit_conversion(self):
        # mu_IR^-1 = 2.0 days -> 365.25 / 2 = 182.6 per year
        params = default_params()
        assert params["mu_ir"] == pytest.approx(182.625)
        assert params["mu_ir"] == pytest.approx(182.6, abs=0.05)
        assert params["mu_ei"] == pytest.approx(per_day(1.0 / 1.4))

    def test_unvaccinated_cohort_never_asymptomatic(self):
        # f_0 = 0: with no vaccination the A compartment stays empty
        m = build_model1(trend_window=(0.0, 2.0))
        res = simulate(m, m.params, weekly_grid(30), n_sims=2, seed=3)
        assert np.all(res.states[:, :, res.state_names.index("A0")] == 0.0)

    def test_no_campaign_no_intercohort_flows(self):
        from epipomp.haiti.scenarios import empty_schedule

        m = build_model1(trend_window=(0.0, 2.0), schedule=empty_schedule(("National",)))
        assert (len(m.state_names) - 2) // 5 == 1  # only cohort 0


class TestMeasurement:
    def test_degenerate_zero_mean(self):
        assert float(nb_logpmf(0.0, 0.0, 5.0)) == 0.0
        assert float(nb_logpmf(3.0, 0.0, 5.0)) == -np.inf

    def test_negative_observation_rejected(self):
        with pytest.raises(ValidationError):
            nb_logpmf(-1.0, 10.0, 5.0)

    def test_matches_direct_gamma_function_evaluation(self):
        # mean 10, size 5, y = 8
        mine = float(nb_logpmf(8.0, 10.0, 5.0))
        ref = float(nb_logpmf_reference(8.0, 10.0, 5.0))
        assert mine == pytest.approx(ref, rel=1e-12)

    def test_closed_form_matches_scipy_over_grid(self):
        from scipy import stats

        y = np.array([0.0, 1.0, 2.0, 7.0, 50.0, 999.0, 1e5, 2.5e5, 1e6])[:, None, None]
        mean = np.array([1e-3, 0.3, 1.0, 9.5, 88.0, 1e3, 1e5, 3e6])[None, :, None]
        size = np.array([0.01, 0.3, 0.999, 1.0, 2.5, 88.58, 1e3, 1e6])[None, None, :]
        mine = nb_logpmf(y, mean, size)
        ref = stats.nbinom.logpmf(y, size, size / (size + mean))
        assert mine.shape == ref.shape == (9, 8, 8)
        assert np.all(np.isfinite(ref))
        np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=0)

    def test_reporting_rate_scales_mean(self):
        m = build_model1(trend_window=(0.0, 2.0))
        theta = compile_theta(m, m.params)
        X = np.zeros((1, len(m.state_names)))
        X[0, m.state_names.index("CI")] = 100.0
        rng = make_rng(0)
        draws = np.array([m.runit_measure(X, 0.0, theta, rng)[0, 0] for _ in range(20000)])
        assert m.params["rho"] == 0.679
        assert abs(draws.mean() - 67.9) < 3 * mc_se_mean(draws)

    def test_rmeasure_frequencies_match_dmeasure(self):
        m = build_model1(trend_window=(0.0, 2.0))
        theta = compile_theta(m, m.params)
        X = np.zeros((1, len(m.state_names)))
        X[0, m.state_names.index("CI")] = 8.0
        rng = make_rng(1)
        n = 100_000
        Xn = np.tile(X, (n, 1))
        draws = m.runit_measure(Xn, 0.0, theta, rng)[:, 0]
        for y in (0, 2, 5, 9):
            p = np.exp(float(m.dunit_measure(np.array([float(y)]), X, 0.0, theta)[0, 0]))
            freq = np.mean(draws == y)
            se = np.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 3.5 * se

    def test_phase_switch_changes_overdispersion(self):
        m = build_model1(trend_window=(0.0, 2.0), phase_break=1.0)
        theta = compile_theta(m, m.params)
        X = np.zeros((1, len(m.state_names)))
        X[0, m.state_names.index("CI")] = 100.0
        ll_epi = float(m.dunit_measure(np.array([40.0]), X, 0.5, theta)[0, 0])
        ll_end = float(m.dunit_measure(np.array([40.0]), X, 1.5, theta)[0, 0])
        assert ll_epi != ll_end


class TestInitialization:
    def test_zero_fractions_give_fully_susceptible(self):
        m = build_model1(trend_window=(0.0, 2.0))
        params = m.params.replace({"i0_frac": 1e-12, "e0_frac": 1e-12})
        theta = compile_theta(m, params)
        X = m.rinit(theta, 1, make_rng(0))
        pop = m.params["pop"]
        assert X[0, m.state_names.index("S0")] == pytest.approx(round(pop))
        assert X[0, m.state_names.index("I0")] == 0.0

    def test_published_counts_accepted_as_persons(self):
        m = build_model1(trend_window=(0.0, 2.0))
        theta = compile_theta(m, m.params)
        X = m.rinit(theta, 1, make_rng(0))
        assert X[0, m.state_names.index("I0")] == 7298.0
        assert X[0, m.state_names.index("E0")] == 350.0
        assert X[0, m.state_names.index("R0")] == 0.0

    def test_fractions_summing_to_one_rejected(self):
        m = build_model1(trend_window=(0.0, 2.0))
        bad = m.params.replace({"i0_frac": 0.6, "e0_frac": 0.5})
        with pytest.raises(ValidationError):
            m.check_params(bad)

    def test_population_not_conserved_with_demography(self):
        # model 1 has births and deaths: totals drift, by design
        m = build_model1(trend_window=(0.0, 4.0))
        res = simulate(m, m.params, weekly_grid(100), n_sims=1, seed=7)
        person_cols = [i for i, n in enumerate(m.state_names) if n not in ("CI", "TI")]
        totals = res.states[0, :, person_cols].sum(axis=0)
        assert totals[-1] != totals[0]
