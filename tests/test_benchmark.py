"""AR negative binomial benchmark fitting and AIC arithmetic."""

import numpy as np
import pytest

from epipomp.benchmark import ar_nb_loglik, aic, fit_benchmark
from epipomp.errors import ValidationError
from epipomp.nbinom import nb_logpmf
from epipomp.series import ObservationSeries


def simulate_ar_nb(alpha, b, phi, n, rng):
    y = np.zeros(n)
    y[0] = alpha
    for i in range(1, n):
        mean = alpha + b * y[i - 1]
        p = phi / (phi + mean)
        y[i] = rng.negative_binomial(phi, p)
    return y


class TestAic:
    def test_published_value_arithmetic(self):
        assert aic(-2728.1, 15) == pytest.approx(5486.3, abs=0.2)
        assert aic(-21957.3, 6) == pytest.approx(43926.5, abs=0.2)
        assert aic(-17332.9, 34) == pytest.approx(34733.9, abs=0.2)
        assert aic(0.0, 0) == 0.0

    def test_linearity_in_k(self):
        assert aic(-100.0, 6) - aic(-100.0, 5) == 2.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValidationError):
            aic(0.0, -1)


class TestFitBenchmark:
    def test_parameter_recovery_within_15_percent(self):
        rng = np.random.Generator(np.random.Philox(1000))
        y = simulate_ar_nb(5.0, 0.6, 10.0, 500, rng)
        fit = fit_benchmark(ObservationSeries(("u",), y[None, :]))
        p = fit.params["u"]
        assert abs(p.alpha - 5.0) / 5.0 < 0.15
        assert abs(p.b - 0.6) / 0.6 < 0.15
        assert abs(p.phi - 10.0) / 10.0 < 0.15

    def test_iid_data_drives_b_to_zero(self, rng):
        # iid NB draws (no autoregression): fitted b ~ 0
        y = rng.negative_binomial(50, 50 / (50 + 8.0), size=1000).astype(float)
        fit = fit_benchmark(ObservationSeries(("u",), y[None, :]))
        assert fit.params["u"].b < 0.05

    def test_fit_dominates_b0_restriction(self, rng):
        for s in range(20):
            r = np.random.Generator(np.random.Philox(s))
            y = simulate_ar_nb(4.0, 0.5, 8.0, 120, r)
            fit = fit_benchmark(ObservationSeries(("u",), y[None, :]))
            # restricted model: b = 0, refit alpha/phi by the same machinery
            from epipomp.optimize import restarted_nelder_mead

            obj = lambda est: -ar_nb_loglik(y, np.exp(est[0]), 0.0, np.exp(est[1]))
            res = restarted_nelder_mead(obj, np.log([max(y.mean(), 0.1), 5.0]))
            assert fit.unit_logliks["u"] >= -res.fun - 1e-6

    def test_total_is_sum_of_unit_logliks_exactly(self, rng):
        vals = np.vstack(
            [simulate_ar_nb(5, 0.4, 9, 80, rng), simulate_ar_nb(2, 0.2, 5, 80, rng)]
        )
        fit = fit_benchmark(ObservationSeries(("a", "b"), vals))
        assert fit.loglik == np.sum(np.array([fit.unit_logliks["a"], fit.unit_logliks["b"]]))
        assert fit.k == 6
        assert fit.aic == aic(fit.loglik, 6)

    def test_missing_terms_skipped(self, rng):
        y = simulate_ar_nb(5, 0.4, 9, 60, rng)
        y_missing = y.copy()
        y_missing[10] = np.nan
        ll = ar_nb_loglik(y_missing, 5.0, 0.4, 9.0)
        # removing y[10] drops the two terms involving it
        keep = ar_nb_loglik(y, 5.0, 0.4, 9.0)
        dropped = (
            nb_logpmf(y[10], 5.0 + 0.4 * y[9], 9.0)
            + nb_logpmf(y[11], 5.0 + 0.4 * y[10], 9.0)
        )
        assert ll == pytest.approx(keep - float(dropped), abs=1e-9)

    def test_all_zero_series_pins_alpha_with_warning(self):
        data = ObservationSeries(("u",), np.zeros((1, 30)))
        with pytest.warns(UserWarning, match="floor"):
            fit = fit_benchmark(data)
        assert fit.params["u"].alpha == pytest.approx(1e-6)

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError):
            fit_benchmark(ObservationSeries(("u",), np.array([[1.0, 2.0]])))

    def test_first_observation_conditions_only(self):
        # a series of length 2 has exactly one conditional term
        ll = ar_nb_loglik(np.array([3.0, 5.0]), 2.0, 0.5, 4.0)
        expected = float(nb_logpmf(5.0, 2.0 + 0.5 * 3.0, 4.0))
        assert ll == pytest.approx(expected)
