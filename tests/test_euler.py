"""Kernel-level checks of the stochastic integration schemes against
closed-form oracles: gamma-increment moments, Euler-multinomial competing
hazards, Poisson inflows, and RK4."""

import numpy as np
import pytest
from conftest import mc_se_mean, mc_se_variance, se_proportion
from hypothesis import given, settings
from hypothesis import strategies as st

from epipomp.errors import ValidationError
from epipomp.euler import (
    euler_multinomial,
    exit_probabilities,
    gamma_increment,
    poisson_inflow,
    rk4_step,
)


class TestGammaIncrement:
    def test_degenerate_variance_returns_delta_exactly(self, rng):
        assert gamma_increment(0.02, 0.0, rng) == 0.02
        out = gamma_increment(0.02, 0.0, rng, size=5)
        assert np.all(out == 0.02)

    def test_moments_match_mean_delta_variance_sigma2_delta(self, rng):
        delta, sigma2 = 0.1, 0.04
        draws = gamma_increment(delta, sigma2, rng, size=1_000_000)
        assert abs(draws.mean() - delta) < 3 * mc_se_mean(draws)
        target_var = sigma2 * delta  # 0.004
        assert abs(draws.var(ddof=1) - target_var) < 3 * mc_se_variance(draws)

    def test_third_moment_matches_gamma_oracle(self, rng):
        # (delta=1, sigma2=0.5) => shape 2, scale 0.5; E[(X-mu)^3] = 2*k*theta^3
        delta, sigma2 = 1.0, 0.5
        shape, scale = delta / sigma2, sigma2
        analytic_third = 2.0 * shape * scale**3  # 0.125
        draws = gamma_increment(delta, sigma2, rng, size=1_000_000)
        centered = (draws - draws.mean()) ** 3
        assert abs(centered.mean() - analytic_third) < 3 * mc_se_mean(centered)

    def test_nonpositive_delta_rejected(self, rng):
        with pytest.raises(ValidationError):
            gamma_increment(0.0, 0.1, rng)
        with pytest.raises(ValidationError):
            gamma_increment(-1.0, 0.1, rng)
        with pytest.raises(ValidationError):
            gamma_increment(1.0, -0.1, rng)

    def test_vector_sigma2_mixes_degenerate_and_random(self, rng):
        delta = np.full(4, 0.3)
        sigma2 = np.array([0.0, 0.2, 0.0, 0.2])
        out = gamma_increment(delta, sigma2, rng)
        assert out[0] == 0.3 and out[2] == 0.3
        assert out[1] != 0.3 and out[3] != 0.3


class TestEulerMultinomial:
    def test_all_rates_zero_everyone_stays(self, rng):
        flows = euler_multinomial(np.array([1000]), np.zeros((1, 3)), 0.5, rng)
        assert flows.sum() == 0

    def test_single_exit_closed_form(self, rng):
        # mu = 1/wk, delta = 0.1 wk: exit fraction 1 - e^-0.1 = 0.0951626
        X = 100_000
        flows = euler_multinomial(np.array([X]), np.array([[1.0]]), 0.1, rng)
        p = 1.0 - np.exp(-0.1)
        assert p == pytest.approx(0.095163, abs=5e-7)
        frac = flows[0, 0] / X
        assert abs(frac - p) < 3 * se_proportion(p, X)

    def test_two_exit_split_closed_form(self, rng):
        # mu1=1, mu2=3, delta=0.5: p_total = 1-e^-2, split 1:3
        X = 100_000
        flows = euler_multinomial(np.array([X]), np.array([[1.0, 3.0]]), 0.5, rng)
        p1, p2 = 0.25 * (1 - np.exp(-2.0)), 0.75 * (1 - np.exp(-2.0))
        assert p1 == pytest.approx(0.21617, abs=5e-6)
        assert p2 == pytest.approx(0.64850, abs=5e-6)
        assert abs(flows[0, 0] / X - p1) < 3 * se_proportion(p1, X)
        assert abs(flows[0, 1] / X - p2) < 3 * se_proportion(p2, X)

    def test_negative_rate_rejected(self, rng):
        with pytest.raises(ValidationError):
            euler_multinomial(np.array([10]), np.array([[-1.0]]), 0.1, rng)
        with pytest.raises(ValidationError):
            euler_multinomial(np.array([-1]), np.array([[1.0]]), 0.1, rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rate_rejected(self, rng, bad):
        # the bad rate sits among valid ones, in a later row and column
        rates = np.ones((3, 2))
        rates[2, 1] = bad
        with pytest.raises(ValidationError):
            euler_multinomial(np.array([10, 10, 10]), rates, 0.1, rng)

    def test_shared_rates_broadcast_bit_identically(self):
        # rates (1, U, K) against counts (J, U) draw exactly what the rates
        # explicitly broadcast to (J, U, K) draw, under one seed
        J, U, K = 50, 10, 3
        setup = np.random.Generator(np.random.Philox(5))
        counts = setup.integers(0, 10_000, size=(J, U))
        rates = setup.gamma(1.0, 20.0, size=(1, U, K))
        shared = euler_multinomial(counts, rates, 1.0 / 365, np.random.Generator(np.random.Philox(9)))
        full = euler_multinomial(
            counts, np.broadcast_to(rates, (J, U, K)).copy(), 1.0 / 365, np.random.Generator(np.random.Philox(9))
        )
        assert shared.shape == (J, U, K)
        np.testing.assert_array_equal(shared, full)
        unbatched = euler_multinomial(counts, rates[0], 1.0 / 365, np.random.Generator(np.random.Philox(9)))
        np.testing.assert_array_equal(unbatched, full)

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
        rates=st.lists(st.floats(0.0, 1e4), min_size=2, max_size=5),
        zero=st.integers(0, 4),
        delta=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_rate_destination_never_receives_flow(self, counts, rates, zero, delta, seed):
        r = np.array(rates)
        r[zero % r.size] = 0.0
        flows = euler_multinomial(
            np.array(counts), np.broadcast_to(r, (len(counts), r.size)), delta,
            np.random.Generator(np.random.Philox(seed)),
        )
        assert np.all(flows[:, zero % r.size] == 0)
        assert np.all(flows.sum(axis=-1) <= np.array(counts))

    def test_flow_conservation_fuzz(self, rng):
        # every step allocates each individual exactly once
        for _ in range(10_000):
            X = rng.integers(0, 500, size=3)
            rates = rng.gamma(1.0, 2.0, size=(3, 4))
            flows = euler_multinomial(X, rates, 0.05, rng)
            assert np.all(flows >= 0)
            assert np.all(flows.sum(axis=-1) <= X)

    def test_equidispersion_at_zero_noise(self, rng):
        # single open flow: Var(dN) = binomial variance X p (1-p)
        X, mu, delta, n = 1000, 2.0, 0.1, 40_000
        flows = euler_multinomial(
            np.full(n, X), np.full((n, 1), mu), delta, rng
        )[:, 0]
        p = 1.0 - np.exp(-mu * delta)
        target = X * p * (1 - p)
        assert abs(flows.var(ddof=1) - target) < 3 * mc_se_variance(flows)

    def test_overdispersion_with_gamma_noise(self, rng):
        # same mean rate, sigma2 > 0: variance strictly exceeds binomial
        X, mu, delta, sigma2, n = 1000, 2.0, 0.1, 0.2, 40_000
        noise = gamma_increment(np.full(n, delta), sigma2, rng) / delta
        flows = euler_multinomial(np.full(n, X), (mu * noise)[:, None], delta, rng)[:, 0]
        p = 1.0 - np.exp(-mu * delta)
        binom_var = X * p * (1 - p)
        assert flows.var(ddof=1) - binom_var > 3 * mc_se_variance(flows)


def summed_exit_probabilities(rates, delta):
    """``exit_probabilities`` with the total taken by ``sum`` over the destinations."""
    total = rates.sum(axis=-1, keepdims=True)
    frac = np.divide(rates, total, out=np.zeros_like(rates), where=total > 0.0)
    return -np.expm1(-total * delta) * frac


class TestExitProbabilities:
    # destination counts the models draw with: toys 1; model1 2 and 3, 6 and
    # 7, 8 and 9, 22 and 23 (V0, V1, V2, V3/V4); model3 2, 3 and 4
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 6, 7, 8, 9, 22, 23])
    @pytest.mark.parametrize("lead", [(1000,), (200, 10), (50, 4, 5), (30, 10, 4, 5)])
    def test_probabilities_keep_the_bits_of_a_summed_total(self, K, lead):
        # compared as bits, not flows: a one-ulp move in p seldom moves a draw
        rng = np.random.Generator(np.random.Philox(K))
        rates = rng.exponential(size=lead + (K,)) * 10.0 ** rng.integers(-12, 4, size=lead + (K,))
        rates[rng.random(lead + (K,)) < 0.2] = 0.0
        rates[rng.random(lead + (K,)) < 0.1] = -0.0
        rates[-1] = -0.0  # a row of negative zeros sums to +0.0
        # contiguous, a slice, a broadcast view and destinations leading in memory
        layouts = (rates, rates[0], np.broadcast_to(rates[:1], rates.shape),
                   np.moveaxis(np.ascontiguousarray(np.moveaxis(rates, -1, 0)), 0, -1))
        for r in layouts:
            got = exit_probabilities(r, 1.0 / 365.25)
            assert got.tobytes() == summed_exit_probabilities(r, 1.0 / 365.25).tobytes()


class TestPoissonInflow:
    def test_zero_rate_gives_zero(self, rng):
        assert poisson_inflow(0.0, 123.0, rng) == 0

    def test_mean_rate_times_delta(self, rng):
        draws = poisson_inflow(np.full(100_000, 100.0), 0.01, rng)
        assert abs(draws.mean() - 1.0) < 3 * mc_se_mean(draws)

    def test_zero_count_probability(self, rng):
        draws = poisson_inflow(np.full(100_000, 5.0), 1.0, rng)
        p0 = np.exp(-5.0)
        assert p0 == pytest.approx(0.006738, abs=1e-6)
        frac = np.mean(draws == 0)
        assert abs(frac - p0) < 3 * se_proportion(p0, draws.size)

    def test_negative_rate_rejected(self, rng):
        with pytest.raises(ValidationError):
            poisson_inflow(-1.0, 0.1, rng)


class TestDeterministic:
    def test_rk4_linear_decay(self):
        out = rk4_step(lambda t, y: -y, 0.0, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(np.exp(-0.1), abs=1e-7)
        assert np.exp(-0.1) == pytest.approx(0.9048374, abs=5e-8)

    def test_ode_sir_below_threshold_monotone_decreasing(self):
        # R0 < 1: infected trajectory decreases toward zero
        beta, gamma, N = 0.8, 1.0, 1000.0

        def deriv(t, y):
            s, i, _ = y
            infection, recovery = beta * s * i / N, gamma * i
            return np.array([-infection, infection - recovery, recovery])

        y = np.array([900.0, 100.0, 0.0])
        series = [y[1]]
        for _ in range(200):
            y = rk4_step(deriv, 0.0, y, 0.05)
            series.append(y[1])
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        # cross-check the endpoint against a much finer reference integration
        ref = np.array([900.0, 100.0, 0.0])
        for _ in range(4000):
            ref = rk4_step(deriv, 0.0, ref, 0.0025)
        assert y[1] == pytest.approx(ref[1], rel=1e-5)
