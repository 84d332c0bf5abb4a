"""Periodic B-spline basis against an independent de Boor evaluator."""

import numpy as np
import pytest

from epipomp.splines import cardinal_cubic, periodic_bspline_basis


def de_boor_bspline(x: float, knots: np.ndarray, degree: int = 3) -> float:
    """Cox-de Boor recursion for one B-spline on the given knot vector
    (independent reference implementation)."""

    def b(i, k, t):
        if k == 0:
            return 1.0 if knots[i] <= t < knots[i + 1] else 0.0
        left = 0.0
        if knots[i + k] != knots[i]:
            left = (t - knots[i]) / (knots[i + k] - knots[i]) * b(i, k - 1, t)
        right = 0.0
        if knots[i + k + 1] != knots[i + 1]:
            right = (knots[i + k + 1] - t) / (knots[i + k + 1] - knots[i + 1]) * b(i + 1, k - 1, t)
        return left + right

    return b(0, degree, x)


def reference_basis(t: float, n_basis: int = 6, period: float = 1.0) -> np.ndarray:
    """Periodic basis via de Boor on wrapped knot windows."""
    out = np.zeros(n_basis)
    h = period / n_basis
    for j in range(n_basis):
        knots = np.array([j * h + m * h for m in range(5)])
        # sum over period shifts so the support wraps around
        for shift in (-period, 0.0, period):
            x = t + shift
            if knots[0] <= x < knots[-1]:
                out[j] += de_boor_bspline(x, knots)
    return out


class TestPeriodicBasis:
    def test_partition_of_unity(self):
        t = np.linspace(0, 3, 301)
        basis = periodic_bspline_basis(t)
        np.testing.assert_allclose(basis.sum(axis=-1), 1.0, atol=1e-12)

    def test_matches_independent_de_boor_evaluation(self):
        for t in np.linspace(0.0, 0.999, 41):
            mine = periodic_bspline_basis(np.array(t))
            ref = reference_basis(float(t))
            np.testing.assert_allclose(mine, ref, atol=1e-10)

    def test_periodicity(self):
        t = np.linspace(0, 1, 53)
        np.testing.assert_allclose(
            periodic_bspline_basis(t), periodic_bspline_basis(t + 1.0), atol=1e-12
        )

    def test_cardinal_support_and_peak(self):
        assert cardinal_cubic(np.array(-0.1)) == 0.0
        assert cardinal_cubic(np.array(4.1)) == 0.0
        assert cardinal_cubic(np.array(2.0)) == pytest.approx(2.0 / 3.0)


class TestScalarClosedForm:
    """A scalar t takes the closed form of the four nonzero cubic pieces; it
    must agree with the array evaluation."""

    def check(self, times, n_basis=6, period=1.0):
        for t in times:
            scalar = periodic_bspline_basis(float(t), n_basis, period)
            array = periodic_bspline_basis(np.array([t]), n_basis, period)[0]
            np.testing.assert_allclose(scalar, array, rtol=0, atol=1e-12)

    def test_at_the_knots(self):
        self.check(np.arange(13) / 6.0)
        self.check(np.arange(9) * 0.25 * 2.0, n_basis=8, period=2.0)

    def test_at_the_period_wrap(self):
        self.check([1.0 - 1e-15, 1.0, 1.0 + 1e-15, -1e-17, 0.0, 1e-17, 2.0 - 1e-13, -3.0])

    def test_at_random_times(self):
        rng = np.random.Generator(np.random.Philox(21))
        self.check(rng.uniform(-10.0, 10.0, size=500))
        self.check(rng.uniform(0.0, 3.0, size=100), n_basis=5, period=0.75)
