"""Periodic B-spline basis against an independent de Boor evaluator."""

import numpy as np
import pytest

from epipomp.splines import periodic_bspline_basis


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
        # sum over period shifts so the support wraps around, from any t in [-11, 11)
        for k in range(-12, 13):
            x = t + k * period
            if knots[0] <= x < knots[-1]:
                out[j] += de_boor_bspline(x, knots)
    return out


class TestPeriodicBasis:
    def test_partition_of_unity(self):
        for t in np.linspace(0, 3, 301):
            assert periodic_bspline_basis(float(t)).sum() == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_matches_independent_de_boor_evaluation(self):
        for t in np.linspace(0.0, 0.999, 41):
            np.testing.assert_allclose(periodic_bspline_basis(float(t)), reference_basis(float(t)), atol=1e-10)

    def test_periodicity(self):
        for t in np.linspace(0, 1, 53):
            np.testing.assert_allclose(
                periodic_bspline_basis(float(t)), periodic_bspline_basis(float(t) + 1.0), atol=1e-12
            )


class TestScalarClosedForm:
    """The basis takes the closed form of the four nonzero cubic pieces; it
    must agree with the de Boor reference."""

    def check(self, times):
        for t in times:
            np.testing.assert_allclose(
                periodic_bspline_basis(float(t)), reference_basis(float(t)), rtol=0, atol=1e-12
            )

    def test_at_the_knots(self):
        self.check(np.arange(13) / 6.0)

    def test_at_the_period_wrap(self):
        self.check([1.0 - 1e-15, 1.0, 1.0 + 1e-15, -1e-17, 0.0, 1e-17, 2.0 - 1e-13, -3.0])

    def test_at_random_times(self):
        rng = np.random.Generator(np.random.Philox(21))
        self.check(rng.uniform(-10.0, 10.0, size=500))
