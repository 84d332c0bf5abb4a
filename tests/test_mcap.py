"""Monte Carlo adjusted profiles: smoother fidelity, the chi-square cutoff,
its Monte Carlo inflation, and profile designs."""

import numpy as np
import pytest

from epipomp.errors import ValidationError
from epipomp.mcap import loess_quadratic, mcap_ci, mcap_cutoff, profile_design, tricube


def reference_local_quadratic(x, y, grid, span):
    """Independent per-point weighted polyfit (oracle for the smoother)."""
    out = np.empty(grid.size)
    n = x.size
    q = max(4, min(n, int(np.floor(span * n))))
    for i, g in enumerate(grid):
        d = np.abs(x - g)
        cut = np.sort(d)[q - 1]
        w = tricube(d / cut) if cut > 0 else (d == 0).astype(float)
        keep = w > 0
        coeffs = np.polyfit(x[keep] - g, y[keep], deg=2, w=np.sqrt(w[keep]))
        out[i] = coeffs[-1]
    return out


class TestLoess:
    def test_matches_reference_on_noiseless_quadratic(self):
        x = np.linspace(-2, 2, 25)
        y = -(x - 0.3) ** 2
        grid = np.linspace(-2, 2, 101)
        mine = loess_quadratic(x, y, grid, span=0.75)
        ref = reference_local_quadratic(x, y, grid, span=0.75)
        assert np.max(np.abs(mine - ref)) < 1e-6
        # noiseless quadratic is reproduced exactly up to numerics
        assert np.max(np.abs(mine - (-(grid - 0.3) ** 2))) < 1e-8


class TestMcapCi:
    def test_noiseless_quadratic_gives_chi2_interval(self):
        # l(theta) = -(theta-theta0)^2 / (2 s^2): 95% CI = theta0 +/- 1.959964 s
        theta0, s = 1.5, 0.4
        x = np.linspace(theta0 - 3 * s, theta0 + 3 * s, 41)
        y = -((x - theta0) ** 2) / (2 * s**2)
        curve = mcap_ci(x, y, confidence=0.95)
        assert curve.cutoff == pytest.approx(1.920729, abs=1e-3)
        half = 1.959964 * s
        assert curve.ci[0] == pytest.approx(theta0 - half, rel=0.02)
        assert curve.ci[1] == pytest.approx(theta0 + half, rel=0.02)
        assert curve.mle == pytest.approx(theta0, abs=0.02 * s)
        assert not curve.open_lower and not curve.open_upper

    def test_symmetric_curve_gives_symmetric_interval(self):
        x = np.linspace(-1, 1, 21)
        y = -(x**2)
        curve = mcap_ci(x, y)
        assert curve.ci[0] == pytest.approx(-curve.ci[1], abs=2.0 / 1000 * 2)

    def test_cutoff_monotone_in_mc_error(self):
        a = 2.0
        cuts = [mcap_cutoff(a, v, 0.95) for v in (0.0, 0.1, 0.5, 2.0)]
        assert all(b > a_ for a_, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
    def test_cutoff_matches_scipy_chi2_quantile(self, confidence):
        from scipy import stats

        q = stats.chi2.ppf(confidence, 1)
        assert mcap_cutoff(2.0, 0.0, confidence) == pytest.approx(q / 2.0, rel=1e-12)
        assert mcap_cutoff(2.0, 0.3, confidence) == pytest.approx(q * 2.0 * (0.25 + 0.3), rel=1e-12)

    def test_requires_five_distinct_points(self):
        with pytest.raises(ValidationError):
            mcap_ci(np.array([1, 1, 2, 2]), np.array([0.0, 0.1, -0.2, -0.1]))

    @pytest.mark.parametrize(
        "confidence, span",
        [(0.0, 0.75), (1.0, 0.75), (1.5, 0.75), (-0.5, 0.75), (0.95, 0.0), (0.95, -1.0), (0.95, 1.5)],
    )
    def test_confidence_or_span_outside_its_domain_is_refused(self, confidence, span):
        x = np.linspace(-1, 1, 21)
        with pytest.raises(ValidationError, match=r"confidence must be in \(0, 1\) and span in \(0, 1\]"):
            mcap_ci(x, -(x**2), confidence=confidence, span=span)

    def test_boundary_maximum_flags_open_endpoint(self):
        # concave profile whose maximizer lies beyond the right grid edge
        x = np.linspace(0, 1, 21)
        y = -20.0 * (x - 1.2) ** 2
        curve = mcap_ci(x, y)
        assert curve.open_upper
        assert not curve.open_lower

    def test_noisy_coverage_at_least_90_percent(self):
        # quadratic + iid Gaussian noise; nominal 95% over 200 repetitions
        theta0, s = 0.0, 0.5
        x = np.tile(np.linspace(-1.5, 1.5, 13), 3)
        rng = np.random.Generator(np.random.Philox(7))
        hits = 0
        for _ in range(200):
            y = -((x - theta0) ** 2) / (2 * s**2) + rng.normal(0, 0.5, size=x.size)
            curve = mcap_ci(x, y)
            hits += curve.ci[0] <= theta0 <= curve.ci[1]
        assert hits / 200 >= 0.90


class TestProfileDesign:
    def test_single_point_gives_replicate_jobs(self):
        jobs = profile_design("zeta", [0.1], replicates=4)
        assert len(jobs) == 4
        assert all(j.value == 0.1 for j in jobs)
        assert len({j.seed for j in jobs}) == 4

    def test_empty_grid_fails(self):
        with pytest.raises(ValidationError):
            profile_design("zeta", [])

    def test_trend_profile_grid_shape(self):
        # grid spanning the published profile range keeps its ordering
        values = np.linspace(-0.12, 0.02, 15)
        jobs = profile_design("zeta", values, replicates=1)
        assert [j.value for j in jobs] == sorted(j.value for j in jobs)
        assert min(j.value for j in jobs) == -0.12
        assert max(j.value for j in jobs) == pytest.approx(0.02)
