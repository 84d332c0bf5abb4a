"""Restarted Nelder-Mead and trajectory matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import toy_grid

from epipomp.errors import ValidationError
from epipomp.grid import weekly_grid
from epipomp.haiti.geography import GeographyData
from epipomp.haiti.model2 import build_model2
from epipomp.model import compile_theta, simulate
from epipomp.optimize import _nelder_mead, deterministic_loglik, restarted_nelder_mead, trajectory_match
from epipomp.series import ObservationSeries
from epipomp.toys import pure_death_model, sir_model


class TestRestartedNelderMead:
    def test_quadratic_recovers_minimum_to_1e6(self):
        res = restarted_nelder_mead(lambda x: (x[0] - 3.0) ** 2, np.array([0.0]))
        assert abs(res.x[0] - 3.0) < 1e-6

    def test_two_dimensional_rosenbrock_like(self):
        f = lambda x: (x[0] - 1) ** 2 + 10 * (x[1] - x[0] ** 2) ** 2
        res = restarted_nelder_mead(f, np.array([-1.0, 2.0]))
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_deterministic(self):
        f = lambda x: np.sin(3 * x[0]) + 0.1 * x[0] ** 2
        a = restarted_nelder_mead(f, np.array([0.3]))
        b = restarted_nelder_mead(f, np.array([0.3]))
        assert a.x[0] == b.x[0] and a.fun == b.fun


def _half_space_bowl(x):
    # a bowl whose center lies outside the domain x0 + x1 - x2 < 1, +inf
    # beyond it, as trajectory matching scores a candidate outside the domain
    if x[0] + x[1] - x[2] >= 1.0:
        return np.inf
    return float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2 + 3.0 * (x[2] - 0.5) ** 2)


ORACLE_CASES = {
    "1-d quadratic": (lambda x: (x[0] - 3.0) ** 2, [0.0]),
    "2-d Rosenbrock": (lambda x: (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2, [-1.2, 1.0]),
    "3-d half-space": (_half_space_bowl, [0.0, -0.5, 0.25]),
    # piecewise constant: ties between vertices and candidates
    "2-d plateaus": (lambda x: float(np.floor(4.0 * ((x[0] - 1.0) ** 2 + (x[1] + 0.5) ** 2))), [3.0, 2.0]),
    "0-d array": (lambda x: np.asarray(np.sum((x - [0.5, -2.0]) ** 2)), [2.0, 0.0]),
}


class TestNelderMeadOracle:
    """The ported simplex against scipy's, bit for bit."""

    @pytest.mark.parametrize("tol", [(1e-9, 1e-11, 400), (1e-7, 1e-9, 400), (1e-9, 1e-11, 7)],
                             ids=["fit-traj", "benchmark", "iteration-limit"])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_scipy_minimize(self, case, tol):
        from scipy import optimize  # the package never loads it

        f, x0 = ORACLE_CASES[case]
        x0 = np.array(x0)
        xatol, fatol, per_dim = tol
        want = optimize.minimize(
            f, x0, method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxiter": per_dim * x0.size},
        )
        x, fun, nfev = _nelder_mead(f, x0, xatol, fatol, per_dim * x0.size)
        assert x.tobytes() == want.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(want.fun).tobytes()
        assert nfev == want.nfev

    def test_half_space_search_meets_the_infinite_side(self):
        seen = []
        _nelder_mead(lambda x: seen.append(_half_space_bowl(x)) or seen[-1],
                     np.array(ORACLE_CASES["3-d half-space"][1]), 1e-9, 1e-11, 1200)
        assert np.inf in seen and np.isfinite(min(seen))


class TestTrajectoryMatch:
    @pytest.fixture(scope="class")
    def det_setup(self):
        m = sir_model(stochastic=False)
        truth = m.params.replace({"beta": 1.6, "sigma_proc": 1e-9})
        g = toy_grid(30, steps_per_week=4)
        data = simulate(m, truth, g, n_sims=1, seed=10).observation_series(0)
        return m, truth, g, data

    def test_empty_free_list_returns_inputs_unchanged(self, det_setup):
        m, truth, g, data = det_setup
        res = trajectory_match(m, data, g, None, truth, free=())
        assert dict(res.best) == dict(truth)
        assert res.loglik == deterministic_loglik(m, truth, data, g, None)

    def test_self_fit_recovers_loglik_from_perturbed_start(self, det_setup):
        # started 20% away, the optimizer recovers (at least) the truth's fit
        m, truth, g, data = det_setup
        start = truth.replace({"beta": 1.6 * 1.2})
        ll_truth = deterministic_loglik(m, truth, data, g, None)
        res = trajectory_match(m, data, g, None, start, free=["beta"])
        assert res.loglik >= ll_truth - 0.01
        assert abs(res.best["beta"] - 1.6) < 0.15

    def test_stochastic_model_rejected(self):
        m = sir_model(stochastic=True)
        with pytest.raises(ValidationError):
            trajectory_match(m, None, None, None, m.params, free=["beta"])

    def test_non_finite_start_names_parameters(self, det_setup):
        m, truth, g, data = det_setup
        # i0 rounds to zero infected: the skeleton stays at zero incidence
        # while the data has positive counts, so the objective is -inf
        start = truth.replace({"i0": 1e-9})
        assert not np.isfinite(deterministic_loglik(m, start, data, g, None))
        with pytest.raises(ValidationError, match="non-finite"):
            trajectory_match(m, data, g, None, start, free=["beta"])


class TestSearchOutsideTheDomain:
    """model2 takes a seasonal amplitude in [0, 1): Nelder-Mead's first
    simplex step from 0.97 proposes 0.97 * 1.05 = 1.0185."""

    @pytest.mark.parametrize("free", [["a_seas"], ["phi", "a_seas"]])
    def test_candidate_outside_the_domain_is_a_bad_candidate(self, free):
        m, grid, data = M2_SKELETON
        grid, data = weekly_grid(4), data.subset(0, 4)
        start = m.params.replace({"a_seas": 0.97})
        res = trajectory_match(m, data, grid, None, start, free=free)
        assert 0.0 <= res.best["a_seas"] < 1.0
        assert res.loglik >= deterministic_loglik(m, start, data, grid)


class TestDeterministicLoglik:
    def test_matches_single_particle_filter(self):
        from epipomp.filtering import particle_filter

        m = pure_death_model(stochastic=False)
        g = toy_grid(15, steps_per_week=2)
        data = simulate(m, m.params, g, n_sims=1, seed=4).observation_series(0)
        direct = deterministic_loglik(m, m.params, data, g, None)
        pf = particle_filter(m, m.params, data, g, J=1, seed=9)
        assert direct == pytest.approx(pf.loglik, abs=1e-12)


class TestSkeletonChecks:
    """The skeleton runs the filter's pass, so it takes the pass's checks:
    one observation per grid time and the model's units."""

    @pytest.fixture(scope="class")
    def sir_det(self):
        m = sir_model(stochastic=False)
        data = simulate(m, m.params, toy_grid(10), n_sims=1, seed=0).observation_series(0)
        return m, data

    @pytest.mark.parametrize("case", ["data-longer-than-grid", "data-shorter-than-grid", "two-units"])
    @pytest.mark.parametrize("fit", [False, True], ids=["loglik", "trajectory-match"])
    def test_mismatched_data_rejected(self, sir_det, case, fit):
        m, data = sir_det
        grid = toy_grid(10)
        if case == "data-longer-than-grid":
            grid = toy_grid(5)
        elif case == "data-shorter-than-grid":
            data = data.subset(0, 5)
        else:
            data = ObservationSeries(("a", "b"), np.vstack([data.values, data.values]))
        with pytest.raises(ValidationError, match="observations but grid|do not match model units"):
            if fit:
                trajectory_match(m, data, grid, None, m.params, free=["beta"])
            else:
                deterministic_loglik(m, m.params, data, grid, None)


def _three_unit_model2():
    geo = GeographyData(
        ("a", "b", "c"),
        np.array([4e5, 2e5, 1e5]),
        np.array([300.0, 150.0, 80.0]),
        np.array([[0.0, 60.0, 120.0], [60.0, 0.0, 90.0], [120.0, 90.0, 0.0]]),
        np.zeros((3, 3)),
    )
    m = build_model2(np.array([200.0, 40.0, 10.0]), geo)
    grid = weekly_grid(10)
    data = simulate(m, m.params, grid, n_sims=1, seed=0).observation_series(0)
    return m, grid, data


M2_SKELETON = _three_unit_model2()


def reference_skeleton_loglik(model, params, data, grid) -> float:
    """The skeleton log-likelihood by its definition: step the single
    skeleton trajectory, zeroing the accumulators at the start of each
    interval, and add ``dunit_measure`` over the observed entries only."""
    theta = compile_theta(model, params)
    X = np.asarray(model.rinit(theta, 1, None), dtype=float)
    acc = model.indices(model.accumulators)
    total = 0.0
    for n, (t_prev, t_next) in enumerate(grid.intervals()):
        X[:, acc] = 0.0
        k, h = grid.substeps(t_prev, t_next)
        for i in range(k):
            X = model.step(X, t_prev + i * h, h, model.prepare(theta), None, None)
        y = data.values[:, n]
        observed = ~np.isnan(y)
        if observed.any():
            logd = model.dunit_measure(np.where(observed, y, 0.0), X, t_next, theta)
            total += float(logd[0, observed].sum())
    return total


class TestSkeletonMissingData:
    @given(st.lists(st.integers(0, 3), min_size=10, max_size=10), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_missing_pattern_matches_the_definition(self, kinds, seed):
        # per week: 0 all observed, 1 one unit missing, 2 two missing, 3 all missing
        m, grid, data = M2_SKELETON
        rng = np.random.Generator(np.random.Philox(seed))
        values = data.values.copy()
        for n, kind in enumerate(kinds):
            values[rng.permutation(3)[:kind], n] = np.nan
        masked = ObservationSeries(data.units, values, counts=False)
        got = deterministic_loglik(m, m.params, masked, grid, None)
        want = reference_skeleton_loglik(m, m.params, masked, grid)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_all_missing_weeks_add_exactly_zero(self):
        m, grid, data = M2_SKELETON
        values = np.full_like(data.values, np.nan)
        none = ObservationSeries(data.units, values.copy(), counts=False)
        assert deterministic_loglik(m, m.params, none, grid, None) == 0.0
        values[:, 0] = data.values[:, 0]
        first = ObservationSeries(data.units, values, counts=False)
        want = reference_skeleton_loglik(m, m.params, first, grid)
        assert deterministic_loglik(m, m.params, first, grid, None) == want
