"""IF2 / IBPF contracts: cooling schedule, determinism, the one-block
equivalence, block-likelihood factorization over independent units, and
parameter recovery on self-simulated data."""

import numpy as np
import pytest
from oracles import toy_grid
from conftest import mc_se_mean

from epipomp import filtering
from epipomp.errors import ValidationError
from epipomp.filtering import particle_filter
from epipomp.iterfilter import (
    If2Settings,
    _expand_search,
    _natural_theta,
    cooled_sd,
    ibpf,
    if2,
)
from epipomp.model import compile_theta, simulate
from epipomp.params import from_estimation, split_key
from epipomp.series import ObservationSeries
from epipomp.toys import metapop_model, sir_model


@pytest.fixture(scope="module")
def sir_data():
    m = sir_model()
    g = toy_grid(40)
    data = simulate(m, m.params, g, n_sims=1, seed=31).observation_series(0)
    return m, g, data


class TestSettings:
    def test_validation(self):
        with pytest.raises(ValidationError):
            If2Settings(J=0, M=1, rw_sd={"beta": 0.1})
        with pytest.raises(ValidationError):
            If2Settings(J=1, M=0, rw_sd={"beta": 0.1})
        for sd in (-0.1, np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError, match="rw sd for 'beta'"):
                If2Settings(J=1, M=1, rw_sd={"beta": sd})
        with pytest.raises(ValidationError):
            If2Settings(J=1, M=1, rw_sd={"beta": 0.1}, cooling=0.0)
        for eval_particles in (0, -3):
            with pytest.raises(ValidationError, match="eval_particles"):
                If2Settings(J=1, M=1, rw_sd={"beta": 0.1}, eval_particles=eval_particles)

    def test_geometric_cooling_definition(self):
        # sd at iteration 50 equals cooling_fraction * sd at iteration 0
        assert cooled_sd(0.2, 0.3, 0) == pytest.approx(0.2)
        assert cooled_sd(0.2, 0.3, 50) == pytest.approx(0.3 * 0.2)
        assert cooled_sd(0.2, 0.3, 25) == pytest.approx(0.2 * 0.3**0.5)


class TestIf2:
    def test_zero_rw_sd_returns_input_parameters(self, sir_data):
        m, g, data = sir_data
        st = If2Settings(J=40, M=3, rw_sd={"beta": 0.0, "gamma": 0.0}, cooling=0.5)
        res = if2(m, data, g, None, st, seed=11)
        assert res.best["beta"] == pytest.approx(m.params["beta"], rel=1e-12)
        assert res.best["gamma"] == pytest.approx(m.params["gamma"], rel=1e-12)
        # the swarm cannot move at all
        assert np.all(res.swarm == res.swarm[0])

    def test_seed_determinism(self, sir_data):
        m, g, data = sir_data
        st = If2Settings(J=50, M=3, rw_sd={"beta": 0.05}, cooling=0.6)
        a = if2(m, data, g, None, st, seed=17)
        b = if2(m, data, g, None, st, seed=17)
        assert [r.eval_loglik for r in a.trace] == [r.eval_loglik for r in b.trace]
        assert np.array_equal(a.swarm, b.swarm)

    def test_unknown_search_name_rejected(self, sir_data):
        m, g, data = sir_data
        st = If2Settings(J=10, M=1, rw_sd={"nope": 0.1})
        with pytest.raises(ValidationError, match="nope"):
            if2(m, data, g, None, st, seed=0)

    def test_all_missing_weeks_draw_no_resampling_uniform(self, sir_data, monkeypatch):
        # the pass resamples every observed week (J=50 weights are never
        # constant here) and skips the all-NaN ones; the evaluation filter
        # (30 particles) is told apart by its weight count
        m, g, data = sir_data
        calls: list[int] = []
        original = filtering.systematic_indices

        def counting(logw, u):
            calls.append(logw.size)
            return original(logw, u)

        monkeypatch.setattr(filtering, "systematic_indices", counting)
        vals = data.values.copy()
        vals[:, [5, 17]] = np.nan
        st = If2Settings(J=50, M=1, rw_sd={"beta": 0.05}, eval_particles=30)
        for series, observed in ((data, g.n_obs), (ObservationSeries(("unit",), vals), g.n_obs - 2)):
            calls.clear()
            res = if2(m, series, g, None, st, seed=2)
            assert calls.count(50) == observed
            assert np.isfinite(res.trace[0].pass_loglik)

    def test_recovery_on_self_simulated_data(self, sir_data):
        m, g, data = sir_data
        start = m.params.replace({"beta": 1.2})
        st = If2Settings(J=400, M=15, rw_sd={"beta": 0.04}, cooling=0.6, initial=start)
        res = if2(m, data, g, None, st, seed=5)
        start_ll = res.trace[0].eval_loglik
        assert res.best_loglik > start_ll - 5.0  # search never collapses
        assert abs(res.best["beta"] - 2.0) / 2.0 < 0.2


class TestIbpf:
    def test_one_block_bit_identical_to_if2(self, sir_data):
        # toy:sir searches one shared column; toy:metapop the unit-specific
        # beta family plus the shared gamma
        mp = metapop_model()
        mp_data = simulate(mp, mp.params, toy_grid(20), n_sims=1, seed=8).observation_series(0)
        for m, g, data, rw_sd in (
            (*sir_data, {"beta": 0.05}),
            (mp, toy_grid(20), mp_data, {"beta": 0.05, "gamma": 0.05}),
        ):
            kwargs = dict(J=60, M=4, rw_sd=rw_sd, cooling=0.6)
            a = if2(m, data, g, None, If2Settings(**kwargs), seed=23)
            b = ibpf(m, data, g, None, If2Settings(**kwargs), seed=23, blocks=[list(m.units)])
            assert [r.eval_loglik for r in a.trace] == [r.eval_loglik for r in b.trace]
            assert [r.pass_loglik for r in a.trace] == [r.pass_loglik for r in b.trace]
            assert np.array_equal(a.swarm, b.swarm)

    @pytest.mark.parametrize("units", [("a",), ("b", "a")])
    def test_data_units_must_match_model_units(self, units):
        m = metapop_model(units=("a", "b"))
        g = toy_grid(8)
        values = simulate(m, m.params, g, n_sims=1, seed=4).observation_series(0).values
        data = ObservationSeries(units, values[: len(units)])
        message = r"data units \(.*\) do not match model units \('a', 'b'\)"
        with pytest.raises(ValidationError, match=message):
            if2(m, data, g, None, If2Settings(J=10, M=1, rw_sd={"gamma": 0.05}), seed=0)
        with pytest.raises(ValidationError, match=message):
            ibpf(m, data, g, None, If2Settings(J=10, M=1, rw_sd={"gamma": 0.05}), seed=0)

    def test_block_partition_validated(self, sir_data):
        m, g, data = sir_data
        st = If2Settings(J=10, M=1, rw_sd={"beta": 0.05})
        with pytest.raises(ValidationError):
            ibpf(m, data, g, None, st, seed=0, blocks=[["unit"], ["ghost"]])

    def test_independent_units_factorize(self):
        # block filter loglik ~ sum of per-unit particle filter logliks
        m = metapop_model(units=("a", "b"), pops=(3000.0, 3000.0), coupling=0.0)
        g = toy_grid(30)
        data = simulate(m, m.params, g, n_sims=1, seed=41).observation_series(0)
        reps = 8
        block_lls = np.array(
            [
                particle_filter(m, m.params, data, g, J=800, seed=s, blocks=[["a"], ["b"]]).loglik
                for s in range(reps)
            ]
        )
        totals = []
        for s in range(reps):
            total = 0.0
            for i, unit in enumerate(("a", "b")):
                solo = metapop_model(units=(unit,), pops=(3000.0,), coupling=0.0)
                solo_data = ObservationSeries((unit,), data.values[i : i + 1])
                total += particle_filter(
                    solo, solo.params, solo_data, g, J=800, seed=100 + 7 * s + i
                ).loglik
            totals.append(total)
        totals = np.array(totals)
        se = np.sqrt(mc_se_mean(block_lls) ** 2 + mc_se_mean(totals) ** 2)
        assert abs(block_lls.mean() - totals.mean()) < 3 * se


class TestBlockDefaults:
    def test_default_blocks_are_one_per_unit(self):
        # a 2-unit model under default ibpf blocks consumes randomness
        # differently from the explicit one-block run (per-unit resampling)
        m = metapop_model(units=("a", "b"), coupling=0.0)
        g = toy_grid(15)
        data = simulate(m, m.params, g, n_sims=1, seed=9).observation_series(0)
        kwargs = dict(J=40, M=2, rw_sd={"gamma": 0.05}, cooling=0.7)
        st = If2Settings(**kwargs)
        per_unit = ibpf(m, data, g, None, st, seed=3)
        explicit = ibpf(m, data, g, None, st, seed=3, blocks=[["a"], ["b"]])
        one_block = ibpf(m, data, g, None, st, seed=3, blocks=[["a", "b"]])
        assert [r.eval_loglik for r in per_unit.trace] == [r.eval_loglik for r in explicit.trace]
        assert [r.eval_loglik for r in per_unit.trace] != [r.eval_loglik for r in one_block.trace]

    def test_block_ess_within_bounds(self):
        from epipomp.filtering import particle_filter

        m = metapop_model(units=("a", "b", "c"), coupling=0.05)
        g = toy_grid(20)
        data = simulate(m, m.params, g, n_sims=1, seed=13).observation_series(0)
        res = particle_filter(m, m.params, data, g, J=64, seed=2, blocks=[["a"], ["b"], ["c"]])
        assert res.block_ess.shape == (20, 3)
        assert np.all(res.block_ess >= 1.0) and np.all(res.block_ess <= 64.0)
        assert np.all(res.ess == res.block_ess.min(axis=1))


class TestSharedReconciliation:
    def test_shared_parameter_equal_across_blocks_after_iteration(self):
        m = metapop_model(units=("a", "b", "c"), coupling=0.05)
        g = toy_grid(12)
        data = simulate(m, m.params, g, n_sims=1, seed=51).observation_series(0)
        st = If2Settings(J=50, M=2, rw_sd={"gamma": 0.05, "beta": 0.05}, cooling=0.7)
        res = ibpf(m, data, g, None, st, seed=6, blocks=[["a"], ["b"], ["c"]])
        assert res.trace[-1].center["gamma"] > 0
        assert not res.aborted


class TestNaturalTheta:
    def test_matches_per_unit_loop(self):
        # reference: each searched column written one unit at a time from the
        # copy held by the unit's block; a unit-specific column's copies
        # outside its home block are never read, so NaN there changes nothing
        m = metapop_model(units=("a", "b", "c"))
        blocks = [["a", "c"], ["b"]]
        layout = _expand_search(m, m.params, {"gamma": 0.1, "beta": 0.1, "rho": 0.1}, blocks)
        est = np.random.default_rng(0).normal(size=(2, 7, len(layout.keys)))
        fixed = compile_theta(m, m.params)
        theta = _natural_theta(m, fixed, layout, est)
        block_of = {"a": 0, "c": 0, "b": 1}
        masked = est.copy()
        for ci, key in enumerate(layout.keys):
            base, unit = split_key(key)
            if unit is not None:
                masked[[b for b in range(2) if b != block_of[unit]], :, ci] = np.nan
            for u, name in enumerate(m.units):
                if unit in (None, name):
                    expected = from_estimation(est[block_of[name], :, ci], layout.transforms[ci])
                    assert np.array_equal(theta[base][:, u], expected)
        assert np.isnan(masked).any()
        theta_masked = _natural_theta(m, fixed, layout, masked)
        assert all(np.array_equal(theta_masked[k], theta[k]) for k in theta)
        unsearched = [k for k in fixed if k not in ("gamma", "beta", "rho")]
        assert unsearched and all(theta[k] is fixed[k] for k in unsearched)
