"""Forecast and profile paths of the CLI on the built-in cholera models:
scenario files, cohort embedding, deterministic projections, the model a
forecast simulates, and worker-count independence."""

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np
import pytest
from oracles import save_cases, toy_grid

from epipomp import io
from epipomp.cli import DEFAULTS, build_bundle, bundled_path, deep_merge, main, parse_set
from epipomp.forecast import forecast_from_filter, trajectory_projection
from epipomp.grid import weekly_grid
from epipomp.haiti import apply_vaccination_scenario, builtin_scenario
from epipomp.model import simulate
from epipomp.filtering import particle_filter
from epipomp.series import ObservationSeries
from epipomp.toys import hmm_model, sir_model


def run(*argv) -> int:
    return main(list(argv))


WEEKS = "[0,40]"  # short fitting window keeps these end-to-end runs fast


class TestModelForecasts:
    def test_model3_vaccination_scenario_from_bundled_file(self, tmp_path):
        out = tmp_path / "v4"
        code = run(
            "forecast", "--seed", "21", "--out", str(out),
            "--set", "model=model3",
            "--set", f"data.scenario_file={bundled_path('scenarios.csv')}",
            "--set", "forecast.scenario=V4", "--set", "forecast.n_sims=20",
            "--set", "forecast.horizon_weeks=104", "--set", "forecast.J=40",
            "--set", f"data.weeks={WEEKS}",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "V4"
        assert 0.0 <= summary["elimination_probability"] <= 1.0
        assert (out / "forecast.csv").exists()
        assert (out / "elimination.csv").exists()

    def test_unknown_scenario_in_scenario_file_is_a_data_error(self, tmp_path):
        out = tmp_path / "v9"
        path = bundled_path("scenarios.csv")
        code = run(
            "forecast", "--seed", "21", "--out", str(out),
            "--set", "model=model3", "--set", f"data.scenario_file={path}",
            "--set", "forecast.scenario=V9", "--set", f"data.weeks={WEEKS}",
        )
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"].startswith(f"{path}: no rows for scenario 'V9'")
        # V0 is the scenario without campaigns, with or without rows
        assert io.load_scenario(path, "V0", dt.date(2019, 1, 5)).rows == ()

    def test_model1_builtin_scenario_with_cohort_embedding(self, tmp_path):
        out = tmp_path / "m1"
        code = run(
            "forecast", "--seed", "22", "--out", str(out),
            "--set", "model=model1", "--set", "forecast.scenario=V1",
            "--set", "forecast.n_sims=15", "--set", "forecast.horizon_weeks=78",
            "--set", "forecast.J=40", "--set", f"data.weeks={WEEKS}",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"] == "model1"
        assert 0.0 <= summary["elimination_probability"] <= 1.0

    def test_model2_forecast_is_deterministic_projection(self, tmp_path):
        out = tmp_path / "m2"
        code = run(
            "forecast", "--seed", "23", "--out", str(out),
            "--set", "model=model2", "--set", "forecast.scenario=V0",
            "--set", "forecast.horizon_weeks=60", "--set", f"data.weeks={WEEKS}",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["elimination_probability"] is None
        assert (out / "projection.csv").exists()
        rows = (out / "projection.csv").read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == ["week", "department", "mean_reported", "lower", "upper"]
        first = rows[1].split(",")
        assert float(first[4]) >= float(first[3])  # upper >= lower


class TestForecastSimulatesTheFilteredModel:
    """V0 adds no vaccine cohorts to model1 or model3, so the CLI forecast must
    simulate the very model ``build_bundle`` built and the filter ran on."""

    @staticmethod
    def run_sets(command, seed, out, sets) -> int:
        argv = [command, "--seed", str(seed), "--out", str(out)]
        for item in sets:
            argv += ["--set", item]
        return run(*argv)

    @pytest.mark.parametrize("model", ["model1", "model3"])
    def test_v0_forecast_equals_forecast_from_the_bundle_model(self, tmp_path, model):
        seed, J, n_sims, horizon = 7, 50, 10, 104
        sets = [
            f"model={model}", "forecast.scenario=V0", f"data.weeks={WEEKS}",
            f"forecast.J={J}", f"forecast.n_sims={n_sims}", f"forecast.horizon_weeks={horizon}",
        ]
        assert self.run_sets("forecast", seed, tmp_path, sets) == 0

        bundle = build_bundle(deep_merge(DEFAULTS, parse_set(sets)))
        pf = particle_filter(
            bundle.model, bundle.params, bundle.data, bundle.grid, bundle.covs, J=J, seed=seed
        )
        origin = bundle.grid.t_end
        res = forecast_from_filter(
            bundle.model, bundle.params, pf.filter_sample, bundle.covs,
            weekly_grid(horizon, origin),
            n_sims, seed=seed + 1, window=52,
        )
        true_inf, reported = res.true_infections.sum(axis=2), res.reported.sum(axis=2)
        expected = [
            [s, h + 1, true_inf[s, h], reported[s, h]]
            for s in range(n_sims)
            for h in range(horizon)
        ]
        with (tmp_path / "forecast.csv").open() as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        assert rows == expected

    def test_model2_projection_uses_the_grid_euler_step(self, tmp_path):
        horizon = 52
        sets = [
            "model=model2", "forecast.scenario=V1", f"data.weeks={WEEKS}",
            f"forecast.horizon_weeks={horizon}", "grid.steps_per_week=14",
        ]
        assert self.run_sets("forecast", 1, tmp_path, sets) == 0

        bundle = build_bundle(deep_merge(DEFAULTS, parse_set(sets)))
        origin, geo = bundle.grid.t_end, bundle.geography
        schedule = apply_vaccination_scenario(
            builtin_scenario("V1", geo), "model2", geo, origin=origin
        )
        model = bundle.build_model(schedule)
        # the projection starts at week 0; the CLI prints the weeks after the fit
        fitted_weeks = bundle.data.n_obs
        projections = [
            trajectory_projection(
                model, bundle.params, None, weekly_grid(fitted_weeks + horizon, steps_per_week=steps)
            )
            for steps in (14, 7)
        ]
        half_day, one_day = [
            [
                [str(n), u, f"{p.mean_reported[i, ui]:.6g}", f"{p.lower[i, ui]:.6g}",
                 f"{p.upper[i, ui]:.6g}"]
                for n, i in enumerate(range(fitted_weeks, fitted_weeks + horizon))
                for ui, u in enumerate(p.units)
            ]
            for p in projections
        ]
        with (tmp_path / "projection.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == half_day
        assert rows != one_day  # the step changes the printed projection


class TestToyForecastWithCandidates:
    def test_candidates_file_drives_parameter_draws(self, tmp_path):
        from epipomp import io
        from epipomp.series import ObservationSeries
        import datetime as dt

        m = sir_model()
        res = simulate(m, m.params, toy_grid(15), n_sims=1, seed=60)
        dates = [(dt.date(2021, 1, 2) + dt.timedelta(weeks=k)).isoformat() for k in range(15)]
        s = ObservationSeries(("unit",), res.observations[0].T, tuple(dates))
        cases = tmp_path / "cases.csv"
        save_cases(s, cases)
        cand = tmp_path / "candidates.csv"
        cand.write_text("loglik,beta,gamma\n-100.0,1.8,1.0\n-101.5,2.2,0.9\n")
        out = tmp_path / "fc"
        code = run(
            "forecast", "--seed", "31", "--out", str(out),
            "--set", "model=toy:sir", "--set", f"data.cases={cases}",
            "--set", f"forecast.candidates={cand}",
            "--set", "forecast.n_sims=25", "--set", "forecast.horizon_weeks=60",
            "--set", "forecast.J=30",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["elimination_probability"] <= 1.0


class TestForecastRefusals:
    """A forecast that cannot measure elimination exits 2 (validation)."""

    @staticmethod
    def forecast(tmp_path, model, *sets) -> tuple[int, dict]:
        m = {"toy:sir": sir_model, "toy:hmm": hmm_model}[model]()
        obs = simulate(m, m.params, toy_grid(20), n_sims=1, seed=3).observations[0]
        dates = [(dt.date(2021, 1, 2) + dt.timedelta(weeks=k)).isoformat() for k in range(20)]
        cases = tmp_path / "cases.csv"
        save_cases(ObservationSeries(m.units, obs.T, tuple(dates)), cases)
        out = tmp_path / "fc"
        argv = ["forecast", "--seed", "5", "--out", str(out), "--set", f"model={model}",
                "--set", f"data.cases={cases}", "--set", "forecast.J=50",
                "--set", "forecast.n_sims=5", "--set", "forecast.horizon_weeks=60"]
        for item in sets:
            argv += ["--set", item]
        code = run(*argv)
        return code, json.loads((out / "summary.json").read_text())

    def test_model_without_true_infections_refused(self, tmp_path):
        code, summary = self.forecast(tmp_path, "toy:hmm")
        assert code == 2
        assert "one true-infection accumulator per unit" in summary["error"]

    def test_zero_simulations_refused(self, tmp_path):
        code, summary = self.forecast(tmp_path, "toy:sir", "forecast.n_sims=0")
        assert code == 2
        assert summary["error"] == "forecast.n_sims must be an integer >= 1, got 0"

    def test_zero_week_window_refused(self, tmp_path):
        code, summary = self.forecast(tmp_path, "toy:sir", "forecast.window=0")
        assert code == 2
        assert summary["error"] == "forecast.window must be an integer >= 1, got 0"


class TestForecastWindow:
    def test_window_beyond_horizon_refused_before_filtering(self, tmp_path, monkeypatch):
        def no_filter(*args, **kwargs):
            raise AssertionError("the filter ran before the window was checked")

        monkeypatch.setattr("epipomp.cli.particle_filter", no_filter)
        out = tmp_path / "fc"
        code = run(
            "forecast", "--seed", "0", "--out", str(out), "--set", "model=model3",
            "--set", f"data.weeks={WEEKS}", "--set", "forecast.J=200",
            "--set", "forecast.horizon_weeks=55", "--set", "forecast.window=60",
        )
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert "shorter than the elimination window" in summary["error"]

    def test_horizon_under_a_year_accepted_on_model1(self, tmp_path):
        out = tmp_path / "fc"
        code = run(
            "forecast", "--seed", "0", "--out", str(out), "--set", "model=model1",
            "--set", "data.weeks=[0,10]", "--set", "forecast.J=20", "--set", "forecast.n_sims=3",
            "--set", "forecast.horizon_weeks=40", "--set", "forecast.window=10",
        )
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["horizon_weeks"] == 40


class TestForecastDeterminism:
    def test_same_seed_same_probability(self):
        m = sir_model()
        g = toy_grid(15)
        data = simulate(m, m.params, g, n_sims=1, seed=6).observation_series(0)
        pf = particle_filter(m, m.params, data, g, J=50, seed=1)
        kwargs = dict(covs=None, grid=weekly_grid(70, g.t_end, week=1.0), n_sims=40)
        a = forecast_from_filter(m, m.params, pf.filter_sample, seed=9, **kwargs)
        b = forecast_from_filter(m, m.params, pf.filter_sample, seed=9, **kwargs)
        assert a.probability == b.probability
        assert np.array_equal(a.true_infections, b.true_infections)


class TestParallelProfile:
    def test_worker_count_does_not_change_results(self, tmp_path):
        from epipomp import io
        from epipomp.series import ObservationSeries

        m = sir_model()
        res = simulate(m, m.params, toy_grid(20), n_sims=1, seed=44)
        import datetime as dt

        dates = [(dt.date(2020, 1, 4) + dt.timedelta(weeks=k)).isoformat() for k in range(20)]
        s = ObservationSeries(("unit",), res.observations[0].T, tuple(dates))
        cases = tmp_path / "cases.csv"
        save_cases(s, cases)

        outputs = []
        for workers, name in ((1, "serial"), (2, "parallel")):
            out = tmp_path / name
            code = run(
                "profile", "--seed", "5", "--workers", str(workers), "--out", str(out),
                "--set", "model=toy:sir", "--set", f"data.cases={cases}",
                "--set", "profile.parameter=beta",
                "--set", 'profile.values=[1.5, 2.0, 2.5]',
                "--set", "profile.replicates=1", "--set", "profile.method=if2",
                "--set", 'fit.rw_sd={"gamma": 0.05}', "--set", "fit.J=40",
                "--set", "fit.M=2",
            )
            assert code == 0
            outputs.append((out / "profile.csv").read_bytes())
        assert outputs[0] == outputs[1]
