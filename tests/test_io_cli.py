"""CSV ingestion contracts and the command-line pipeline: round trips,
validation messages, config precedence, reproducibility, and manifests."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import save_cases, toy_grid

from epipomp import io
from epipomp.benchmark import fit_benchmark
from epipomp.cli import _SHAPES, DEFAULTS, _fmt, bundled_path, check_config, main, parse_set, resolve_config
from epipomp.errors import ConfigError, DataFormatError
from epipomp.series import ObservationSeries


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


class TestLoadCases:
    def test_three_departments_one_week(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n"
            "2015-01-03,A,5\n2015-01-03,B,0\n2015-01-03,C,12\n",
        )
        s = io.load_cases(p)
        assert s.values.shape == (3, 1)
        assert s.units == ("A", "B", "C")

    def test_na_becomes_missing_marker(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n2015-01-03,A,NA\n2015-01-10,A,4\n",
        )
        s = io.load_cases(p)
        assert np.isnan(s.values[0, 0])
        assert s.values[0, 1] == 4

    def test_negative_count_names_row(self, tmp_path):
        p = write(tmp_path / "c.csv", "date,department,cases\n2015-01-03,A,-2\n")
        with pytest.raises(DataFormatError, match="row 2"):
            io.load_cases(p)

    def test_non_integer_count_names_row(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n2015-01-03,A,3\n2015-01-10,A,2.5\n",
        )
        with pytest.raises(DataFormatError, match=r"c\.csv: row 3: non-integer count 2\.5"):
            io.load_cases(p)

    def test_duplicate_names_both_rows(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n2015-01-03,A,1\n2015-01-03,A,2\n",
        )
        with pytest.raises(DataFormatError, match="rows 2 and 3"):
            io.load_cases(p)

    def test_non_weekly_gap_listed(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n2015-01-03,A,1\n2015-01-17,A,2\n",
        )
        with pytest.raises(DataFormatError, match="2015-01-03 -> 2015-01-17"):
            io.load_cases(p)

    def test_date_gap_names_the_first_row_of_its_later_date(self, tmp_path):
        dates = ["2020-01-04", "2020-01-11", "2020-01-18", "2020-02-01"]
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n" + "".join(f"{d},{u},1\n" for u in "AB" for d in dates),
        )
        with pytest.raises(DataFormatError) as exc:
            io.load_cases(p)
        assert str(exc.value) == (
            f"{p}: row 5: dates are not a uniform weekly grid; gaps at: 2020-01-18 -> 2020-02-01"
        )

    def test_incomplete_grid_rejected(self, tmp_path):
        p = write(
            tmp_path / "c.csv",
            "date,department,cases\n2015-01-03,A,1\n2015-01-03,B,1\n2015-01-10,A,2\n",
        )
        with pytest.raises(DataFormatError, match="incomplete"):
            io.load_cases(p)

    def test_round_trip_identity(self, tmp_path):
        vals = np.array([[1.0, np.nan, 3.0], [0.0, 5.0, 2.0]])
        s = ObservationSeries(("A", "B"), vals, ("2015-01-03", "2015-01-10", "2015-01-17"))
        p = tmp_path / "rt.csv"
        save_cases(s, p)
        back = io.load_cases(p)
        assert back.units == s.units
        np.testing.assert_array_equal(
            np.nan_to_num(back.values, nan=-1), np.nan_to_num(s.values, nan=-1)
        )
        assert back.dates == s.dates


class TestConfigPrecedence:
    def _args(self, **kw):
        import argparse

        defaults = dict(config=None, seed=None, workers=None, out=None, set=[])
        defaults.update(kw)
        return argparse.Namespace(**defaults)

    def test_cli_beats_config_beats_default(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"filter": {"J": 222}, "model": "toy:sir"}))
        # default only
        cfg = resolve_config(self._args())
        assert cfg["filter"]["J"] == 500 and cfg["model"] == "model3"
        # config file overrides default
        cfg = resolve_config(self._args(config=str(cfg_file)))
        assert cfg["filter"]["J"] == 222 and cfg["model"] == "toy:sir"
        # --set overrides config file
        cfg = resolve_config(self._args(config=str(cfg_file), set=["filter.J=99", "model=toy:lgssm"]))
        assert cfg["filter"]["J"] == 99 and cfg["model"] == "toy:lgssm"
        # flag overrides everything for seed/out/workers
        cfg = resolve_config(self._args(config=str(cfg_file), seed=7, out="zzz", workers=3))
        assert cfg["seed"] == 7 and cfg["out"] == "zzz" and cfg["workers"] == 3

    def test_set_parses_json_values(self):
        out = parse_set(['fit.rw_sd={"beta": 0.1}', "fit.J=50", "model=toy:sir"])
        assert out["fit"]["rw_sd"] == {"beta": 0.1}
        assert out["fit"]["J"] == 50
        assert out["model"] == "toy:sir"
        with pytest.raises(ConfigError):
            parse_set(["oops"])


@pytest.fixture()
def toy_cases(tmp_path):
    """A small simulated toy-SIR series written as a cases CSV."""
    from epipomp.model import simulate
    from epipomp.toys import sir_model

    m = sir_model()
    res = simulate(m, m.params, toy_grid(25), n_sims=1, seed=44)
    import datetime as dt

    dates = [(dt.date(2020, 1, 4) + dt.timedelta(weeks=k)).isoformat() for k in range(25)]
    s = ObservationSeries(("unit",), res.observations[0].T, tuple(dates))
    p = tmp_path / "toy_cases.csv"
    save_cases(s, p)
    return p


class TestCliPipeline:
    def run(self, *argv) -> int:
        return main(list(argv))

    def test_simulate_byte_identical_under_same_seed(self, tmp_path):
        for d in ("s1", "s2"):
            code = self.run(
                "simulate", "--seed", "42", "--out", str(tmp_path / d),
                "--set", "model=toy:sir", "--set", "simulate.n_sims=3",
                "--set", "simulate.horizon_weeks=20",
            )
            assert code == 0
        a = (tmp_path / "s1" / "simulations.csv").read_bytes()
        b = (tmp_path / "s2" / "simulations.csv").read_bytes()
        assert a == b

    def test_toy_simulation_honours_steps_per_week(self, tmp_path):
        tables = {}
        for steps in ("null", "1", "4"):
            out = tmp_path / steps
            code = self.run(
                "simulate", "--seed", "1", "--out", str(out), "--set", "model=toy:sir",
                "--set", "simulate.horizon_weeks=20", "--set", f"grid.steps_per_week={steps}",
            )
            assert code == 0
            tables[steps] = (out / "simulations.csv").read_bytes()
        assert tables["null"] == tables["1"]  # a toy's own step is one week
        assert tables["4"] != tables["1"]

    def test_seed_mandatory_for_stochastic_commands(self, tmp_path):
        code = self.run("simulate", "--out", str(tmp_path / "x"), "--set", "model=toy:sir")
        assert code == 2
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["category"] == "config"

    def test_filter_single_particle_matches_direct_summation(self, tmp_path, toy_cases):
        from epipomp.io import load_cases
        from epipomp.optimize import deterministic_loglik
        from epipomp.toys import sir_model

        code = self.run(
            "filter", "--seed", "1", "--out", str(tmp_path / "f"),
            "--set", "model=toy:sir-det", "--set", "filter.J=1",
            "--set", f"data.cases={toy_cases}",
        )
        assert code == 0
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        m = sir_model(stochastic=False)
        data = load_cases(toy_cases)
        direct = deterministic_loglik(m, m.params, data, toy_grid(25), None)
        assert summary["loglik"] == pytest.approx(direct, abs=1e-9)

    def test_manifest_records_inputs_and_status(self, tmp_path, toy_cases):
        out = tmp_path / "m"
        code = self.run(
            "filter", "--seed", "3", "--out", str(out),
            "--set", "model=toy:sir", "--set", "filter.J=20",
            "--set", f"data.cases={toy_cases}",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["partial"] is False
        assert manifest["seed"] == 3
        assert manifest["command"] == "filter"
        assert "filter.csv" in manifest["outputs"]
        assert manifest["config"]["filter"]["J"] == 20
        assert manifest["version"]
        assert manifest["inputs"] == {
            str(toy_cases): hashlib.sha256(toy_cases.read_bytes()).hexdigest()
        }

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,department,cases\n2020-01-04,unit,-1\n")
        code = self.run(
            "filter", "--seed", "1", "--out", str(tmp_path / "e"),
            "--set", "model=toy:sir", "--set", f"data.cases={bad}",
        )
        assert code == 3

    def test_missing_input_file_is_a_data_error(self, tmp_path):
        missing = tmp_path / "absent.csv"
        code = self.run(
            "filter", "--seed", "1", "--out", str(tmp_path / "e"),
            "--set", "model=toy:sir", "--set", f"data.cases={missing}",
        )
        assert code == 3
        summary = json.loads((tmp_path / "e" / "summary.json").read_text())
        assert summary["error"].startswith(f"{missing}: cannot read")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("parameter,value,loglik\nbeta,1.5,-10.0\nbeta,2.0,abc\n",
             "row 3: loglik 'abc' is not a number"),
            ("parameter,value\nbeta,1.5\n", "row 1: header lacks column(s) ['loglik']"),
        ],
        ids=["non-numeric", "missing-column"],
    )
    def test_malformed_mcap_input_is_a_data_error(self, tmp_path, text, message):
        path = write(tmp_path / "profile.csv", text)
        out = tmp_path / "m"
        code = self.run("mcap", "--out", str(out), "--set", f"mcap.input={path}")
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == f"{path}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("loglik,beta\n-100.0,1.8\nabc,2.2\n", "row 3: loglik 'abc' is not a number"),
            ("beta,gamma\n1.8,1.0\n", "row 1: header lacks column(s) ['loglik']"),
            ("loglik,rho\n-100.0,0.5\n-99.0,1.5\n",
             "row 3: rho: logit-transformed parameter must lie in (0,1), got 1.5"),
        ],
        ids=["non-numeric", "missing-column", "out-of-domain"],
    )
    def test_malformed_candidates_file_is_a_data_error(self, tmp_path, toy_cases, text, message):
        path = write(tmp_path / "candidates.csv", text)
        out = tmp_path / "fc"
        code = self.run(
            "forecast", "--seed", "1", "--out", str(out),
            "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}",
            "--set", f"forecast.candidates={path}", "--set", "forecast.J=10",
            "--set", "forecast.n_sims=2", "--set", "forecast.horizon_weeks=52",
        )
        assert code == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == f"{path}: {message}"

    def test_profile_value_out_of_domain_exits_2_naming_it_before_any_fit(
        self, tmp_path, toy_cases, monkeypatch
    ):
        import epipomp.cli as cli

        fits = []
        monkeypatch.setattr(cli, "if2", lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "p"
        code = self.run(
            "profile", "--seed", "1", "--out", str(out), "--set", "model=toy:sir",
            "--set", f"data.cases={toy_cases}", "--set", "profile.parameter=beta",
            "--set", "profile.values=[2.0, -1.0]", "--set", "profile.replicates=1",
        )
        assert code == 2 and fits == []
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "profile.values: beta: log-transformed parameter must be positive, got -1.0"

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("forecast.scenario=V9", "forecast.scenario must be V0, not 'V9'"),
            ("data.scenario_file=/nonexistent.csv", "data.scenario_file must be unset"),
        ],
        ids=["scenario", "scenario-file"],
    )
    def test_toy_forecast_rejects_vaccination_scenarios(self, tmp_path, toy_cases, setting, message):
        out = tmp_path / "fc"
        code = self.run(
            "forecast", "--seed", "1", "--out", str(out),
            "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}", "--set", setting,
            "--set", "forecast.J=10", "--set", "forecast.n_sims=2",
            "--set", "forecast.horizon_weeks=52",
        )
        assert code == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"].endswith(message)

    def test_profile_then_mcap_pipeline(self, tmp_path, toy_cases):
        out1 = tmp_path / "prof"
        code = self.run(
            "profile", "--seed", "5", "--out", str(out1),
            "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}",
            "--set", "profile.parameter=beta",
            "--set", 'profile.values={"lo": 1.2, "hi": 3.0, "n": 7}',
            "--set", "profile.replicates=2", "--set", "profile.method=if2",
            "--set", 'fit.rw_sd={"gamma": 0.05}', "--set", "fit.J=60",
            "--set", "fit.M=2",
        )
        assert code == 0
        out2 = tmp_path / "mcap"
        code = self.run(
            "mcap", "--out", str(out2),
            "--set", f"mcap.input={out1 / 'profile.csv'}",
        )
        assert code == 0
        summary = json.loads((out2 / "summary.json").read_text())
        assert summary["ci_lower"] < summary["mle"] < summary["ci_upper"]
        assert 1.2 <= summary["mle"] <= 3.0
        # the CLI endpoints equal a direct library mcap_ci on the same points
        import csv as _csv

        import numpy as _np

        from epipomp.mcap import mcap_ci

        with (out1 / "profile.csv").open() as fh:
            rows = list(_csv.DictReader(fh))
        values = _np.array([float(r["value"]) for r in rows])
        lls = _np.array([float(r["loglik"]) for r in rows])
        curve = mcap_ci(values, lls, confidence=0.95, span=0.75)
        assert summary["ci_lower"] == pytest.approx(curve.ci[0], rel=1e-12)
        assert summary["ci_upper"] == pytest.approx(curve.ci[1], rel=1e-12)
        assert summary["cutoff"] == pytest.approx(curve.cutoff, rel=1e-12)

    def test_profiled_parameter_removed_from_search(self, tmp_path, toy_cases, monkeypatch):
        # each profile job clamps its parameter: the if2 search it runs
        # starts at the job's value and leaves the parameter out of rw_sd
        import epipomp.cli as cli

        seen = []

        def fake_if2(model, data, grid, covs, settings, seed):
            seen.append((dict(settings.rw_sd), settings.initial["beta"]))
            return SimpleNamespace(best_loglik=-1.0)

        monkeypatch.setattr(cli, "if2", fake_if2)
        code = self.run(
            "profile", "--seed", "5", "--out", str(tmp_path / "prof"),
            "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}",
            "--set", "profile.parameter=beta", "--set", "profile.values=[1.5, 2.5]",
            "--set", "profile.replicates=2", "--set", "profile.method=if2",
            "--set", 'fit.rw_sd={"beta": 0.05, "gamma": 0.05}',
        )
        assert code == 0
        assert seen == [({"gamma": 0.05}, v) for v in (1.5, 1.5, 2.5, 2.5)]

    def test_profile_pool_has_no_more_workers_than_jobs(self, tmp_path, toy_cases, monkeypatch):
        # a fork pool starts all its workers at the first submit; this one
        # records its size and runs the jobs in this process
        import epipomp.cli as cli

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "if2", lambda *args, **kwargs: SimpleNamespace(best_loglik=-1.0))
        code = self.run(
            "profile", "--seed", "5", "--workers", "16", "--out", str(tmp_path / "prof"),
            "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}",
            "--set", "profile.parameter=beta", "--set", "profile.values=[1.5, 2.0, 2.5]",
            "--set", "profile.replicates=1", "--set", 'fit.rw_sd={"gamma": 0.05}',
        )
        assert code == 0
        assert sizes == [3]

    def test_simulated_reports_that_are_not_counts_are_noted(self, tmp_path):
        # model2's log-normal measurement draws continuous reports, some below zero;
        # the count models' summaries have no note (goldens simulate-model3, simulate-toy-sir)
        out = tmp_path / "s"
        code = self.run("simulate", "--seed", "1", "--out", str(out), "--set", "model=model2",
                        "--set", "simulate.n_sims=2", "--set", "data.weeks=[0,10]")
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["notes"] == [
            "200 of 200 simulated reports (40 below zero) are not nonnegative integers: the "
            "measurement model draws continuous values, and total_reported sums them as drawn"
        ]

    def test_non_finite_simulated_value_is_written_as_inf(self, tmp_path):
        # a huge log-normal sd overflows model2's reported draw to inf
        out = tmp_path / "s"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = self.run(
                "simulate", "--seed", "1", "--out", str(out), "--set", "model=model2",
                "--set", "params.psi=400", "--set", "simulate.n_sims=2", "--set", "data.weeks=[0,3]",
            )
        assert code == 0
        reported = [line.split(",")[3] for line in (out / "simulations.csv").read_text().splitlines()[1:]]
        assert "inf" in reported
        assert all(v == "inf" or np.isfinite(float(v)) for v in reported)
        assert [_fmt(v) for v in (3.0, -1.0, 2.5, 1e20, 1.234567e-9, np.nan, -np.inf)] == [
            "3", "-1", "2.5", "100000000000000000000", "1.23457e-09", "NA", "-inf"]

    def test_console_entry_point(self):
        res = subprocess.run(
            [sys.executable, "-m", "epipomp", "--help"], capture_output=True, text=True
        )
        assert res.returncode == 0
        assert "simulate" in res.stdout

    @staticmethod
    def _loaded_by_cli_import(prefix: str) -> str:
        src = str(Path(__file__).resolve().parents[1] / "src")
        res = subprocess.run(
            [
                sys.executable,
                "-c",
                "import epipomp.cli, sys; "
                f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert res.returncode == 0, res.stderr
        return res.stdout.strip()

    def test_import_leaves_scipy_stats_unloaded(self):
        # package modules import only numpy and scipy.special at load time;
        # scipy.stats alone would double every CLI's start-up
        assert self._loaded_by_cli_import("scipy.stats") == "[]"

    def test_import_leaves_scipy_optimize_unloaded(self):
        # only trajectory matching needs it, and imports it when it runs
        assert self._loaded_by_cli_import("scipy.optimize") == "[]"

    def test_benchmark_tracer_instruments_the_package(self):
        # perfbench/tracer.py patches package functions by module attribute;
        # a rename that breaks it fails here, not only in the benchmark
        root = Path(__file__).resolve().parents[1]
        res = subprocess.run(
            [sys.executable, "-c", "from tracer import Tracer, instrument; instrument(Tracer())"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root / 'perfbench'}"},
        )
        assert res.returncode == 0, res.stderr

    def test_fit_eval_particles_zero_rejected(self, tmp_path, toy_cases):
        code = self.run(
            "fit-if2", "--seed", "1", "--out", str(tmp_path / "f"),
            "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}",
            "--set", 'fit.rw_sd={"beta": 0.05}', "--set", "fit.eval_particles=0",
        )
        assert code == 2
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        assert "eval_particles" in summary["error"]


def _leaves(table: dict, prefix: str = ""):
    """(dotted key, default) of every setting in ``table``; an empty table is one setting."""
    for key, value in table.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key, value


class TestConfigFaults:
    """Every config value is checked against DEFAULTS before a command runs,
    and a fault is reported in the output directory like any other."""

    def run(self, tmp_path, toy_cases, *sets) -> int:
        argv = ["filter", "--seed", "1", "--out", str(tmp_path / "f"),
                "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}"]
        for item in sets:
            argv += ["--set", item]
        return main(argv)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("filter.j=10", "unknown config key 'filter.j'"),
            ("fliter.J=10", "unknown config key 'fliter'"),
            ("filter.J=abc", "filter.J must be an integer >= 1, got 'abc'"),
            ("filter.J=true", "filter.J must be an integer >= 1, got True"),
            ("filter.J=10.5", "filter.J must be an integer >= 1, got 10.5"),
            ("grid.steps_per_week=fast", "grid.steps_per_week must be an integer >= 1 or null"),
            ("benchmark.per_unit=1", "benchmark.per_unit must be true or false"),
            ("forecast.scenario=4", "forecast.scenario must be a string or null"),
            ("filter=10", "filter must be a table of settings"),
        ],
    )
    def test_unknown_key_or_wrong_type_exits_2_naming_it(
        self, tmp_path, toy_cases, capsys, setting, message
    ):
        assert self.run(tmp_path, toy_cases, setting) == 2
        assert message in capsys.readouterr().err
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        assert summary["category"] == "config" and message in summary["error"]
        assert json.loads((tmp_path / "f" / "manifest.json").read_text())["partial"] is True

    def test_config_file_is_checked_too(self, tmp_path, toy_cases, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"filter": {"j": 10}}))
        code = main(["filter", "--seed", "1", "--config", str(cfg_file), "--out", str(tmp_path / "g"),
                     "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}"])
        assert code == 2
        assert "unknown config key 'filter.j'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("filter", "data.cases=5", "data.cases"),
            ("filter", "data.rainfall=5", "data.rainfall"),
            ("mcap", "mcap.input=5", "mcap.input"),
            ("forecast", "forecast.candidates=5", "forecast.candidates"),
            ("fit-traj", "fit_traj.free=5", "fit_traj.free"),
            ("filter", "seed=abc", "seed"),
            ("filter", "seed=1.5", "seed"),
            ("filter", "seed=true", "seed"),
            ("filter", "seed=-1", "seed"),
            ("filter", "data.hurricane_date=abc", "data.hurricane_date"),
            ("filter", "data.phase_break_date=2016-13-01", "data.phase_break_date"),
            ("filter", "model=null", "model"),
            ("filter", "model.name=toy:sir", "model"),
            ("profile", "profile.method=mle", "profile.method"),
            ("simulate", "simulate.horizon_weeks=0", "simulate.horizon_weeks"),
            ("forecast", "forecast.horizon_weeks=0", "forecast.horizon_weeks"),
            ("forecast", "forecast.horizon_weeks=-30", "forecast.horizon_weeks"),
            ("mcap", "mcap.confidence=1.5", "mcap.confidence"),
            ("mcap", "mcap.confidence=0", "mcap.confidence"),
            ("mcap", "mcap.span=0", "mcap.span"),
            ("mcap", "mcap.span=-1", "mcap.span"),
            ("profile", "workers=0", "workers"),
            ("profile", "workers=-3", "workers"),
        ],
    )
    def test_value_the_setting_does_not_take_exits_2_naming_it(
        self, tmp_path, toy_cases, command, setting, key
    ):
        out = tmp_path / "f"
        argv = [command, "--out", str(out), "--set", "model=toy:sir", "--set", f"data.cases={toy_cases}",
                "--set", "seed=1", "--set", "profile.parameter=beta", "--set", setting]
        assert main(argv) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["category"] == "config"
        assert summary["error"].startswith(f"{key} must be")
        assert (out / "manifest.json").is_file()

    @pytest.mark.parametrize("text", [None, "{not json", "[1]"], ids=["missing", "not-json", "not-an-object"])
    def test_unreadable_config_file_exits_2_without_output(self, tmp_path, capsys, text):
        # there is no checked config, and so no output directory, to report in
        cfg_file = tmp_path / "cfg.json"
        if text is not None:
            cfg_file.write_text(text)
        out = tmp_path / "o"
        assert main(["filter", "--seed", "1", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert f"config error: config file {str(cfg_file)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["set", "null", "file"])
    def test_out_that_is_not_a_string_exits_2_naming_it(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        cfg_file = write(tmp_path / "cfg.json", json.dumps({"out": 5}))
        argv = {"set": ["--set", "out=5"], "null": ["--set", "out=null"], "file": ["--config", str(cfg_file)]}
        assert main(["simulate", "--seed", "1", "--set", "model=toy:sir", *argv[source]]) == 2
        assert "config error: out must be a string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("target", ["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exits_2_naming_it(self, tmp_path, capsys, target):
        taken = write(tmp_path / "taken", "not a directory")
        out = taken if target == "file" else taken / "run"
        assert main(["simulate", "--seed", "1", "--out", str(out), "--set", "model=toy:sir"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: out {str(out)!r}") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert taken.read_text() == "not a directory"

    @pytest.mark.parametrize(
        "command, model, setting, key",
        [
            ("simulate", "toy:sir", "grid.steps_per_week=-2", "grid.steps_per_week"),
            ("filter", "toy:sir", "grid.steps_per_week=0", "grid.steps_per_week"),
            ("filter", "model1", "grid.steps_per_week=0", "grid.steps_per_week"),
            ("filter", "model1", "grid.steps_per_week=1.5", "grid.steps_per_week"),
            ("forecast", "model3", "grid.steps_per_week=-2", "grid.steps_per_week"),
        ],
    )
    def test_grid_step_out_of_range_exits_2_naming_it_for_every_model(
        self, tmp_path, capsys, command, model, setting, key
    ):
        out = tmp_path / "f"
        assert main([command, "--seed", "1", "--out", str(out), "--set", f"model={model}", "--set", setting]) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["category"] == "config"
        assert summary["error"].startswith(f"{key} must be")
        assert key in capsys.readouterr().err

    def test_defaults_pass_and_every_shape_names_a_setting(self):
        check_config(DEFAULTS)
        assert set(_SHAPES) <= {key for key, _ in _leaves(DEFAULTS)}

    def test_float_setting_takes_an_integer_and_null_turns_a_string_off(self):
        args = TestConfigPrecedence()._args(set=["mcap.span=1", "data.hurricane_date=null"])
        cfg = resolve_config(args)
        check_config(cfg)
        assert cfg["mcap"]["span"] == 1
        assert cfg["data"]["hurricane_date"] is None

    @pytest.mark.parametrize(
        "setting, message",
        [
            ('params={"beta": "x"}', "params.beta='x'"),
            ("params.rho=1.5", "params.rho: logit-transformed parameter must lie in (0,1), got 1.5"),
        ],
        ids=["non-numeric", "out-of-domain"],
    )
    def test_parameter_override_fault_exits_2_naming_it(self, tmp_path, toy_cases, setting, message):
        assert self.run(tmp_path, toy_cases, setting) == 2
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        assert message in summary["error"]

    @pytest.mark.parametrize("a_seas", ["0.97", "1.2"])
    def test_only_a_start_outside_the_domain_is_a_config_fault(self, tmp_path, a_seas):
        # from a_seas=0.97, Nelder-Mead's first step is 1.0185, outside model2's [0, 1)
        out = tmp_path / "f"
        code = main(["fit-traj", "--out", str(out), "--set", "model=model2",
                     "--set", 'fit_traj.free=["a_seas"]', "--set", f"params.a_seas={a_seas}",
                     "--set", "data.weeks=[0,3]"])
        summary = json.loads((out / "summary.json").read_text())
        if a_seas == "1.2":
            assert code == 2
            assert (summary["category"], summary["error"]) == ("config", "seasonal amplitude must lie in [0, 1)")
        else:
            assert code == 0
            assert np.isfinite(summary["loglik"])
            assert 0.0 <= json.loads((out / "params.json").read_text())["a_seas"] < 1.0

    def test_steps_per_week_below_one_exits_2(self, tmp_path, toy_cases):
        assert self.run(tmp_path, toy_cases, "grid.steps_per_week=0") == 2
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        assert "grid.steps_per_week" in summary["error"]

    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("fit-if2", "fit.eval_particles=abc", "fit.eval_particles"),
            ("fit-if2", 'fit.rw_sd={"beta": "x"}', "fit.rw_sd.beta"),
            ("fit-if2", 'fit.rw_sd={"beta": NaN}', "fit.rw_sd.beta"),
            ("fit-if2", 'fit.rw_sd={"beta": Infinity}', "fit.rw_sd.beta"),
            ("fit-if2", "fit.rw_sd=[1]", "fit.rw_sd"),
            ("fit-ibpf", "blocks=5", "blocks"),
            ("profile", "profile.values=5", "profile.values"),
        ],
    )
    def test_settings_checked_where_used_exit_2_naming_the_key(
        self, tmp_path, toy_cases, capsys, command, setting, key
    ):
        argv = [command, "--seed", "1", "--out", str(tmp_path / "f"), "--set", "model=toy:sir",
                "--set", f"data.cases={toy_cases}", "--set", 'fit.rw_sd={"beta": 0.05}',
                "--set", "profile.parameter=beta", "--set", setting]
        assert main(argv) == 2
        assert key in capsys.readouterr().err


# the command that reads each setting, by dotted key or else by its table
READER = {"model": "filter", "seed": "filter", "workers": "profile", "out": "simulate", "data": "filter",
          "data.scenario_file": "forecast", "grid": "simulate", "params": "filter", "simulate": "simulate",
          "filter": "filter", "fit": "fit-if2", "blocks": "fit-ibpf", "fit_traj": "fit-traj",
          "benchmark": "benchmark", "profile": "profile", "mcap": "mcap", "forecast": "forecast"}
# what each command needs besides to run at a tiny size on toy:sir
TINY = {
    "filter": ["filter.J=2"],
    "simulate": ["simulate.n_sims=1", "simulate.horizon_weeks=3"],
    "fit-if2": ["fit.J=2", "fit.M=1"],
    "fit-ibpf": ["fit.J=2", "fit.M=1", 'fit.rw_sd={"beta": 0.05}'],
    "fit-traj": ["model=toy:sir-det"],
    "benchmark": [],
    "profile": ["profile.parameter=beta", "profile.values=[1.5]", "profile.replicates=1",
                "fit.J=2", "fit.M=1", 'fit.rw_sd={"gamma": 0.05}'],
    "mcap": ["mcap.input={profile}"],
    "forecast": ["forecast.J=2", "forecast.n_sims=2", "forecast.horizon_weeks=4", "forecast.window=2"],
}
HUGE = str(10**12)
# process, particle, simulation, iteration, step and week counts: a huge one
# would start or allocate that many
NO_HUGE = {"workers", "grid.steps_per_week", "simulate.n_sims", "simulate.horizon_weeks", "filter.J",
           "fit.J", "fit.M", "fit.eval_particles", "profile.replicates", "forecast.n_sims",
           "forecast.horizon_weeks", "forecast.J"}
# the boundary values that lie inside their setting's domain; every other one is refused
TAKEN = {("seed", "0"), ("seed", HUGE), ("params", "{}"), ("fit_traj.free", "[]")}


def _boundary_cases():
    for key, default in _leaves(DEFAULTS):
        wrong_type = "x" if isinstance(default, bool) else "true"
        for value in ("0", "-1", HUGE, wrong_type, "[]", "{}"):
            if not (value == HUGE and key in NO_HUGE):
                yield key, value


class TestConfigBoundaries:
    """Every setting of ``DEFAULTS`` at 0, -1, a huge value, a wrong type and
    an empty list or table, run by the command that reads it."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        cases = write(root / "cases.csv", "date,department,cases\n" + "".join(
            f"2020-01-{4 + 7 * k:02d},unit,{c}\n" for k, c in enumerate([3, 9, 20, 14])))
        profile = write(root / "profile.csv", "parameter,value,loglik\n" + "".join(
            f"beta,{v},{-(v - 2) ** 2}\n" for v in (1.0, 1.5, 2.0, 2.5, 3.0)))
        return cases, profile

    @pytest.mark.parametrize("key, value", list(_boundary_cases()))
    def test_refused_naming_the_key_unless_taken(self, inputs, tmp_path, monkeypatch, capsys, key, value):
        cases, profile = inputs
        command = READER.get(key) or READER[key.split(".")[0]]
        monkeypatch.chdir(tmp_path)  # where an unchecked out would write
        sets = ["model=toy:sir", f"data.cases={cases}", "seed=1", *TINY[command], f"{key}={value}"]
        argv = [command, *(["--out", "run"] if key != "out" else [])]
        for item in sets:
            argv += ["--set", item.replace("{profile}", str(profile))]
        code = main(argv)
        err = capsys.readouterr().err
        if (key, value) in TAKEN:
            assert code == 0, err
        else:
            assert code == 2, err
            assert key in err, err


class TestDataWeeks:
    """``data.weeks`` selects the weeks [start, stop) of every model's data."""

    def test_toy_weeks_filter_the_selected_weeks(self, tmp_path, toy_cases):
        first10 = tmp_path / "first10.csv"
        first10.write_text("".join(toy_cases.read_text().splitlines(keepends=True)[:11]))
        logliks = []
        for name, cases, weeks in (("sub", toy_cases, ["--set", "data.weeks=[0,10]"]),
                                   ("short", first10, [])):
            out = tmp_path / name
            code = main(["filter", "--seed", "2", "--out", str(out), "--set", "model=toy:sir",
                         "--set", "filter.J=50", "--set", f"data.cases={cases}", *weeks])
            assert code == 0
            logliks.append(json.loads((out / "summary.json").read_text())["loglik"])
        assert logliks[0] == logliks[1]

    @pytest.mark.parametrize("model", ["toy:sir", "model1"])
    @pytest.mark.parametrize("weeks", ["[0]", "5", "[0.5,3.7]", "[true,3]", '"0,10"'])
    def test_weeks_not_two_integers_exit_2(self, tmp_path, toy_cases, model, weeks):
        out = tmp_path / "f"
        code = main(["filter", "--seed", "1", "--out", str(out), "--set", f"model={model}",
                     "--set", "filter.J=5", "--set", f"data.weeks={weeks}",
                     *(["--set", f"data.cases={toy_cases}"] if model.startswith("toy:") else [])])
        assert code == 2
        error = json.loads((out / "summary.json").read_text())["error"]
        assert "data.weeks must be a list of two integers" in error

    def test_benchmark_fits_the_selected_weeks(self, tmp_path):
        out = tmp_path / "b"
        assert main(["benchmark", "--out", str(out), "--set", "data.weeks=[0,10]"]) == 0
        expected = fit_benchmark(io.load_cases(bundled_path("cases.csv")).subset(0, 10)).loglik
        assert json.loads((out / "summary.json").read_text())["loglik"] == expected
        assert main(["benchmark", "--out", str(out), "--set", "data.weeks=[0,9999]"]) == 2
        assert "out of range" in json.loads((out / "summary.json").read_text())["error"]

    def test_toy_weeks_without_cases_file_exit_2(self, tmp_path):
        out = tmp_path / "s"
        code = main(["simulate", "--seed", "1", "--out", str(out), "--set", "model=toy:sir",
                     "--set", "data.weeks=[0,5]"])
        assert code == 2
        assert "data.weeks" in json.loads((out / "summary.json").read_text())["error"]
