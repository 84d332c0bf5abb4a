"""CSV ingestion contracts and the command-line pipeline: round trips,
validation messages, config precedence, reproducibility, and manifests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epipomp import io
from epipomp.cli import main, parse_set, resolve_config
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
        io.save_cases(s, p)
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
    from epipomp.toys import sir_model, toy_grid

    m = sir_model()
    res = simulate(m, m.params, toy_grid(25), n_sims=1, seed=44)
    import datetime as dt

    dates = [(dt.date(2020, 1, 4) + dt.timedelta(weeks=k)).isoformat() for k in range(25)]
    s = ObservationSeries(("unit",), res.observations[0].T, tuple(dates))
    p = tmp_path / "toy_cases.csv"
    io.save_cases(s, p)
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

    def test_seed_mandatory_for_stochastic_commands(self, tmp_path):
        code = self.run("simulate", "--out", str(tmp_path / "x"), "--set", "model=toy:sir")
        assert code == 2
        summary = json.loads((tmp_path / "x" / "summary.json").read_text())
        assert summary["category"] == "config"

    def test_filter_single_particle_matches_direct_summation(self, tmp_path, toy_cases):
        from epipomp.io import load_cases
        from epipomp.optimize import deterministic_loglik
        from epipomp.toys import sir_model, toy_grid

        code = self.run(
            "filter", "--seed", "1", "--out", str(tmp_path / "f"),
            "--set", "model=toy:sir-det", "--set", "filter.J=1",
            "--set", f"data.cases={toy_cases}",
        )
        assert code == 0
        summary = json.loads((tmp_path / "f" / "summary.json").read_text())
        m = sir_model(stochastic=False, name="toy:sir-det")
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

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,department,cases\n2020-01-04,unit,-1\n")
        code = self.run(
            "filter", "--seed", "1", "--out", str(tmp_path / "e"),
            "--set", "model=toy:sir", "--set", f"data.cases={bad}",
        )
        assert code == 3

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

    def test_console_entry_point(self):
        res = subprocess.run(
            [sys.executable, "-m", "epipomp", "--help"], capture_output=True, text=True
        )
        assert res.returncode == 0
        assert "simulate" in res.stdout

    def test_import_leaves_scipy_stats_unloaded(self):
        # package modules import only numpy, scipy.special and scipy.optimize
        # at load time; scipy.stats alone would double every CLI's start-up
        src = str(Path(__file__).resolve().parents[1] / "src")
        res = subprocess.run(
            [
                sys.executable,
                "-c",
                "import epipomp.cli, sys; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
