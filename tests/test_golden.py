"""Seeded CLI outputs pinned by SHA-256.

Each entry runs one command at a small size and a fixed seed and compares
the SHA-256 of every output file except ``manifest.json`` (which holds
timings and paths) with ``golden/golden.json``. The headline numbers of each
run's ``summary.json`` are stored next to the hashes in clear text, so that a
failure says what moved. A change that alters how the random stream is
consumed reruns ``python tests/golden/regen.py`` and lists every changed
entry; a change that claims bit-identical output leaves the file untouched.

The hashes hold for the numpy version recorded in the file. Under another
version the tests fail and say so: they never skip.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from epipomp.cli import main

GOLDEN = Path(__file__).parent / "golden" / "golden.json"

# a toy-SIR series (simulated once, seed 44) for the toy commands
TOY_CASES = [5, 20, 34, 68, 129, 456, 600, 815, 375, 156, 110, 60, 21,
             13, 29, 33, 28, 15, 14, 17, 13, 33, 37, 25, 41]

PROFILE_CSV = (
    "parameter,value,loglik\n"
    + "".join(
        f"beta,{v:.2f},{-100.0 - 8.0 * (v - 2.0) ** 2 + e:.4f}\n"
        for v, e in zip(np.linspace(1.2, 2.8, 9), [0.3, -0.2, 0.1, 0.4, -0.3, 0.2, -0.1, 0.0, 0.3])
    )
)

BLOCKS = ('[["Artibonite","Centre","Grand\'Anse","Nippes","Nord"],'
          '["Nord-Est","Nord-Ouest","Ouest","Sud","Sud-Est"]]')

_TOY = ["--set", "model=toy:sir", "--set", "data.cases={cases}"]
_PROFILE = _TOY + [
    "--set", "profile.parameter=beta", "--set", "profile.values=[1.5, 2.0, 2.5]",
    "--set", "profile.replicates=1", "--set", "profile.method=if2",
    "--set", 'fit.rw_sd={"gamma": 0.05}', "--set", "fit.J=30", "--set", "fit.M=2",
]

# name -> command line without --out; "{cases}" and "{profile}" name the inputs above
RUNS: dict[str, list[str]] = {
    "filter-model1": ["filter", "--seed", "0", "--set", "model=model1",
                      "--set", "filter.J=100", "--set", "data.weeks=[0,30]"],
    "filter-model3-2blocks": ["filter", "--seed", "0", "--set", "model=model3",
                              "--set", "filter.J=40", "--set", "data.weeks=[0,10]",
                              "--set", f"blocks={BLOCKS}"],
    "fit-if2-toy-sir": ["fit-if2", "--seed", "0", *_TOY, "--set", "fit.J=50", "--set", "fit.M=3",
                        "--set", 'fit.rw_sd={"beta": 0.05, "gamma": 0.05}'],
    "fit-if2-model1": ["fit-if2", "--seed", "0", "--set", "model=model1", "--set", "fit.J=30",
                       "--set", "fit.M=2", "--set", "data.weeks=[0,10]",
                       "--set", 'fit.rw_sd={"beta1": 0.02, "rho": 0.02}'],
    "fit-ibpf-model3": ["fit-ibpf", "--seed", "0", "--set", "model=model3", "--set", "fit.J=20",
                        "--set", "fit.M=2", "--set", "data.weeks=[0,6]", "--set", f"blocks={BLOCKS}",
                        "--set", 'fit.rw_sd={"sigma_proc": 0.02, "beta_w": 0.02}'],
    # IBPF's default layout, one block per department, as the m3-ibpf benchmark runs it
    "fit-ibpf-model3-unit-blocks": ["fit-ibpf", "--seed", "0", "--set", "model=model3",
                                    "--set", "fit.J=20", "--set", "fit.M=2",
                                    "--set", "data.weeks=[0,6]",
                                    "--set", 'fit.rw_sd={"sigma_proc": 0.02, "beta_w": 0.02}'],
    "fit-traj-model2": ["fit-traj", "--set", "model=model2", "--set", 'fit_traj.free=["beta_w"]',
                        "--set", "data.weeks=[0,3]"],
    "forecast-model3-V4": ["forecast", "--seed", "0", "--set", "model=model3",
                           "--set", "data.weeks=[0,6]", "--set", "forecast.J=20",
                           "--set", "forecast.scenario=V4", "--set", "forecast.n_sims=5",
                           "--set", "forecast.horizon_weeks=52", "--set", "forecast.window=10"],
    "forecast-model1-V0-weeks": ["forecast", "--seed", "0", "--set", "model=model1",
                                 "--set", "data.weeks=[0,20]", "--set", "forecast.J=30",
                                 "--set", "forecast.n_sims=5", "--set", "forecast.horizon_weeks=52",
                                 "--set", "forecast.window=10"],
    # the same forecast under vaccination, so model1's cohort branch runs
    "forecast-model1-V4-weeks": ["forecast", "--seed", "0", "--set", "model=model1",
                                 "--set", "data.weeks=[0,20]", "--set", "forecast.J=30",
                                 "--set", "forecast.n_sims=5", "--set", "forecast.horizon_weeks=52",
                                 "--set", "forecast.window=10", "--set", "forecast.scenario=V4"],
    "forecast-model2-projection": ["forecast", "--seed", "0", "--set", "model=model2",
                                   "--set", "data.weeks=[0,4]",
                                   "--set", "forecast.horizon_weeks=52"],
    # the same projection under vaccination, so model2's dosing branch runs
    "forecast-model2-V4-projection": ["forecast", "--seed", "0", "--set", "model=model2",
                                      "--set", "data.weeks=[0,4]",
                                      "--set", "forecast.horizon_weeks=52",
                                      "--set", "forecast.scenario=V4"],
    "forecast-toy-sir": ["forecast", "--seed", "0", *_TOY, "--set", "forecast.J=30",
                         "--set", "forecast.n_sims=10", "--set", "forecast.horizon_weeks=52",
                         "--set", "forecast.window=10"],
    "simulate-model3": ["simulate", "--seed", "0", "--set", "model=model3",
                        "--set", "data.weeks=[0,8]", "--set", "simulate.n_sims=3"],
    "simulate-toy-sir": ["simulate", "--seed", "0", "--set", "model=toy:sir",
                         "--set", "simulate.n_sims=3", "--set", "simulate.horizon_weeks=20"],
    "profile-workers-1": ["profile", "--seed", "0", "--workers", "1", *_PROFILE],
    "profile-workers-2": ["profile", "--seed", "0", "--workers", "2", *_PROFILE],
    "mcap": ["mcap", "--set", "mcap.input={profile}"],
}

HEADLINE_KEYS = ("loglik", "best_loglik", "filter_loglik", "elimination_probability",
                 "total_reported", "n_eval", "mle", "ci_lower", "ci_upper")


def run_golden(name: str, tmp: Path) -> dict:
    """Run one entry of ``RUNS`` in ``tmp``; its output hashes and headline."""
    cases = tmp / "cases.csv"
    cases.write_text("date,department,cases\n" + "".join(
        f"{dt.date(2020, 1, 4) + dt.timedelta(weeks=k)},unit,{c}\n" for k, c in enumerate(TOY_CASES)
    ))
    profile = tmp / "profile.csv"
    profile.write_text(PROFILE_CSV)
    out = tmp / name
    argv = [a.replace("{cases}", str(cases)).replace("{profile}", str(profile)) for a in RUNS[name]]
    argv += ["--out", str(out)]
    code = main(argv)
    summary = json.loads((out / "summary.json").read_text())
    assert code == 0, f"{name} exited {code}: {summary.get('error')}"
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }
    headline = {k: summary[k] for k in HEADLINE_KEYS if k in summary}
    return {"files": files, "headline": headline}


def changed_files(want: dict, got: dict) -> list[str]:
    """The output files whose hashes differ between two entries of ``golden.json``."""
    return sorted(f for f in set(want["files"]) | set(got["files"])
                  if want["files"].get(f) != got["files"].get(f))


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(GOLDEN.read_text())
    assert recorded["numpy"] == np.__version__, (
        f"goldens were recorded under numpy {recorded['numpy']}, this is numpy "
        f"{np.__version__}; check the outputs and rerun tests/golden/regen.py"
    )
    return recorded


def test_golden_covers_every_run(golden):
    assert sorted(golden["runs"]) == sorted(RUNS)


def test_profile_hashes_do_not_depend_on_workers(golden):
    assert golden["runs"]["profile-workers-1"] == golden["runs"]["profile-workers-2"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_seeded_outputs_match_golden(golden, name, tmp_path):
    want = golden["runs"][name]
    got = run_golden(name, tmp_path)
    changed = changed_files(want, got)
    assert not changed, (
        f"{name}: changed outputs {changed}; headline recorded {want['headline']}, "
        f"now {got['headline']}"
    )
    assert got["headline"] == want["headline"]
