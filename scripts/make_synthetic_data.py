"""Generate the bundled synthetic dataset.

Writes the packaged CSVs under src/epipomp/data/: a ten-department weekly
case series simulated from the stochastic metapopulation model at its table
point estimates (400 observed weeks plus the four initialization weeks),
matching rainfall covering the fitting span plus a ten-year forecast
horizon, geography/distance/river tables, the default efficacy curve, and
explicit dose schedules for scenarios V1-V4. The generating seed and
settings are recorded in data/manifest.json.

The bundled files were written by this script at commit 2dca7ff
(``generator_commit`` in the manifest), and it reproduces them byte for byte
there. From cd62ef2 on, model3 fuses its I/A/R draws, so the same seed
simulates a different case series: run now, the script writes a dataset
that differs from the bundled one. The bundled data are kept as they are,
because the golden outputs and the benchmark references are pinned to them.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
from pathlib import Path

import numpy as np

from epipomp.grid import weekly_grid
from epipomp.haiti import builtin_scenario, default_curve, synthetic_geography
from epipomp.haiti.model3 import build_model3
from epipomp.model import simulate
from epipomp.series import CovariateTable, standardize_rainfall
from epipomp.units import WEEK

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "epipomp" / "data"
SEED = 20101023
START_DATE = dt.date(2010, 10, 23)  # week 3 after this is 2010-11-13
N_INIT = 4
N_OBS = 400
N_RAIN_WEEKS = N_INIT + N_OBS + 520 + 16
HURRICANE_DATE = dt.date(2016, 10, 4)

#: Hand-picked early-outbreak reports: heavy along the Artibonite basin,
#: zero in Grand'Anse and Nippes (exercising the estimated-I0 path).
INIT_OBS = np.array(
    [
        [64, 212, 388, 455],   # Artibonite
        [12, 45, 92, 118],     # Centre
        [0, 0, 0, 0],          # Grand'Anse
        [0, 0, 0, 0],          # Nippes
        [3, 9, 22, 31],        # Nord
        [0, 2, 5, 8],          # Nord-Est
        [1, 4, 12, 19],        # Nord-Ouest
        [22, 96, 204, 262],    # Ouest
        [0, 1, 4, 7],          # Sud
        [1, 3, 8, 12],         # Sud-Est
    ],
    dtype=float,
)


def week_date(k: int) -> dt.date:
    return START_DATE + dt.timedelta(weeks=k)


def make_rainfall(rng: np.random.Generator, n_units: int) -> np.ndarray:
    """Seasonal gamma rainfall with a wet-season double peak, in mm."""
    weeks = np.arange(N_RAIN_WEEKS)
    phase = 2 * np.pi * (weeks % 52.14) / 52.14
    seasonal = 1.0 + 0.9 * np.sin(phase - 1.1) + 0.45 * np.sin(2 * phase + 0.4)
    seasonal = np.clip(seasonal, 0.08, None)
    scale = rng.uniform(14.0, 30.0, size=n_units)
    draws = rng.gamma(1.6, 1.0, size=(n_units, N_RAIN_WEEKS))
    return draws * seasonal[None, :] * scale[:, None]


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    geo = synthetic_geography()
    units = list(geo.units)
    rng = np.random.Generator(np.random.Philox(SEED))

    # geography tables
    with (DATA_DIR / "geography.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["department", "population", "density"])
        for u, pop, den in zip(units, geo.populations, geo.densities):
            w.writerow([u, int(pop), f"{den:g}"])
    for name, mat in (("distance.csv", geo.distances), ("river.csv", geo.river_flows)):
        with (DATA_DIR / name).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["department"] + units)
            for u, row in zip(units, mat):
                w.writerow([u] + [f"{v:g}" for v in row])

    # efficacy curve
    curve = default_curve()
    with (DATA_DIR / "efficacy.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["weeks_since", "efficacy_1dose", "efficacy_2dose"])
        for wk, e1, e2 in zip(curve.weeks, curve.one_dose, curve.two_dose):
            w.writerow([f"{wk:g}", f"{e1:g}", f"{e2:g}"])

    # rainfall
    rain_raw = make_rainfall(rng, geo.n_units)
    with (DATA_DIR / "rainfall.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "department", "mm"])
        for k in range(N_RAIN_WEEKS):
            d = week_date(k).isoformat()
            for u, unit in enumerate(units):
                w.writerow([d, unit, f"{rain_raw[u, k]:.3f}"])

    # model-3 simulation at table point estimates
    rain = standardize_rainfall(rain_raw, units)
    times = np.arange(N_RAIN_WEEKS) * WEEK
    hurricane_t = (HURRICANE_DATE - START_DATE).days / 7.0 * WEEK
    covs = CovariateTable(
        times=times, step=WEEK, rainfall=rain, units=tuple(units), hurricane_time=hurricane_t
    )
    median_rain = float(np.median(rain))
    model = build_model3(INIT_OBS, geo, median_rainfall=median_rain)
    t0 = (N_INIT - 1) * WEEK
    grid = weekly_grid(N_OBS, t0)
    sim = simulate(model, model.params, grid, covs, n_sims=1, seed=SEED)
    cases = sim.observations[0]  # (N_OBS, U)

    with (DATA_DIR / "cases.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["date", "department", "cases"])
        for k in range(N_INIT):
            d = week_date(k).isoformat()
            for u, unit in enumerate(units):
                w.writerow([d, unit, int(INIT_OBS[u, k])])
        for n in range(N_OBS):
            d = week_date(N_INIT + n).isoformat()
            for u, unit in enumerate(units):
                w.writerow([d, unit, int(cases[n, u])])

    # scenario dose schedules: starts relative to the last observed week
    origin_date = week_date(N_INIT + N_OBS - 1)
    with (DATA_DIR / "scenarios.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "department", "start_date", "duration_weeks", "doses_1", "doses_2"])
        for sid in ("V1", "V2", "V3", "V4"):
            spec = builtin_scenario(sid, geo)
            for row in spec.rows:
                start = origin_date + dt.timedelta(weeks=round(row.start / WEEK))
                w.writerow(
                    [sid, row.department, start.isoformat(), f"{row.duration_weeks:g}",
                     int(row.doses_1), int(row.doses_2)]
                )

    manifest = {
        "seed": SEED,
        "generator": "scripts/make_synthetic_data.py",
        "model": "model3 at table point estimates",
        "start_date": START_DATE.isoformat(),
        "initialization_weeks": N_INIT,
        "observed_weeks": N_OBS,
        "rainfall_weeks": N_RAIN_WEEKS,
        "hurricane_date": HURRICANE_DATE.isoformat(),
        "total_reported_cases": int(np.nansum(cases)),
    }
    (DATA_DIR / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(json.dumps(manifest, indent=2))


if __name__ == "__main__":
    main()
