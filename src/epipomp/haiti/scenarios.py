"""Vaccination scenarios and their dosing-rate covariate blocks.

A scenario is a set of per-department campaigns (start, duration, one- and
two-dose counts). Applying a scenario to a model yields a
:class:`VaccinationSchedule`: per-unit, per-cohort dosing rates eta_z(t) in
persons per week, piecewise constant over each campaign window.

Cohort conventions per model family:

- national model: campaigns collapse to national one-week pulses delivering
  each department's doses in a single week (cohorts ordered by campaign row
  then dose group);
- deterministic metapopulation model: four fixed cohorts (one/two dose x
  under/over five), dose counts split by the under-five population share;
- stochastic metapopulation model: cohorts 2j-1 (one dose) and 2j (two
  doses) for the j-th campaign in each unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ValidationError
from ..units import WEEK
from .efficacy import UNDER5_SHARE
from .geography import GeographyData

SCENARIO_IDS = ("V0", "V1", "V2", "V3", "V4")


@dataclass(frozen=True)
class CampaignRow:
    department: str
    start: float            # campaign start time (model time units)
    duration_weeks: float
    doses_1: float
    doses_2: float

    def __post_init__(self) -> None:
        if self.duration_weeks <= 0:
            raise ValidationError("campaign duration must be positive")
        if self.doses_1 < 0 or self.doses_2 < 0:
            raise ValidationError("dose counts must be nonnegative")


@dataclass(frozen=True)
class ScenarioSpec:
    """A named vaccination scenario: its campaign rows."""

    id: str
    rows: tuple[CampaignRow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))


@dataclass(frozen=True)
class VaccinationSchedule:
    """Dosing-rate covariate block: eta(t) per unit and cohort.

    ``windows`` is (U, Z, 2) start/end times, ``rates`` (U, Z) persons/week
    inside the window, ``cohort_start`` (U, Z) the efficacy clock origin
    (inf for unused unit/cohort pairs), ``dose_type`` (Z,) 1 or 2.
    """

    units: tuple[str, ...]
    windows: np.ndarray
    rates: np.ndarray
    cohort_start: np.ndarray
    dose_type: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        for name in ("windows", "rates", "cohort_start", "dose_type"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n_cohorts(self) -> int:
        return int(self.dose_type.size)

    def rates_at(self, t: float) -> np.ndarray:
        """Dosing rates (U, Z) in persons/week at time t."""
        if self.n_cohorts == 0:
            return np.zeros((len(self.units), 0))
        active = (self.windows[:, :, 0] <= t) & (t < self.windows[:, :, 1])
        return self.rates * active


def empty_schedule(units: Sequence[str]) -> VaccinationSchedule:
    U = len(units)
    return VaccinationSchedule(
        units=tuple(units),
        windows=np.zeros((U, 0, 2)),
        rates=np.zeros((U, 0)),
        cohort_start=np.zeros((U, 0)),
        dose_type=np.zeros(0),
    )


def apply_vaccination_scenario(
    scenario: ScenarioSpec,
    model_id: str,
    geography: GeographyData,
    origin: float = 0.0,
) -> VaccinationSchedule:
    """Build the dosing covariate block of a scenario for one model family.

    ``model_id`` is "model1", "model2", or "model3". Campaign starts in the
    scenario are relative to ``origin`` = 0; pass the forecast origin to
    shift them. Unknown departments are rejected.
    """
    units = list(geography.units)
    for r in scenario.rows:
        if r.department not in units:
            raise ValidationError(
                f"scenario {scenario.id!r} references unknown department {r.department!r}"
            )
    if model_id == "model1":
        return _schedule_model1(scenario, origin)
    if model_id == "model2":
        return _schedule_model2(scenario, units, origin)
    if model_id == "model3":
        return _schedule_model3(scenario, units, origin)
    raise ValidationError(f"unknown model id {model_id!r}")


def _schedule_model1(scenario: ScenarioSpec, origin: float) -> VaccinationSchedule:
    # national pulses: each campaign row delivers its doses in one week
    rows = scenario.rows
    Z = 2 * len(rows)
    windows = np.zeros((1, Z, 2))
    rates = np.zeros((1, Z))
    start = np.full((1, Z), np.inf)
    dose = np.zeros(Z)
    for j, r in enumerate(rows):
        t0 = origin + r.start
        for k, doses in enumerate((r.doses_1, r.doses_2)):
            z = 2 * j + k
            windows[0, z] = (t0, t0 + WEEK)
            rates[0, z] = doses  # persons per week over a one-week pulse
            start[0, z] = t0
            dose[z] = k + 1
    return VaccinationSchedule(("National",), windows, rates, start, dose)


def _schedule_model2(scenario: ScenarioSpec, units: list[str], origin: float) -> VaccinationSchedule:
    # fixed cohorts: 1 = one dose under 5, 2 = two dose under 5,
    #                3 = one dose over 5,  4 = two dose over 5
    U, Z = len(units), 4
    windows = np.zeros((U, Z, 2))
    rates = np.zeros((U, Z))
    start = np.full((U, Z), np.inf)
    dose = np.array([1.0, 2.0, 1.0, 2.0])
    # overlapping campaigns in one department add their rates over the union
    for r in scenario.rows:
        u = units.index(r.department)
        t0 = origin + r.start
        t1 = t0 + r.duration_weeks * WEEK
        shares = (
            (0, UNDER5_SHARE * r.doses_1),
            (1, UNDER5_SHARE * r.doses_2),
            (2, (1 - UNDER5_SHARE) * r.doses_1),
            (3, (1 - UNDER5_SHARE) * r.doses_2),
        )
        for z, doses in shares:
            if windows[u, z, 1] > 0 and rates[u, z] > 0:
                t0z = min(windows[u, z, 0], t0)
                t1z = max(windows[u, z, 1], t1)
            else:
                t0z, t1z = t0, t1
            windows[u, z] = (t0z, t1z)
            rates[u, z] += doses / r.duration_weeks
            start[u, z] = min(start[u, z], t0)
    return VaccinationSchedule(tuple(units), windows, rates, start, dose)


def _schedule_model3(scenario: ScenarioSpec, units: list[str], origin: float) -> VaccinationSchedule:
    # cohorts per campaign round: z = 2j-1 one dose, z = 2j two doses
    by_unit: dict[str, list[CampaignRow]] = {u: [] for u in units}
    for r in scenario.rows:
        by_unit[r.department].append(r)
    max_rounds = max((len(v) for v in by_unit.values()), default=0)
    U, Z = len(units), 2 * max_rounds
    windows = np.zeros((U, Z, 2))
    rates = np.zeros((U, Z))
    start = np.full((U, Z), np.inf)
    dose = np.array([(z % 2) + 1 for z in range(Z)], dtype=float)
    for u, uname in enumerate(units):
        for j, r in enumerate(sorted(by_unit[uname], key=lambda r: r.start)):
            t0 = origin + r.start
            t1 = t0 + r.duration_weeks * WEEK
            for k, doses in enumerate((r.doses_1, r.doses_2)):
                z = 2 * j + k
                windows[u, z] = (t0, t1)
                rates[u, z] = doses / r.duration_weeks
                start[u, z] = t0
    return VaccinationSchedule(tuple(units), windows, rates, start, dose)


def builtin_scenario(scenario_id: str, geography: GeographyData) -> ScenarioSpec:
    """The paper's five scenarios with bundled synthetic dose schedules.

    V0: no additional vaccination. V1: Centre and Artibonite over two years.
    V2: Artibonite, Centre, and Ouest over two years. V3: countrywide over
    five years. V4: countrywide over two years (same doses as V3 at 2.5x the
    weekly rate). Departments start in staggered order across the rollout.
    Each campaign gives two doses to 70% and one dose to 10% of its
    department's population.
    """
    if scenario_id not in SCENARIO_IDS:
        raise ValidationError(f"unknown scenario {scenario_id!r}; expected one of {SCENARIO_IDS}")
    if scenario_id == "V0":
        return ScenarioSpec("V0")
    plans = {
        "V1": (("Centre", "Artibonite"), 104.0),
        "V2": (("Artibonite", "Centre", "Ouest"), 104.0),
        "V3": (tuple(geography.units), 260.0),
        "V4": (tuple(geography.units), 104.0),
    }
    departments, duration = plans[scenario_id]
    rows = []
    n = len(departments)
    for i, dep in enumerate(departments):
        pop = float(geography.populations[list(geography.units).index(dep)])
        # stagger starts over the first half of the rollout window
        start = (i * duration / (2 * n)) * WEEK
        rows.append(
            CampaignRow(
                department=dep,
                start=start,
                duration_weeks=duration,
                doses_1=round(0.1 * pop),
                doses_2=round(0.7 * pop),
            )
        )
    return ScenarioSpec(scenario_id, tuple(rows))
