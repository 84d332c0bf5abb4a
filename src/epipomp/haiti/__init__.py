"""Built-in Haiti cholera workloads: geography, vaccine efficacy, vaccination
scenarios, and the three transmission models.

The models are submodules, ``model1``, ``model2`` and ``model3``, imported by
name: importing this package loads none of them, so building model2 does not
pay for the ``scipy.special`` that model1 and model3 use.
"""

from .efficacy import AGE_CORRECTION, EfficacyCurve, default_curve
from .geography import DEPARTMENTS, GeographyData, national_population, synthetic_geography
from .scenarios import (
    CampaignRow,
    ScenarioSpec,
    VaccinationSchedule,
    apply_vaccination_scenario,
    builtin_scenario,
    empty_schedule,
)

__all__ = [
    "AGE_CORRECTION",
    "CampaignRow",
    "DEPARTMENTS",
    "EfficacyCurve",
    "GeographyData",
    "ScenarioSpec",
    "VaccinationSchedule",
    "apply_vaccination_scenario",
    "builtin_scenario",
    "default_curve",
    "empty_schedule",
    "national_population",
    "synthetic_geography",
]
