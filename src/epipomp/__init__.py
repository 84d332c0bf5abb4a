"""epipomp: simulation and likelihood-based inference for partially observed
Markov process epidemic models, shipping national and metapopulation cholera
transmission models as built-in workloads."""

__version__ = "0.1.0"

from .benchmark import BenchmarkParams, aic, fit_benchmark
from .errors import ConfigError, CoverageError, DataFormatError, EpipompError, ValidationError
from .filtering import PfResult, particle_filter, sample_params_by_likelihood
from .forecast import (
    ForecastResult,
    elimination_probability,
    forecast_from_filter,
    trajectory_projection,
)
from .grid import TimeGrid, weekly_grid
from .iterfilter import If2Result, If2Settings, ibpf, if2
from .mcap import ProfileCurve, mcap_ci, profile_design
from .model import PompModel, SimulationResult, simulate
from .optimize import trajectory_match
from .params import ParamDef, ParameterSet, family_key
from .series import CovariateTable, ObservationSeries, standardize_rainfall

__all__ = [
    "BenchmarkParams",
    "ConfigError",
    "CoverageError",
    "CovariateTable",
    "DataFormatError",
    "EpipompError",
    "ForecastResult",
    "If2Result",
    "If2Settings",
    "ObservationSeries",
    "ParamDef",
    "ParameterSet",
    "PfResult",
    "PompModel",
    "ProfileCurve",
    "SimulationResult",
    "TimeGrid",
    "ValidationError",
    "aic",
    "elimination_probability",
    "family_key",
    "fit_benchmark",
    "forecast_from_filter",
    "ibpf",
    "if2",
    "mcap_ci",
    "particle_filter",
    "profile_design",
    "sample_params_by_likelihood",
    "simulate",
    "standardize_rainfall",
    "trajectory_match",
    "trajectory_projection",
    "weekly_grid",
]
