"""Observed case series and covariate tables."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoverageError, ValidationError
from .units import WEEK


@dataclass(frozen=True)
class ObservationSeries:
    """Weekly reported case counts per spatial unit.

    ``values`` is a U x N float matrix; missing observations are NaN.
    Non-missing entries must be nonnegative integers.
    """

    units: tuple[str, ...]
    values: np.ndarray
    dates: tuple[str, ...] | None = None
    counts: bool = True  # False for continuous-valued toy observations

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValidationError("values must be a U x N matrix")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "units", tuple(self.units))
        if vals.shape[0] != len(self.units):
            raise ValidationError(
                f"row count {vals.shape[0]} does not match unit count {len(self.units)}"
            )
        if self.counts:
            present = vals[~np.isnan(vals)]
            if np.any(present < 0):
                raise ValidationError("case counts must be nonnegative")
            if np.any(present != np.round(present)):
                raise ValidationError("case counts must be integers")
        if self.dates is not None:
            object.__setattr__(self, "dates", tuple(self.dates))
            if len(self.dates) != vals.shape[1]:
                raise ValidationError("dates length does not match observation count")

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def n_obs(self) -> int:
        return int(self.values.shape[1])

    def subset(self, start: int, stop: int) -> "ObservationSeries":
        dates = self.dates[start:stop] if self.dates is not None else None
        return ObservationSeries(self.units, self.values[:, start:stop].copy(), dates, self.counts)

    def aggregate(self) -> "ObservationSeries":
        """Sum counts across units into one unit, ``National``; a week is
        missing if any unit is missing."""
        vals = self.values
        total = np.sum(vals, axis=0, keepdims=True)
        total[:, np.any(np.isnan(vals), axis=0)] = np.nan
        return ObservationSeries(("National",), total, self.dates, self.counts)


def standardize_rainfall(raw: np.ndarray, units: Sequence[str]) -> np.ndarray:
    """Scale each unit's rainfall series by its own maximum.

    ``raw`` is a U x T array and ``units`` names its rows. Output rows lie in
    [0, 1] with max exactly 1. A unit with no positive value has no defined
    scale and is rejected.
    """
    mat = np.asarray(raw, dtype=float)
    if np.any(mat < 0):
        raise ValidationError("rainfall values must be nonnegative")
    maxima = mat.max(axis=1)
    for u, m in zip(units, maxima):
        if m <= 0.0:
            raise ValidationError(f"rainfall series for unit {u!r} is all zero; cannot standardize")
    return mat / maxima[:, None]


@dataclass(frozen=True)
class CovariateTable:
    """Time-indexed covariates, piecewise constant over each reporting week.

    ``times`` are the week start times; a value column applies on
    [times[k], times[k] + step). ``rainfall`` has one row per unit, and
    ``units`` names the unit of each row.
    """

    times: np.ndarray
    step: float = WEEK
    rainfall: np.ndarray | None = None
    units: tuple[str, ...] | None = None
    hurricane_time: float | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("covariate times must be a non-empty 1-d sequence")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("covariate times must be strictly increasing")
        if self.rainfall is not None:
            rf = np.asarray(self.rainfall, dtype=float)
            object.__setattr__(self, "rainfall", rf)
            if rf.ndim != 2 or rf.shape[1] != times.size:
                raise ValidationError("rainfall must be U x len(times)")
            if self.units is None or len(self.units) != rf.shape[0]:
                raise ValidationError(
                    f"rainfall has {rf.shape[0]} rows but names the units {self.units}; "
                    "it needs one unit per row"
                )
            object.__setattr__(self, "units", tuple(self.units))
            if np.any(rf < 0) or np.any(rf > 1):
                raise ValidationError("rainfall must be standardized to [0, 1]")

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1]) + self.step

    def check_span(self, t_from: float, t_to: float) -> None:
        tol = 1e-9
        if t_from < self.t_start - tol or t_to > self.t_end + tol:
            raise CoverageError(
                f"covariates cover [{self.t_start:.6g}, {self.t_end:.6g}] but "
                f"[{t_from:.6g}, {t_to:.6g}] was requested; uncovered: "
                f"[{min(t_from, self.t_start):.6g}, {self.t_start:.6g}) and/or "
                f"({self.t_end:.6g}, {max(t_to, self.t_end):.6g}]"
            )

    def index_at(self, t: float) -> int:
        idx = int(np.searchsorted(self.times, t + 1e-12, side="right") - 1)
        if idx < 0 or t > self.t_end + 1e-9:
            raise CoverageError(
                f"time {t:.6g} outside covariate span [{self.t_start:.6g}, {self.t_end:.6g}]"
            )
        return min(idx, self.times.size - 1)

    def rainfall_at(self, t: float) -> np.ndarray:
        if self.rainfall is None:
            raise CoverageError(f"no rainfall covariate available (requested at t={t:.6g})")
        return self.rainfall[:, self.index_at(t)]
