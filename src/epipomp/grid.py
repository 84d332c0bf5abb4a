"""Observation time grids.

Times are plain floats in the model's time unit: years for the built-in
cholera models, weeks for the toys. The grid fixes the process integration
step; intervals between observations are covered by equal Euler substeps no
longer than ``euler_step``. ``weekly_grid`` builds every weekly grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .units import WEEK


@dataclass(frozen=True)
class TimeGrid:
    """Start time, strictly increasing observation times, and Euler step."""

    t0: float
    obs_times: np.ndarray
    euler_step: float

    def __post_init__(self) -> None:
        times = np.asarray(self.obs_times, dtype=float)
        object.__setattr__(self, "obs_times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValidationError("obs_times must be a non-empty 1-d sequence")
        if np.any(np.diff(times) <= 0):
            raise ValidationError("obs_times must be strictly increasing")
        if not self.t0 < times[0]:
            raise ValidationError(f"t0 ({self.t0}) must precede the first observation ({times[0]})")
        spacing = float(np.min(np.diff(times))) if times.size > 1 else times[0] - self.t0
        if not 0.0 < self.euler_step <= spacing + 1e-12:
            raise ValidationError(
                f"euler_step must be positive and at most the minimum observation spacing "
                f"({spacing:.6g}), got {self.euler_step:.6g}"
            )

    @property
    def n_obs(self) -> int:
        return int(self.obs_times.size)

    @property
    def t_end(self) -> float:
        return float(self.obs_times[-1])

    def substeps(self, t_from: float, t_to: float) -> tuple[int, float]:
        """Number and size of equal Euler substeps covering [t_from, t_to]."""
        span = t_to - t_from
        n = max(1, math.ceil(span / self.euler_step - 1e-9))
        return n, span / n

    def intervals(self):
        """Yield (t_from, t_to) for each inter-observation interval from t0."""
        prev = self.t0
        for t in self.obs_times:
            yield prev, float(t)
            prev = float(t)


def weekly_grid(n_weeks: int, t0: float = 0.0, steps_per_week: int = 7, week: float = WEEK) -> TimeGrid:
    """Weekly grid: observations at t0 + k*week for k = 1..n_weeks, Euler
    step of ``week / steps_per_week`` (default one day of a ``WEEK`` in years;
    the toys pass ``week=1.0``)."""
    if n_weeks < 1 or steps_per_week < 1:
        raise ValidationError("n_weeks and steps_per_week must be >= 1")
    ks = np.arange(1, 1 + n_weeks)
    return TimeGrid(t0=t0, obs_times=t0 + ks * week, euler_step=week / steps_per_week)
