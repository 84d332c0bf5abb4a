"""Vaccine-efficacy step functions.

The national and stochastic metapopulation models share one adult efficacy
curve theta*(w) of weeks since vaccination: both dose groups are equally
protected until week 52, after which a single dose becomes ineffective,
while two doses retain protection until the curve's end. The under-five
correction c = 1 - (1 - 0.4688) * 0.11 scales protection for the population
mix. The deterministic metapopulation model instead uses constant median
effectiveness values (0.429 one dose, 0.519 two doses) with compartment
waning, so it reads the medians rather than the curve.

Curves load from CSV files with columns weeks_since, efficacy_1dose,
efficacy_2dose (each row starts a flat step); the bundled default carries
the cited medians as flat steps to weeks 52 and 260.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

#: Reduced efficacy among the 11% of the population under five years old.
UNDER5_SHARE = 0.11
UNDER5_EFFICACY_FACTOR = 0.4688
AGE_CORRECTION = 1.0 - (1.0 - UNDER5_EFFICACY_FACTOR) * UNDER5_SHARE

ONE_DOSE_MEDIAN = 0.429
TWO_DOSE_MEDIAN = 0.519
ONE_DOSE_CUTOFF_WEEKS = 52.0


@dataclass(frozen=True)
class EfficacyCurve:
    """Step function of weeks since vaccination, per dose group."""

    weeks: np.ndarray
    one_dose: np.ndarray
    two_dose: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weeks, dtype=float)
        e1 = np.asarray(self.one_dose, dtype=float)
        e2 = np.asarray(self.two_dose, dtype=float)
        object.__setattr__(self, "weeks", w)
        object.__setattr__(self, "one_dose", e1)
        object.__setattr__(self, "two_dose", e2)
        if w.ndim != 1 or w.size == 0 or np.any(np.diff(w) <= 0) or w[0] != 0:
            raise ValidationError("efficacy breakpoints must start at 0 and increase")
        for e in (e1, e2):
            if e.shape != w.shape or np.any(e < 0) or np.any(e >= 1):
                raise ValidationError("efficacies must lie in [0, 1) with one value per breakpoint")

    def _lookup(self, table: np.ndarray, weeks_since) -> np.ndarray:
        w = np.asarray(weeks_since, dtype=float)
        idx = np.clip(np.searchsorted(self.weeks, w, side="right") - 1, 0, self.weeks.size - 1)
        out = table[idx]
        return np.where(w < 0, 0.0, out)

    def protection(self, weeks_since, doses) -> np.ndarray:
        """Adult protection theta*(w): the two-dose curve, truncated to zero
        at 52 weeks for single-dose recipients. ``doses`` (1 or 2) broadcasts
        against ``weeks_since``."""
        doses = np.asarray(doses)
        if not np.all((doses == 1) | (doses == 2)):
            raise ValidationError(f"doses must be 1 or 2, got {doses}")
        w = np.asarray(weeks_since, dtype=float)
        return np.where((doses == 1) & (w >= ONE_DOSE_CUTOFF_WEEKS), 0.0, self._lookup(self.two_dose, w))


def default_curve() -> EfficacyCurve:
    """Cited medians as flat steps: one dose to week 52, two doses to week 260."""
    return EfficacyCurve(
        weeks=np.array([0.0, ONE_DOSE_CUTOFF_WEEKS, 260.0]),
        one_dose=np.array([ONE_DOSE_MEDIAN, 0.0, 0.0]),
        two_dose=np.array([TWO_DOSE_MEDIAN, TWO_DOSE_MEDIAN, 0.0]),
    )
