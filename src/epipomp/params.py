"""Named parameter sets with natural/estimation-scale transforms.

Parameters live on their natural scale. Each entry carries a transform
(identity, log, or logit) mapping to the unconstrained estimation scale used
by the search algorithms. This module is the one place that knows the
transforms: :func:`to_estimation` and :func:`from_estimation` map floats and
arrays alike, and :func:`check_domain` refuses a value outside a transform's
natural domain.

The key ``"name[unit]"`` is the one record of which spatial unit owns a
parameter (e.g. a per-department transmission rate) or a state variable:
:func:`family_key` spells such keys and :func:`split_key` reads them. A key
without the suffix is shared by all units. :func:`epipomp.model.compile_theta`
assembles a parameter family into one value per unit, and block filters
resample each unit's states and parameters together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError


def family_key(name: str, unit: str) -> str:
    """Key of the unit-specific entry for ``name`` owned by ``unit``."""
    return f"{name}[{unit}]"


def split_key(key: str) -> tuple[str, str | None]:
    """Split ``"name[unit]"`` into (name, unit); plain keys give (key, None)."""
    if key.endswith("]") and "[" in key:
        name, _, unit = key[:-1].partition("[")
        return name, unit
    return key, None


# Each transform's natural -> estimation map, its estimation -> natural map
# (numpy, so a float gives a float and an array gives an array) and its open
# natural domain (lower, upper, and what a value outside it is told).
_TRANSFORMS = {
    "identity": (np.float64, np.float64, (-math.inf, math.inf, "must be finite")),
    "log": (np.log, np.exp, (0.0, math.inf, "must be positive")),
    "logit": (
        lambda v: np.log(v / (1.0 - v)),
        lambda e: 1.0 / (1.0 + np.exp(-e)),
        (0.0, 1.0, "must lie in (0,1)"),
    ),
}


def to_estimation(value, transform: str):
    """Natural-scale ``value`` (a float or an array) on the estimation scale."""
    return _TRANSFORMS[transform][0](value)


def from_estimation(value, transform: str):
    """Estimation-scale ``value`` (a float or an array) on the natural scale."""
    return _TRANSFORMS[transform][1](value)


def check_domain(value: float, transform: str) -> None:
    """Raise unless ``transform`` is known and ``value`` lies in its open natural domain."""
    if transform not in _TRANSFORMS:
        raise ValidationError(f"unknown transform {transform!r}")
    lo, hi, what = _TRANSFORMS[transform][2]
    v = float(value)
    if not math.isfinite(v):
        raise ValidationError(f"non-finite parameter value {v!r}")
    if not lo < v < hi:
        raise ValidationError(f"{transform}-transformed parameter {what}, got {v}")


@dataclass(frozen=True)
class ParamDef:
    """One parameter: natural-scale value and transform."""

    value: float
    transform: str = "identity"

    def __post_init__(self) -> None:
        check_domain(self.value, self.transform)


class ParameterSet(Mapping[str, float]):
    """Immutable mapping of parameter names to natural-scale values.

    Behaves as a ``Mapping[str, float]`` for value access; the transform of
    an entry is available through :meth:`transform_of`, and the unit owning
    it through :func:`split_key` of its key.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, ParamDef]):
        object.__setattr__(self, "_entries", dict(entries))

    # Mapping protocol -----------------------------------------------------
    def __getitem__(self, name: str) -> float:
        return self._entries[name].value

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={d.value:.6g}" for k, d in self._entries.items())
        return f"ParameterSet({body})"

    # Metadata ------------------------------------------------------------
    def transform_of(self, name: str) -> str:
        return self._entries[name].transform

    # Derived views --------------------------------------------------------
    def replace(self, updates: Mapping[str, float]) -> "ParameterSet":
        """New set with the given values replaced (transforms preserved); a
        value outside its transform's domain is a ValidationError naming its key."""
        entries = dict(self._entries)
        for k, v in updates.items():
            if k not in entries:
                raise ValidationError(f"unknown parameter {k!r}")
            try:
                entries[k] = ParamDef(float(v), entries[k].transform)
            except ValidationError as exc:
                raise ValidationError(f"{k}: {exc}") from None
        return ParameterSet(entries)

    def require(self, names: Iterable[str]) -> None:
        """Raise if any of the given parameter names is absent."""
        missing = [n for n in names if n not in self._entries]
        if missing:
            raise ValidationError(f"missing required parameters: {missing}")

    # Estimation scale ------------------------------------------------------
    def to_est(self, names: Iterable[str]) -> np.ndarray:
        return np.array(
            [to_estimation(self._entries[n].value, self._entries[n].transform) for n in names]
        )

    def from_est(self, names: Iterable[str], values: np.ndarray) -> "ParameterSet":
        updates = {
            n: from_estimation(v, self._entries[n].transform)
            for n, v in zip(names, values)
        }
        return self.replace(updates)
