"""Named parameter sets with natural/estimation-scale transforms.

Parameters live on their natural scale. Each entry carries a transform
(identity, log, or logit) mapping to the unconstrained estimation scale used
by the search algorithms, and an optional owning unit for unit-specific
parameters (e.g. a per-department transmission rate). Unit-specific entries
are keyed ``"name[unit]"``; :func:`family_key` builds such keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ValidationError

TRANSFORMS = ("identity", "log", "logit")


def family_key(name: str, unit: str) -> str:
    """Key of the unit-specific entry for ``name`` owned by ``unit``."""
    return f"{name}[{unit}]"


def split_key(key: str) -> tuple[str, str | None]:
    """Split ``"name[unit]"`` into (name, unit); plain keys give (key, None)."""
    if key.endswith("]") and "[" in key:
        name, _, unit = key[:-1].partition("[")
        return name, unit
    return key, None


def to_estimation(value: float, transform: str) -> float:
    if transform == "identity":
        return float(value)
    if transform == "log":
        return math.log(value)
    if transform == "logit":
        return math.log(value / (1.0 - value))
    raise ValidationError(f"unknown transform {transform!r}")


def from_estimation(value: float, transform: str) -> float:
    if transform == "identity":
        return float(value)
    if transform == "log":
        return math.exp(value)
    if transform == "logit":
        return 1.0 / (1.0 + math.exp(-value))
    raise ValidationError(f"unknown transform {transform!r}")


@dataclass(frozen=True)
class ParamDef:
    """One parameter: natural-scale value, transform, and optional owning unit."""

    value: float
    transform: str = "identity"
    unit: str | None = None

    def __post_init__(self) -> None:
        if self.transform not in TRANSFORMS:
            raise ValidationError(f"unknown transform {self.transform!r}")
        v = float(self.value)
        if not math.isfinite(v):
            raise ValidationError(f"non-finite parameter value {v!r}")
        if self.transform == "log" and v <= 0.0:
            raise ValidationError(f"log-transformed parameter must be positive, got {v}")
        if self.transform == "logit" and not 0.0 < v < 1.0:
            raise ValidationError(f"logit-transformed parameter must lie in (0,1), got {v}")


class ParameterSet(Mapping[str, float]):
    """Immutable mapping of parameter names to natural-scale values.

    Behaves as a ``Mapping[str, float]`` for value access; transform and
    scope metadata are available through :meth:`transform_of` and
    :meth:`unit_of`.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[str, ParamDef]):
        object.__setattr__(self, "_entries", dict(entries))

    @classmethod
    def build(
        cls,
        values: Mapping[str, float],
        transforms: Mapping[str, str] | None = None,
        units: Mapping[str, str] | None = None,
    ) -> "ParameterSet":
        """Construct from plain dicts of values, transforms, and owning units."""
        transforms = transforms or {}
        units = units or {}
        entries = {
            k: ParamDef(float(v), transforms.get(k, "identity"), units.get(k))
            for k, v in values.items()
        }
        return cls(entries)

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

    def unit_of(self, name: str) -> str | None:
        return self._entries[name].unit

    # Derived views --------------------------------------------------------
    def family(self, name: str, units: Iterable[str]) -> np.ndarray:
        """Per-unit values of a unit-specific family, in the given unit order.

        Falls back to a shared entry of the same name, broadcast across units.
        """
        units = list(units)
        keys = [family_key(name, u) for u in units]
        if all(k in self._entries for k in keys):
            return np.array([self._entries[k].value for k in keys])
        if name in self._entries:
            return np.full(len(units), self._entries[name].value)
        missing = [k for k in keys if k not in self._entries]
        raise ValidationError(f"parameter family {name!r} incomplete: missing {missing}")

    def replace(self, updates: Mapping[str, float]) -> "ParameterSet":
        """New set with the given values replaced (metadata preserved)."""
        entries = dict(self._entries)
        for k, v in updates.items():
            if k not in entries:
                raise ValidationError(f"unknown parameter {k!r}")
            d = entries[k]
            entries[k] = ParamDef(float(v), d.transform, d.unit)
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
            n: from_estimation(float(v), self._entries[n].transform)
            for n, v in zip(names, values)
        }
        return self.replace(updates)
