"""Department-level geography: populations, densities, distances, river flows.

The real travel and water matrices behind the metapopulation models are not
public; a synthetic ten-department geography with realistic magnitudes ships
with the package for tests and the bundled dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError

DEPARTMENTS = (
    "Artibonite",
    "Centre",
    "Grand'Anse",
    "Nippes",
    "Nord",
    "Nord-Est",
    "Nord-Ouest",
    "Ouest",
    "Sud",
    "Sud-Est",
)

#: Spec indices (1-based, alphabetical) of the hurricane-affected departments.
HURRICANE_UNITS = ("Grand'Anse", "Sud")


@dataclass(frozen=True)
class GeographyData:
    units: tuple[str, ...]
    populations: np.ndarray
    densities: np.ndarray
    distances: np.ndarray
    river_flows: np.ndarray

    def __post_init__(self) -> None:
        U = len(self.units)
        pops = np.asarray(self.populations, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        dist = np.asarray(self.distances, dtype=float)
        river = np.asarray(self.river_flows, dtype=float)
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "populations", pops)
        object.__setattr__(self, "densities", dens)
        object.__setattr__(self, "distances", dist)
        object.__setattr__(self, "river_flows", river)
        if pops.shape != (U,) or dens.shape != (U,):
            raise ValidationError("populations and densities must have one entry per unit")
        if np.any(pops <= 0) or np.any(dens <= 0):
            raise ValidationError("populations and densities must be positive")
        for name, m in (("distance", dist), ("river", river)):
            if m.shape != (U, U):
                raise ValidationError(f"{name} matrix must be {U}x{U}")
            if np.any(np.diag(m) != 0):
                raise ValidationError(f"{name} matrix must have a zero diagonal")
        off = ~np.eye(U, dtype=bool)
        if np.any(dist[off] <= 0):
            raise ValidationError("off-diagonal distances must be positive")
        if np.any(river < 0):
            raise ValidationError("river flows must be nonnegative")

    @property
    def n_units(self) -> int:
        return len(self.units)

    def gravity_matrix(self, v_rate: float) -> np.ndarray:
        """Movement rates T_uv = v_rate * Pop_u * Pop_v / D_uv^2, zero diagonal."""
        pops = self.populations
        with np.errstate(divide="ignore", invalid="ignore"):
            T = v_rate * np.outer(pops, pops) / np.where(self.distances > 0, self.distances, np.inf) ** 2
        np.fill_diagonal(T, 0.0)
        return T


def synthetic_geography() -> GeographyData:
    """The bundled synthetic ten-department geography.

    Populations and densities are round numbers near published estimates;
    distances are a symmetric synthetic road-distance matrix and river flows
    a sparse downstream-connection matrix.
    """
    pops = np.array(
        [1_730_000, 750_000, 470_000, 340_000, 1_070_000,
         390_000, 730_000, 4_030_000, 780_000, 630_000],
        dtype=float,
    )
    dens = np.array(
        [350.0, 210.0, 250.0, 270.0, 510.0, 220.0, 340.0, 820.0, 290.0, 310.0]
    )
    # symmetric synthetic road distances (km) seeded for reproducibility
    rng = np.random.Generator(np.random.Philox(20101022))
    U = len(DEPARTMENTS)
    base = rng.uniform(60.0, 320.0, size=(U, U))
    dist = np.round((base + base.T) / 2.0, 1)
    np.fill_diagonal(dist, 0.0)
    river = np.zeros((U, U))
    # a few downstream links (Artibonite river system and southern basins)
    links = [(1, 0, 0.8), (0, 7, 0.3), (4, 6, 0.2), (8, 2, 0.25), (9, 7, 0.2), (3, 8, 0.15)]
    for i, j, w in links:
        river[i, j] = w
    return GeographyData(DEPARTMENTS, pops, dens, dist, river)


def national_population() -> float:
    """Total population of the bundled synthetic geography."""
    return float(np.sum(synthetic_geography().populations))
