"""Time-unit conventions and rate conversions.

All internal times and rates are in years. Weekly observation grids use a
spacing of 1/52.14 yr, and day-denominated rates convert at 365.25 d/yr; the
two constants are deliberately kept independent (source tables mix day, week
and year units, and both conversions are pinned by round-trip tests).
"""

WEEKS_PER_YEAR = 52.14
DAYS_PER_YEAR = 365.25

#: Length of one reporting week, in years.
WEEK = 1.0 / WEEKS_PER_YEAR


def per_day(rate: float) -> float:
    """Convert a rate expressed per day to per year."""
    return rate * DAYS_PER_YEAR


def per_week(rate: float) -> float:
    """Convert a rate expressed per week to per year."""
    return rate * WEEKS_PER_YEAR


def weekly_variance(sigma2_wk: float) -> float:
    """Convert a white-noise infinitesimal variance from weeks to years.

    A noise intensity sigma^2 with units of weeks (sigma in wk^(1/2))
    becomes sigma^2 * (1 wk in yr) in year units.
    """
    return sigma2_wk * WEEK
