"""Profile-likelihood designs and Monte Carlo adjusted profile intervals.

A profile fixes one parameter on a grid and maximizes over the rest; the
resulting point cloud of replicated Monte Carlo log-likelihood evaluations is
smoothed by a local-quadratic (loess-style, tricube-weighted) regression.
The confidence cutoff is the chi-square(1) profile cutoff inflated for the
Monte Carlo error in the evaluations: with a local quadratic fit
-a*theta^2 + b*theta + c near the maximum, the statistical spread is
se_stat^2 = 1/(2a), the Monte Carlo uncertainty of the profile maximizer is
se_mc^2 (from the weighted-regression covariance), and the cutoff is
q_chi2(conf, 1) * a * (se_stat^2 + se_mc^2), which reduces to q/2 when there
is no Monte Carlo error. The interval is the level set of the smoothed curve
at (max - cutoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import chdtri

from .errors import ValidationError

N_GRID = 1000  # points of the smoothed profile curve


def tricube(u: np.ndarray) -> np.ndarray:
    u = np.clip(np.abs(u), 0.0, 1.0)
    return (1.0 - u**3) ** 3


def loess_quadratic(
    x: np.ndarray, y: np.ndarray, grid: np.ndarray, span: float = 0.75
) -> np.ndarray:
    """Local quadratic regression with tricube weights over the span-nearest
    points, evaluated at ``grid``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    q = int(np.floor(span * n))
    q = max(4, min(n, q))
    out = np.empty(grid.size)
    for i, g in enumerate(np.asarray(grid, dtype=float)):
        d = np.abs(x - g)
        cut = np.sort(d)[q - 1]
        w = tricube(d / cut) if cut > 0 else (d == 0).astype(float)
        keep = w > 0
        xx = x[keep] - g
        ww = w[keep]
        X = np.column_stack([np.ones(xx.size), xx, xx**2])
        WX = X * ww[:, None]
        beta, *_ = np.linalg.lstsq(WX.T @ X, WX.T @ y[keep], rcond=None)
        out[i] = beta[0]
    return out


def mcap_cutoff(a: float, se_mc_sq: float, confidence: float) -> float:
    """Monte Carlo adjusted profile cutoff; monotone in ``se_mc_sq``."""
    if a <= 0:
        raise ValidationError("profile has no curvature at the maximum (a <= 0)")
    se_stat_sq = 1.0 / (2.0 * a)
    return float(chdtri(1, 1.0 - confidence) * a * (se_stat_sq + se_mc_sq))


@dataclass
class ProfileCurve:
    """Raw profile points, MCAP-smoothed curve, MLE, and CI endpoints."""

    parameter: str
    values: np.ndarray
    confidence: float = 0.95
    grid: np.ndarray | None = None
    smoothed: np.ndarray | None = None
    mle: float | None = None
    ci: tuple[float, float] | None = None
    cutoff: float | None = None
    se_stat: float | None = None
    se_mc: float | None = None
    open_lower: bool = False
    open_upper: bool = False


def mcap_ci(
    values: np.ndarray,
    logliks: np.ndarray,
    confidence: float = 0.95,
    span: float = 0.75,
    parameter: str = "",
) -> ProfileCurve:
    """Monte Carlo adjusted profile confidence interval from raw points.

    ``values``/``logliks`` are the profile point cloud (replicates included).
    Requires at least 5 distinct grid values with finite log-likelihoods.
    A maximum or level set touching the grid boundary is flagged as an open
    endpoint on that side. The curve is smoothed on 1000 evenly spaced
    values spanning the profile.
    """
    if not (0.0 < confidence < 1.0 and 0.0 < span <= 1.0):
        raise ValidationError(f"confidence must be in (0, 1) and span in (0, 1], got {confidence} and {span}")
    values = np.asarray(values, dtype=float)
    logliks = np.asarray(logliks, dtype=float)
    keep = np.isfinite(logliks) & np.isfinite(values)
    values, logliks = values[keep], logliks[keep]
    if np.unique(values).size < 5:
        raise ValidationError("mcap needs >= 5 distinct profile values with finite log-likelihoods")

    grid = np.linspace(values.min(), values.max(), N_GRID)
    smoothed = loess_quadratic(values, logliks, grid, span=span)
    i_max = int(np.argmax(smoothed))
    mle = float(grid[i_max])

    # local quadratic fit around the smoothed maximizer, tricube-weighted
    dist = np.abs(values - mle)
    q = max(4, int(np.floor(span * values.size)))  # <= values.size: span <= 1, >= 5 values
    cut = np.sort(dist)[q - 1]
    w = tricube(dist / cut) if cut > 0 else np.ones_like(dist)
    keep = w > 0
    xx, yy, ww = values[keep], logliks[keep], w[keep]
    X = np.column_stack([np.ones(xx.size), xx, -(xx**2)])
    XtWX = X.T @ (X * ww[:, None])
    XtWy = X.T @ (ww * yy)
    beta = np.linalg.solve(XtWX, XtWy)
    resid = yy - X @ beta
    dof = max(xx.size - 3, 1)
    sigma2 = float(np.sum(ww * resid**2) / dof)
    vcov = sigma2 * np.linalg.inv(XtWX)
    b, a = float(beta[1]), float(beta[2])
    var_b, var_a, cov_ab = vcov[1, 1], vcov[2, 2], vcov[1, 2]
    if a <= 0:
        raise ValidationError(
            f"profile for {parameter or 'parameter'} is not locally concave at the maximum"
        )
    se_mc_sq = (1.0 / (4.0 * a**2)) * (var_b - (2.0 * b / a) * cov_ab + (b**2 / a**2) * var_a)
    se_mc_sq = max(float(se_mc_sq), 0.0)
    cutoff = mcap_cutoff(a, se_mc_sq, confidence)

    level = smoothed.max() - cutoff
    inside = smoothed >= level
    lo = float(grid[inside][0])
    hi = float(grid[inside][-1])
    return ProfileCurve(
        parameter=parameter,
        values=values,
        confidence=confidence,
        grid=grid,
        smoothed=smoothed,
        mle=mle,
        ci=(lo, hi),
        cutoff=cutoff,
        se_stat=float(np.sqrt(1.0 / (2.0 * a))),
        se_mc=float(np.sqrt(se_mc_sq)),
        open_lower=bool(inside[0] or i_max == 0),
        open_upper=bool(inside[-1] or i_max == N_GRID - 1),
    )


@dataclass(frozen=True)
class ProfileJob:
    """One clamped maximization job of a profile design."""

    parameter: str
    value: float
    replicate: int
    seed: int


def profile_design(
    parameter: str,
    values: Sequence[float],
    replicates: int = 3,
    base_seed: int = 0,
) -> list[ProfileJob]:
    """Jobs for a profile-likelihood search: one maximization per grid value
    per replicate, each with its own seed. The search that runs a job clamps
    the profiled parameter at the job's value."""
    values = list(values)
    if not values:
        raise ValidationError("profile grid is empty")
    if replicates < 1:
        raise ValidationError("replicates must be >= 1")
    jobs = []
    i = 0
    for v in values:
        for r in range(replicates):
            jobs.append(ProfileJob(parameter, float(v), r, base_seed + 7919 * i))
            i += 1
    return jobs
