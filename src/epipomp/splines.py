"""Periodic cubic B-spline basis on uniform knots.

All basis functions are translates of the cardinal cubic B-spline wrapped
around the period, so the basis forms an exact partition of unity.
"""

from __future__ import annotations

import numpy as np


def cardinal_cubic(x: np.ndarray) -> np.ndarray:
    """Cardinal cubic B-spline supported on [0, 4]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = (x >= 0) & (x < 1)
    out[m] = x[m] ** 3 / 6.0
    m = (x >= 1) & (x < 2)
    out[m] = (-3 * x[m] ** 3 + 12 * x[m] ** 2 - 12 * x[m] + 4) / 6.0
    m = (x >= 2) & (x < 3)
    out[m] = (3 * x[m] ** 3 - 24 * x[m] ** 2 + 60 * x[m] - 44) / 6.0
    m = (x >= 3) & (x <= 4)
    out[m] = (4 - x[m]) ** 3 / 6.0
    return out


def periodic_bspline_basis(t, n_basis: int = 6, period: float = 1.0) -> np.ndarray:
    """Evaluate the periodic cubic B-spline basis at times ``t``.

    Returns an array of shape ``t.shape + (n_basis,)``. Knots are uniform at
    j * period / n_basis; basis j is the cardinal cubic starting at knot j,
    wrapped modulo the period. The basis sums to exactly 1 at every t.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0 and n_basis >= 4:
        return _basis_at(float(t), n_basis, period)
    phase = np.mod(t / period, 1.0) * n_basis
    out = np.empty(t.shape + (n_basis,))
    for j in range(n_basis):
        # wrapped offset of t from knot j, in knot units
        x = np.mod(phase - j, n_basis)
        out[..., j] = cardinal_cubic(x)
    return out


def _basis_at(t: float, n_basis: int, period: float) -> np.ndarray:
    """The basis at one time, from the four cubic pieces that are nonzero there.

    With ``i + u`` the phase in knot units (0 <= u < 1), basis ``i - m`` sits
    at offset ``u + m`` of its cardinal cubic, for m = 0..3.
    """
    phase = (t / period) % 1.0 * n_basis
    i = int(phase)
    u = phase - i
    out = np.zeros(n_basis)
    out[i % n_basis] = u**3 / 6.0
    out[(i - 1) % n_basis] = (((-3.0 * u + 3.0) * u + 3.0) * u + 1.0) / 6.0
    out[(i - 2) % n_basis] = ((3.0 * u - 6.0) * u * u + 4.0) / 6.0
    out[(i - 3) % n_basis] = (1.0 - u) ** 3 / 6.0
    return out
