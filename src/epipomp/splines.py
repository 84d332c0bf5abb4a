"""Periodic cubic B-spline basis on uniform knots: model1's seasonality.

All basis functions are translates of the cardinal cubic B-spline wrapped
around the period, so the basis forms an exact partition of unity.
"""

from __future__ import annotations

import numpy as np

N_BASIS = 6


def periodic_bspline_basis(t: float) -> np.ndarray:
    """The ``N_BASIS`` basis functions at time ``t``.

    ``t`` is in years and the period is one year. Knots are uniform at
    j / N_BASIS; basis j is the cardinal cubic starting at knot j, wrapped
    modulo the period. With ``i + u`` the phase
    in knot units (0 <= u < 1), the four nonzero bases are ``i - m``, at
    offset ``u + m`` of their cardinal cubic, for m = 0..3.
    """
    phase = t % 1.0 * N_BASIS
    i = int(phase)
    u = phase - i
    out = np.zeros(N_BASIS)
    out[i % N_BASIS] = u**3 / 6.0
    out[(i - 1) % N_BASIS] = (((-3.0 * u + 3.0) * u + 3.0) * u + 1.0) / 6.0
    out[(i - 2) % N_BASIS] = ((3.0 * u - 6.0) * u * u + 4.0) / 6.0
    out[(i - 3) % N_BASIS] = (1.0 - u) ** 3 / 6.0
    return out
