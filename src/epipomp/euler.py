"""Numerical kernels for compartment-flow models.

Implements the discrete-time schemes the stochastic models are built on:
gamma-distributed white-noise increments, competing-hazard Euler-multinomial
transitions (via a conditional-binomial decomposition), Poisson demographic
inflows, and a fixed-step fourth-order Runge-Kutta integrator for
deterministic skeletons.

Every model steps its compartments through these array kernels: one
sampling code path, vectorized over particles and units, with no per-edge
or per-name bookkeeping in the models' inner loops.

The array kernels broadcast: per-destination rates need only be shaped to
broadcast against the compartment counts over the leading axes, so rates
shared by all particles, e.g. (U, K) or (1, U, K) against counts (J, U), are
never copied J times. Stacking several compartments along a trailing axis
with their rates along the axis before the destinations, e.g. counts
(J, U, C) with rates (..., C, K), draws them all in one call. The checks on
each call (finite nonnegative rates, nonnegative counts, positive step,
nonnegative noise variance) are each a single reduction.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError


def gamma_increment(delta, sigma2, rng: np.random.Generator, size=None):
    """Gamma white-noise increment with mean ``delta`` and variance ``sigma2*delta``.

    ``sigma2 = 0`` is the degenerate (noise-free) case and returns ``delta``
    exactly. Either argument may be an array (e.g. per-particle noise
    intensities); ``size`` broadcasts scalar inputs.
    """
    delta = np.asarray(delta, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    if delta.size and delta.min() <= 0.0:
        raise ValidationError(f"time step must be positive, got {delta}")
    s2_min = sigma2.min() if sigma2.size else 0.0
    if s2_min < 0.0:
        raise ValidationError(f"noise variance must be nonnegative, got {sigma2}")
    if sigma2.ndim == 0 and sigma2 == 0.0:
        if size is None:
            return delta if delta.ndim else float(delta)
        return np.full(size, float(delta))
    if sigma2.ndim == 0 or s2_min > 0.0:
        # mean-variance parameterization: shape = delta/sigma2, scale = sigma2
        return rng.gamma(delta / sigma2, sigma2, size=size)
    shape = np.broadcast_shapes(delta.shape, sigma2.shape) if size is None else size
    s2 = np.broadcast_to(sigma2, shape)
    d = np.broadcast_to(delta, shape)
    out = d.astype(float)
    pos = s2 > 0.0
    if np.any(pos):
        out[pos] = rng.gamma(d[pos] / s2[pos], s2[pos])
    return out


def poisson_inflow(rate, delta: float, rng: np.random.Generator):
    """Poisson arrival count with mean ``rate * delta``; rate 0 gives 0."""
    rate = np.asarray(rate, dtype=float)
    if np.any(rate < 0.0):
        raise ValidationError(f"inflow rate must be nonnegative, got {rate}")
    if delta <= 0.0:
        raise ValidationError(f"time step must be positive, got {delta}")
    return rng.poisson(rate * delta)


def exit_probabilities(rates: np.ndarray, delta: float) -> np.ndarray:
    """Competing-hazard exit probabilities for stacked per-destination rates.

    ``rates[..., k]`` is the per-capita rate toward destination k. Returns
    probabilities of the same shape; the residual ``1 - sum`` is the
    stay probability. An all-zero rate row yields all-zero probabilities.
    """
    rates = np.asarray(rates, dtype=float)
    # min is NaN if any rate is NaN, so one comparison rejects NaN and -inf
    if rates.size and not (rates.min() >= 0.0 and rates.max() < np.inf):
        raise ValidationError("transition rates must be finite and nonnegative")
    # numpy sums fewer than 8 terms from 0.0 left to right, whatever the
    # layout, so column adds in that order keep its bits without the cost of
    # a reduction over a short axis; from 8 terms its order depends on the
    # layout (pairwise along a contiguous axis), so those totals stay numpy's
    K = rates.shape[-1]
    if K < 8:
        total = np.zeros(rates.shape[:-1] + (1,))
        for k in range(K):
            total += rates[..., k : k + 1]
    else:
        total = rates.sum(axis=-1, keepdims=True)
    p_exit = -np.expm1(-total * delta)
    frac = np.divide(rates, total, out=np.zeros_like(rates), where=total > 0.0)
    return p_exit * frac


def multinomial_flows(counts: np.ndarray, probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Allocate ``counts`` individuals to destinations with given probabilities.

    Sequential conditional-binomial decomposition: destination k receives
    Binomial(remaining, p_k / remaining probability) draws, so the result is
    exactly multinomial and every individual is allocated at most once.

    ``probs`` (..., K) broadcasts against ``counts`` over the leading axes, so
    rates shared by all particles can be passed once, e.g. probabilities
    shaped (U, K) or (1, U, K) against counts (J, U); the flows then have
    shape ``broadcast(counts, probs[..., 0]) + (K,)``. The draws are those of
    the explicitly broadcast call, in the same order.
    """
    counts = np.asarray(counts)
    probs = np.asarray(probs, dtype=float)
    batch = probs.shape[:-1]
    shape = np.broadcast_shapes(counts.shape, batch)
    remaining = np.broadcast_to(counts, shape).astype(np.int64)
    rem_p = np.ones(batch)
    flows = np.empty(shape + probs.shape[-1:], dtype=np.int64)
    for k in range(probs.shape[-1]):
        pk = np.divide(probs[..., k], rem_p, out=np.zeros(batch), where=rem_p > 1e-14)
        np.minimum(pk, 1.0, out=pk)
        f = rng.binomial(remaining, pk)
        flows[..., k] = f
        remaining -= f
        rem_p = rem_p - probs[..., k]
    return flows


def euler_multinomial(counts, rates, delta: float, rng: np.random.Generator) -> np.ndarray:
    """Draw competing-hazard flows out of one compartment over one step.

    ``counts`` (...,) nonnegative integers, ``rates`` (..., K) per-capita
    rates toward K destinations, broadcast against ``counts`` as in
    :func:`multinomial_flows`. Returns integer flows of shape (..., K); the
    stayers are ``counts - flows.sum(-1)``.
    """
    counts = np.asarray(counts)
    if counts.size and counts.min() < 0:
        raise ValidationError("compartment counts must be nonnegative")
    return multinomial_flows(counts, exit_probabilities(rates, delta), rng)


# ---------------------------------------------------------------------------
# Deterministic integration
# ---------------------------------------------------------------------------


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta advance of y' = f(t, y)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
