"""Numerical kernels for compartment-flow models.

Implements the discrete-time schemes the stochastic models are built on:
gamma-distributed white-noise increments, competing-hazard Euler-multinomial
transitions (via a conditional-binomial decomposition), Poisson demographic
inflows, exactly population-conserving death/birth balancing, and a
fixed-step fourth-order Runge-Kutta integrator for deterministic skeletons.

Two surfaces are provided: a named :class:`RateMatrix` interface for
assembling small models edge by edge, and vectorized array kernels used by
the built-in models' inner loops. The named interface delegates to the same
kernels, so there is a single sampling code path.

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

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

#: Destination label for flows leaving the system (deaths, emigration).
SINK = "sink"


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


def poisson_inflow(rate, delta: float, rng: np.random.Generator, size=None):
    """Poisson arrival count with mean ``rate * delta``; rate 0 gives 0."""
    rate = np.asarray(rate, dtype=float)
    if np.any(rate < 0.0):
        raise ValidationError(f"inflow rate must be nonnegative, got {rate}")
    if delta <= 0.0:
        raise ValidationError(f"time step must be positive, got {delta}")
    return rng.poisson(rate * delta, size=size)


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


def balanced_demography_step(
    counts: np.ndarray,
    death_rates,
    delta: float,
    rng: np.random.Generator,
    susceptible_index: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Death flows balanced one-for-one by births into the susceptible class.

    ``counts`` (..., C) integers; ``death_rates`` broadcastable to it. Every
    death is simultaneously a birth into column ``susceptible_index``, so the
    per-row population is conserved exactly. Returns (new_counts, deaths).
    """
    counts = np.asarray(counts)
    rates = np.broadcast_to(np.asarray(death_rates, dtype=float), counts.shape)
    if np.any(rates < 0.0):
        raise ValidationError("death rates must be nonnegative")
    p = -np.expm1(-rates * delta)
    deaths = rng.binomial(counts.astype(np.int64), p)
    out = counts - deaths
    out[..., susceptible_index] += deaths.sum(axis=-1)
    return out, deaths


# ---------------------------------------------------------------------------
# Named-edge surface
# ---------------------------------------------------------------------------

Edge = tuple[str, float, float]  # (destination, per-capita rate, noise variance)


@dataclass(frozen=True)
class RateMatrix:
    """Per-source transition edges plus absolute-rate inflows.

    ``edges[src]`` lists (destination, per-capita rate, gamma-noise variance);
    destination :data:`SINK` leaves the system. ``inflows`` lists
    (destination, absolute rate) entry flows.
    """

    edges: Mapping[str, Sequence[Edge]]
    inflows: Sequence[tuple[str, float]] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for src, edge_list in self.edges.items():
            for dest, mu, s2 in edge_list:
                if not np.isfinite(mu) or mu < 0.0:
                    raise ValidationError(f"rate {src}->{dest} must be finite and nonnegative, got {mu}")
                if not np.isfinite(s2) or s2 < 0.0:
                    raise ValidationError(f"noise variance on {src}->{dest} must be nonnegative, got {s2}")
        for dest, rate in self.inflows:
            if not np.isfinite(rate) or rate < 0.0:
                raise ValidationError(f"inflow rate into {dest} must be finite and nonnegative, got {rate}")

    def sorted_edges(self, src: str) -> list[Edge]:
        # fixed alphabetical destination order for reproducible sampling
        return sorted(self.edges.get(src, ()), key=lambda e: e[0])


def euler_multinomial_step(
    counts: Mapping[str, int],
    rates: RateMatrix,
    delta: float,
    rng: np.random.Generator,
) -> dict[tuple[str, str], int]:
    """One Euler step of the named competing-hazard scheme.

    Returns flow counts keyed (source, destination), including SINK exits and
    inflow arrivals keyed (SINK, destination). Gamma noise is drawn per edge.
    """
    flows: dict[tuple[str, str], int] = {}
    for src in sorted(rates.edges):
        x = int(counts[src])
        edge_list = rates.sorted_edges(src)
        if not edge_list:
            continue
        mu = np.array([e[1] for e in edge_list])
        noisy = np.array(
            [gamma_increment(delta, e[2], rng) / delta if e[2] > 0.0 else 1.0 for e in edge_list]
        )
        drawn = euler_multinomial(np.array(x), mu * noisy, delta, rng)
        for (dest, _, _), n in zip(edge_list, np.atleast_1d(drawn)):
            flows[(src, dest)] = int(n)
    for dest, rate in rates.inflows:
        flows[(SINK, dest)] = int(poisson_inflow(rate, delta, rng))
    return flows


def apply_flows(counts: Mapping[str, int], flows: Mapping[tuple[str, str], int]) -> dict[str, int]:
    """State update from a flow dictionary (conservation identity)."""
    out = dict(counts)
    for (src, dest), n in flows.items():
        if src != SINK:
            out[src] -= n
        if dest != SINK:
            out[dest] = out.get(dest, 0) + n
    return out


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


def ode_step(
    state: Mapping[str, float],
    rate_fn: Callable[[float, Mapping[str, float]], RateMatrix],
    t: float,
    delta: float,
) -> tuple[dict[str, float], float]:
    """RK4 advance of the flow ODE system defined by a RateMatrix field.

    Negative undershoots are clamped at zero; the total clamped magnitude is
    returned alongside the new state so callers can surface a warning count.
    """
    names = sorted(state)
    index = {n: i for i, n in enumerate(names)}
    y0 = np.array([state[n] for n in names], dtype=float)

    def deriv(tt: float, y: np.ndarray) -> np.ndarray:
        s = {n: y[index[n]] for n in names}
        rm = rate_fn(tt, s)
        d = np.zeros_like(y)
        for src, edge_list in rm.edges.items():
            x = s[src]
            for dest, mu, _ in edge_list:
                flow = mu * x
                d[index[src]] -= flow
                if dest != SINK:
                    d[index[dest]] += flow
        for dest, rate in rm.inflows:
            d[index[dest]] += rate
        if not np.all(np.isfinite(d)):
            bad = names[int(np.flatnonzero(~np.isfinite(d))[0])]
            raise ValidationError(f"non-finite derivative for compartment {bad!r} at t={tt:.6g}")
        return d

    y1 = rk4_step(deriv, t, y0, delta)
    clamp = float(np.sum(np.where(y1 < 0.0, -y1, 0.0)))
    y1 = np.maximum(y1, 0.0)
    return {n: float(y1[index[n]]) for n in names}, clamp
