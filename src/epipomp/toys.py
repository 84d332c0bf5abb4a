"""Small fully specified models for testing, benchmarking, and the CLI.

Toy models use weeks as their time unit (observations at t = 1, 2, ...).
They exist so the inference machinery can be validated against independent
oracles: a two-state hidden Markov model (exact forward algorithm), a scalar
linear-Gaussian state-space model (Kalman filter), SIR/SIRS compartment
models with known generating parameters, and pure-death chains with
closed-form decay/extinction behavior. The exact forward-algorithm and
Kalman references live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .euler import euler_multinomial, gamma_increment, rk4_step
from .measures import nb_logpmf, nb_sample, norm_logpdf
from .model import PompModel
from .params import ParamDef, ParameterSet, family_key


# ---------------------------------------------------------------------------
# SIR / SIRS
# ---------------------------------------------------------------------------


def sir_model(pop: float = 5000.0, stochastic: bool = True) -> PompModel:
    """SIRS model with negative binomial reporting of weekly new infections.

    Rates are per week: ``beta`` transmission, ``gamma`` recovery, ``waning``
    loss of immunity (0 gives plain SIR). ``sigma_proc`` (wk^(1/2)) adds
    gamma white noise on the infection rate. The deterministic variant is
    the RK4-integrated skeleton of the same rate functions.
    """
    params = ParameterSet(
        {
            "beta": ParamDef(2.0, "log"),
            "gamma": ParamDef(1.0, "log"),
            "waning": ParamDef(0.05, "log"),
            "rho": ParamDef(0.5, "logit"),
            "psi": ParamDef(10.0, "log"),
            "i0": ParamDef(10.0, "log"),
            "sigma_proc": ParamDef(1e-9, "log"),
            "pop": ParamDef(pop, "log"),
        }
    )

    # every quantity is a (J, 1) column, so a per-particle theta row broadcasts
    def rinit(theta, J, rng):
        i0 = np.round(np.broadcast_to(theta["i0"], (J, 1)))
        n = np.round(np.broadcast_to(theta["pop"], (J, 1)))
        return np.hstack([n - i0, i0, np.zeros((J, 2))])

    def step_stochastic(X, t, dt, theta, covs, rng):
        S, I, R = (X[:, k : k + 1].astype(np.int64) for k in range(3))
        n_alive = np.maximum(S + I + R, 1)
        lam = theta["beta"] * I / n_alive
        noise = gamma_increment(np.full(S.shape, dt), np.square(theta["sigma_proc"]), rng) / dt
        inf = euler_multinomial(S, (lam * noise)[..., None], dt, rng)[..., 0]
        rec = euler_multinomial(I, np.broadcast_to(theta["gamma"], I.shape)[..., None], dt, rng)[..., 0]
        wane = euler_multinomial(R, np.broadcast_to(theta["waning"], R.shape)[..., None], dt, rng)[..., 0]
        return np.hstack([S - inf + wane, I + inf - rec, R + rec - wane, X[:, 3:] + inf])

    def step_deterministic(X, t, dt, theta, covs, rng):
        beta, gamma, waning = theta["beta"], theta["gamma"], theta["waning"]

        def deriv(tt, Y):
            S, I, R = Y[:, 0:1], Y[:, 1:2], Y[:, 2:3]
            n_alive = np.maximum(S + I + R, 1e-12)
            lam = beta * I / n_alive
            return np.hstack([-lam * S + waning * R, lam * S - gamma * I, gamma * I - waning * R, lam * S])

        return np.maximum(rk4_step(deriv, t, X, dt), 0.0)

    def dunit(y, X, t, theta):
        return nb_logpmf(y, theta["rho"] * X[:, 3:], theta["psi"])

    def runit(X, t, theta, rng):
        return nb_sample(theta["rho"] * X[:, 3:], theta["psi"], rng)

    return PompModel(
        name="toy:sir" if stochastic else "toy:sir-det",
        units=("unit",),
        state_names=("S", "I", "R", "C_inc"),
        params=params,
        rinit=rinit,
        step=step_stochastic if stochastic else step_deterministic,
        dunit_measure=dunit,
        runit_measure=runit,
        accumulators=("C_inc",),
        true_infection_states=("C_inc",),
        measured_states=("C_inc",),
        stochastic=stochastic,
    )


# ---------------------------------------------------------------------------
# Coupled / independent metapopulation SIRS
# ---------------------------------------------------------------------------


def metapop_model(
    units: tuple[str, ...] = ("north", "center", "south"),
    pops: tuple[float, ...] | None = None,
    coupling: float = 0.1,
) -> PompModel:
    """U-unit SIRS metapopulation with unit-specific transmission rates.

    Force of infection in unit u is beta_u * (I_u + coupling * sum of other
    units' I) / N_u; coupling 0 gives independent units. Weekly new
    infections are reported per unit with negative binomial noise.
    """
    U = len(units)
    if pops is None:
        pops = tuple(4000.0 + 1000.0 * i for i in range(U))
    if len(pops) != U:
        raise ValidationError("pops must match units")
    entries = {
        "gamma": ParamDef(1.0, "log"),
        "waning": ParamDef(0.05, "log"),
        "rho": ParamDef(0.5, "logit"),
        "psi": ParamDef(10.0, "log"),
        "coupling": ParamDef(max(coupling, 1e-12), "log"),
        "i0": ParamDef(10.0, "log"),
    }
    for u in units:
        entries[family_key("beta", u)] = ParamDef(1.5, "log")
    params = ParameterSet(entries)
    pops_arr = np.array(pops)

    # state layout: per unit (S, I, R, C_inc)
    state_names = tuple(family_key(s, u) for u in units for s in ("S", "I", "R", "C_inc"))
    sl_S = np.arange(U) * 4
    sl_I = sl_S + 1
    sl_R = sl_S + 2
    sl_C = sl_S + 3

    def rinit(theta, J, rng):
        i0 = np.round(np.broadcast_to(theta["i0"], (J, U)))  # each unit reads its own copy
        X = np.zeros((J, 4 * U))
        X[:, sl_S] = pops_arr - i0
        X[:, sl_I] = i0
        return X

    def step(X, t, dt, theta, covs, rng):
        S = X[:, sl_S].astype(np.int64)
        I = X[:, sl_I].astype(np.int64)
        R = X[:, sl_R].astype(np.int64)
        other_I = I.sum(axis=1, keepdims=True) - I
        lam = theta["beta"] * (I + theta["coupling"] * other_I) / pops_arr[None, :]
        inf = euler_multinomial(S, lam[..., None], dt, rng)[..., 0]
        rec = euler_multinomial(I, np.broadcast_to(theta["gamma"], I.shape)[..., None], dt, rng)[..., 0]
        wane = euler_multinomial(R, np.broadcast_to(theta["waning"], R.shape)[..., None], dt, rng)[..., 0]
        out = X.copy()
        out[:, sl_S] = S - inf + wane
        out[:, sl_I] = I + inf - rec
        out[:, sl_R] = R + rec - wane
        out[:, sl_C] = X[:, sl_C] + inf
        return out

    def dunit(y, X, t, theta):
        return nb_logpmf(y, theta["rho"] * X[:, sl_C], theta["psi"])

    def runit(X, t, theta, rng):
        return nb_sample(theta["rho"] * X[:, sl_C], theta["psi"], rng)

    return PompModel(
        name="toy:metapop",
        units=tuple(units),
        state_names=state_names,
        params=params,
        rinit=rinit,
        step=step,
        dunit_measure=dunit,
        runit_measure=runit,
        accumulators=tuple(family_key("C_inc", u) for u in units),
        true_infection_states=tuple(family_key("C_inc", u) for u in units),
        measured_states=tuple(family_key("C_inc", u) for u in units),
    )


# ---------------------------------------------------------------------------
# Discrete 2-state HMM (exact forward-algorithm oracle available)
# ---------------------------------------------------------------------------


def hmm_model(
    transition: np.ndarray | None = None,
    emission: np.ndarray | None = None,
    initial: np.ndarray | None = None,
) -> PompModel:
    """Finite HMM; one latent jump per observation interval.

    Use with ``weekly_grid(n, week=1.0, steps_per_week=1)`` so each interval
    is a single step. ``emission[x, y]`` are the categorical observation probabilities.
    """
    transition = np.asarray(transition if transition is not None else [[0.9, 0.1], [0.2, 0.8]])
    emission = np.asarray(emission if emission is not None else [[0.8, 0.15, 0.05], [0.1, 0.3, 0.6]])
    initial = np.asarray(initial if initial is not None else [0.6, 0.4])
    cum_t = transition.cumsum(axis=1)
    cum_e = emission.cumsum(axis=1)
    log_e = np.log(emission)
    params = ParameterSet({"dummy": ParamDef(1.0)})

    def rinit(theta, J, rng):
        r = rng.random(J)
        x = (r[:, None] >= initial.cumsum()[None, :]).sum(axis=1)
        return x[:, None].astype(float)

    def step(X, t, dt, theta, covs, rng):
        x = X[:, 0].astype(int)
        r = rng.random(x.size)
        nxt = (r[:, None] >= cum_t[x]).sum(axis=1)
        return nxt[:, None].astype(float)

    def dunit(y, X, t, theta):
        x = X[:, 0].astype(int)
        k = y[0]
        if not (0 <= k < log_e.shape[1] and k == round(k)):  # no such category: probability 0
            return np.full((x.size, 1), -np.inf)
        return log_e[x, int(k)][:, None]

    def runit(X, t, theta, rng):
        x = X[:, 0].astype(int)
        r = rng.random(x.size)
        y = (r[:, None] >= cum_e[x]).sum(axis=1)
        return y[:, None].astype(float)

    return PompModel(
        name="toy:hmm",
        units=("unit",),
        state_names=("state",),
        params=params,
        rinit=rinit,
        step=step,
        dunit_measure=dunit,
        runit_measure=runit,
    )


# ---------------------------------------------------------------------------
# Scalar linear-Gaussian state-space model (Kalman oracle available)
# ---------------------------------------------------------------------------


def lgssm_model(a: float = 0.8, sig_proc: float = 1.0, sig_obs: float = 0.5) -> PompModel:
    """x' = a x + sig_proc * eps per interval; y = x + sig_obs * nu; x0 ~ N(0, 1)."""
    params = ParameterSet({"a": ParamDef(a), "sig_proc": ParamDef(sig_proc, "log"),
                           "sig_obs": ParamDef(sig_obs, "log")})

    # X is the (J, 1) column of states
    def rinit(theta, J, rng):
        return rng.normal(size=(J, 1))

    def step(X, t, dt, theta, covs, rng):
        return theta["a"] * X + theta["sig_proc"] * rng.normal(size=X.shape)

    def dunit(y, X, t, theta):
        return norm_logpdf(y, X, theta["sig_obs"])

    def runit(X, t, theta, rng):
        return X + theta["sig_obs"] * rng.normal(size=X.shape)

    return PompModel(
        name="toy:lgssm",
        units=("unit",),
        state_names=("x",),
        params=params,
        rinit=rinit,
        step=step,
        dunit_measure=dunit,
        runit_measure=runit,
    )


# ---------------------------------------------------------------------------
# Pure-death chain
# ---------------------------------------------------------------------------


def pure_death_model(stochastic: bool = True) -> PompModel:
    """Infected individuals recover independently at rate ``mu`` (per week).

    No infection source exists, so the weekly true-infection accumulator is
    identically zero. Reporting is negative binomial on prevalence.
    """
    params = ParameterSet(
        {
            "mu": ParamDef(np.log(2.0), "log"),
            "i0": ParamDef(10.0, "log"),
            "rho": ParamDef(0.9, "logit"),
            "psi": ParamDef(20.0, "log"),
        }
    )

    # the infected I are the (J, 1) column X[:, :1]
    def rinit(theta, J, rng):
        return np.hstack([np.round(np.broadcast_to(theta["i0"], (J, 1))), np.zeros((J, 1))])

    def step_stochastic(X, t, dt, theta, covs, rng):
        I = X[:, :1].astype(np.int64)
        rec = euler_multinomial(I, np.broadcast_to(theta["mu"], I.shape)[..., None], dt, rng)[..., 0]
        return np.hstack([I - rec, X[:, 1:]])

    def step_deterministic(X, t, dt, theta, covs, rng):
        mu = theta["mu"]

        def deriv(tt, Y):
            return np.hstack([-mu * Y[:, :1], np.zeros_like(Y[:, 1:])])

        return rk4_step(deriv, t, X, dt)

    def dunit(y, X, t, theta):
        return nb_logpmf(y, theta["rho"] * X[:, :1], theta["psi"])

    def runit(X, t, theta, rng):
        return nb_sample(theta["rho"] * X[:, :1], theta["psi"], rng)

    return PompModel(
        name="toy:puredeath" if stochastic else "toy:puredeath-det",
        units=("unit",),
        state_names=("I", "C_inc"),
        params=params,
        rinit=rinit,
        step=step_stochastic if stochastic else step_deterministic,
        dunit_measure=dunit,
        runit_measure=runit,
        accumulators=("C_inc",),
        true_infection_states=("C_inc",),
        measured_states=("C_inc",),
        stochastic=stochastic,
    )
