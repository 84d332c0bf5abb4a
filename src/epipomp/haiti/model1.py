"""National stochastic SEIAR cholera model with vaccination cohorts.

The latent state tracks susceptible, exposed, infected (symptomatic),
asymptomatic, and recovered individuals in vaccination cohorts z = 0..Z
(z = 0 unvaccinated). Transmission is seasonal through a periodic B-spline
basis with an optional log-linear trend, multiplied by gamma white noise,
and saturated by a mixing exponent. Vaccination moves individuals of every
compartment from cohort 0 into cohort z at the campaign dosing rate; the
benefit of vaccination is an asymptomatic fraction f_z(t) growing with the
time-dependent vaccine protection. Weekly reported cases are negative
binomial on the accumulated E -> I transitions.

Process noise and observation overdispersion switch between epidemic and
endemic values at a configurable phase-break time, with the latent state
carried across the break.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..euler import euler_multinomial, gamma_increment, poisson_inflow
from ..nbinom import nb_logpmf, nb_sample
from ..model import PompModel
from ..params import ParamDef, ParameterSet
from ..splines import N_BASIS, periodic_bspline_basis
from ..units import WEEK, WEEKS_PER_YEAR, per_day, weekly_variance
from .efficacy import AGE_CORRECTION, EfficacyCurve, default_curve
from .geography import national_population
from .scenarios import VaccinationSchedule, empty_schedule

#: Table-style point estimates for the initial infected/exposed counts.
I0_COUNT = 7298.0
E0_COUNT = 350.0


def seasonal_beta(t: float, coeffs, trend, t0: float, t_end: float):
    """Seasonal transmission rate beta(t) in wk^-1.

    beta(t) = exp(sum_j coeffs_j s_j(t) + trend * tbar) with s_j the periodic
    cubic B-spline basis (period one year) and tbar the fitting window
    rescaled to [-1, 1]. ``coeffs`` is a sequence of N_BASIS scalars or per-particle
    arrays.
    """
    s = periodic_bspline_basis(float(t))
    mid = 0.5 * (t_end + t0)
    half = 0.5 * (t_end - t0)
    tbar = (t - mid) / half
    log_b = trend * tbar
    for j in range(N_BASIS):
        log_b = log_b + coeffs[j] * s[j]
    return np.exp(log_b)


def model1_force_of_infection(i_total, a_total, noise_factor, beta_wk, n_alive, epsilon, nu):
    """Force of infection: (I + eps*A)^nu * (dGamma/dt) * beta(t) / N, per year."""
    burden = np.maximum(i_total + epsilon * a_total, 0.0)
    return burden**nu * noise_factor * (beta_wk * WEEKS_PER_YEAR) / np.maximum(n_alive, 1.0)


def _total(flows: np.ndarray) -> np.ndarray:
    """Integer flows summed over the last axis: exact, and several times
    faster through einsum than ``sum(axis=-1)`` on these short axes."""
    return np.einsum("...k->...", flows)


def default_params(pop: float | None = None) -> ParameterSet:
    """Table point estimates; time-denominated rates converted to per year."""
    pop = float(pop) if pop is not None else national_population()
    return ParameterSet(
        {
            "beta1": ParamDef(1.4),
            "beta2": ParamDef(1.2),
            "beta3": ParamDef(1.1),
            "beta4": ParamDef(1.1),
            "beta5": ParamDef(1.4),
            "beta6": ParamDef(1.0),
            "zeta": ParamDef(-0.04),
            "mu_ei": ParamDef(per_day(1.0 / 1.4), "log"),
            "mu_ir": ParamDef(per_day(1.0 / 2.0), "log"),
            "mu_rs": ParamDef(1.0 / 8.0, "log"),
            "mu_birth": ParamDef(2.23e-2, "log"),
            "delta": ParamDef(7.5e-3, "log"),
            "epsilon": ParamDef(0.05, "logit"),
            "nu": ParamDef(0.978),
            "sigma_proc_epi": ParamDef(0.09, "log"),
            "sigma_proc_end": ParamDef(0.12, "log"),
            "psi_epi": ParamDef(279.15, "log"),
            "psi_end": ParamDef(78.33, "log"),
            "rho": ParamDef(0.679, "logit"),
            "i0_frac": ParamDef(I0_COUNT / pop, "logit"),
            "e0_frac": ParamDef(E0_COUNT / pop, "logit"),
            "pop": ParamDef(pop, "log"),
        }
    )


def _validate(params: ParameterSet) -> None:
    if params["i0_frac"] + params["e0_frac"] >= 1.0:
        raise ValidationError("initial infected + exposed fractions must sum below 1")
    if not 0.0 < params["nu"] <= 1.0:
        raise ValidationError("mixing exponent nu must lie in (0, 1]")


def build_model1(
    trend_window: tuple[float, float],
    pop: float | None = None,
    schedule: VaccinationSchedule | None = None,
    curve: EfficacyCurve | None = None,
    phase_break: float | None = None,
) -> PompModel:
    """Assemble the national model.

    ``trend_window`` is the (t0, t_end) span of the fitting data anchoring
    the log-linear trend. ``phase_break`` switches (sigma_proc, psi) from
    epidemic to endemic values at that time; None keeps the epidemic values
    throughout.
    """
    schedule = schedule if schedule is not None else empty_schedule(("National",))
    curve = curve or default_curve()
    t0_w, t_end_w = float(trend_window[0]), float(trend_window[1])
    if not t_end_w > t0_w:
        raise ValidationError("trend window must have positive length")
    brk = np.inf if phase_break is None else float(phase_break)
    Z = schedule.n_cohorts
    Z1 = Z + 1

    comp = ("S", "E", "I", "A", "R")
    state_names = tuple(f"{c}{z}" for c in comp for z in range(Z1)) + ("CI", "TI")
    n_persons = 5 * Z1
    iCI, iTI = n_persons, n_persons + 1
    SIAR = [0, 2, 3, 4]  # the compartments drawn together; E is drawn on its own
    tau = schedule.cohort_start[0]

    def phase_value(theta, t: float, epi: str, end: str):
        return theta[epi] if t < brk else theta[end]

    # persons X[:, :n_persons] are viewed as (J, 5, Z + 1): S, E, I, A, R by
    # cohort; parameters and particle totals are (J, 1) columns
    def rinit(theta, J, rng):
        pop_v = np.broadcast_to(theta["pop"], (J, 1))
        i0 = np.round(pop_v * theta["i0_frac"])
        e0 = np.round(pop_v * theta["e0_frac"])
        X = np.zeros((J, len(state_names)))
        P = X[:, :n_persons].reshape(J, 5, Z1)
        P[:, 0, :1] = np.round(pop_v) - i0 - e0
        P[:, 1, :1] = e0
        P[:, 2, :1] = i0
        return X

    def step(X, t, dt, theta, covs, rng):
        J = X.shape[0]
        P = X[:, :n_persons].reshape(J, 5, Z1).astype(np.int64)
        n_alive = _total(P.reshape(J, n_persons))[:, None]

        coeffs = [theta[f"beta{j + 1}"] for j in range(N_BASIS)]
        beta_wk = seasonal_beta(t, coeffs, theta["zeta"], t0_w, t_end_w)
        sigma2 = weekly_variance(np.square(phase_value(theta, t, "sigma_proc_epi", "sigma_proc_end")))
        noise = gamma_increment(np.full((J, 1), dt), np.broadcast_to(sigma2, (J, 1)), rng) / dt
        lam = model1_force_of_infection(
            P[:, 2].sum(axis=1, keepdims=True), P[:, 3].sum(axis=1, keepdims=True), noise, beta_wk,
            n_alive, theta["epsilon"], theta["nu"],
        )
        mu_ei = theta["mu_ei"]
        death = theta["delta"]

        # cohort-0 vaccination: per-capita rate toward each active cohort
        if Z:
            dosing = schedule.rates_at(t)[0] * WEEKS_PER_YEAR  # persons/yr per cohort
            eta = dosing[None, :] / np.maximum(_total(P[:, :, 0])[:, None], 1)  # (J, Z)
        else:
            eta = np.zeros((J, 0))

        # S, I, A and R leave toward (next compartment, each cohort, death);
        # E, toward (I, A, each cohort, death), is drawn on its own
        siar = P[:, SIAR]  # (J, 4, Z + 1)
        onward = np.hstack(np.broadcast_arrays(lam, theta["mu_ir"], theta["mu_ir"], theta["mu_rs"]))  # (J, 4)

        # cohort 0: one draw for S, I, A and R, counts (J, 4), rates (J, 4, 2 + Z)
        rates0 = np.empty((J, 4, 2 + Z))
        rates0[:, :, 0] = onward
        rates0[:, :, 1 : 1 + Z] = eta[:, None, :]
        rates0[:, :, 1 + Z] = death
        flows0 = euler_multinomial(siar[:, :, 0], rates0, dt, rng)
        e_exits = np.hstack([np.broadcast_to(mu_ei, (J, 1)), np.zeros((J, 1)), eta, np.broadcast_to(death, (J, 1))])
        e0 = euler_multinomial(P[:, 1, 0], e_exits, dt, rng)

        if Z:
            # vaccinated cohorts progress within-cohort; f_z splits E exits,
            # the age-corrected protection since each cohort's start tau_z.
            # One draw for S, I, A and R: counts (J, 4, Z), rates (J, 4, Z, 2)
            ratesZ = np.empty((J, 4, Z, 2))
            ratesZ[..., 0] = onward[:, :, None]
            ratesZ[..., 1] = np.asarray(death)[..., None]
            flowsZ = euler_multinomial(siar[:, :, 1:], ratesZ, dt, rng)
            fz = AGE_CORRECTION * curve.protection((t - tau) / WEEK, schedule.dose_type)
            ez = euler_multinomial(
                P[:, 1, 1:], np.stack(np.broadcast_arrays(mu_ei * (1.0 - fz), mu_ei * fz, death), axis=-1), dt, rng
            )
        else:
            flowsZ, ez = np.zeros((J, 4, 0, 2), np.int64), np.zeros((J, 0, 3), np.int64)
        births = poisson_inflow(theta["mu_birth"] * n_alive, dt, rng)

        # every cohort's flows S->E, I->R, A->R, R->S (J, 4, Z + 1) and
        # E->I, E->A (J, Z + 1, 2); P, a copy, becomes the new persons:
        # less the totals leaving each compartment, plus each inflow
        siar_on = np.concatenate([flows0[:, :, :1], flowsZ[..., 0]], axis=2)
        e_on = np.concatenate([e0[:, None, :2], ez[..., :2]], axis=1)
        P[:, SIAR] -= np.concatenate([_total(flows0)[..., None], _total(flowsZ)], axis=2)
        P[:, 1] -= np.concatenate([_total(e0)[:, None], _total(ez)], axis=1)
        P[:, 0] += siar_on[:, 3]
        P[:, 1] += siar_on[:, 0]
        P[:, 2] += e_on[..., 0]
        P[:, 3] += e_on[..., 1]
        P[:, 4] += siar_on[:, 1] + siar_on[:, 2]
        # cohort 0 -> z vaccination moves, then births into S0
        P[:, SIAR, 1:] += flows0[:, :, 1 : 1 + Z]
        P[:, 1, 1:] += e0[:, 2 : 2 + Z]
        P[:, 0, :1] += births

        out = X.copy()
        out[:, :n_persons] = P.reshape(J, n_persons)
        out[:, iCI] = X[:, iCI] + e_on[..., 0].sum(axis=1)
        out[:, iTI] = X[:, iTI] + siar_on[:, 0].sum(axis=1)
        return out

    def dunit(y, X, t, theta):
        return nb_logpmf(y, theta["rho"] * X[:, iCI, None], phase_value(theta, t, "psi_epi", "psi_end"))

    def runit(X, t, theta, rng):
        return nb_sample(theta["rho"] * X[:, iCI, None], phase_value(theta, t, "psi_epi", "psi_end"), rng)

    return PompModel(
        name="model1",
        units=("National",),
        state_names=state_names,
        params=default_params(pop),
        rinit=rinit,
        step=step,
        dunit_measure=dunit,
        runit_measure=runit,
        accumulators=("CI", "TI"),
        true_infection_states=("TI",),
        measured_states=("CI",),
        validate_params=_validate,
    )
