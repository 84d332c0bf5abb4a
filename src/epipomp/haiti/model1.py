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
from ..measures import nb_logpmf, nb_sample
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
    iS, iE, iI, iA, iR = (np.arange(Z1) + k * Z1 for k in range(5))
    iCI, iTI = 5 * Z1, 5 * Z1 + 1

    dose_type = schedule.dose_type.astype(int)
    tau = schedule.cohort_start[0] if Z else np.zeros(0)

    def symptomatic_fractions(t: float) -> np.ndarray:
        """f_z(t) for z = 1..Z: the age-corrected protection since tau_z."""
        if Z == 0:
            return np.zeros(0)
        weeks_since = (t - tau) / WEEK
        out = np.empty(Z)
        for z in range(Z):
            out[z] = AGE_CORRECTION * curve.protection(weeks_since[z], dose_type[z])
        return out

    def phase_value(theta, t: float, epi: str, end: str):
        return theta[epi] if t < brk else theta[end]

    # parameters and particle totals are (J, 1) columns; X[:, iS[:1]] is cohort 0
    def rinit(theta, J, rng):
        pop_v = np.broadcast_to(theta["pop"], (J, 1))
        i0 = np.round(pop_v * theta["i0_frac"])
        e0 = np.round(pop_v * theta["e0_frac"])
        X = np.zeros((J, len(state_names)))
        X[:, iS[:1]] = np.round(pop_v) - i0 - e0
        X[:, iE[:1]] = e0
        X[:, iI[:1]] = i0
        return X

    def step(X, t, dt, theta, covs, rng):
        J = X.shape[0]
        S = X[:, iS].astype(np.int64)
        E = X[:, iE].astype(np.int64)
        I = X[:, iI].astype(np.int64)
        A = X[:, iA].astype(np.int64)
        R = X[:, iR].astype(np.int64)
        n_alive = (S + E + I + A + R).sum(axis=1, keepdims=True)

        coeffs = [theta[f"beta{j + 1}"] for j in range(N_BASIS)]
        beta_wk = seasonal_beta(t, coeffs, theta["zeta"], t0_w, t_end_w)
        sigma2 = weekly_variance(np.square(phase_value(theta, t, "sigma_proc_epi", "sigma_proc_end")))
        noise = gamma_increment(np.full((J, 1), dt), np.broadcast_to(sigma2, (J, 1)), rng) / dt
        lam = model1_force_of_infection(
            I.sum(axis=1, keepdims=True), A.sum(axis=1, keepdims=True), noise, beta_wk,
            n_alive, theta["epsilon"], theta["nu"],
        )

        mu_ei = theta["mu_ei"]
        mu_ir = theta["mu_ir"]
        death = theta["delta"]
        fz = symptomatic_fractions(t)

        # cohort-0 vaccination: per-capita rate toward each active cohort
        if Z:
            dosing = schedule.rates_at(t)[0] * WEEKS_PER_YEAR  # persons/yr per cohort
            n0 = np.maximum(S[:, :1] + E[:, :1] + I[:, :1] + A[:, :1] + R[:, :1], 1)
            eta = dosing[None, :] / n0  # (J, Z)
        else:
            eta = np.zeros((J, 0))

        newS = S.copy()
        newE = E.copy()
        newI = I.copy()
        newA = A.copy()
        newR = R.copy()
        # S, I, A and R leave toward (next compartment, each cohort, death);
        # E, toward (I, A, each cohort, death), is drawn on its own
        onward = np.hstack(np.broadcast_arrays(lam, mu_ir, mu_ir, theta["mu_rs"]))  # (J, 4)

        # cohort 0: one draw for S, I, A and R, counts (J, 4), rates (J, 4, 2 + Z)
        rates0 = np.empty((J, 4, 2 + Z))
        rates0[:, :, 0] = onward
        rates0[:, :, 1 : 1 + Z] = eta[:, None, :]
        rates0[:, :, 1 + Z] = death
        flows0 = euler_multinomial(np.stack([S[:, 0], I[:, 0], A[:, 0], R[:, 0]], axis=-1), rates0, dt, rng)
        s0, i0, a0, r0 = (flows0[:, c] for c in range(4))
        out0 = flows0.sum(axis=-1)  # (J, 4): leaving S, I, A, R
        e_exits = np.hstack([np.broadcast_to(mu_ei, (J, 1)), np.zeros((J, 1)), eta, np.broadcast_to(death, (J, 1))])
        e0 = euler_multinomial(E[:, 0], e_exits, dt, rng)
        newS[:, 0] += -out0[:, 0] + r0[:, 0]
        newE[:, 0] += s0[:, 0] - e0.sum(axis=-1)
        newI[:, 0] += e0[:, 0] - out0[:, 1]
        newA[:, 0] += e0[:, 1] - out0[:, 2]
        newR[:, 0] += i0[:, 0] + a0[:, 0] - out0[:, 3]
        newS[:, 1:] += s0[:, 1 : 1 + Z]
        newE[:, 1:] += e0[:, 2 : 2 + Z]
        newI[:, 1:] += i0[:, 1 : 1 + Z]
        newA[:, 1:] += a0[:, 1 : 1 + Z]
        newR[:, 1:] += r0[:, 1 : 1 + Z]
        new_inf = s0[:, 0].astype(float)
        new_sympt = e0[:, 0].astype(float)

        if Z:
            # vaccinated cohorts progress within-cohort; f_z splits E exits.
            # One draw for S, I, A and R: counts (J, 4, Z), rates (J, 4, Z, 2)
            ratesZ = np.empty((J, 4, Z, 2))
            ratesZ[..., 0] = onward[:, :, None]
            ratesZ[..., 1] = np.asarray(death)[..., None]
            flowsZ = euler_multinomial(np.stack([S[:, 1:], I[:, 1:], A[:, 1:], R[:, 1:]], axis=1), ratesZ, dt, rng)
            sz, iz, az, rz = (flowsZ[:, c] for c in range(4))
            outZ = flowsZ.sum(axis=-1)  # (J, 4, Z)
            ez = euler_multinomial(
                E[:, 1:],
                np.stack(np.broadcast_arrays(mu_ei * (1.0 - fz), mu_ei * fz, death), axis=-1),
                dt, rng,
            )
            newS[:, 1:] += -outZ[:, 0] + rz[:, :, 0]
            newE[:, 1:] += sz[:, :, 0] - ez.sum(axis=-1)
            newI[:, 1:] += ez[:, :, 0] - outZ[:, 1]
            newA[:, 1:] += ez[:, :, 1] - outZ[:, 2]
            newR[:, 1:] += iz[:, :, 0] + az[:, :, 0] - outZ[:, 3]
            new_inf = new_inf + sz[:, :, 0].sum(axis=1)
            new_sympt = new_sympt + ez[:, :, 0].sum(axis=1)

        births = poisson_inflow(theta["mu_birth"] * n_alive, dt, rng)
        newS[:, :1] += births

        out = X.copy()
        out[:, iS] = newS
        out[:, iE] = newE
        out[:, iI] = newI
        out[:, iA] = newA
        out[:, iR] = newR
        out[:, iCI] = X[:, iCI] + new_sympt
        out[:, iTI] = X[:, iTI] + new_inf
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
