"""Stochastic metapopulation cholera model with a rainfall-driven reservoir.

Each department carries susceptibles by vaccination cohort, pooled infected
and asymptomatic compartments, a three-stage (Erlang) recovered chain, and a
bacterial water variable. Infection pressure combines a saturating water
term - amplified after the hurricane for the two directly struck departments
- with between-department human transmission. Shedding into water scales
with population density and standardized rainfall. All deaths are balanced
by births into the local unvaccinated susceptible class, so department
populations are conserved exactly; gamma white noise acts on the infection
flows, drawn independently per department. Reported cases are negative
binomial on accumulated new symptomatic infections.

Initialization enforces the model dynamics on the pre-window case reports
(four weeks up to and including t0); departments reporting zero in the week
before t0 use estimated initial-infection parameters instead.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..errors import ValidationError
from ..euler import euler_multinomial, gamma_increment
from ..measures import nb_logpmf, nb_sample
from ..model import PompModel
from ..params import ParamDef, ParameterSet, family_key
from ..units import DAYS_PER_YEAR, WEEK, WEEKS_PER_YEAR, per_day, per_week, weekly_variance
from .efficacy import AGE_CORRECTION, EfficacyCurve, default_curve
from .geography import GeographyData, synthetic_geography
from .scenarios import VaccinationSchedule, empty_schedule

BETA_HUMAN = np.array([0.82, 0.02, 0.38, 0.21, 0.51, 0.51, 0.35, 0.12, 0.26, 0.10]) * 1e-6
BETA_WATER = np.array([4.70, 21.00, 24.97, 27.14, 5.28, 30.70, 10.17, 0.99, 11.89, 12.82])
HURRICANE_BETA = {"Grand'Anse": 36.88, "Sud": 31.64}
HURRICANE_DECAY = {"Grand'Anse": 98.98, "Sud": 58.43}
I0_DEFAULTS = {"Grand'Anse": 21.0, "Nippes": 6.0}


def model3_force_of_infection(
    W, I, A, t, beta_w, beta_hm, h_hm, t_hm, beta_h, epsilon
):
    """Per-unit force of infection: saturating water exposure with hurricane
    amplification, plus transmission from the other units' infections."""
    water = W / (1.0 + W)
    rate_w = np.asarray(beta_w, dtype=float)
    if t_hm is not None and t >= t_hm:
        rate_w = rate_w + beta_hm * np.exp(-h_hm * (t - t_hm))
    burden = I + epsilon * A
    others = burden.sum(axis=-1, keepdims=True) - burden
    return rate_w * water + beta_h * others


def default_params(geography: GeographyData | None = None) -> ParameterSet:
    geo = geography or synthetic_geography()
    entries = {
        "mu_w": ParamDef(per_week(9.77e-7), "log"),
        "delta_w": ParamDef(per_week(1.0 / 0.11), "log"),
        "a_rain": ParamDef(1.00, "log"),
        "r_rain": ParamDef(0.78, "log"),
        "epsilon": ParamDef(1.0),
        "epsilon_w": ParamDef(0.008, "logit"),
        "f": ParamDef(0.25, "logit"),
        "mu_ir": ParamDef(per_day(1.0 / 5.0), "log"),
        "mu_rs": ParamDef(1.0 / 8.0, "log"),
        "delta": ParamDef(1.59e-2, "log"),
        "delta_c": ParamDef(1.46, "log"),
        "sigma_proc": ParamDef(0.218, "log"),
        "rho": ParamDef(0.98, "logit"),
        "psi": ParamDef(88.58, "log"),
    }
    for i, u in enumerate(geo.units):
        entries[family_key("beta_h", u)] = ParamDef(float(BETA_HUMAN[i % 10]), "log")
        entries[family_key("beta_w", u)] = ParamDef(float(BETA_WATER[i % 10]), "log")
        entries[family_key("beta_hm", u)] = ParamDef(HURRICANE_BETA.get(u, 0.0))
        entries[family_key("h_hm", u)] = ParamDef(HURRICANE_DECAY.get(u, 1.0), "log")
        entries[family_key("i0", u)] = ParamDef(I0_DEFAULTS.get(u, 1.0), "log")
    return ParameterSet(entries)


def _validate(params: ParameterSet) -> None:
    for key in params:
        if key.startswith("beta_hm[") and params[key] < 0:
            raise ValidationError(f"hurricane amplitude {key} must be nonnegative")


def build_model3(
    init_obs: np.ndarray,
    geography: GeographyData | None = None,
    schedule: VaccinationSchedule | None = None,
    curve: EfficacyCurve | None = None,
    median_rainfall: float = 0.002376,
) -> PompModel:
    """Assemble the stochastic metapopulation model.

    ``init_obs`` is the (U, 4) block of case reports for weeks t-3..t0 used
    to enforce the model dynamics at initialization. ``median_rainfall`` is
    the median standardized rainfall entering the water-equilibrium start;
    pass the value computed from the bound rainfall covariate when available.
    """
    geo = geography or synthetic_geography()
    units = geo.units
    U = geo.n_units
    init_obs = np.asarray(init_obs, dtype=float)
    if init_obs.shape != (U, 4):
        raise ValidationError(f"init_obs must be (U, 4) = ({U}, 4) case reports up to t0")
    if np.any(np.isnan(init_obs)):
        raise ValidationError("initialization weeks must not contain missing values")
    schedule = schedule if schedule is not None else empty_schedule(units)
    curve = curve or default_curve()
    Z = schedule.n_cohorts
    dose_type = schedule.dose_type.astype(int)
    pops = np.round(geo.populations)
    dens = geo.densities

    comp_names = (
        [f"S{z}" for z in range(Z + 1)]
        + ["I", "A", "R1", "R2", "R3", "W", "CI", "TI"]
    )
    V = len(comp_names)
    state_names = tuple(family_key(c, u) for u in units for c in comp_names)
    iI, iA = Z + 1, Z + 2
    iR = np.arange(Z + 3, Z + 6)
    iW, iCI, iTI = Z + 6, Z + 7, Z + 8

    protection_at: dict[float, np.ndarray] = {}

    def protections(t: float) -> np.ndarray:
        """theta_uz(t) for cohorts z >= 1, shape (U, Z), read-only.

        Depends on t alone, so it is computed once per substep time and
        shared by every particle, pass and iteration that steps through t.
        """
        out = protection_at.get(t)
        if out is None:
            weeks_since = (t - schedule.cohort_start) / WEEK  # (U, Z)
            out = np.empty((U, Z))
            for z in range(Z):
                out[:, z] = AGE_CORRECTION * curve.protection(weeks_since[:, z], dose_type[z])
            out.flags.writeable = False
            protection_at[t] = out
        return out

    def rinit(theta, J, rng):
        rho = theta["rho"]
        f = theta["f"]
        mu_ir_day = theta["mu_ir"] / DAYS_PER_YEAR
        hazard = mu_ir_day + (theta["delta"] + theta["delta_c"]) / 365.0
        y_prev = init_obs[:, 2]  # y*_{u,-1}
        i0_est = theta["i0"]
        I0 = np.broadcast_to(y_prev[None, :] / (7.0 * rho * hazard), (J, U)).copy()
        zero_mask = y_prev == 0.0
        if np.any(zero_mask):
            I0[:, zero_mask] = np.broadcast_to(i0_est, (J, U))[:, zero_mask]
        I0 = np.round(I0)
        A0 = np.round(I0 * (1.0 - f) / f)
        total = init_obs.sum(axis=1)[None, :]
        R_each = (total / (rho * f) - (I0 + A0)) / 3.0
        negative = R_each < 0
        if np.any(negative):
            # units started from i0 have no reports to balance: clamping
            # them is structural, so only a reporting unit's clamp warns
            reporting = np.any(negative, axis=0) & ~zero_mask
            if np.any(reporting):
                names = ", ".join(units[u] for u in np.flatnonzero(reporting))
                warnings.warn(
                    f"model3 initialization clamped negative recovered counts at 0 in {names}",
                    stacklevel=2,
                )
            R_each = np.maximum(R_each, 0.0)
        R_each = np.round(R_each)
        factor = 1.0 + theta["a_rain"] * median_rainfall ** theta["r_rain"]
        W0 = factor * dens[None, :] * theta["mu_w"] * (I0 + theta["epsilon_w"] * A0) / theta["delta_w"]
        X = np.zeros((J, U, V))
        X[:, :, 0] = pops[None, :] - I0 - A0 - 3.0 * R_each
        X[:, :, iI] = I0
        X[:, :, iA] = A0
        for k in range(3):
            X[:, :, iR[k]] = R_each
        X[:, :, iW] = np.broadcast_to(W0, (J, U))
        return X.reshape(J, U * V)

    def step(X, t, dt, theta, covs, rng):
        J = X.shape[0]
        Y = X.reshape(J, U, V)
        P = Y[:, :, :iW].astype(np.int64)  # persons: S0..SZ, I, A, R1..R3
        S = P[:, :, : Z + 1]
        I = P[:, :, iI]
        A = P[:, :, iA]
        W = Y[:, :, iW]

        if covs is None or covs.rainfall is None:
            raise ValidationError(
                f"model3 requires a rainfall covariate (missing at t={t:.6g})"
            )
        rain = covs.rainfall_at(t)  # (U,)
        t_hm = covs.hurricane_time

        lam = model3_force_of_infection(
            W, Y[:, :, iI], Y[:, :, iA], t, theta["beta_w"], theta["beta_hm"], theta["h_hm"],
            t_hm, theta["beta_h"], theta["epsilon"],
        )  # (J, U)
        sigma2 = weekly_variance(np.square(theta["sigma_proc"]))
        noise = gamma_increment(dt, sigma2, rng, size=(J, U)) / dt
        lam_noisy = lam * noise
        f = theta["f"]
        death = theta["delta"]
        death_c = theta["delta_c"]
        mu_ir = theta["mu_ir"]
        mu_rs3 = 3.0 * theta["mu_rs"]
        # stacks rates along a new last axis without broadcasting shared ones to J
        stack = lambda *r: np.stack(np.broadcast_arrays(*r), axis=-1)

        new = P.copy()

        # unvaccinated susceptibles: infection split + vaccination dosing
        rates0 = stack(f * lam_noisy, (1.0 - f) * lam_noisy)
        if Z:
            dosing = schedule.rates_at(t) * WEEKS_PER_YEAR  # (U, Z) persons/yr
            eta = dosing[None, :, :] / np.maximum(S[:, :, 0], 1)[:, :, None]  # (J, U, Z)
            rates0 = np.concatenate([rates0, eta], axis=-1)
        s0 = euler_multinomial(S[:, :, 0], rates0, dt, rng)
        new[:, :, 0] -= s0.sum(axis=-1)
        new[:, :, iI] += s0[:, :, 0]
        new[:, :, iA] += s0[:, :, 1]
        new[:, :, 1 : Z + 1] += s0[:, :, 2:]
        new_sympt = s0[:, :, 0].astype(float)
        new_asympt = s0[:, :, 1].astype(float)

        if Z:
            lamz = lam_noisy[:, :, None] * (1.0 - protections(t)[None, :, :])  # (J, U, Z)
            fz = np.asarray(f, dtype=float)[..., None]
            sz = euler_multinomial(
                S[:, :, 1:], stack(fz * lamz, (1.0 - fz) * lamz, np.asarray(death, dtype=float)[..., None]), dt, rng
            )
            new[:, :, 1 : Z + 1] -= sz.sum(axis=-1)
            into = sz.sum(axis=-2)  # (J, U, 3): summed over cohorts
            new[:, :, iI] += into[:, :, 0]
            new[:, :, iA] += into[:, :, 1]
            new[:, :, 0] += into[:, :, 2]  # deaths rebalanced as births
            new_sympt += into[:, :, 0]
            new_asympt += into[:, :, 1]

        # I, A, R1, R2 and R3 in one draw: counts (J, U, 5), rates (..., 5, 2)
        # toward (next stage, death); R3's next stage is S0
        exits = stack(
            mu_ir, death + death_c,
            mu_ir, death,
            mu_rs3, death,
            mu_rs3, death,
            mu_rs3, death,
        )
        flows = euler_multinomial(P[:, :, iI:iW], exits.reshape(exits.shape[:-1] + (5, 2)), dt, rng)
        onward = flows[:, :, :, 0]
        new[:, :, iI:iW] -= flows.sum(axis=-1)
        new[:, :, iR[0]] += onward[:, :, 0] + onward[:, :, 1]
        new[:, :, iR[1]] += onward[:, :, 2]
        new[:, :, iR[2]] += onward[:, :, 3]
        # R3 wanes into S_u0; balanced demography: every death is a birth there
        new[:, :, 0] += flows[:, :, :, 1].sum(axis=-1) + onward[:, :, 4]

        # water: exact decay with constant shedding over the substep
        factor = 1.0 + theta["a_rain"] * rain[None, :] ** theta["r_rain"]
        shed = factor * dens[None, :] * theta["mu_w"] * (I + theta["epsilon_w"] * A)
        dw = theta["delta_w"]
        decay = np.exp(-dw * dt)
        newW = W * decay + shed * (1.0 - decay) / dw

        out = Y.copy()
        out[:, :, :iW] = new
        out[:, :, iW] = newW
        out[:, :, iCI] = Y[:, :, iCI] + new_sympt
        out[:, :, iTI] = Y[:, :, iTI] + new_sympt + new_asympt
        return out.reshape(J, U * V)

    def dunit(y, X, t, theta):
        Y = X.reshape(X.shape[0], U, V)
        return nb_logpmf(y, theta["rho"] * Y[:, :, iCI], theta["psi"])

    def runit(X, t, theta, rng):
        Y = X.reshape(X.shape[0], U, V)
        return nb_sample(theta["rho"] * Y[:, :, iCI], theta["psi"], rng)

    return PompModel(
        name="model3",
        units=units,
        state_names=state_names,
        params=default_params(geo),
        rinit=rinit,
        step=step,
        dunit_measure=dunit,
        runit_measure=runit,
        accumulators=tuple(family_key(c, u) for c in ("CI", "TI") for u in units),
        true_infection_states=tuple(family_key("TI", u) for u in units),
        measured_states=tuple(family_key("CI", u) for u in units),
        needs_covariates=True,
        validate_params=_validate,
    )
