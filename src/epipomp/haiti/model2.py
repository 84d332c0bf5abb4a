"""Deterministic metapopulation cholera model with an aquatic reservoir.

Ten departments, five vaccination cohorts per department (unvaccinated, then
one/two dose by under/over five), SEIAR compartments plus separate recovered
classes for symptomatic and asymptomatic infection, and a bacterial water
compartment per department. People move between departments at gravity-model
rates; water moves along river-flow connections. The skeleton is integrated
with fixed-step RK4; reported cases are log-normal around the reporting rate
times accumulated E -> I transitions, which makes maximum likelihood a least
squares calculation on the log scale.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ValidationError
from ..euler import rk4_step
from ..measures import lognormal_case_logpdf, lognormal_case_sample
from ..model import PompModel
from ..params import ParamDef, ParameterSet, family_key
from ..units import per_day, per_week, WEEKS_PER_YEAR
from .efficacy import ONE_DOSE_MEDIAN, TWO_DOSE_MEDIAN, UNDER5_EFFICACY_FACTOR
from .geography import GeographyData, synthetic_geography
from .scenarios import VaccinationSchedule, empty_schedule

N_COHORTS = 5  # z = 0 unvaccinated, 1..4 vaccination groups
N_PERSONS = 6 * N_COHORTS  # S, E, I, A, R, RA of every cohort lead each unit's block

#: Vaccine effectiveness per cohort (constant; waning is a compartment exit).
COHORT_EFFICACY = np.array(
    [
        0.0,
        ONE_DOSE_MEDIAN * UNDER5_EFFICACY_FACTOR,
        TWO_DOSE_MEDIAN * UNDER5_EFFICACY_FACTOR,
        ONE_DOSE_MEDIAN,
        TWO_DOSE_MEDIAN,
    ]
)


def model2_force_of_infection(W, i_total, a_total, t, a_seas, phi, beta_w, wsat, beta, epsilon):
    """Per-unit force of infection: seasonal saturating water term plus
    direct transmission, per year."""
    seasonal = 0.5 * (1.0 + a_seas * np.cos(2.0 * np.pi * np.asarray(t, dtype=float) + phi))
    water = beta_w * W / (wsat + W)
    return seasonal * water + beta * (i_total + epsilon * a_total)


def default_params() -> ParameterSet:
    return ParameterSet(
        {
            "beta": ParamDef(5.97e-15, "log"),
            "beta_w": ParamDef(1.1, "log"),
            "wsat": ParamDef(1e5, "log"),
            "a_seas": ParamDef(0.4),
            "phi": ParamDef(0.97),  # stored unwrapped; 2*pi aliasing is not resolved
            "mu_ei": ParamDef(per_day(1.0 / 1.3), "log"),
            "mu_ir": ParamDef(per_day(1.0 / 7.0), "log"),
            "mu_rs": ParamDef(1.0 / 1.4e11, "log"),
            "omega1": ParamDef(1.0, "log"),
            "omega2": ParamDef(1.0 / 5.0, "log"),
            "f": ParamDef(0.2, "logit"),
            "epsilon": ParamDef(0.001, "logit"),
            "epsilon_w": ParamDef(1e-7, "logit"),
            "mu_w": ParamDef(per_week(179.0), "log"),
            "delta_w": ParamDef(per_week(1.0 / 3.0), "log"),
            "rho": ParamDef(0.20, "logit"),
            "psi": ParamDef(1.319, "log"),
            "v_rate": ParamDef(1e-12, "log"),
            "w_r": ParamDef(1.0, "log"),
        }
    )


def _validate(params: ParameterSet) -> None:
    if not 0.0 <= params["a_seas"] < 1.0:
        raise ValidationError("seasonal amplitude must lie in [0, 1)")


def build_model2(
    init_cases: np.ndarray,
    geography: GeographyData | None = None,
    schedule: VaccinationSchedule | None = None,
) -> PompModel:
    """Assemble the deterministic metapopulation model.

    ``init_cases`` is the first reported week per department; latent states
    initialize as I_u0 = cases/rho, S_u0 = Pop_u - I_u0, all else zero.
    """
    geo = geography or synthetic_geography()
    units = geo.units
    U = geo.n_units
    init_cases = np.asarray(init_cases, dtype=float)
    if init_cases.shape != (U,):
        raise ValidationError(f"init_cases must have shape ({U},)")
    if np.any(np.isnan(init_cases)):
        raise ValidationError("first-week cases must not be missing for initialization")
    schedule = schedule if schedule is not None else empty_schedule(units)
    if schedule.n_cohorts not in (0, 4):
        raise ValidationError("model2 expects a 4-cohort vaccination schedule")
    pops = geo.populations

    # per-unit layout: S0..S4, E0..E4, I0..I4, A0..A4, R0..R4, RA0..RA4, W, CI, TI, CLAMP
    comp_names = (
        [f"S{z}" for z in range(N_COHORTS)]
        + [f"E{z}" for z in range(N_COHORTS)]
        + [f"I{z}" for z in range(N_COHORTS)]
        + [f"A{z}" for z in range(N_COHORTS)]
        + [f"R{z}" for z in range(N_COHORTS)]
        + [f"RA{z}" for z in range(N_COHORTS)]
        + ["W", "CI", "TI", "CLAMP"]
    )
    V = len(comp_names)  # 34
    state_names = tuple(family_key(c, u) for u in units for c in comp_names)
    sl = {c: i for i, c in enumerate(comp_names)}
    iW, iCI, iTI, iCL = sl["W"], sl["CI"], sl["TI"], sl["CLAMP"]

    def rinit(theta, J, rng):
        i0 = init_cases[None, :] / theta["rho"]  # (J or 1, U)
        i0 = np.broadcast_to(i0, (J, U)).copy()
        X = np.zeros((J, U, V))
        X[:, :, sl["I0"]] = i0
        X[:, :, sl["S0"]] = pops[None, :] - i0
        return X.reshape(J, U * V)

    # water moves along fixed river flows; people move at gravity rates that
    # depend only on v_rate, so one matrix serves every step at that value
    TW = geo.river_flows
    TW_out = TW.sum(axis=1)[None, :]
    susceptibility = 1.0 - COHORT_EFFICACY

    @lru_cache(maxsize=1)
    def gravity(v_rate: float) -> tuple[np.ndarray, np.ndarray]:
        T = geo.gravity_matrix(v_rate)
        return T, T.sum(axis=1)[None, :, None]

    def prepare(theta):
        """Everything of a step that depends on theta alone, as the tuple that
        ``step`` unpacks."""
        # one gravity matrix serves every particle, so v_rate cannot vary across them
        v_rate = np.asarray(theta["v_rate"])
        if np.any(v_rate != v_rate.flat[0]):
            raise ValidationError("model2 takes one v_rate for every particle; a search cannot perturb it")
        # per-cohort rates: a trailing cohort axis against (J, U, 5) blocks
        f3, mu_ei3, mu_ir3, mu_rs3 = (
            np.asarray(theta[k])[..., None] for k in ("f", "mu_ei", "mu_ir", "mu_rs")
        )
        # exit rates of E, I, A, R and RA
        exits = np.stack(np.broadcast_arrays(mu_ei3, mu_ir3, mu_ir3, mu_rs3, mu_rs3), axis=-2)
        # E -> I and E -> A rates
        onset = np.stack((f3 * mu_ei3, (1.0 - f3) * mu_ei3), axis=-2)
        # vaccine-protection waning rates of cohorts 1..4
        om1, om2 = theta["omega1"], theta["omega2"]
        om = np.stack(np.broadcast_arrays(om1, om2, om1, om2), axis=-1)
        return (
            theta["a_seas"], theta["phi"], theta["beta_w"], theta["wsat"], theta["beta"],
            theta["epsilon"], theta["epsilon_w"], theta["mu_w"], theta["delta_w"], theta["w_r"],
            mu_rs3, exits, onset, om, gravity(float(v_rate.flat[0])),
        )

    def step(X, t, dt, prepared, covs, rng):
        J = X.shape[0]
        (a_seas, phi, beta_w, wsat, beta, eps, eps_w, mu_w, delta_w, w_r,
         mu_rs3, exits, onset, om, (T, T_out)) = prepared
        # exit rates of S (infection, written per stage), E, I, A, R and RA
        rates = np.empty((J, U, 6, N_COHORTS))
        rates[:, :, 1:] = exits

        def deriv(tt, Yf):
            Yv = Yf.reshape(J, U, V)
            persons = Yv[:, :, :N_PERSONS]
            P = persons.reshape(J, U, 6, N_COHORTS)  # S, E, I, A, R, RA by cohort
            S, E = P[:, :, 0], P[:, :, 1]
            W = Yv[:, :, iW]
            i_total, a_total = P[:, :, 2].sum(-1), P[:, :, 3].sum(-1)  # infection and shedding
            lam = model2_force_of_infection(W, i_total, a_total, tt, a_seas, phi, beta_w, wsat, beta, eps)
            np.multiply(lam[:, :, None], susceptibility, out=rates[:, :, 0])
            outflow = rates * P
            # R, RA -> S; S -> E; E -> I, A; I -> R; A -> RA
            inflow = np.empty_like(outflow)
            np.multiply(mu_rs3, P[:, :, 4] + P[:, :, 5], out=inflow[:, :, 0])
            inflow[:, :, 1] = outflow[:, :, 0]
            np.multiply(onset, E[:, :, None], out=inflow[:, :, 2:4])
            inflow[:, :, 4:] = outflow[:, :, 2:4]

            d = np.empty_like(Yv)
            dP = d[:, :, :N_PERSONS].reshape(J, U, 6, N_COHORTS)
            np.subtract(inflow, outflow, out=dP)
            dS = dP[:, :, 0]
            # waning of vaccine protection back to cohort 0
            wane = om * S[:, :, 1:]
            dS[:, :, 1:] -= wane
            dS[:, :, 0] += wane.sum(-1)
            # vaccination dosing out of S_u0
            if schedule.n_cohorts:
                dosing = schedule.rates_at(tt) * WEEKS_PER_YEAR  # (U, 4) persons/yr
                pc = dosing[None, :, :] / np.maximum(S[:, :, 0], 1.0)[:, :, None]
                vacc = pc * S[:, :, 0][:, :, None]
                dS[:, :, 0] -= vacc.sum(-1)
                dS[:, :, 1:] += vacc
            # gravity transport of every person compartment
            d[:, :, :N_PERSONS] += np.einsum("vu,jvc->juc", T, persons) - persons * T_out
            # water dynamics and transport
            shed = mu_w * (i_total + eps_w * a_total)
            d[:, :, iW] = shed - delta_w * W + w_r * (np.einsum("vu,jv->ju", TW, W) - W * TW_out)
            d[:, :, iCI] = inflow[:, :, 2].sum(-1)
            d[:, :, iTI] = outflow[:, :, 0].sum(-1)
            d[:, :, iCL] = 0.0
            return d.reshape(J, U * V)

        out = rk4_step(deriv, t, X, dt)
        neg = out < 0.0
        if np.any(neg):
            clamp = np.where(neg, -out, 0.0).reshape(J, U, V).sum(axis=2)
            out = np.maximum(out, 0.0)
            out = out.reshape(J, U, V)
            out[:, :, iCL] += clamp
            return out.reshape(J, U * V)
        return out

    def dunit(y, X, t, theta):
        Y = X.reshape(X.shape[0], U, V)
        return lognormal_case_logpdf(y, theta["rho"] * Y[:, :, iCI], theta["psi"])

    def runit(X, t, theta, rng):
        Y = X.reshape(X.shape[0], U, V)
        return lognormal_case_sample(theta["rho"] * Y[:, :, iCI], theta["psi"], rng)

    return PompModel(
        name="model2",
        units=units,
        state_names=state_names,
        params=default_params(),
        rinit=rinit,
        step=step,
        prepare=prepare,
        dunit_measure=dunit,
        runit_measure=runit,
        accumulators=tuple(family_key(c, u) for c in ("CI", "TI") for u in units),
        true_infection_states=tuple(family_key("TI", u) for u in units),
        measured_states=tuple(family_key("CI", u) for u in units),
        stochastic=False,
        validate_params=_validate,
    )
