"""Vaccination scenarios, dosing schedules, and efficacy step functions."""

import numpy as np
import pytest

from epipomp.errors import ValidationError
from epipomp.haiti.efficacy import AGE_CORRECTION, default_curve
from epipomp.haiti.geography import synthetic_geography
from epipomp.haiti.scenarios import (
    CampaignRow,
    ScenarioSpec,
    apply_vaccination_scenario,
    builtin_scenario,
    empty_schedule,
)
from epipomp.units import WEEK


@pytest.fixture(scope="module")
def geo():
    return synthetic_geography()


def total_doses(sched) -> float:
    """Persons dosed over every window of a schedule."""
    spans = (sched.windows[:, :, 1] - sched.windows[:, :, 0]) / WEEK
    return float(np.sum(sched.rates * spans))


def departments(spec) -> set[str]:
    return {r.department for r in spec.rows}


class TestScenarioDefinitions:
    def test_v0_has_no_dosing_anywhere(self, geo):
        spec = builtin_scenario("V0", geo)
        for model_id in ("model1", "model2", "model3"):
            sched = apply_vaccination_scenario(spec, model_id, geo)
            if sched.n_cohorts:
                for t in np.linspace(0, 10, 50):
                    assert np.all(sched.rates_at(t) == 0.0)
            assert total_doses(sched) == 0.0

    def test_v1_covers_exactly_centre_and_artibonite(self, geo):
        spec = builtin_scenario("V1", geo)
        assert departments(spec) == {"Centre", "Artibonite"}

    def test_v2_strictly_contains_v1(self, geo):
        v1 = departments(builtin_scenario("V1", geo))
        v2 = departments(builtin_scenario("V2", geo))
        assert v1 < v2
        assert v2 == {"Artibonite", "Centre", "Ouest"}

    def test_v3_v4_same_doses_rate_ratio_2_5(self, geo):
        v3 = apply_vaccination_scenario(builtin_scenario("V3", geo), "model3", geo)
        v4 = apply_vaccination_scenario(builtin_scenario("V4", geo), "model3", geo)
        assert total_doses(v3) == pytest.approx(total_doses(v4))
        r3 = v3.rates[v3.rates > 0]
        r4 = v4.rates[v4.rates > 0]
        np.testing.assert_allclose(np.sort(r4) / np.sort(r3), 2.5)

    def test_unknown_department_rejected(self, geo):
        spec = ScenarioSpec("custom", (CampaignRow("Atlantis", 0.0, 10.0, 100, 100),))
        with pytest.raises(ValidationError, match="Atlantis"):
            apply_vaccination_scenario(spec, "model3", geo)


class TestScheduleMechanics:
    def test_model1_campaigns_collapse_to_one_week_pulses(self, geo):
        spec = builtin_scenario("V1", geo)
        sched = apply_vaccination_scenario(spec, "model1", geo, origin=2.0)
        assert sched.units == ("National",)
        assert sched.n_cohorts == 2 * len(spec.rows)
        widths = (sched.windows[0, :, 1] - sched.windows[0, :, 0]) / WEEK
        np.testing.assert_allclose(widths, 1.0)
        # pulse rate delivers the whole dose count in that week
        total = sum(r.doses_1 + r.doses_2 for r in spec.rows)
        assert total_doses(sched) == pytest.approx(total)

    def test_model2_under5_split(self, geo):
        spec = ScenarioSpec("custom", (CampaignRow("Ouest", 0.0, 10.0, 1000.0, 2000.0),))
        sched = apply_vaccination_scenario(spec, "model2", geo)
        assert sched.n_cohorts == 4
        u = list(geo.units).index("Ouest")
        rates = sched.rates_at(0.5 * 10 * WEEK)[u]
        np.testing.assert_allclose(
            rates, [0.11 * 100.0, 0.11 * 200.0, 0.89 * 100.0, 0.89 * 200.0]
        )

    def test_model3_cohort_dose_types(self, geo):
        spec = builtin_scenario("V4", geo)
        sched = apply_vaccination_scenario(spec, "model3", geo)
        assert sched.n_cohorts == 2
        np.testing.assert_array_equal(sched.dose_type, [1.0, 2.0])
        # outside any window the dosing vanishes
        assert np.all(sched.rates_at(1e6) == 0.0)

    def test_empty_schedule(self):
        sched = empty_schedule(("a", "b"))
        assert sched.n_cohorts == 0
        assert sched.rates_at(1.0).shape == (2, 0)


class TestEfficacy:
    def test_age_correction_value(self):
        assert AGE_CORRECTION == pytest.approx(1.0 - (1.0 - 0.4688) * 0.11)
        assert AGE_CORRECTION == pytest.approx(0.941568)

    def test_protection_non_increasing_step_function(self):
        curve = default_curve()
        weeks = np.linspace(0.0, 400.0, 801)
        for doses in (1, 2):
            prot = curve.protection(weeks, doses)
            assert np.all(np.diff(prot) <= 1e-12)

    def test_one_dose_equals_two_until_week_52_then_zero(self):
        curve = default_curve()
        w_before = np.linspace(0.0, 51.9, 53)
        np.testing.assert_allclose(
            curve.protection(w_before, 1), curve.protection(w_before, 2)
        )
        w_after = np.linspace(52.0, 400.0, 88)
        assert np.all(curve.protection(w_after, 1) == 0.0)
        assert curve.protection(np.array([100.0]), 2)[0] > 0.0

    def test_doses_broadcast_against_weeks_and_are_1_or_2(self):
        curve = default_curve()
        weeks = np.array([[10.0, 60.0], [300.0, -1.0], [51.0, 52.0]])
        doses = np.array([1.0, 2.0])
        got = curve.protection(weeks, doses)
        for k in range(2):
            np.testing.assert_array_equal(got[:, k], curve.protection(weeks[:, k], doses[k]))
        for bad in (3, np.array([1, 0])):
            with pytest.raises(ValidationError, match="doses must be 1 or 2"):
                curve.protection(weeks, bad)

    def test_negative_elapsed_time_means_no_protection(self):
        curve = default_curve()
        assert curve.protection(np.array([-5.0]), 2)[0] == 0.0

    def test_two_dose_median_level(self):
        curve = default_curve()
        assert curve.protection(np.array([10.0]), 2)[0] == pytest.approx(0.519)
        assert curve.protection(np.array([259.0]), 2)[0] == pytest.approx(0.519)
        assert curve.protection(np.array([260.0]), 2)[0] == 0.0


class TestVaccinationDynamics:
    def test_model1_vaccination_moves_all_compartment_types(self, geo):
        from epipomp.grid import weekly_grid
        from epipomp.haiti.model1 import build_model1
        from epipomp.model import simulate

        spec = builtin_scenario("V4", geo)
        sched = apply_vaccination_scenario(spec, "model1", geo, origin=10 * WEEK)
        m = build_model1(trend_window=(0.0, 2.0), schedule=sched)
        res = simulate(m, m.params, weekly_grid(60), n_sims=1, seed=4)
        vacc_s = sum(res.states[0, -1, m.state_names.index(f"S{z}")] for z in range(1, sched.n_cohorts + 1))
        assert vacc_s > 0.0

    def test_model3_vaccination_reduces_infections(self, geo):
        from epipomp.grid import weekly_grid
        from epipomp.haiti.model3 import build_model3
        from epipomp.model import simulate
        from epipomp.series import CovariateTable, standardize_rainfall

        rng = np.random.Generator(np.random.Philox(3))
        rain = standardize_rainfall(rng.gamma(2, 20, size=(geo.n_units, 120)), geo.units)
        covs = CovariateTable(times=np.arange(120) * WEEK, step=WEEK, rainfall=rain, units=geo.units)
        init = np.tile(np.array([[20.0, 30.0, 40.0, 50.0]]), (geo.n_units, 1))
        spec = builtin_scenario("V4", geo)
        sched = apply_vaccination_scenario(spec, "model3", geo, origin=4 * WEEK)
        m_v = build_model3(init, geo, schedule=sched)
        m_0 = build_model3(init, geo)
        t0 = 3 * WEEK
        grid = weekly_grid(100, t0)
        res_v = simulate(m_v, m_v.params, grid, covs, n_sims=3, seed=8)
        res_0 = simulate(m_0, m_0.params, grid, covs, n_sims=3, seed=8)
        ti_cols = [m_v.state_names.index(s) for s in m_v.true_infection_states]
        ti0_cols = [m_0.state_names.index(s) for s in m_0.true_infection_states]
        total_v = res_v.states[:, 1:, :][:, :, ti_cols].sum()
        total_0 = res_0.states[:, 1:, :][:, :, ti0_cols].sum()
        assert total_v < total_0
