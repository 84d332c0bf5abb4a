"""Parameter sets, time grids, observation series, and covariate tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epipomp.errors import CoverageError, ValidationError
from epipomp.grid import TimeGrid, weekly_grid
from epipomp.params import ParamDef, ParameterSet, family_key, from_estimation, split_key, to_estimation
from epipomp.series import CovariateTable, ObservationSeries, standardize_rainfall
from epipomp.units import DAYS_PER_YEAR, WEEK, WEEKS_PER_YEAR, per_day, per_week, weekly_variance


class TestParameterSet:
    def test_transform_validation(self):
        with pytest.raises(ValidationError):
            ParamDef(-1.0, "log")
        with pytest.raises(ValidationError):
            ParamDef(1.5, "logit")
        with pytest.raises(ValidationError):
            ParamDef(1.0, "sqrt")

    @given(st.floats(min_value=1e-8, max_value=1e8))
    def test_log_round_trip(self, v):
        assert from_estimation(to_estimation(v, "log"), "log") == pytest.approx(v, rel=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_logit_round_trip(self, v):
        assert from_estimation(to_estimation(v, "logit"), "logit") == pytest.approx(v, rel=1e-9)

    @pytest.mark.parametrize(
        "transform, inside",
        [
            ("identity", st.floats(min_value=-1e8, max_value=1e8)),
            ("log", st.floats(min_value=1e-8, max_value=1e8)),
            ("logit", st.floats(min_value=1e-6, max_value=1 - 1e-6)),
        ],
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_array_call_matches_float_calls_and_round_trips(self, transform, inside, data):
        # the swarm maps arrays, a center or a trajectory-matching step maps
        # floats: both go through the one transform, bit for bit
        values = np.array(data.draw(st.lists(inside, min_size=2, max_size=50)))
        est = to_estimation(values, transform)
        back = from_estimation(est, transform)
        assert np.array_equal(est, [to_estimation(float(v), transform) for v in values])
        assert np.array_equal(back, [from_estimation(float(e), transform) for e in est])
        np.testing.assert_allclose(back, values, rtol=1e-9)

    def test_family_access_and_keys(self):
        # the key is the one record of the owning unit
        ps = ParameterSet(
            {
                "shared": ParamDef(1.0, "log"),
                family_key("beta", "north"): ParamDef(2.0, "log"),
                family_key("beta", "south"): ParamDef(3.0, "log"),
            }
        )
        assert family_key("beta", "north") == "beta[north]"
        assert split_key("beta[north]") == ("beta", "north")
        assert split_key("shared") == ("shared", None)
        assert [split_key(k) for k in ps] == [("shared", None), ("beta", "north"), ("beta", "south")]
        assert ps["beta[south]"] == 3.0
        assert ps.transform_of("beta[north]") == "log"

    def test_replace_preserves_metadata_and_validates(self):
        ps = ParameterSet({"r": ParamDef(0.5, "logit")})
        ps2 = ps.replace({"r": 0.7})
        assert ps2["r"] == 0.7
        assert ps2.transform_of("r") == "logit"
        with pytest.raises(ValidationError, match=r"^r: logit-transformed parameter must lie in"):
            ps.replace({"r": 1.5})
        with pytest.raises(ValidationError):
            ps.replace({"unknown": 1.0})

    def test_estimation_vector_round_trip(self):
        ps = ParameterSet({"a": ParamDef(2.0, "log"), "b": ParamDef(0.25, "logit"), "c": ParamDef(-3.0)})
        names = ["a", "b", "c"]
        est = ps.to_est(names)
        back = ps.from_est(names, est)
        for n in names:
            assert back[n] == pytest.approx(ps[n], rel=1e-12)


class TestUnits:
    def test_conversion_table_round_trips(self):
        assert per_day(1.0 / 2.0) == pytest.approx(365.25 / 2.0)
        assert per_day(1.0 / 2.0) == pytest.approx(182.625)
        assert per_week(1.0) == pytest.approx(52.14)
        assert WEEK * WEEKS_PER_YEAR == pytest.approx(1.0)
        assert weekly_variance(4.0) == pytest.approx(4.0 / 52.14)
        assert DAYS_PER_YEAR == 365.25


class TestTimeGrid:
    def test_validations(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, [1.0, 0.5], 0.1)  # not increasing
        with pytest.raises(ValidationError):
            TimeGrid(2.0, [1.0, 3.0], 0.1)  # t0 after first obs
        with pytest.raises(ValidationError):
            TimeGrid(0.0, [1.0, 2.0], 1.5)  # step exceeds spacing
        with pytest.raises(ValidationError):
            TimeGrid(0.0, [1.0, 2.0], 0.0)

    def test_substeps_land_exactly(self):
        g = TimeGrid(0.0, [1.0, 2.0], 0.3)
        n, h = g.substeps(1.0, 2.0)
        assert n == 4 and n * h == pytest.approx(1.0)

    # bit for bit the grids the seeded goldens and workloads were made with:
    # the Haiti models stepped days of WEEK / 7, the toys 1 / k of their week
    @pytest.mark.parametrize(
        "kwargs, steps, old_obs_times, old_step",
        [
            ({}, 7, np.arange(1, 11) * WEEK, 1.0 * (WEEK / 7.0)),
            ({"steps_per_week": 14}, 14, np.arange(1, 11) * WEEK, 0.5 * (WEEK / 7.0)),
            ({"steps_per_week": 28}, 28, np.arange(1, 11) * WEEK, 0.25 * (WEEK / 7.0)),
            ({"week": 1.0, "steps_per_week": 1}, 1, np.arange(1, 11, dtype=float), 1.0),
            ({"week": 1.0, "steps_per_week": 2}, 2, np.arange(1, 11, dtype=float), 1 / 2),
            ({"week": 1.0, "steps_per_week": 4}, 4, np.arange(1, 11, dtype=float), 1 / 4),
            ({"week": 1.0, "steps_per_week": 56}, 56, np.arange(1, 11, dtype=float), 1 / 56),
            ({"week": 1.0, "steps_per_week": 336}, 336, np.arange(1, 11, dtype=float), 1 / 336),
        ],
    )
    def test_weekly_grid_one_day_default(self, kwargs, steps, old_obs_times, old_step):
        g = weekly_grid(10, **kwargs)
        assert g.t0 == 0.0 and g.n_obs == 10
        assert np.array_equal(g.obs_times, old_obs_times)  # bit for bit
        assert g.euler_step == old_step
        n, _ = g.substeps(g.t0, g.obs_times[0])
        assert n == steps

    @pytest.mark.parametrize("n_weeks, steps_per_week", [(0, 7), (10, 0)])
    def test_weekly_grid_needs_a_week_and_a_step(self, n_weeks, steps_per_week):
        with pytest.raises(ValidationError, match="must be >= 1"):
            weekly_grid(n_weeks, steps_per_week=steps_per_week)


class TestObservationSeries:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ObservationSeries(("a",), np.array([[1.0, -2.0]]))
        with pytest.raises(ValidationError):
            ObservationSeries(("a",), np.array([[1.5, 2.0]]))
        with pytest.raises(ValidationError):
            ObservationSeries(("a", "b"), np.array([[1.0, 2.0]]))
        s = ObservationSeries(("a",), np.array([[1.0, np.nan, 3.0]]))
        assert s.n_obs == 3

    def test_aggregate_missing_propagates(self):
        s = ObservationSeries(("a", "b"), np.array([[1.0, np.nan], [2.0, 5.0]]))
        agg = s.aggregate()
        assert agg.values[0, 0] == 3.0
        assert np.isnan(agg.values[0, 1])


class TestStandardizeRainfall:
    def test_direct_division(self):
        out = standardize_rainfall(np.array([[2.0, 4.0, 8.0]]), ["a"])
        np.testing.assert_allclose(out, [[0.25, 0.5, 1.0]])

    def test_per_unit_maxima(self):
        out = standardize_rainfall(np.array([[1.0, 2.0], [10.0, 20.0]]), ["a", "b"])
        np.testing.assert_allclose(out, [[0.5, 1.0], [0.5, 1.0]])

    def test_constant_series(self):
        out = standardize_rainfall(np.array([[5.0, 5.0, 5.0]]), ["a"])
        np.testing.assert_allclose(out, [[1.0, 1.0, 1.0]])

    def test_all_zero_unit_named_in_error(self):
        with pytest.raises(ValidationError, match="Sud"):
            standardize_rainfall(np.array([[1.0, 2.0], [0.0, 0.0]]), ["Nord", "Sud"])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=30).filter(
            lambda xs: max(xs) > 0
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_max_is_exactly_one(self, xs):
        out = standardize_rainfall(np.array([xs]), ["a"])
        assert out.max() == 1.0
        assert out.min() >= 0.0


class TestCovariateTable:
    def test_coverage_error_names_interval(self):
        c = CovariateTable(times=np.arange(5) * WEEK, rainfall=np.full((2, 5), 0.5), units=("a", "b"))
        with pytest.raises(CoverageError, match="uncovered"):
            c.check_span(0.0, 1.0)
        c.check_span(0.0, 5 * WEEK)

    def test_piecewise_constant_lookup(self):
        c = CovariateTable(times=np.array([0.0, 1.0]), step=1.0,
                           rainfall=np.array([[0.2, 0.9]]), units=("a",))
        assert c.rainfall_at(0.0)[0] == 0.2
        assert c.rainfall_at(0.999)[0] == 0.2
        assert c.rainfall_at(1.0)[0] == 0.9
        with pytest.raises(CoverageError):
            c.rainfall_at(2.5)

    def test_rainfall_names_one_unit_per_row(self):
        with pytest.raises(ValidationError, match="one unit per row"):
            CovariateTable(times=np.array([0.0]), rainfall=np.array([[0.5], [0.5]]))
        with pytest.raises(ValidationError, match="one unit per row"):
            CovariateTable(times=np.array([0.0]), rainfall=np.array([[0.5], [0.5]]), units=("a",))

    def test_rainfall_must_be_standardized(self):
        with pytest.raises(ValidationError):
            CovariateTable(times=np.array([0.0]), rainfall=np.array([[1.5]]), units=("a",))
