import numpy as np
import pytest
from hypothesis import given, strategies as st

from edue.demand import DemandDomainError, InverseDemand
from edue.grid import ShapeError


class TestConstruction:
    @pytest.mark.parametrize("cap", ["omitted", None, [None, None], [None, 80.0]])
    def test_default_cap(self, cap):
        intercept, slope = [1.0, 1.0], [1 / 120.0, 0.01]
        args = () if cap == "omitted" else (cap,)
        d = InverseDemand(intercept, slope, *args)
        # bit-equal: computed in this order
        assert d.cap[0] == 0.95 * 1.0 / (1 / 120.0)
        assert d.cap[1] == (80.0 if cap == [None, 80.0] else 0.95 * 1.0 / 0.01)

    def test_zero_slope_needs_explicit_cap(self):
        with pytest.raises(ValueError, match="OD pair index 1: a demand cap is required"):
            InverseDemand(intercept=[1.0, 60.0], slope=[0.01, 0.0])
        d = InverseDemand(intercept=[60.0], slope=[0.0], cap=[500.0])
        assert d.cap[0] == 500.0

    @pytest.mark.parametrize("intercept, cap", [([1.0, 1e300], [80.0, 1e300]),
                                                ([1.0, 1e200], [80.0, 1e200])])
    def test_overflowing_demand_scale_rejected_naming_the_pair(self, intercept, cap):
        # each value finite, but the gap's term intercept * cap overflows
        with pytest.raises(ValueError, match=r"^OD pair index 1: intercept \* cap must be finite$"):
            InverseDemand(intercept, [0.01, 0.0], cap)
        d = InverseDemand([1e150, 1.0], [0.0, 0.01], [1e150, 80.0])  # 1e300: finite
        assert d.cap.tolist() == [1e150, 80.0]
        # a tiled stack of the one copy passes too: the check is per pair
        InverseDemand(np.tile(d.intercept, 25), np.tile(d.slope, 25), np.tile(d.cap, 25))

    def test_nonpositive_intercept_rejected(self):
        with pytest.raises(ValueError):
            InverseDemand(np.array([0.0]), np.array([0.5]), np.array([10.0]))

    def test_cap_must_keep_value_positive(self):
        with pytest.raises(ValueError):
            InverseDemand(np.array([60.0]), np.array([0.5]), np.array([120.0]))

    @pytest.mark.parametrize("intercept, slope, cap, message", [
        ([1.0, 1.0], [0.01], [80.0, 80.0],
         "intercept, slope and cap must be flat vectors of equal length"),
        ([[1.0]], [[0.01]], [[80.0]],
         "intercept, slope and cap must be flat vectors of equal length"),
        ([1.0], [-0.01], [80.0], "inverse-demand slopes must be nonnegative"),
        ([1.0], [0.01], [0.0], "demand caps must be strictly positive"),
        ([1.0], [0.0], [-5.0], "demand caps must be strictly positive"),
    ])
    def test_bad_vectors_rejected(self, intercept, slope, cap, message):
        with pytest.raises(ValueError) as info:
            InverseDemand(intercept, slope, cap)
        assert str(info.value) == message

    @pytest.mark.parametrize("intercept, slope, cap, field", [
        ([np.nan], [0.01], [80.0], "intercept"),
        ([1.0], [np.nan], [80.0], "slope"),
        ([1.0], [0.0], [np.inf], "cap"),
        ([1.0], [0.01], [np.nan], "cap"),  # a nan cap is no missing one
    ])
    def test_non_finite_rejected_naming_the_field(self, intercept, slope, cap, field):
        with pytest.raises(ValueError, match=f"inverse-demand {field} must be finite"):
            InverseDemand(intercept, slope, cap)


class TestTheta:
    def test_linear_value(self):
        d = InverseDemand(np.array([60.0]), np.array([0.5]), np.array([100.0]))
        assert d.theta(np.array([40.0]))[0] == pytest.approx(40.0)

    def test_domain_violation_names_the_pair(self):
        d = InverseDemand(np.array([60.0]), np.array([0.5]), np.array([100.0]))
        with pytest.raises(DemandDomainError, match="0"):
            d.theta(np.array([150.0]))
        with pytest.raises(DemandDomainError):
            d.theta(np.array([-1.0]))
        with pytest.raises(DemandDomainError):
            d.theta(np.array([np.nan]))

    @pytest.mark.parametrize("demand", [[5.0], [[5.0, 5.0, 5.0]], [5.0, 5.0, 5.0, 5.0], 5.0])
    def test_demand_of_the_wrong_shape_rejected(self, demand):
        # three OD pairs: one value used to broadcast to three, a (1, 3)
        # array to a (1, 3) result
        d = InverseDemand(np.full(3, 60.0), np.full(3, 0.5), np.full(3, 100.0))
        with pytest.raises(ShapeError, match=r"shape \(OD pairs,\) = \(3,\)"):
            d.theta(np.array(demand))

    def test_positive_on_domain(self):
        d = InverseDemand(np.array([60.0]), np.array([0.5]), np.array([100.0]))
        for q in np.linspace(0.0, 100.0, 11):
            assert d.theta(np.array([q]))[0] > 0.0

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0))
    def test_theta_strictly_decreasing(self, q1, q2):
        d = InverseDemand(np.array([60.0]), np.array([0.5]), np.array([100.0]))
        lo, hi = sorted((q1, q2))
        t_lo = d.theta(np.array([lo]))[0]
        t_hi = d.theta(np.array([hi]))[0]
        assert t_hi <= t_lo
        if hi > lo + 1e-9:
            assert t_hi < t_lo
