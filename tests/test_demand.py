import numpy as np
import pytest
from hypothesis import given, strategies as st

from edue.demand import DemandDomainError, InverseDemand


class TestConstruction:
    def test_default_cap(self):
        d = InverseDemand.build(intercept=[60.0], slope=[0.5])
        assert d.cap[0] == pytest.approx(0.95 * 60.0 / 0.5)

    def test_zero_slope_needs_explicit_cap(self):
        with pytest.raises(ValueError):
            InverseDemand.build(intercept=[60.0], slope=[0.0])
        d = InverseDemand.build(intercept=[60.0], slope=[0.0], cap=[500.0])
        assert d.cap[0] == 500.0

    def test_nonpositive_intercept_rejected(self):
        with pytest.raises(ValueError):
            InverseDemand(np.array([0.0]), np.array([0.5]), np.array([10.0]))

    def test_cap_must_keep_value_positive(self):
        with pytest.raises(ValueError):
            InverseDemand(np.array([60.0]), np.array([0.5]), np.array([120.0]))

    @pytest.mark.parametrize("intercept, slope, cap, field", [
        ([np.nan], [0.01], [80.0], "intercept"),
        ([1.0], [np.nan], [80.0], "slope"),
        ([1.0], [0.0], [np.inf], "cap"),
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
