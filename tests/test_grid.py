import numpy as np
import pytest
from hypothesis import given, strategies as st

from edue.grid import (
    ExtendedPoint,
    ShapeError,
    TimeGrid,
    conservation_residuals,
    essential_infimum,
    inner_product,
    integrate,
    is_feasible,
)


def profiles(draw, n=None, lo=-50.0, hi=50.0):
    """A step function: its grid and its cell values."""
    n = n if n is not None else draw(st.integers(1, 12))
    grid = TimeGrid(0.0, draw(st.floats(0.5, 10.0)), n)
    vals = draw(
        st.lists(st.floats(lo, hi, allow_nan=False), min_size=n, max_size=n)
    )
    return grid, np.array(vals)


profile_st = st.composite(profiles)()


class TestTimeGrid:
    def test_uniform_cells(self):
        g = TimeGrid(1.0, 3.0, 8)
        widths = np.diff(g.boundaries)
        assert np.allclose(widths, g.dt)
        assert g.dt == 0.25

    def test_rejects_degenerate_horizon(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 4)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("t0, tf, field", [
        (0.0, float("inf"), "tf"),
        (float("-inf"), 0.0, "t0"),
        (float("nan"), 1.0, "t0"),
    ])
    def test_rejects_non_finite_horizon_naming_the_field(self, t0, tf, field):
        with pytest.raises(ValueError, match=f"horizon {field} must be finite"):
            TimeGrid(t0, tf, 4)


class TestIntegrate:
    def test_two_cell_example(self):
        g = TimeGrid(0.0, 1.0, 2)
        assert integrate(g, [3.0, 1.0]) == 2.0

    def test_zero_profile(self):
        g = TimeGrid(0.0, 5.0, 7)
        assert integrate(g, np.zeros(7)) == 0.0

    def test_constant_function(self):
        g = TimeGrid(0.0, 2.0, 4)
        assert integrate(g, [1.0, 1.0, 1.0, 1.0]) == 2.0

    @given(profile_st, st.integers(0, 1 << 30))
    def test_additive_over_cell_subsets(self, prof, seed):
        grid, vals = prof
        rng = np.random.default_rng(seed)
        mask = rng.random(grid.n) < 0.5
        part1 = np.where(mask, vals, 0.0)
        part2 = np.where(mask, 0.0, vals)
        total = integrate(grid, part1) + integrate(grid, part2)
        assert total == pytest.approx(integrate(grid, vals), rel=1e-12, abs=1e-12)


class TestEssentialInfimum:
    def test_min_of_values(self):
        assert essential_infimum([3.0, 1.0, 2.0]) == 1.0

    def test_constant(self):
        assert essential_infimum([2.5] * 4) == 2.5

    def test_single_low_cell(self):
        assert essential_infimum([10.0, 0.5, 10.0]) == 0.5

    @given(profile_st)
    def test_never_exceeds_mean(self, prof):
        grid, vals = prof
        mean = integrate(grid, vals) / (grid.tf - grid.t0)
        assert essential_infimum(vals) <= mean + 1e-12


def _point(grid, rows, demands):
    return ExtendedPoint.from_matrix(grid, np.asarray(rows, dtype=float), demands)


class TestInnerProduct:
    def test_norm_of_constant(self):
        g = TimeGrid(0.0, 1.0, 4)
        x = _point(g, [[1.0] * 4], [2.0])
        assert inner_product(x, x) == pytest.approx(5.0)

    def test_zero_element(self):
        g = TimeGrid(0.0, 1.0, 4)
        x = _point(g, [[1.0, 2.0, 3.0, 4.0]], [7.0])
        y = _point(g, [[0.0] * 4], [0.0])
        assert inner_product(x, y) == 0.0

    def test_orthogonal_by_construction(self):
        g = TimeGrid(0.0, 2.0, 2)
        x = _point(g, [[1.0, -1.0]], [0.0])
        y = _point(g, [[1.0, 1.0]], [5.0])
        assert inner_product(x, y) == 0.0

    def test_shape_mismatch_raises(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[1.0, 2.0]], [1.0])
        y = _point(g, [[1.0, 2.0], [0.0, 0.0]], [1.0])
        with pytest.raises(ShapeError):
            inner_product(x, y)

    @given(st.data())
    def test_cauchy_schwarz(self, data):
        n = data.draw(st.integers(1, 8))
        g = TimeGrid(0.0, data.draw(st.floats(0.5, 4.0)), n)
        vals = st.floats(-20.0, 20.0, allow_nan=False)
        mk = lambda: _point(
            g,
            [data.draw(st.lists(vals, min_size=n, max_size=n))],
            [data.draw(vals)],
        )
        x, y = mk(), mk()
        lhs = abs(inner_product(x, y))
        rhs = np.sqrt(inner_product(x, x)) * np.sqrt(inner_product(y, y))
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)

    @given(st.data())
    def test_bilinear(self, data):
        n = data.draw(st.integers(1, 6))
        g = TimeGrid(0.0, 1.0, n)
        vals = st.floats(-10.0, 10.0, allow_nan=False)
        mk = lambda: _point(
            g,
            [data.draw(st.lists(vals, min_size=n, max_size=n))],
            [data.draw(vals)],
        )
        x, y = mk(), mk()
        a = data.draw(st.floats(-5.0, 5.0, allow_nan=False))
        ax = _point(g, [a * x.flows[0]], [a * x.demands[0]])
        assert inner_product(ax, y) == pytest.approx(
            a * inner_product(x, y), rel=1e-9, abs=1e-9
        )


class TestFeasibility:
    def test_conserving_point_is_feasible(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[2.0, 2.0]], [2.0])
        assert is_feasible(x, [(0,)])

    def test_violating_point_is_not(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[2.0, 2.0]], [3.0])
        assert not is_feasible(x, [(0,)])
        res = conservation_residuals(x, [(0,)])
        assert res[0] == pytest.approx(-1.0)

    def test_negative_flow_is_infeasible(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[-1.0, 3.0]], [1.0])
        assert not is_feasible(x, [(0,)])

    def test_profile_length_checked(self):
        g = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ShapeError):
            ExtendedPoint(g, [[1.0, 2.0]], [0.0])
