import numpy as np
import pytest

from edue.grid import ExtendedPoint, ShapeError, TimeGrid
from edue.network import Link, Network, Path as NetPath
from edue.verify import is_feasible

from conftest import single_link_network


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

    def test_rejects_bool_count(self):
        with pytest.raises(ValueError, match="cell count must be an integer >= 1, got True"):
            TimeGrid(0.0, 1.0, True)

    def test_numpy_integer_count_stored_as_int(self):
        grid = TimeGrid(0.0, 1.0, np.int64(4))
        assert type(grid.n) is int and grid.n == 4

    @pytest.mark.parametrize("t0, tf, field", [
        (0.0, float("inf"), "tf"),
        (float("-inf"), 0.0, "t0"),
        (float("nan"), 1.0, "t0"),
    ])
    def test_rejects_non_finite_horizon_naming_the_field(self, t0, tf, field):
        with pytest.raises(ValueError, match=f"horizon {field} must be finite"):
            TimeGrid(t0, tf, 4)

    @pytest.mark.parametrize("t0, tf, field", [
        (None, 1.0, "t0"),
        (0.0, "1", "tf"),
        (True, 2.0, "t0"),
    ])
    def test_rejects_a_horizon_that_is_no_real_number_naming_the_field(self, t0, tf, field):
        with pytest.raises(ValueError, match=f"horizon {field} must be a real number"):
            TimeGrid(t0, tf, 4)


def _point(grid, rows, demands):
    return ExtendedPoint.from_matrix(grid, np.asarray(rows, dtype=float), demands)


class TestFeasibility:
    def test_conserving_point_is_feasible(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[2.0, 2.0]], [2.0])
        assert is_feasible(x, single_link_network())

    def test_violating_point_is_not(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[2.0, 2.0]], [3.0])
        assert not is_feasible(x, single_link_network())

    def test_negative_flow_is_infeasible(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[-1.0, 3.0]], [1.0])
        assert not is_feasible(x, single_link_network())

    def test_demand_vector_length_checked(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[2.0, 2.0]], [2.0, 0.0])
        with pytest.raises(ShapeError, match="one entry per OD pair"):
            is_feasible(x, single_link_network())

    def test_path_count_checked(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[1.0, 1.0], [1.0, 1.0]], [2.0])
        with pytest.raises(ShapeError, match=r"one row per path \(1\)"):
            is_feasible(x, single_link_network())

    def test_conservation_tolerance_is_relative_to_demand(self):
        g = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        # the flows carry 200 vehicles; the tolerance is 1e-9 * 200
        assert is_feasible(_point(g, [[200.0, 200.0]], [200.0 * (1.0 + 5e-10)]), net)
        assert not is_feasible(_point(g, [[200.0, 200.0]], [200.0 * (1.0 + 5e-9)]), net)

    def test_conservation_tolerance_floor_for_small_demands(self):
        g = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        # below one vehicle the tolerance stays at 1e-9 vehicles
        assert is_feasible(_point(g, [[5e-10, 5e-10]], [0.0]), net)
        assert not is_feasible(_point(g, [[5e-9, 5e-9]], [0.0]), net)

    def test_each_od_pair_conserves_its_own_demand(self):
        links = (
            Link("a", "O1", "D", free_flow_time=0.1, exit_capacity=100.0),
            Link("b", "O2", "D", free_flow_time=0.1, exit_capacity=100.0),
        )
        paths = (NetPath("p1", ("a",), "O1", "D"), NetPath("p2", ("b",), "O2", "D"))
        net = Network(links=links, paths=paths, arrival_target=0.5)
        g = TimeGrid(0.0, 1.0, 2)
        rows = [[2.0, 2.0], [4.0, 4.0]]
        assert is_feasible(_point(g, rows, [2.0, 4.0]), net)
        # same total volume, split across the pairs the wrong way
        assert not is_feasible(_point(g, rows, [4.0, 2.0]), net)

    def test_negative_demand_is_infeasible(self):
        g = TimeGrid(0.0, 1.0, 2)
        x = _point(g, [[0.0, 0.0]], [-1e-12])
        assert not is_feasible(x, single_link_network())

    def test_profile_length_checked(self):
        g = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(ShapeError):
            ExtendedPoint(g, [[1.0, 2.0]], [0.0])

    @pytest.mark.parametrize("demands", [[[3.0]], 3.0])
    def test_demands_must_be_a_flat_vector(self, demands):
        with pytest.raises(ShapeError, match="demands must be a flat vector, one entry per OD pair"):
            ExtendedPoint(TimeGrid(0.0, 1.0, 2), [[1.0, 2.0]], demands)
