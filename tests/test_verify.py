import numpy as np
import pytest

from edue.cost import CostField
from edue.grid import ExtendedPoint, ShapeError, TimeGrid
from edue.network import Link, Network, Path as NetPath
from edue.solver import compute_gap, f_map, fixed_point_step, solve
from edue.verify import best_response, due_residuals, is_feasible, random_probe, vi_lhs

from conftest import grid_of, single_link_network


def toy_costs(psi_vals, theta):
    return CostField(psi=psi_vals, theta=theta)


class TestResiduals:
    def test_exact_complementarity_gives_zero_residuals(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[0.0, 30.0]]), np.array([15.0]))
        costs = toy_costs([[0.5, 0.3]], [0.3])
        rep = due_residuals(point, costs, net)
        assert rep.max_r1() == 0.0
        assert rep.max_r2() == 0.0
        assert rep.demand_gap[0] == 0.0
        assert rep.is_equilibrium()

    def test_flow_on_dear_cell_raises_r1(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[10.0, 30.0]]), np.array([20.0]))
        costs = toy_costs([[0.5, 0.3]], [0.3])
        rep = due_residuals(point, costs, net)
        # 10 veh/h * 0.2 h excess * 0.5 h cell width
        assert rep.r1[0] == pytest.approx(10.0 * 0.2 * 0.5)
        assert not rep.is_equilibrium()

    def test_underpriced_unused_cell_raises_r2(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[0.0, 30.0]]), np.array([15.0]))
        costs = toy_costs([[0.2, 0.3]], [0.3])
        rep = due_residuals(point, costs, net)
        assert rep.r2[0] == pytest.approx(0.1)
        assert not rep.is_equilibrium()

    def test_zero_flow_uses_overall_minimum(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        point = ExtendedPoint.from_matrix(grid, np.zeros((1, 2)), np.array([0.0]))
        costs = toy_costs([[0.5, 0.3]], [0.3])
        rep = due_residuals(point, costs, net)
        assert rep.v[0] == pytest.approx(0.3)
        assert rep.max_r1() == 0.0

    def test_solver_output_passes(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"],
                       inst["config"], grid=grid)
        assert report.residuals.is_equilibrium()


class TestViLhs:
    def test_probe_at_solution_is_zero(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"],
                       inst["config"], grid=grid)
        assert vi_lhs(report.point, report.point, report.costs, inst["network"]) == 0.0

    def test_gap_is_max_negative_lhs_over_best_response(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        net = inst["network"]
        caps = inst["inv_demand"].cap
        rng = np.random.default_rng(9)
        for _ in range(10):
            point = random_probe(rng, net, caps, grid)
            costs = f_map(net, point, inst["penalty"], inst["inv_demand"], grid)
            br = best_response(costs, net, caps, grid)
            gap = compute_gap(point, costs, net, caps)
            assert -vi_lhs(point, br, costs, net) == pytest.approx(gap, abs=1e-10)

    def test_scaling_construction(self, congested_bottleneck):
        # Scaling the solution's flows of one OD by a changes the probe's
        # vi_lhs by (a - 1) * (v - theta) * Q, which realizes the sufficiency
        # argument that used-cell costs must equal the demand value.
        inst = congested_bottleneck
        grid = grid_of(inst)
        net = inst["network"]
        report = solve(net, inst["penalty"], inst["inv_demand"], inst["config"], grid=grid)
        x = report.point
        costs = report.costs
        res = report.residuals
        q = float(x.demands[0])
        for a in (0.5, 2.0):
            h = a * x.flows
            probe = ExtendedPoint.from_matrix(grid, h, np.array([a * q]))
            lhs = vi_lhs(x, probe, costs, net)
            predicted = (a - 1.0) * (res.v[0] - res.theta[0]) * q
            # agreement within the solve's own residual scale
            tol = abs(a - 1.0) * (res.r1[0] + res.demand_gap[0] * q) + 1e-9
            assert lhs == pytest.approx(predicted, abs=tol)

    def test_relabeling_invariance(self, two_parallel_elastic):
        # vi_lhs only pairs values; swapping the two symmetric paths in both
        # the solution and the probe leaves it unchanged.
        inst = two_parallel_elastic
        grid = grid_of(inst)
        net = inst["network"]
        rng = np.random.default_rng(4)
        x = random_probe(rng, net, inst["inv_demand"].cap, grid)
        probe = random_probe(rng, net, inst["inv_demand"].cap, grid)
        costs = f_map(net, x, inst["penalty"], inst["inv_demand"], grid)
        swap = lambda pt: ExtendedPoint.from_matrix(
            grid, pt.flows[::-1].copy(), pt.demands
        )
        costs_sw = CostField(psi=(costs.psi[1], costs.psi[0]), theta=costs.theta)
        assert vi_lhs(swap(x), swap(probe), costs_sw, net) == pytest.approx(
            vi_lhs(x, probe, costs, net), rel=1e-12
        )


class TestViLhsPairing:
    """vi_lhs is the pairing <psi, h' - h> - <theta, Q' - Q> of the extended
    space, with the flow part integrated exactly over the step functions."""

    @staticmethod
    def _setup():
        links = (
            Link("a", "O1", "D", free_flow_time=0.1, exit_capacity=100.0),
            Link("b", "O1", "D", free_flow_time=0.1, exit_capacity=100.0),
            Link("c", "O2", "D", free_flow_time=0.1, exit_capacity=100.0),
        )
        paths = (NetPath("p1", ("a",), "O1", "D"), NetPath("p2", ("b",), "O1", "D"),
                 NetPath("p3", ("c",), "O2", "D"))
        net = Network(links=links, paths=paths, arrival_target=0.5)
        grid = TimeGrid(0.0, 2.0, 4)
        rng = np.random.default_rng(5)
        costs = CostField(psi=rng.uniform(0.1, 1.0, size=(3, 4)), theta=[0.4, 0.7])
        points = [ExtendedPoint.from_matrix(grid, rng.uniform(0.0, 50.0, size=(3, 4)),
                                            rng.uniform(0.0, 80.0, size=2)) for _ in range(3)]
        return net, grid, costs, points

    def test_matches_cellwise_sum(self):
        net, grid, costs, (x, y, _) = self._setup()
        expected = 0.0
        for p in range(3):
            for j in range(grid.n):
                expected += costs.psi[p, j] * (y.flows[p, j] - x.flows[p, j]) * grid.dt
        for w in range(2):
            expected -= costs.theta[w] * (y.demands[w] - x.demands[w])
        assert vi_lhs(x, y, costs, net) == pytest.approx(expected, rel=1e-12)

    def test_affine_in_probe(self):
        net, grid, costs, (x, y, z) = self._setup()
        for a in (0.0, 0.3, 1.0, 2.5):
            mix = ExtendedPoint.from_matrix(grid, a * y.flows + (1.0 - a) * z.flows,
                                            a * y.demands + (1.0 - a) * z.demands)
            assert vi_lhs(x, mix, costs, net) == pytest.approx(
                a * vi_lhs(x, y, costs, net) + (1.0 - a) * vi_lhs(x, z, costs, net),
                rel=1e-12, abs=1e-9)

    def test_antisymmetric_in_solution_and_probe(self):
        net, _, costs, (x, y, _) = self._setup()
        assert vi_lhs(x, y, costs, net) == pytest.approx(-vi_lhs(y, x, costs, net), rel=1e-12)

    def test_probe_on_another_grid_rejected(self):
        net, grid, costs, (x, _, _) = self._setup()
        other = ExtendedPoint.from_matrix(TimeGrid(0.0, 1.0, 4), x.flows, x.demands)
        with pytest.raises(ShapeError, match="grid and path set"):
            vi_lhs(x, other, costs, net)

    def test_probe_with_another_od_set_rejected(self):
        net, grid, costs, (x, _, _) = self._setup()
        other = ExtendedPoint.from_matrix(grid, x.flows, np.append(x.demands, 1.0))
        with pytest.raises(ShapeError, match="OD set"):
            vi_lhs(x, other, costs, net)

class TestResponses:
    def test_best_response_concentrates_on_cheapest_cell(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        costs = toy_costs([[0.5, 0.2]], [0.3])
        br = best_response(costs, net, np.array([40.0]), grid)
        assert br.demands[0] == 40.0
        assert br.flows[0][1] == pytest.approx(80.0)
        assert br.flows[0][0] == 0.0

    def test_best_response_empty_when_overpriced(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = single_link_network()
        costs = toy_costs([[0.5, 0.4]], [0.3])
        br = best_response(costs, net, np.array([40.0]), grid)
        assert br.demands[0] == 0.0
        assert np.all(br.flows[0] == 0.0)

    def test_random_probe_feasible(self, two_parallel_elastic):
        inst = two_parallel_elastic
        grid = grid_of(inst)
        rng = np.random.default_rng(0)
        caps = inst["inv_demand"].cap
        for _ in range(50):
            probe = random_probe(rng, inst["network"], caps, grid)
            vol = float(probe.flows.sum()) * grid.dt
            assert vol == pytest.approx(float(probe.demands[0]), rel=1e-9)
            assert probe.demands[0] <= caps[0]


# the functions that check their flow rows (and cost rows, given costs)
ROW_CHECKED = {
    "fixed_point_step": lambda x, c, net: fixed_point_step(x, c, net, 1.0, np.array([50.0])),
    "compute_gap": lambda x, c, net: compute_gap(x, c, net, np.array([50.0])),
    "due_residuals": due_residuals,
    "is_feasible": lambda x, c, net: is_feasible(x, net),
}


class TestRowCount:
    """A point or cost field whose row count is not the path count raises
    ShapeError: one row would otherwise broadcast into a result of the right
    shape, three into NumPy's broadcast error."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("name", list(ROW_CHECKED))
    def test_flow_rows_checked(self, two_parallel_elastic, name, rows):
        grid = TimeGrid(0.0, 1.0, 2)
        point = ExtendedPoint.from_matrix(grid, np.full((rows, 2), 10.0), [10.0 * rows])
        costs = toy_costs(np.full((rows, 2), 0.5), [0.5])
        with pytest.raises(ShapeError, match=r"one row per path \(2\), got " + str(rows)):
            ROW_CHECKED[name](point, costs, two_parallel_elastic["network"])

    @pytest.mark.parametrize("name", ["fixed_point_step", "compute_gap", "due_residuals"])
    def test_cost_rows_checked(self, two_parallel_elastic, name):
        grid = TimeGrid(0.0, 1.0, 2)
        point = ExtendedPoint.from_matrix(grid, np.full((2, 2), 10.0), [20.0])
        costs = toy_costs(np.full((1, 2), 0.5), [0.5])
        with pytest.raises(ShapeError, match=r"one row per path \(2\), got 1"):
            ROW_CHECKED[name](point, costs, two_parallel_elastic["network"])
