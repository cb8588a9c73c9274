import numpy as np
import pytest

from edue.cost import CostField
from edue.grid import ExtendedPoint, TimeGrid
from edue.solver import compute_gap, f_map, solve
from edue.verify import best_response, due_residuals, random_probe, vi_lhs

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
