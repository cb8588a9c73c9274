import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from edue import verify
from edue.cli import write_costs_csv
from edue.cost import CostField
from edue.grid import ExtendedPoint, ShapeError, TimeGrid
from edue.network import Link, Network, Path as NetPath
from edue.solver import compute_gap, f_map, fixed_point_step, solve
from edue.verify import (best_response, due_residuals, is_feasible, random_probe, reduced_costs,
                         vi_lhs)

from conftest import corridor_network, grid_of, single_link_network


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


class TestReducedCostsShared:
    """reduced_costs forms its array once per CostField and network object."""

    def costs(self):
        return toy_costs([[0.5, 0.4], [0.7, 0.1], [0.3, 0.9], [0.6, 0.6]], [0.45, 0.35])

    def test_same_field_and_network_give_the_same_array(self):
        net, costs = corridor_network(2), self.costs()
        assert reduced_costs(costs, net) is reduced_costs(costs, net)

    def test_array_is_read_only_and_formed_bit_for_bit(self):
        net, costs = corridor_network(2), self.costs()
        rc = reduced_costs(costs, net)
        assert not rc.flags.writeable
        want = costs.psi - costs.theta[net.path_od, None]
        assert rc.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            rc[0, 0] = 0.0

    def test_another_network_object_gets_its_own_array(self):
        net, costs = corridor_network(2), self.costs()
        rc = reduced_costs(costs, net)
        other = net.copies(1)
        rc_other = reduced_costs(costs, other)
        assert rc_other is not rc
        assert rc_other.tobytes() == rc.tobytes()
        # the memo holds one network: back on the first, a fresh array
        assert reduced_costs(costs, other) is rc_other
        assert reduced_costs(costs, net) is not rc

    def test_memo_is_no_field(self):
        net, costs = corridor_network(2), self.costs()
        before = repr(costs)
        reduced_costs(costs, net)
        assert repr(costs) == before
        assert [f.name for f in dataclasses.fields(costs)] == ["psi", "theta"]
        fresh = dataclasses.replace(costs)
        assert reduced_costs(fresh, net) is not reduced_costs(costs, net)

    def test_gap_residuals_step_and_costs_file_share_one_formation(self, monkeypatch,
                                                                  tmp_path):
        net, costs = corridor_network(2), self.costs()
        grid = TimeGrid(0.0, 1.0, 2)
        point = ExtendedPoint.from_matrix(grid, np.full((4, 2), 10.0), [20.0, 20.0])
        formed = []
        form = verify._form_reduced_costs
        monkeypatch.setattr(verify, "_form_reduced_costs",
                            lambda c, n: formed.append(c) or form(c, n))
        caps = np.full(2, 50.0)
        compute_gap(point, costs, net, caps)
        fixed_point_step(point, costs, net, 1.0, caps)
        due_residuals(point, costs, net)
        best_response(costs, net, caps, grid)
        write_costs_csv(tmp_path / "costs.csv", net, costs)
        assert formed == [costs]


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


class TestCellCount:
    """A cost array with a path's row but other cells than the flows raises
    ShapeError naming both shapes. Unchecked, compute_gap fails to reshape
    it, due_residuals to broadcast it, best_response returns a point and
    vi_lhs, which flattens both arrays, a number."""

    @pytest.mark.parametrize("name", ["fixed_point_step", "compute_gap", "due_residuals"])
    def test_cost_cells_checked(self, two_parallel_elastic, name):
        grid = TimeGrid(0.0, 1.0, 2)
        point = ExtendedPoint.from_matrix(grid, np.full((2, 2), 10.0), [20.0])
        costs = toy_costs(np.full((2, 3), 0.5), [0.5])
        with pytest.raises(ShapeError, match=r"shape \(2, 2\), got shape \(2, 3\)"):
            ROW_CHECKED[name](point, costs, two_parallel_elastic["network"])

    @pytest.mark.parametrize("rows", [1, 3])
    def test_best_response_checks_cost_rows(self, two_parallel_elastic, rows):
        costs = toy_costs(np.full((rows, 2), 0.5), [0.6])
        with pytest.raises(ShapeError, match=r"one row per path \(2\), got " + str(rows)):
            best_response(costs, two_parallel_elastic["network"], np.array([20.0]),
                          TimeGrid(0.0, 1.0, 2))

    @pytest.mark.parametrize("cells", [1, 3])
    def test_best_response_checks_cost_cells_against_the_grid(self, two_parallel_elastic, cells):
        costs = toy_costs(np.full((2, cells), 0.5), [0.6])
        with pytest.raises(ShapeError, match=r"shape \(2, 2\), got shape \(2, " + str(cells)):
            best_response(costs, two_parallel_elastic["network"], np.array([20.0]),
                          TimeGrid(0.0, 1.0, 2))

    @pytest.mark.parametrize("shape, message", [
        ((4, 1), r"one row per path \(2\), got 4"),
        ((1, 4), r"one row per path \(2\), got 1"),
        ((2, 3), r"shape \(2, 2\), got shape \(2, 3\)"),
    ])
    def test_vi_lhs_checks_cost_shape(self, two_parallel_elastic, shape, message):
        grid = TimeGrid(0.0, 1.0, 2)
        x = ExtendedPoint.from_matrix(grid, np.full((2, 2), 10.0), [20.0])
        y = ExtendedPoint.from_matrix(grid, np.full((2, 2), 5.0), [10.0])
        costs = toy_costs(np.full(shape, 0.5), [0.6])
        with pytest.raises(ShapeError, match=message):
            vi_lhs(x, y, costs, two_parallel_elastic["network"])


# the functions that take a per-OD bound vector (demand caps or pinned demands)
CAPS_CHECKED = {
    "fixed_point_step": lambda x, c, net, caps: fixed_point_step(x, c, net, 1.0, caps, pinned=True),
    "compute_gap": compute_gap,
    "best_response": lambda x, c, net, caps: best_response(c, net, caps, x.grid),
    "random_probe": lambda x, c, net, caps: random_probe(np.random.default_rng(0), net, caps,
                                                         x.grid),
}


@pytest.mark.parametrize("entries", [1, 3])
@pytest.mark.parametrize("name", list(CAPS_CHECKED))
def test_cap_length_names_the_od_count(name, entries):
    """A bound vector whose length is not the OD count raises ShapeError: one
    entry would otherwise broadcast over both OD pairs of the corridor."""
    net = corridor_network(2)
    grid = TimeGrid(0.0, 1.0, 2)
    point = ExtendedPoint.from_matrix(grid, np.full((4, 2), 10.0), [20.0, 20.0])
    costs = toy_costs(np.full((4, 2), 0.5), [0.6, 0.6])
    with pytest.raises(ShapeError, match=r"one entry per OD pair \(2\), got shape \(" + str(entries)):
        CAPS_CHECKED[name](point, costs, net, np.full(entries, 50.0))


# the functions that read a cost field's demand values (theta)
THETA_CHECKED = {
    "reduced_costs": lambda x, c, net: reduced_costs(c, net),
    "fixed_point_step": lambda x, c, net: fixed_point_step(x, c, net, 1.0, np.full(2, 50.0)),
    "compute_gap": lambda x, c, net: compute_gap(x, c, net, np.full(2, 50.0)),
    "due_residuals": due_residuals,
    "best_response": lambda x, c, net: best_response(c, net, np.full(2, 50.0), x.grid),
    "write_costs_csv": lambda x, c, net: write_costs_csv(Path(os.devnull), net, c),
}


@pytest.mark.parametrize("entries", [1, 3])
@pytest.mark.parametrize("name", list(THETA_CHECKED))
def test_theta_length_names_the_od_count(name, entries):
    """Demand values whose length is not the OD count raise ShapeError: one
    entry would otherwise broadcast over both OD pairs, and three give a
    number without complaint."""
    net = corridor_network(2)
    grid = TimeGrid(0.0, 1.0, 2)
    point = ExtendedPoint.from_matrix(grid, np.full((4, 2), 10.0), [20.0, 20.0])
    costs = toy_costs(np.full((4, 2), 0.5), np.full(entries, 0.6))
    with pytest.raises(ShapeError, match=r"demand values must hold one entry per OD pair \(2\), "
                                         r"got shape \(" + str(entries)):
        THETA_CHECKED[name](point, costs, net)


@pytest.mark.parametrize("entries", [1, 3])
@pytest.mark.parametrize("name", ["due_residuals", "is_feasible"])
def test_demand_length_names_the_od_count(name, entries):
    """A point whose demand vector is not one entry per OD pair raises
    ShapeError: is_equilibrium would otherwise broadcast one demand over
    both OD pairs."""
    net = corridor_network(2)
    grid = TimeGrid(0.0, 1.0, 2)
    point = ExtendedPoint.from_matrix(grid, np.full((4, 2), 10.0), np.full(entries, 20.0))
    costs = toy_costs(np.full((4, 2), 0.5), [0.6, 0.6])
    with pytest.raises(ShapeError, match=r"demands must hold one entry per OD pair \(2\), "
                                         r"got shape \(" + str(entries)):
        ROW_CHECKED[name](point, costs, net)
