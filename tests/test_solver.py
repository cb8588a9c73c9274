import numpy as np
import pytest

from edue.cost import CostField, SchedulePenalty
from edue.demand import InverseDemand
from edue.grid import ExtendedPoint, ShapeError, TimeGrid
from edue.network import Link, Network, Path
from edue.solver import (
    SolverConfig,
    compute_gap,
    f_map,
    fixed_point_step,
    lemma2_bound,
    reduced_costs,
    solve,
    zero_point,
)
from edue.verify import is_feasible

from conftest import grid_of, single_link_network
from oracles import bisect_demand

MIN = 1 / 60.0


class TestFMap:
    def test_zero_flow_gives_free_flow_costs_and_intercepts(self, uncongested_elastic):
        inst = uncongested_elastic
        grid = grid_of(inst)
        point = zero_point(inst["network"], grid)
        costs = f_map(inst["network"], point, inst["penalty"], inst["inv_demand"], grid)
        assert costs.theta[0] == pytest.approx(inst["inv_demand"].intercept[0])
        # minimum free-flow effective delay is the 10-minute travel time,
        # attained at the cell whose exits straddle the arrival target
        assert costs.psi[0].min() > 1 / 6 - 1e-12
        assert costs.psi[0].min() < 1 / 6 + inst["penalty"].late * grid.dt

    def test_symmetric_flows_give_symmetric_costs(self, two_parallel_elastic):
        inst = two_parallel_elastic
        grid = grid_of(inst)
        h = np.full((2, grid.n), 150.0)
        point = ExtendedPoint.from_matrix(grid, h, np.array([300.0 * (grid.tf - grid.t0)]))
        costs = f_map(inst["network"], point, inst["penalty"], inst["inv_demand"], grid)
        assert np.allclose(costs.psi[0], costs.psi[1])

    def test_bottleneck_costs_match_hand_composition(self):
        # inflow 120 veh/h on [0, 10] min against 60 veh/h: departure at the
        # 10-minute boundary exits at 25 min; target 45 min, beta = 0.5 gives
        # effective delay 15 + 0.5 * 20 = 25 min at that endpoint.
        net = single_link_network(tau=5 * MIN, capacity=60.0, arrival_target=45 * MIN)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        point = ExtendedPoint.from_matrix(
            grid, np.array([[120.0, 120.0]]), np.array([20.0])
        )
        dem = InverseDemand([1.0], [0.01], [90.0])
        costs = f_map(net, point, SchedulePenalty(0.5, 2.0), dem, grid)
        # cell 1 endpoints: depart 5 min -> exit 15 min (psi = 10 + 15 = 25);
        # depart 10 min -> exit 25 min (psi = 15 + 10 = 25)
        assert costs.psi[0][1] == pytest.approx(25 * MIN, rel=1e-9)

    def test_pinned_mode_theta_is_min_cell_cost(self, uncongested_elastic):
        inst = uncongested_elastic
        grid = grid_of(inst)
        point = zero_point(inst["network"], grid)
        costs = f_map(inst["network"], point, inst["penalty"], None, grid)
        assert costs.theta[0] == pytest.approx(float(costs.psi[0].min()))


def toy_costs(psi_vals, theta):
    return CostField(psi=psi_vals, theta=theta)


def toy_network():
    return single_link_network(tau=0.1, capacity=1e5, arrival_target=0.5)


class TestReducedCostAndStep:
    def test_reduced_cost_arithmetic(self):
        net = toy_network()
        costs = toy_costs([[45 * MIN, 40 * MIN]], [40 * MIN])
        rc = reduced_costs(costs, net)
        assert rc[0][0] == pytest.approx(5 * MIN)
        assert rc[0][1] == pytest.approx(0.0)

    def test_step_clips_at_zero(self):
        grid = TimeGrid(0.0, 1.0, 1)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0]]), np.array([2.0]))
        costs = toy_costs([[5.0 + 0.3]], [0.3])
        new = fixed_point_step(point, costs, net, alpha=1.0, caps=np.array([100.0]))
        assert new.flows[0][0] == 0.0
        assert new.demands[0] == 0.0

    def test_step_interior_descent(self):
        grid = TimeGrid(0.0, 1.0, 1)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0]]), np.array([2.0]))
        costs = toy_costs([[0.3 - 1.0]], [0.3])  # reduced cost -1
        new = fixed_point_step(point, costs, net, alpha=0.5, caps=np.array([100.0]))
        assert new.flows[0][0] == pytest.approx(2.5)
        assert new.demands[0] == pytest.approx(2.5)  # dt = 1

    def test_step_rescales_onto_cap(self):
        grid = TimeGrid(0.0, 1.0, 1)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0]]), np.array([2.0]))
        costs = toy_costs([[0.3 - 1.0]], [0.3])
        new = fixed_point_step(point, costs, net, alpha=0.5, caps=np.array([2.2]))
        assert new.demands[0] == pytest.approx(2.2)
        assert new.flows[0][0] == pytest.approx(2.2)

    def test_step_preserves_feasibility_on_random_points(self):
        rng = np.random.default_rng(3)
        grid = TimeGrid(0.0, 1.0, 4)
        net = toy_network()
        caps = np.array([50.0])
        for _ in range(25):
            h = rng.uniform(0.0, 80.0, size=(1, 4))
            point = ExtendedPoint.from_matrix(grid, h, np.array([h.sum() * grid.dt]))
            costs = toy_costs([rng.uniform(-1.0, 1.0, size=4)], [0.0])
            new = fixed_point_step(point, costs, net, alpha=rng.uniform(0.1, 5.0), caps=caps)
            assert is_feasible(new, net)
            assert new.demands[0] <= caps[0] + 1e-12


    def test_step_pinned_mode_rescales_onto_pinned_demand(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0, 2.0]]), np.array([2.0]))
        costs = toy_costs([[0.3, 0.3 - 2.0]], [0.3])  # cell 1 gains 1 veh/h
        pinned = np.array([4.0])
        new = fixed_point_step(point, costs, net, alpha=0.5, caps=pinned, pinned=True)
        # (2, 3) rescaled to carry 4 vehicles over cells of width 0.5
        assert new.demands[0] == 4.0
        assert new.flows[0] == pytest.approx([3.2, 4.8])

    def test_step_pinned_mode_restarts_a_clipped_pair_at_its_cheapest_cell(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0, 2.0]]), np.array([2.0]))
        costs = toy_costs([[5.3, 4.3]], [0.3])  # both cells clip to zero
        pinned = np.array([2.0])
        new = fixed_point_step(point, costs, net, alpha=1.0, caps=pinned, pinned=True)
        assert new.demands[0] == 2.0
        assert new.flows[0] == pytest.approx([0.0, 4.0])

class TestGap:
    def test_zero_flow_gap_is_negative_parts_times_caps(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = zero_point(net, grid)
        costs = toy_costs([[0.5, 0.2]], [0.3])  # c = -0.1 at cell 1
        caps = np.array([40.0])
        assert compute_gap(point, costs, net, caps) == pytest.approx(0.1 * 40.0)

    def test_equilibrium_point_has_zero_gap(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        # flow only on the zero-reduced-cost cell, demand consistent
        point = ExtendedPoint.from_matrix(grid, np.array([[0.0, 30.0]]), np.array([15.0]))
        costs = toy_costs([[0.5, 0.3]], [0.3])
        assert compute_gap(point, costs, net, np.array([40.0])) == pytest.approx(0.0, abs=1e-12)

    def test_misplaced_flow_has_positive_gap(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[30.0, 0.0]]), np.array([15.0]))
        costs = toy_costs([[0.5, 0.3]], [0.3])
        assert compute_gap(point, costs, net, np.array([40.0])) > 0.0

    def test_matches_brute_force_sup_over_vertex_responses(self):
        # gap = sup over feasible Y of <F(X), X - Y>; the sup is attained at a
        # vertex response per OD, enumerated here exhaustively.
        rng = np.random.default_rng(11)
        grid = TimeGrid(0.0, 1.0, 3)
        net = toy_network()
        caps = np.array([25.0])
        dt = grid.dt
        for _ in range(20):
            h = rng.uniform(0.0, 40.0, size=3)
            point = ExtendedPoint.from_matrix(grid, h[None, :], np.array([h.sum() * dt]))
            rc_vals = rng.uniform(-0.5, 0.5, size=3)
            theta = rng.uniform(0.1, 0.6)
            costs = toy_costs([rc_vals + theta], [theta])
            carried = float(np.dot(h, rc_vals)) * dt
            best = max(
                carried,  # Y = 0 response
                max(carried - rc_vals[j] * caps[0] for j in range(3)),
            )
            assert compute_gap(point, costs, net, caps) == pytest.approx(best, rel=1e-12)

    def test_gap_nonnegative_on_random_points(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        net = inst["network"]
        rng = np.random.default_rng(5)
        for _ in range(15):
            h = rng.uniform(0.0, 400.0, size=(1, grid.n))
            vol = min(h.sum() * grid.dt, float(inst["inv_demand"].cap[0]))
            h *= vol / (h.sum() * grid.dt)
            point = ExtendedPoint.from_matrix(grid, h, np.array([vol]))
            costs = f_map(net, point, inst["penalty"], inst["inv_demand"], grid)
            assert compute_gap(point, costs, net, inst["inv_demand"].cap) >= -1e-12


class TestFixedPointCharacterization:
    def test_zero_gap_iff_step_fixed(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        net = inst["network"]
        report = solve(net, inst["penalty"], inst["inv_demand"], inst["config"],
                       grid=grid)
        point = report.point
        costs = f_map(net, point, inst["penalty"], inst["inv_demand"], grid)
        gap = compute_gap(point, costs, net, inst["inv_demand"].cap)
        stepped = fixed_point_step(point, costs, net, 1.0, caps=inst["inv_demand"].cap)
        move = max(
            float(np.abs(stepped.flows - point.flows).max()),
            float(np.abs(stepped.demands - point.demands).max()),
        )
        # near-zero gap goes with a near-fixed point and vice versa
        scale = float(inst["inv_demand"].intercept[0] * inst["inv_demand"].cap[0])
        assert gap <= 1e-5 * scale
        assert move <= 1.0  # vehicles/hour, tiny against ~450 veh total
        # and a clearly non-fixed random point has a clearly positive gap
        rng = np.random.default_rng(2)
        h = rng.uniform(50.0, 300.0, size=(1, grid.n))
        probe = ExtendedPoint.from_matrix(grid, h, np.array([h.sum() * grid.dt]))
        costs_probe = f_map(net, probe, inst["penalty"], inst["inv_demand"], grid)
        assert compute_gap(probe, costs_probe, net, inst["inv_demand"].cap) > 1e-3 * scale


class TestLemma2Bound:
    def test_direct_evaluation(self):
        net = single_link_network(capacity=30 * 60.0)  # 30 veh/min
        bound = lemma2_bound(net, SchedulePenalty(0.4, 2.0))
        assert bound == pytest.approx(150 * 60.0)  # 150 veh/min

    def test_no_early_penalty(self):
        net = single_link_network(capacity=30 * 60.0)
        assert lemma2_bound(net, SchedulePenalty(0.0, 2.0)) == pytest.approx(90 * 60.0)

    def test_linear_in_capacity(self):
        net1 = single_link_network(capacity=500.0)
        net2 = single_link_network(capacity=1000.0)
        pen = SchedulePenalty(0.3, 1.0)
        assert lemma2_bound(net2, pen) == pytest.approx(2 * lemma2_bound(net1, pen))


@pytest.fixture
def two_od_bottlenecks(congested_bottleneck):
    """Two OD pairs, each on its own copy of the congested bottleneck, with
    the one-OD instance's penalty, demand and config."""
    links = (Link("a", "O1", "D", 0.1, 1000.0), Link("b", "O2", "D", 0.1, 1000.0))
    paths = (Path("p1", ("a",), "O1", "D"), Path("p2", ("b",), "O2", "D"))
    net = Network(links=links, paths=paths, arrival_target=0.6)
    return net, grid_of(congested_bottleneck), congested_bottleneck


class TestSolve:
    def test_uncongested_demand_matches_bisection(self, uncongested_elastic):
        inst = uncongested_elastic
        grid = grid_of(inst)
        report = solve(
            inst["network"], inst["penalty"], inst["inv_demand"], inst["config"], grid=grid
        )
        assert report.converged
        # the scalar equilibrium solves theta(Q) = min effective delay; with
        # huge capacity the loading is flow-independent, so the minimum cell
        # cost at the solution equals the zero-flow minimum
        costs0 = f_map(inst["network"], zero_point(inst["network"], grid),
                       inst["penalty"], inst["inv_demand"], grid)
        v_min = float(costs0.psi[0].min())
        q_star = bisect_demand(
            theta0=float(inst["inv_demand"].intercept[0]),
            theta1=float(inst["inv_demand"].slope[0]),
            v_min=v_min,
            q_hi=float(inst["inv_demand"].cap[0]),
        )
        assert report.point.demands[0] == pytest.approx(q_star, rel=1e-3)

    def test_symmetry_preserved(self, two_parallel_elastic):
        inst = two_parallel_elastic
        grid = grid_of(inst)
        report = solve(
            inst["network"], inst["penalty"], inst["inv_demand"], inst["config"], grid=grid
        )
        h = report.point.flows
        assert np.abs(h[0] - h[1]).max() <= 1e-6 * max(h.max(), 1.0)

    def test_gap_history_starts_at_initial_gap(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        report = solve(
            inst["network"], inst["penalty"], inst["inv_demand"], inst["config"], grid=grid
        )
        assert report.gap_history[0][1] == pytest.approx(report.initial_gap)
        assert report.final_gap <= report.initial_gap
        assert report.max_cell_flow <= report.flow_bound

    def test_nonconvergence_reported_not_hidden(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        config = SolverConfig(alpha=inst["config"].alpha, max_iters=1, gap_rtol=1e-6)
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"], config,
                       grid=grid)
        assert not report.converged
        assert report.iterations == 1

    def test_fixed_mode_conserves_pinned_demand(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        pinned = np.array([200.0])
        report = solve(inst["network"], inst["penalty"], None, inst["config"],
                       grid=grid, pinned_demand=pinned)
        assert report.point.demands[0] == pytest.approx(200.0)
        vol = float(report.point.flows[0].sum()) * grid.dt
        assert vol == pytest.approx(200.0, rel=1e-9)

    def test_mode_arguments_are_exclusive(self, congested_bottleneck):
        inst = congested_bottleneck
        grid = grid_of(inst)
        with pytest.raises(ValueError):
            solve(inst["network"], inst["penalty"], None, inst["config"], grid=grid)
        with pytest.raises(ValueError):
            solve(inst["network"], inst["penalty"], inst["inv_demand"], inst["config"],
                  grid=grid, pinned_demand=np.array([10.0]))

    @pytest.mark.parametrize("pinned", [[100.0], [100.0, 50.0, 20.0]])
    def test_pinned_demand_length_names_the_od_count(self, two_od_bottlenecks, pinned):
        net, grid, inst = two_od_bottlenecks
        with pytest.raises(ShapeError, match=r"pinned demands .* per OD pair \(2\)"):
            solve(net, inst["penalty"], None, inst["config"], grid=grid,
                  pinned_demand=np.array(pinned))

    def test_cap_length_names_the_od_count(self, two_od_bottlenecks):
        net, grid, inst = two_od_bottlenecks
        with pytest.raises(ShapeError, match=r"inv_demand.cap .* per OD pair \(2\)"):
            solve(net, inst["penalty"], inst["inv_demand"], inst["config"], grid=grid)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_pinned_demand_must_be_finite_and_nonnegative(self, two_od_bottlenecks, bad):
        net, grid, inst = two_od_bottlenecks
        with pytest.raises(ValueError, match=r"finite and nonnegative; OD pair indices \[1\]"):
            solve(net, inst["penalty"], None, inst["config"], grid=grid,
                  pinned_demand=np.array([100.0, bad]))


class TestSolveReport:
    def test_derived_fields_follow_stored_fields(self, congested_bottleneck):
        inst = congested_bottleneck
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"], inst["config"],
                       grid=grid_of(inst))
        assert report.iterations == len(report.gap_history) > 1
        assert report.initial_gap == report.gap_history[0][1]
        assert report.max_cell_flow == float(report.point.flows.max())
        lines = report.summary_lines()
        assert f"iterations: {report.iterations}" in lines
        assert f"initial gap: {report.initial_gap!r}" in lines

    def test_flow_bound_ok_compares_max_cell_flow_with_bound(self, congested_bottleneck):
        inst = congested_bottleneck
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"], inst["config"],
                       grid=grid_of(inst))
        assert report.flow_bound_ok
        report.flow_bound = report.max_cell_flow
        assert report.flow_bound_ok
        report.flow_bound = 0.5 * report.max_cell_flow
        assert not report.flow_bound_ok
        assert "flow bound satisfied: False" in report.summary_lines()

class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(gap_tol=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "gap_tol", "gap_rtol"])
    def test_non_finite_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5),
        ("max_iters", 3.0),
        ("halve_on_stall", 3.7),
        ("halve_on_stall", 0),
        ("halve_on_stall", -3),
    ])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})
