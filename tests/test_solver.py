import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from edue import dnl, solver, verify
from edue.cost import CostField, CostInvariantError, SchedulePenalty, effective_delay
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


def gap_rounding_bound(point, costs, network, caps):
    """How far compute_gap's docstring lets rounding (and a volume above its
    cap) take the gap below zero."""
    rc = reduced_costs(costs, network)
    short = np.abs(np.minimum(0.0, verify.least_reduced_costs(costs, network)))
    vol = network.od_sum(point.flows.sum(axis=1)) * point.grid.dt
    terms = point.grid.dt * float(np.abs(point.flows * rc).sum()) + float(short @ (caps + vol))
    eps = np.finfo(float).eps
    return (eps * (point.flows.size + len(caps) + 2) * terms
            + float(short @ np.maximum(0.0, vol - caps)))


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

    @pytest.mark.parametrize("elastic", [True, False])
    def test_costs_hold_the_arrays_f_map_made_read_only(self, uncongested_elastic,
                                                        monkeypatch, elastic):
        """On a loading, the CostField holds the delays effective_delay
        returned and the demand values theta or od_min returned, with no
        second copy; on a memo hit, a copy of the stored delays. Either way
        both arrays are read-only."""
        inst = uncongested_elastic
        net, grid, penalty = inst["network"], grid_of(inst), inst["penalty"]
        made = []

        def keep(f):
            return lambda *args: made.append(f(*args)) or made[-1]

        monkeypatch.setattr(solver, "effective_delay", keep(effective_delay))
        monkeypatch.setattr(InverseDemand, "theta", keep(InverseDemand.theta))
        monkeypatch.setattr(Network, "od_min", keep(Network.od_min))
        point = zero_point(net, grid)
        for served in (False, True):
            made.clear()
            costs = f_map(net, point, penalty, inst["inv_demand"] if elastic else None, grid)
            assert not costs.psi.flags.writeable and not costs.theta.flags.writeable
            assert costs.theta is made.pop()
            if served:
                assert made == []
                assert not np.shares_memory(costs.psi, net.free_flow_delays[grid, penalty])
            else:
                assert len(made) == 1 and costs.psi is made[0]

    def test_solve_builds_no_cost_field_through_the_public_constructor(
            self, uncongested_elastic, monkeypatch):
        """Every CostField of a solve holds arrays f_map made and checked, so
        none pays the public constructor's copy and finiteness scan."""
        inst = uncongested_elastic
        checked = []
        post_init = CostField.__post_init__
        monkeypatch.setattr(CostField, "__post_init__",
                            lambda self: checked.append(self) or post_init(self))
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"], inst["config"],
                       grid=grid_of(inst))
        assert report.converged and report.iterations > 1
        assert checked == []

    def test_solve_builds_one_point_through_the_public_constructor(
            self, uncongested_elastic, monkeypatch):
        """Only the start pays the public constructor's copies and scans;
        each step's point adopts the arrays its projection made."""
        inst = uncongested_elastic
        checked = []
        post_init = ExtendedPoint.__post_init__
        monkeypatch.setattr(ExtendedPoint, "__post_init__",
                            lambda self: checked.append(self) or post_init(self))
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"], inst["config"],
                       grid=grid_of(inst))
        assert report.converged and report.iterations > 1
        assert len(checked) == 1


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

    @pytest.mark.parametrize("alpha", [0.0, -0.0, -5.0, float("nan"), float("inf"),
                                       float("-inf")])
    def test_step_rejects_a_step_size_that_is_not_finite_and_positive(self, alpha):
        # at 0 the flows would come back unchanged and at -5 step uphill
        grid = TimeGrid(0.0, 1.0, 1)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0]]), np.array([2.0]))
        costs = toy_costs([[0.3 - 1.0]], [0.3])
        with pytest.raises(ValueError, match=r"alpha must be finite and positive, got "):
            fixed_point_step(point, costs, net, alpha=alpha, caps=np.array([100.0]))

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


    def test_step_pinned_mode_projects_onto_pinned_demand(self):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0, 2.0]]), np.array([2.0]))
        costs = toy_costs([[0.3, 0.3 - 2.0]], [0.3])  # cell 1 gains 1 veh/h
        pinned = np.array([4.0])
        new = fixed_point_step(point, costs, net, alpha=0.5, caps=pinned, pinned=True)
        # (2, 3) shifted up by 1.5 to carry 4 vehicles over cells of width
        # 0.5; a rescale would give (3.2, 4.8), which is not the nearest point
        assert new.demands[0] == 4.0
        assert new.flows[0] == pytest.approx([3.5, 4.5])

    @pytest.mark.parametrize("psi, want", [([5.3, 4.3], [1.5, 2.5]), ([100.3, 4.3], [0.0, 4.0])],
                             ids=["spread", "cheapest cell"])
    def test_step_pinned_mode_projects_an_all_clipped_pair(self, psi, want):
        """Every entry of h - alpha * rc is negative: the projection shifts
        them up until they carry the pinned demand, so the mass goes to the
        largest entries, the cheapest cells, and only to them when the
        others lie far below."""
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0, 2.0]]), np.array([2.0]))
        costs = toy_costs([psi], [0.3])
        new = fixed_point_step(point, costs, net, alpha=1.0, caps=np.array([2.0]), pinned=True)
        assert new.demands[0] == 2.0
        assert new.flows[0] == pytest.approx(want)

    @pytest.mark.parametrize("pinned", [False, True], ids=["elastic", "pinned"])
    @pytest.mark.parametrize("cap", [3.0, 4.0], ids=["cap-binds", "cap-slack"])
    def test_step_point_holds_read_only_arrays_of_its_own(self, pinned, cap):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0, 5.0]]), np.array([3.5]))
        costs = toy_costs([[0.3, 0.1]], [0.3])
        caps = np.array([cap])
        new = fixed_point_step(point, costs, net, alpha=1.0, caps=caps, pinned=pinned)
        inputs = (point.flows, point.demands, costs.psi, costs.theta,
                  reduced_costs(costs, net), caps)
        for a in (new.flows, new.demands):
            assert not a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in inputs)
        # pinned, the projection's demands are the caller's caps themselves
        assert caps.flags.writeable

    @pytest.mark.parametrize("pinned", [True, False])
    def test_step_onto_a_zero_bound_carries_nothing(self, pinned):
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network()
        point = ExtendedPoint.from_matrix(grid, np.array([[2.0, 5.0]]), np.array([3.5]))
        costs = toy_costs([[0.3, 0.1]], [0.3])
        new = fixed_point_step(point, costs, net, alpha=1.0, caps=np.array([0.0]), pinned=pinned)
        assert new.flows[0].tolist() == [0.0, 0.0]
        assert new.demands[0] == 0.0


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


    @pytest.mark.parametrize("n, cap", [(16, 37.3), (16, 50.0), (16, 61.7), (64, 50.0)])
    def test_capped_solves_never_read_below_the_rounding_bound(self, uncongested_elastic,
                                                               monkeypatch, n, cap):
        """Every gap of a solve whose cap binds stays above the bound of
        compute_gap's docstring."""
        inst = uncongested_elastic
        seen = []
        real = compute_gap
        monkeypatch.setattr(solver, "compute_gap",
                            lambda *args: seen.append((args, real(*args))) or seen[-1][1])
        report = solve(inst["network"], inst["penalty"], InverseDemand([1.0], [1 / 120.0], [cap]),
                       inst["config"], grid=grid_of(inst, n))
        assert report.converged and report.caps_active == [0]
        assert len(seen) == report.iterations
        for (point, costs, net, caps), gap in seen:
            assert gap >= -gap_rounding_bound(point, costs, net, caps)

    def test_random_capped_points_never_read_below_the_rounding_bound(self):
        """Points whose whole cap volume sits on the cheapest cell have an
        exact gap of zero, and rounding reads about half of them below it."""
        rng = np.random.default_rng(0)
        grid = TimeGrid(0.0, 1.0, 8)
        net = toy_network()
        below = 0
        for _ in range(400):
            costs = toy_costs(rng.uniform(0.1, 1.0, size=(1, 8)), [rng.uniform(0.5, 1.5)])
            caps = np.array([rng.uniform(1.0, 500.0)])
            y = np.zeros((1, 8))
            y[0, costs.psi[0].argmin()] = rng.uniform(1.0, 1e6)
            y += rng.uniform(0.0, 1.0) * rng.uniform(-1.0, 1.0, size=(1, 8))
            point = ExtendedPoint.from_matrix(grid, *solver._project(net, grid, y, caps,
                                                                     pinned=False))
            gap = compute_gap(point, costs, net, caps)
            below += gap < 0.0
            assert gap >= -gap_rounding_bound(point, costs, net, caps)
        assert below > 0

    @pytest.mark.parametrize("b", [0, 2, True], ids=["zero", "two of three", "True"])
    def test_copies_must_fit_the_stack(self, b):
        # at b = 2 the gaps of the first two copies were returned and the third
        # copy was dropped; at 0 the split divided by zero
        grid = TimeGrid(0.0, 1.0, 2)
        net = toy_network().copies(3)
        point = zero_point(net, grid)
        costs = toy_costs(np.tile([[0.5, 0.2]], (3, 1)), np.full(3, 0.3))
        caps = np.full(3, 40.0)
        assert compute_gap(point, costs, net, caps, copies=3) == pytest.approx([4.0] * 3)
        with pytest.raises(ShapeError, match="copies"):
            compute_gap(point, costs, net, caps, copies=b)


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


    @pytest.mark.parametrize("cap", [None, 50.0], ids=["uncapped", "cap binds"])
    def test_criterion_1_solution_is_a_fixed_point_for_every_alpha(self, uncongested_elastic,
                                                                   cap):
        """Criterion 1's equilibrium, its whole volume on the cheapest cell,
        comes back from the step within rounding whatever alpha; with a
        binding cap the reduced cost there is negative, and the projection
        takes the step's overshoot off again."""
        inst = uncongested_elastic
        net, grid = inst["network"], grid_of(inst)
        psi = f_map(net, zero_point(net, grid), inst["penalty"], inst["inv_demand"], grid).psi
        if cap is None:
            inv_demand = inst["inv_demand"]
            q = bisect_demand(theta0=1.0, theta1=1 / 120.0, v_min=float(psi.min()), q_hi=114.0)
        else:
            inv_demand, q = InverseDemand([1.0], [1 / 120.0], [cap]), cap
        h = np.zeros((1, grid.n))
        h[0, psi.argmin()] = q / grid.dt
        point = ExtendedPoint.from_matrix(grid, h, np.array([q]))
        costs = f_map(net, point, inst["penalty"], inv_demand, grid)
        assert (reduced_costs(costs, net).min() < -0.1) == (cap is not None)
        for alpha in (1.0, 400.0, 1e4):
            stepped = fixed_point_step(point, costs, net, alpha, caps=inv_demand.cap)
            assert np.abs(stepped.flows - h).max() <= 1e-14 * h.max()
            assert stepped.demands[0] == pytest.approx(q, rel=1e-14)


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

    def test_step_floor_ends_a_stalled_solve(self, congested_bottleneck):
        """Halving alpha on every stall once drove it to 0.0 and made the
        step raise; now the solve stops, not converged, once the step can no
        longer move the largest flow, and says so in one summary line."""
        inst = congested_bottleneck
        config = SolverConfig(alpha=800.0, max_iters=5000, gap_rtol=1e-6, halve_on_stall=1)
        report = solve(inst["network"], inst["penalty"], inst["inv_demand"], config,
                       grid=grid_of(inst, 8))
        assert not report.converged
        assert report.iterations < config.max_iters
        assert all(row[4] > 0.0 for row in report.gap_history)
        assert report.stop.startswith("step too small to move the flows")
        assert f"stopped: {report.stop}" in report.summary_lines()

    @pytest.mark.parametrize("max_iters, pinned", [(1, None), (9, None), (9, [200.0])])
    def test_each_iteration_forms_its_reduced_costs_once(self, congested_bottleneck,
                                                         monkeypatch, max_iters, pinned):
        """The gap, the residuals and the step share one array per iteration,
        and the report's residuals reuse the best iteration's."""
        inst = congested_bottleneck
        formed = []
        form = verify._form_reduced_costs
        monkeypatch.setattr(verify, "_form_reduced_costs",
                            lambda c, n: formed.append(c) or form(c, n))
        config = dataclasses.replace(inst["config"], max_iters=max_iters)
        report = solve(inst["network"], inst["penalty"],
                       inst["inv_demand"] if pinned is None else None, config,
                       grid=grid_of(inst),
                       pinned_demand=None if pinned is None else np.array(pinned))
        assert report.iterations == max_iters
        assert len(formed) == max_iters
        assert len({id(c) for c in formed}) == max_iters
        assert any(c is report.costs for c in formed)

    def test_no_stop_line_when_converged_or_out_of_budget(self, congested_bottleneck):
        inst = congested_bottleneck
        for max_iters in (1, inst["config"].max_iters):
            config = dataclasses.replace(inst["config"], max_iters=max_iters)
            report = solve(inst["network"], inst["penalty"], inst["inv_demand"], config,
                           grid=grid_of(inst))
            assert report.stop is None
            assert not any(line.startswith("stopped") for line in report.summary_lines())


class TestInputChecks:
    """The input checks that every solver iteration runs. An out-of-domain
    demand and a negative loader flow are tested in test_demand and
    test_dnl."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_point_rejects_non_finite_flows(self, bad):
        with pytest.raises(ValueError, match="path flows must all be finite"):
            ExtendedPoint(TimeGrid(0.0, 1.0, 2), [[1.0, 2.0], [3.0, bad]], [0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_point_rejects_non_finite_demands(self, bad):
        with pytest.raises(ValueError, match="demands must all be finite"):
            ExtendedPoint(TimeGrid(0.0, 1.0, 2), [[1.0, 2.0]], [bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_cost_field_rejects_non_finite_delays(self, bad):
        with pytest.raises(ValueError, match="effective delays must all be finite"):
            CostField(psi=[[0.5, bad], [0.5, 0.5]], theta=[0.3])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_cost_field_rejects_non_finite_demand_values(self, bad):
        # unchecked, the gap reads nan and the step blames the path flows
        with pytest.raises(ValueError, match="demand values theta must all be finite"):
            CostField(psi=[[0.5, 0.6]], theta=[bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_load_rejects_flows_that_are_not_finite(self, bad):
        with pytest.raises(ValueError, match="path flows must be finite and nonnegative"):
            dnl.load(toy_network(), [[1.0, bad]], TimeGrid(0.0, 1.0, 2))

    def test_nonpositive_effective_delay_names_the_path(self):
        grid = TimeGrid(0.0, 1.0, 2)
        # exit times at the departure times on path 1: zero delay, zero penalty
        exits = np.array([[0.5, 1.0, 1.5], [0.0, 0.5, 1.0]])
        # queue_free=False: the delays are computed, not looked up
        result = SimpleNamespace(grid=grid, boundary_exits=lambda: exits, queue_free=False,
                                 network=SimpleNamespace(arrival_target=2.0))
        with pytest.raises(CostInvariantError, match="path index 1"):
            effective_delay(result, SchedulePenalty(0.0, 0.0))


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

    @pytest.mark.parametrize("pinned", [None, [200.0]])
    def test_residuals_built_once_at_the_best_point(self, congested_bottleneck, monkeypatch,
                                                    pinned):
        """The report's residuals are due_residuals at the report's point and
        costs, built once per solve, not once per iteration."""
        inst = congested_bottleneck
        calls = []
        real = verify.due_residuals
        monkeypatch.setattr(verify, "due_residuals", lambda *args: calls.append(args) or real(*args))
        report = solve(inst["network"], inst["penalty"], None if pinned else inst["inv_demand"],
                       inst["config"], grid=grid_of(inst),
                       pinned_demand=None if pinned is None else np.array(pinned))
        assert report.iterations > 1 and len(calls) == 1
        ref = real(report.point, report.costs, inst["network"])
        for field in dataclasses.fields(ref):
            got, want = getattr(report.residuals, field.name), getattr(ref, field.name)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestConfigValidation:
    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SolverConfig(alpha=0.0)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="gap_rtol"):
            SolverConfig(gap_rtol=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "gap_rtol"])
    def test_non_finite_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["alpha", "gap_rtol"])
    @pytest.mark.parametrize("value", [None, "1", True])
    def test_non_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"solver {field} must be a real number"):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5),
        ("max_iters", 3.0),
        ("halve_on_stall", 3.7),
        ("halve_on_stall", 0),
        ("halve_on_stall", -3),
        ("max_iters", True),
        ("halve_on_stall", True),
        ("halve_on_stall", None),
    ])
    def test_non_integer_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_iters", "halve_on_stall"])
    def test_numpy_integer_count_stored_as_int(self, field):
        value = getattr(SolverConfig(**{field: np.int64(7)}), field)
        assert type(value) is int and value == 7
