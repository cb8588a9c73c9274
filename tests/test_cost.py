from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edue import dnl, solver
from edue.cost import (A1ViolationError, CostField, CostInvariantError, SchedulePenalty,
                       effective_delay)
from edue.dnl import load
from edue.grid import ExtendedPoint, ShapeError, TimeGrid
from edue.network import Link, Network, Path
from edue.solver import f_map

MIN = 1 / 60.0


class TestSchedulePenalty:
    def test_on_time_is_free(self):
        f = SchedulePenalty(0.5, 2.0)
        assert f(0.0) == 0.0

    def test_early_branch(self):
        f = SchedulePenalty(0.5, 2.0)
        assert f(-0.5) == pytest.approx(0.25)

    def test_late_branch(self):
        f = SchedulePenalty(0.5, 2.0)
        assert f(0.25) == pytest.approx(0.5)

    def test_negative_slope_rejected(self):
        with pytest.raises(ValueError):
            SchedulePenalty(-0.1, 2.0)

    @pytest.mark.parametrize("early, late, field", [
        (float("nan"), 2.0, "early"),
        (0.5, float("inf"), "late"),
        (None, 2.0, "early"),
        (0.5, "1", "late"),
        (0.5, True, "late"),
    ])
    def test_non_finite_slope_rejected(self, early, late, field):
        with pytest.raises(ValueError, match=field):
            SchedulePenalty(early, late)

    @given(
        st.floats(0.0, 0.99),
        st.floats(0.0, 10.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    )
    def test_slope_bound_holds_pointwise(self, early, late, x1, x2):
        f = SchedulePenalty(early, late)
        lo, hi = sorted((x1, x2))
        delta = f.slope_bound()
        assert f(hi) - f(lo) >= delta * (hi - lo) - 1e-12


class TestSlopeBound:
    def test_moderate_early_slope(self):
        assert SchedulePenalty(0.4, 2.0).slope_bound() == pytest.approx(-0.4)

    def test_zero_early_slope(self):
        assert SchedulePenalty(0.0, 3.0).slope_bound() == 0.0

    def test_unit_early_slope_rejected(self):
        with pytest.raises(A1ViolationError):
            SchedulePenalty(1.0, 2.0)


def bottleneck_instance():
    link = Link("a", "O", "D", free_flow_time=5 * MIN, exit_capacity=60.0)
    net = Network(
        links=(link,),
        paths=(Path("p", ("a",), "O", "D"),),
        arrival_target=45 * MIN,
    )
    return net


class TestEffectiveDelay:
    def test_free_flow_plus_early_penalty(self):
        # Departing at t = 0 with 5 min travel arrives 40 min early; at
        # beta = 0.5 the penalty is 20 min, total effective delay 25 min.
        net = bottleneck_instance()
        grid = TimeGrid(0.0, 10 * MIN, 2)
        res = load(net, [[0.0, 0.0]], grid)
        psi = effective_delay(res, SchedulePenalty(0.5, 2.0))
        exits = res.exit_times(0, 0.0)
        assert exits == pytest.approx(5 * MIN)
        pt = (exits - 0.0) + 0.5 * (45 * MIN - exits)
        assert pt == pytest.approx(25 * MIN)
        # cell 0 endpoint delays 25 and 22.5 min (each minute later departed
        # saves half a minute of earliness charge)
        assert psi[0][0] == pytest.approx(23.75 * MIN, rel=1e-12)

    def test_queue_plus_late_penalty(self):
        # Inflow 2 veh/min on [0, 10] min against 1 veh/min: departure at
        # t = 10 exits at 25 min (15 min delay), 20 min early -> penalty 10,
        # effective delay 25 min; at gamma = 2 a departure at 50 min exits at
        # 55, 10 min late -> penalty 20, effective delay 25 min.
        net = bottleneck_instance()
        grid = TimeGrid(0.0, 50 * MIN, 5)
        res = load(net, [[120.0, 0.0, 0.0, 0.0, 0.0]], grid)
        penalty = SchedulePenalty(0.5, 2.0)
        exits_10 = res.exit_times(0, 10 * MIN)
        assert exits_10 == pytest.approx(25 * MIN, rel=1e-9)
        psi_10 = (exits_10 - 10 * MIN) + penalty(exits_10 - net.arrival_target)
        assert psi_10 == pytest.approx(25 * MIN, rel=1e-9)
        exits_50 = res.exit_times(0, 50 * MIN)
        assert exits_50 == pytest.approx(55 * MIN, rel=1e-9)
        psi_50 = (exits_50 - 50 * MIN) + penalty(exits_50 - net.arrival_target)
        assert psi_50 == pytest.approx(25 * MIN, rel=1e-9)

    def test_zero_penalty_reduces_to_travel_delay(self):
        net = bottleneck_instance()
        grid = TimeGrid(0.0, 10 * MIN, 4)
        res = load(net, [[120.0] * 4], grid)
        psi = effective_delay(res, SchedulePenalty(0.0, 0.0))
        d = res.exit_times(0, grid.boundaries) - grid.boundaries
        assert np.allclose(psi[0], 0.5 * (d[:-1] + d[1:]))

    def test_invalid_penalty_rejected_before_evaluation(self):
        net = bottleneck_instance()
        grid = TimeGrid(0.0, 10 * MIN, 2)
        res = load(net, [[0.0, 0.0]], grid)
        with pytest.raises(A1ViolationError):
            effective_delay(res, SchedulePenalty(1.5, 2.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_effective_delay_names_the_path(self, bad):
        """A delay that is no finite number is rejected where it is computed,
        as a nonpositive one is, so f_map may adopt the array unscanned."""
        grid = TimeGrid(0.0, 1.0, 2)
        exits = np.array([[0.5, 1.0, 1.5], [0.5, bad, 1.5]])
        result = SimpleNamespace(grid=grid, boundary_exits=lambda: exits,
                                 network=SimpleNamespace(arrival_target=2.0))
        with pytest.raises(CostInvariantError,
                           match="path index 1 is not a finite positive number"):
            effective_delay(result, SchedulePenalty(0.5, 2.0))

    def test_positivity(self):
        rng = np.random.default_rng(7)
        net = bottleneck_instance()
        grid = TimeGrid(0.0, 1.0, 8)
        for _ in range(10):
            res = load(net, [rng.uniform(0, 300, 8)], grid)
            psi = effective_delay(res, SchedulePenalty(0.5, 2.0))
            assert np.all(psi[0] > 0.0)


def two_route_instance():
    """Two parallel links of capacity 100 veh/h, 0.1 h and 0.2 h long."""
    links = (Link("a", "O", "D", 0.1, 100.0), Link("b", "O", "D", 0.2, 100.0))
    paths = (Path("p1", ("a",), "O", "D"), Path("p2", ("b",), "O", "D"))
    return Network(links=links, paths=paths, arrival_target=0.5)


def fresh_copy(net):
    """A new Network object with the same links and paths, and so no memo."""
    return Network(links=net.links, paths=net.paths, arrival_target=net.arrival_target)


class TestFreeFlowMemo:
    """solver.f_map stores the delays of a loading in which no link queues on
    its network, one entry per (grid, penalty), and serves them to flows that
    dnl.cannot_queue shows cannot queue."""

    grid = TimeGrid(0.0, 1.0, 4)
    penalty = SchedulePenalty(0.5, 2.0)

    def psi(self, net, flows, grid=None, penalty=None):
        """f_map's psi at the flows, in pinned-demand mode."""
        grid = self.grid if grid is None else grid
        penalty = self.penalty if penalty is None else penalty
        flows = np.asarray(flows, dtype=float)
        point = ExtendedPoint.from_matrix(grid, flows, net.od_sum(flows.sum(axis=1)) * grid.dt)
        return f_map(net, point, penalty, None, grid).psi

    @staticmethod
    def counted(monkeypatch):
        """The loadings whose effective delays f_map computes, from here on."""
        computed = []
        compute = solver.effective_delay
        monkeypatch.setattr(solver, "effective_delay",
                            lambda r, f: computed.append(r) or compute(r, f))
        return computed

    def test_repeat_loading_equals_a_fresh_computation(self, monkeypatch):
        net = two_route_instance()
        before = (repr(net), hash(net))
        first = self.psi(net, np.full((2, 4), 10.0))
        computed = self.counted(monkeypatch)
        flows = [[90.0, 0.0, 50.0, 5.0], [0.0, 99.0, 1.0, 0.0]]
        assert load(net, flows, self.grid).queue_free
        again = self.psi(net, flows)
        assert computed == []
        other = fresh_copy(net)
        fresh = self.psi(other, np.full((2, 4), 3.0))
        assert len(computed) == 1
        assert again.tobytes() == fresh.tobytes() == first.tobytes()
        # the memo is no field: the network compares, hashes and prints as before
        assert (repr(net), hash(net)) == before and net == other

    def test_served_psi_is_a_copy(self):
        net = two_route_instance()
        flows = np.full((2, 4), 10.0)
        first = self.psi(net, flows)
        stored = net.free_flow_delays[self.grid, self.penalty]
        again = self.psi(net, flows)
        assert not stored.flags.writeable
        assert again.tobytes() == first.tobytes() == stored.tobytes()
        for psi in (first, again):
            assert not np.shares_memory(psi, stored)

    def test_each_grid_and_penalty_has_its_own_entry(self, monkeypatch):
        net = two_route_instance()
        computed = self.counted(monkeypatch)
        cases = [(self.grid, self.penalty), (TimeGrid(0.0, 1.0, 6), self.penalty),
                 (self.grid, SchedulePenalty(0.25, 2.0))]
        for _ in range(2):
            for grid, penalty in cases:
                psi = self.psi(net, np.full((2, grid.n), 10.0), grid, penalty)
                fresh = self.psi(fresh_copy(net), np.zeros((2, grid.n)), grid, penalty)
                assert psi.tobytes() == fresh.tobytes()
        # each case computed once on net, and every time on its fresh copies
        assert len(computed) == 3 + 2 * 3
        assert list(net.free_flow_delays) == cases

    def test_queued_loading_is_computed_not_served(self, monkeypatch):
        net = two_route_instance()
        self.psi(net, np.full((2, 4), 10.0))
        entry = net.free_flow_delays[self.grid, self.penalty]
        stored = entry.tobytes()
        computed = self.counted(monkeypatch)
        flows = [[400.0, 0.0, 0.0, 0.0], [10.0, 10.0, 10.0, 10.0]]  # a queues, b does not
        psi = self.psi(net, flows)
        assert len(computed) == 1 and not computed[0].queue_free
        assert psi.tobytes() == effective_delay(load(fresh_copy(net), flows, self.grid),
                                                self.penalty).tobytes()
        assert psi.tobytes() != stored
        assert net.free_flow_delays[self.grid, self.penalty] is entry
        assert entry.tobytes() == stored
        assert len(net.free_flow_delays) == 1

    def test_nonpositive_queue_free_delay_raises_and_stores_nothing(self, monkeypatch):
        net = two_route_instance()
        # exit times at the departure times: zero delay, zero penalty
        exits = np.tile(self.grid.boundaries, (2, 1))
        result = SimpleNamespace(grid=self.grid, boundary_exits=lambda: exits,
                                 queue_free=True, network=net)
        monkeypatch.setattr(dnl, "load", lambda *args: result)
        with pytest.raises(CostInvariantError, match="path index 0"):
            self.psi(net, np.zeros((2, 4)), penalty=SchedulePenalty(0.0, 0.0))
        assert net.free_flow_delays == {}

    def test_effective_delay_never_touches_the_memo(self):
        net = two_route_instance()
        res = load(net, np.full((2, 4), 10.0), self.grid)
        assert res.queue_free
        assert effective_delay(res, self.penalty).tobytes() == \
            effective_delay(res, self.penalty).tobytes()
        # free_flow_delays is a cached property: once read, it sits in vars(net)
        assert "free_flow_delays" not in vars(net)


class TestCostField:
    @pytest.mark.parametrize("psi", [[0.5, 0.5], 0.5, [[[0.5]]]])
    def test_psi_must_be_a_matrix(self, psi):
        with pytest.raises(ShapeError, match=r"effective delays must be a \(paths, n\) array"):
            CostField(psi=psi, theta=[0.3])


class TestMinTravelCost:
    def test_minimum_over_paths_and_cells(self):
        links = (
            Link("a", "O", "D", 0.1, 100.0),
            Link("b", "O", "D", 0.2, 100.0),
        )
        net = Network(
            links=links,
            paths=(Path("p1", ("a",), "O", "D"), Path("p2", ("b",), "O", "D")),
            arrival_target=0.5,
        )
        costs = CostField(
            psi=[[0.4, 0.3], [0.25, 0.6]],
            theta=np.array([0.0]),
        )
        assert net.od_min(costs.psi)[0] == pytest.approx(0.25)
