import numpy as np
import pytest

from edue.cost import SchedulePenalty
from edue.demand import InverseDemand
from edue.grid import TimeGrid
from edue.network import Link, Network, Path
from edue.oracle import TinyInstance, brute_force_equilibrium
from edue.solver import f_map, zero_point
from edue.verify import is_feasible

from conftest import single_link_network
from oracles import bisect_demand


def uncongested_tiny(n=2):
    net = single_link_network(tau=0.2, capacity=1e6, arrival_target=0.5)
    return TinyInstance(
        network=net,
        grid=TimeGrid(0.0, 1.0, n),
        penalty=SchedulePenalty(0.5, 2.0),
        inv_demand=InverseDemand([1.0], [0.01], [80.0]),
    )


def symmetric_tiny():
    # capacities low enough that the equilibrium split congests both links:
    # queueing makes an unbalanced split strictly worse, so the minimum-gap
    # point is unique and symmetric
    links = (
        Link("a1", "O", "D", 0.2, 60.0),
        Link("a2", "O", "D", 0.2, 60.0),
    )
    paths = (Path("p1", ("a1",), "O", "D"), Path("p2", ("a2",), "O", "D"))
    net = Network(links=links, paths=paths, arrival_target=0.5)
    return TinyInstance(
        network=net,
        grid=TimeGrid(0.0, 1.0, 2),
        penalty=SchedulePenalty(0.5, 2.0),
        inv_demand=InverseDemand([1.0], [0.005], [150.0]),
    )


class TestConstruction:
    def test_dimensionality_limit(self):
        net = single_link_network()
        with pytest.raises(ValueError):
            TinyInstance(
                network=net,
                grid=TimeGrid(0.0, 1.0, 32),
                penalty=SchedulePenalty(0.5, 2.0),
                inv_demand=InverseDemand([1.0], [0.01], [10.0]),
            )


class TestBruteForce:
    def test_uncongested_matches_bisection(self):
        inst = uncongested_tiny()
        res = brute_force_equilibrium(inst)
        assert res.certified
        costs0 = f_map(
            inst.network, zero_point(inst.network, inst.grid), inst.penalty,
            inst.inv_demand, inst.grid,
        )
        v_min = float(costs0.psi[0].min())
        q_star = bisect_demand(
            theta0=1.0, theta1=0.01, v_min=v_min, q_hi=80.0
        )
        assert float(res.point.demands[0]) == pytest.approx(q_star, rel=1e-4)

    def test_symmetric_incumbent(self):
        inst = symmetric_tiny()
        res = brute_force_equilibrium(inst)
        h = res.point.flows
        # symmetry within the finest lattice spacing of the refinement
        from edue.solver import lemma2_bound

        upper = lemma2_bound(inst.network, inst.penalty)
        spacing = (upper / 4.0) / 10**5  # coarse spacing shrunk over 6 rounds
        assert np.abs(h[0] - h[1]).max() <= max(spacing, 1e-4 * max(h.max(), 1.0))

    def test_dominant_cell_takes_all_flow(self):
        # Two cells, the later one strictly cheaper (closer to the target):
        # any mass on the dearer cell raises the gap, so the incumbent
        # concentrates on the cheaper cell.
        inst = uncongested_tiny(n=2)
        res = brute_force_equilibrium(inst)
        h = res.point.flows[0]
        costs = f_map(inst.network, res.point, inst.penalty, inst.inv_demand, inst.grid)
        cheap = int(np.argmin(costs.psi[0]))
        dear = 1 - cheap
        assert h[dear] <= 1e-6 * max(h[cheap], 1.0)

    def test_feasibility_of_returned_point(self):
        for inst in (uncongested_tiny(), symmetric_tiny()):
            res = brute_force_equilibrium(inst)
            assert is_feasible(res.point, inst.network)
            for w, cap in enumerate(inst.inv_demand.cap):
                assert res.point.demands[w] <= cap + 1e-9

    def test_lattice_budget_enforced(self):
        # 2 paths x 4 cells: 5^8 = 390625 lattice points, over the budget,
        # at dimensionality 9, within the tractable limit
        sym = symmetric_tiny()
        inst = TinyInstance(sym.network, TimeGrid(0.0, 1.0, 4), sym.penalty, sym.inv_demand)
        with pytest.raises(ValueError, match="search budget"):
            brute_force_equilibrium(inst)
