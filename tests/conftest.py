import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from edue.cost import SchedulePenalty
from edue.demand import InverseDemand
from edue.grid import TimeGrid
from edue.network import Link, Network, Path as NetPath
from edue.solver import SolverConfig


MIN_PER_H = 60.0


def single_link_network(tau=1 / 6, capacity=1e6, arrival_target=7 / 6):
    link = Link("a", "O", "D", free_flow_time=tau, exit_capacity=capacity)
    path = NetPath("p1", ("a",), "O", "D")
    return Network(links=(link,), paths=(path,), arrival_target=arrival_target)


def corridor_network(k):
    """K OD pairs O{i} -> D{i}, each with two paths: a{i} runs feeder in{i},
    the shared bottleneck bn and feeder out{i}; b{i} takes its own bypass
    by{i}."""
    links = [Link("bn", "A", "B", 0.1, 1500.0)]
    paths = []
    for i in range(k):
        links += [
            Link(f"in{i}", f"O{i}", "A", 0.01, 1e5),
            Link(f"out{i}", "B", f"D{i}", 0.01, 1e5),
            Link(f"by{i}", f"O{i}", f"D{i}", 0.3, 300.0),
        ]
        paths += [
            NetPath(f"a{i}", (f"in{i}", "bn", f"out{i}"), f"O{i}", f"D{i}"),
            NetPath(f"b{i}", (f"by{i}",), f"O{i}", f"D{i}"),
        ]
    return Network(links=tuple(links), paths=tuple(paths), arrival_target=0.8)


@pytest.fixture
def uncongested_elastic():
    """Single OD, one path, capacity far above demand. Free-flow effective
    delay bottoms out at exactly the 10-minute free-flow time because the
    on-time departure lands on a cell boundary for n in {64, 256}."""
    return dict(
        network=single_link_network(tau=1 / 6, capacity=1e6, arrival_target=7 / 6),
        grid_bounds=(0.0, 2.0),
        penalty=SchedulePenalty(early=0.5, late=2.0),
        inv_demand=InverseDemand([1.0], [1 / 120.0]),  # choke demand 120 veh
        n=64,
        config=SolverConfig(alpha=400.0, max_iters=4000, gap_rtol=1e-6, halve_on_stall=25),
    )


@pytest.fixture
def congested_bottleneck():
    """Single OD, one path through a binding bottleneck."""
    return dict(
        network=single_link_network(tau=0.1, capacity=1000.0, arrival_target=0.6),
        grid_bounds=(0.0, 1.0),
        penalty=SchedulePenalty(early=0.5, late=2.0),
        inv_demand=InverseDemand([1.0], [0.002], [450.0]),
        n=4,
        config=SolverConfig(alpha=400.0, max_iters=4000, gap_rtol=1e-6, halve_on_stall=25),
    )


@pytest.fixture
def two_parallel_elastic():
    """Two identical parallel links with moderate congestion."""
    links = (
        Link("a1", "O", "D", free_flow_time=0.1, exit_capacity=600.0),
        Link("a2", "O", "D", free_flow_time=0.1, exit_capacity=600.0),
    )
    paths = (NetPath("p1", ("a1",), "O", "D"), NetPath("p2", ("a2",), "O", "D"))
    net = Network(links=links, paths=paths, arrival_target=0.6)
    return dict(
        network=net,
        grid_bounds=(0.0, 1.0),
        penalty=SchedulePenalty(early=0.5, late=2.0),
        inv_demand=InverseDemand([0.8], [0.002], [350.0]),
        n=8,
        config=SolverConfig(alpha=400.0, max_iters=4000, gap_rtol=1e-6, halve_on_stall=25),
    )


def grid_of(inst, n=None):
    t0, tf = inst["grid_bounds"]
    return TimeGrid(t0, tf, n if n is not None else inst["n"])
