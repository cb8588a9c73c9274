import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edue.oracle
from edue.cost import SchedulePenalty
from edue.demand import InverseDemand
from edue.dnl import load
from edue.grid import ExtendedPoint, TimeGrid
from edue.network import Link, Network, Path
from edue.oracle import TinyInstance, _compass_search, _GapObjective, brute_force_equilibrium
from edue.solver import f_map, zero_point
from edue.verify import is_feasible

from conftest import corridor_network, single_link_network
from oracles import bisect_demand, compass_search_loop
from test_acceptance import tiny_instances


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


    def test_demand_scale_must_be_finite_in_sum(self):
        # each pair's intercept * cap is finite (1.5e308), their sum is not
        with pytest.raises(ValueError, match=r"intercept \* cap summed over the OD pairs is inf"):
            TinyInstance(two_od_tiny().network, TimeGrid(0.0, 1.0, 1), SchedulePenalty(0.5, 2.0),
                         InverseDemand([1e8, 1e8], [0.0, 0.0], [1.5e300, 1.5e300]))

    def test_a_stack_passes_where_its_sum_overflows(self):
        # one copy's scale is finite; the 6 copies of the largest stack sum
        # to inf, yet their inverse demand is built, as it checks each pair
        inst = uncongested_tiny(n=1)
        inst = TinyInstance(inst.network, inst.grid, inst.penalty,
                            InverseDemand([1e8], [0.0], [1e300]))
        objective = _GapObjective(inst)
        _, inv = objective._stack(objective._most)
        assert len(inv.cap) == objective._most == 6
        with pytest.raises(ValueError, match="summed over the OD pairs is inf"):
            inv.gap_scale()


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
        # 2 paths x 4 cells: 5^8 = 390625 lattice points, over the budget
        sym = symmetric_tiny()
        with pytest.raises(ValueError, match="search budget"):
            TinyInstance(sym.network, TimeGrid(0.0, 1.0, 4), sym.penalty, sym.inv_demand)


# The results of the three criterion-2 instances as the oracle gave them when
# it scored every point with a cost mapping of its own: gap repr, certified,
# evaluations and the sha256 of the incumbent's flow bytes. Scoring points in
# batches must visit and count the same points and give the same floats.
ORACLE_RESULTS = {
    "uncongested": ("1.279320122277085e-09", True, 264,
                    "b0598c603a9a3e953eb4ae6fb68ac7a32059ab6439f350ca23fe33180e63a650"),
    "congested bottleneck": ("1.1422746806404448e-12", True, 413,
                             "15eb4d3dfdc5a68ac91c01205c05df9665c4dad2d50cc15e6dfe44d1ceb5442c"),
    "two parallel paths": ("0.0016778841749947192", False, 3972,
                           "6485312510e557c6544dda4fadb883abba5994a696adadcb26db375ea180ddba"),
}


# The number of batches (_GapObjective.gaps calls) each search scores. Scored
# one compass sweep at a time, they were 90, 100 and 223; three sweeps per
# compass batch, 38, 43 and 192.
GAPS_CALLS = {"uncongested": 29, "congested bottleneck": 32, "two parallel paths": 192}

# The flow rows (points times paths) each search sends to f_map. Every point
# of a run is scored once; scored per batch, repeats included, they were
# 350, 528 and 7992; three sweeps per compass batch, 162, 318 and 7744.
F_MAP_ROWS = {"uncongested": 241, "congested bottleneck": 418, "two parallel paths": 7744}


@pytest.mark.parametrize("name,inst", tiny_instances(), ids=[n for n, _ in tiny_instances()])
def test_results_match_the_recorded_ones(name, inst, monkeypatch):
    calls, builds = [], []
    gaps, copies = _GapObjective.gaps, Network.copies

    def counted(self, xs):
        calls.append(len(xs))
        return gaps(self, xs)

    def counted_copies(self, b, stack=None):
        if stack is None:
            builds.append(b)
        return copies(self, b, stack)

    rows, checks = [], []
    cost_map, check = edue.oracle.f_map, InverseDemand.__post_init__

    def counted_f_map(network, point, *args):
        rows.append(len(point.flows))
        return cost_map(network, point, *args)

    def counted_check(self):
        checks.append(len(self.cap))
        check(self)

    monkeypatch.setattr(_GapObjective, "gaps", counted)
    monkeypatch.setattr(Network, "copies", counted_copies)
    monkeypatch.setattr(edue.oracle, "f_map", counted_f_map)
    monkeypatch.setattr(InverseDemand, "__post_init__", counted_check)
    res = brute_force_equilibrium(inst)
    assert (repr(res.gap), res.certified, res.evaluations,
            hashlib.sha256(res.point.flows.tobytes()).hexdigest()) == ORACLE_RESULTS[name]
    assert len(calls) == GAPS_CALLS[name]
    assert sum(rows) == F_MAP_ROWS[name]
    # one stack is built, of the most points a batch can hold, with the one
    # inverse demand a run checks; every batch is scored on its first copies
    assert builds == [25] and checks == [25] and max(calls) <= 25


@pytest.mark.parametrize("n, sweeps", [(1, 3), (2, 6), (3, 4), (4, 3), (5, 3)])
def test_compass_batches_hold_as_many_whole_sweeps_as_the_stack(n, sweeps):
    # one path, so dim = n: never fewer than LOOKAHEAD sweeps, never more
    # trials than the stack's copies
    objective = _GapObjective(uncongested_tiny(n))
    assert objective.sweeps == sweeps
    assert objective.sweeps * 2 * n <= objective._most


@pytest.mark.parametrize("sweeps", range(1, 7))
@pytest.mark.parametrize("name,inst", tiny_instances()[:2], ids=[n for n, _ in tiny_instances()[:2]])
def test_every_compass_batch_depth_finds_the_recorded_result(name, inst, sweeps, monkeypatch):
    # the one-path instances (dim 2) fill their batches with 6 sweeps; at
    # any depth the search compares the same points and ends on the same one
    objectives, calls = [], []
    init, gaps = _GapObjective.__init__, _GapObjective.gaps

    def fixed_depth(self, inst):
        init(self, inst)
        self.sweeps = sweeps
        objectives.append(self)

    def counted(self, xs):
        calls.append(len(xs))
        return gaps(self, xs)

    monkeypatch.setattr(_GapObjective, "__init__", fixed_depth)
    monkeypatch.setattr(_GapObjective, "gaps", counted)
    res = brute_force_equilibrium(inst)
    assert (repr(res.gap), res.certified, res.evaluations,
            hashlib.sha256(res.point.flows.tobytes()).hexdigest()) == ORACLE_RESULTS[name]
    [objective] = objectives
    assert objective._most == 25 and max(calls) <= objective._most


def congested_tiny():
    return dict(tiny_instances())["congested bottleneck"]


def two_od_tiny():
    """Two OD pairs, of two paths and one (3 paths x 2 cells, a lattice
    within the search budget), with inverse demands of their own."""
    net = corridor_network(2)
    net = Network(net.links, net.paths[:3], net.arrival_target)
    return TinyInstance(net, TimeGrid(0.0, 1.0, 2), SchedulePenalty(0.5, 2.0),
                        InverseDemand([1.0, 1.2], [0.01, 0.02], [80.0, 55.0]))


# congested: points of at most 160 veh/h in all are feasible (cap 80 veh,
# dt 0.5 h), rates above 80 veh/h queue
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0)), min_size=1, max_size=6),
       st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=4))
def test_a_gap_from_the_table_is_the_gap_of_the_point_scored_alone(pool, batches):
    # batches with repeats, within one call and across calls: each row gets
    # the bytes a fresh objective gives it alone
    inst = congested_tiny()
    pool = np.array(pool)
    alone = [_GapObjective(inst).gaps(x[None])[0] for x in pool]
    objective = _GapObjective(inst)
    for batch in batches:
        picks = [i % len(pool) for i in batch]
        assert objective.gaps(pool[picks]).tobytes() == np.array([alone[i] for i in picks]).tobytes()


def test_a_batch_of_points_scored_before_runs_no_cost_mapping(monkeypatch):
    objective = _GapObjective(congested_tiny())
    xs = np.array([[10.0, 20.0], [100.0, 50.0], [300.0, 300.0]])  # the last above the cap
    first = objective.gaps(xs)
    calls = []

    def counted(*args):
        calls.append(args)
        return f_map(*args)

    monkeypatch.setattr(edue.oracle, "f_map", counted)
    again = objective.gaps(xs[[1, 2, 0, 1]])
    assert calls == []
    assert again.tobytes() == first[[1, 2, 0, 1]].tobytes()
    assert np.isinf(again[1]) and np.isfinite(again[[0, 2, 3]]).all()


@pytest.mark.parametrize("inst", [congested_tiny(), two_od_tiny()], ids=["congested", "two OD"])
def test_every_batch_size_takes_the_stacks_inverse_demand(inst):
    # the first b copies' entries of the stack's inverse demand are np.tile
    # of the base arrays, bit for bit, and read-only
    objective = _GapObjective(inst)
    base = inst.inv_demand
    for b in range(1, objective._most + 1):
        inv = objective._stack(b)[1]
        for name in ("intercept", "slope", "cap"):
            got = getattr(inv, name)
            assert got.dtype == float and not got.flags.writeable
            assert got.tobytes() == np.tile(getattr(base, name), b).tobytes()


def test_first_copies_load_as_a_fresh_stack():
    # queued flows on the congested instance (capacity 80 veh/h): the first
    # b copies of a stack give the costs of a fresh copies(b) byte for byte
    inst = congested_tiny()
    stack = inst.network.copies(6)
    rates = np.random.default_rng(5).uniform(0.0, 300.0, size=(6, inst.grid.n))
    for b in range(1, 7):
        first, fresh = inst.network.copies(b, stack), inst.network.copies(b)
        point = ExtendedPoint.from_matrix(inst.grid, rates[:b],
                                          rates[:b].sum(axis=1) * inst.grid.dt)
        assert not load(first, point.flows, inst.grid).queue_free
        psi = [f_map(net, point, inst.penalty, None, inst.grid).psi for net in (first, fresh)]
        assert psi[0].tobytes() == psi[1].tobytes()


def test_demands_of_sums_each_point_alone():
    # two OD pairs: every point's demands are its own od_sum, bit for bit,
    # and no network copies are built to get them
    inst = two_od_tiny()
    net = inst.network
    objective = _GapObjective(inst)
    xs = np.random.default_rng(3).uniform(0.0, 100.0, size=(7, len(net.paths) * inst.grid.n))
    want = [net.od_sum(x.reshape(objective.shape).sum(axis=1)) * inst.grid.dt for x in xs]
    assert np.array_equal(objective.demands_of(xs), np.array(want))
    assert objective._stacks == {}


class _RecordingObjective:
    """The compass search's view of _GapObjective, with a made-up gap: a
    deterministic function of x, inf outside a box as at an infeasible point.
    Keeps every point the search compares."""

    def __init__(self, box: float, sweeps: int):
        self.box = box
        self.sweeps = sweeps
        self.evaluations = 0
        self.scored = np.empty((0, 0))  # the last batch
        self.compared: list[np.ndarray] = []

    def score(self, x: np.ndarray) -> float:
        if (x > self.box).any():
            return np.inf
        return float(np.sum((x - 0.3 * self.box) ** 2) + np.sum(np.cos(7.0 * x)))

    def gaps(self, xs: np.ndarray) -> np.ndarray:
        self.scored = xs.copy()
        return np.array([self.score(x) for x in xs])

    def compare(self, gaps: np.ndarray) -> None:
        # the search compares a leading run of the batch it just scored
        self.compared += list(self.scored[:len(gaps)])
        self.evaluations += int(np.count_nonzero(gaps < np.inf))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.floats(0.5, 100.0),
    st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim),
    st.floats(1e-3, 1.0),
    # min_step / step; at a power of 2 some halving lands on min_step exactly
    st.one_of(st.floats(1e-6, 1e-2), st.integers(1, 20).map(lambda k: 2.0**-k)),
    st.floats(0.2, 1.2),
    st.integers(1, 8))))  # compass sweeps per batch
def test_batched_compass_compares_what_the_sequential_one_does(case):
    upper, start, step_share, min_share, box_share, sweeps = case
    x0 = np.array(start) * upper
    step = step_share * upper
    min_step = min_share * step
    objective = _RecordingObjective(box_share * upper, sweeps)
    gap0 = objective.score(x0)
    x, gap = _compass_search(objective, x0, gap0, step, upper, min_step)
    want_x, want_gap, want_compared = compass_search_loop(
        objective.score, x0, gap0, step, upper, min_step)
    assert x.tobytes() == want_x.tobytes()
    assert gap == want_gap
    assert objective.evaluations == sum(objective.score(t) < np.inf for t in want_compared)
    assert np.array_equal(np.array(objective.compared), np.array(want_compared))
