import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edue.cost import SchedulePenalty
from edue.demand import InverseDemand
from edue.dnl import load
from edue.grid import TimeGrid
from edue.network import Link, Network, Path, StructureError
from edue.oracle import TinyInstance
from edue.solver import SolverConfig, lemma2_bound, solve

from conftest import corridor_network
from test_dnl import layered_loadings, ring_loadings, ring_network
from test_reductions import problems


def make_net(links, paths, target=1.5):
    return Network(links=tuple(links), paths=tuple(paths), arrival_target=target)


def link(lid="a", tail="i", head="j", free_flow_time=0.1, exit_capacity=100.0):
    return Link(lid, tail, head, free_flow_time, exit_capacity)


class TestValidate:
    """Each way a link or network can be unusable raises when it is built,
    naming the link or path. (Whether the arrival target lies within the
    horizon needs the horizon, so the scenario parser checks that.)"""

    def test_minimal_valid_network(self):
        net = make_net([Link("a", "i", "j", 0.2, 1800.0)], [Path("p", ("a",), "i", "j")])
        assert net.od_pairs == (("i", "j"),)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: link(exit_capacity=0.0),
                     "link a: exit_capacity must be finite and positive, got 0.0",
                     id="zero capacity"),
        pytest.param(lambda: link(exit_capacity=-5.0),
                     "link a: exit_capacity must be finite and positive, got -5.0",
                     id="negative capacity"),
        pytest.param(lambda: link(free_flow_time=0.0),
                     "link a: free_flow_time must be finite and positive, got 0.0",
                     id="zero free-flow time"),
        pytest.param(lambda: link(free_flow_time=-0.1),
                     "link a: free_flow_time must be finite and positive, got -0.1",
                     id="negative free-flow time"),
        pytest.param(lambda: make_net([link()], []), "network has no paths", id="no paths"),
        pytest.param(lambda: make_net([link(), link()], [Path("p", ("a",), "i", "j")]),
                     "link a: duplicate id", id="duplicate link id"),
        pytest.param(lambda: make_net([link()], [Path("p", ("a",), "i", "j")] * 2),
                     "path p: duplicate id", id="duplicate path id"),
        pytest.param(lambda: make_net([link()], [Path("p", (), "i", "j")]),
                     "path p: empty link sequence", id="empty path"),
        pytest.param(lambda: make_net([link()], [Path("p", ("zz",), "i", "j")]),
                     "path p: unknown links ['zz']", id="unknown link"),
        pytest.param(lambda: make_net([link(head="i")], [Path("p", ("a", "a"), "i", "i")]),
                     "path p: repeated link", id="repeated link"),
        pytest.param(lambda: make_net([link()], [Path("p", ("a",), "x", "j")]),
                     "path p: does not start at origin x", id="wrong origin"),
        pytest.param(lambda: make_net([link()], [Path("p", ("a",), "i", "x")]),
                     "path p: does not end at destination x", id="wrong destination"),
        pytest.param(lambda: make_net([link(head="k"), link("b", "m", "j")],
                                      [Path("p", ("a", "b"), "i", "j")]),
                     "path p: links a and b are not adjacent", id="not adjacent"),
    ])
    def test_violation_raises_when_built(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_nonpositive_capacity(self):
        # the bound is strict: the least positive float is a capacity
        for value in (0.0, -0.0, -5.0):
            with pytest.raises(ValueError, match="link a: exit_capacity"):
                link(exit_capacity=value)
        assert link(exit_capacity=math.ulp(0.0)).exit_capacity > 0.0

    def test_disconnected_path(self):
        # one error lists every violation, path after path
        links = [link(head="k"), link("b", "m", "j")]
        paths = [Path("p", ("a", "b"), "i", "x"), Path("q", ("zz", "a"), "y", "k")]
        with pytest.raises(StructureError) as err:
            make_net(links, paths)
        assert str(err.value) == ("path p: does not end at destination x; "
                                  "path p: links a and b are not adjacent; "
                                  "path q: unknown links ['zz']")

    def test_unknown_link_reference(self):
        # reported instead of a KeyError; the path's other checks need its
        # links, so they are skipped
        with pytest.raises(StructureError, match=r"^path p: unknown links \['zz'\]$"):
            make_net([link()], [Path("p", ("zz",), "x", "y")])

    def test_no_paths(self):
        # the text the CLI pins after "invalid network: "
        with pytest.raises(StructureError, match="^network has no paths$"):
            make_net([link()], [])

    def test_repeated_link(self):
        # a self-loop used twice is a chain from its origin to its
        # destination, so the repeat is the path's only violation
        with pytest.raises(StructureError, match="^path p: repeated link$"):
            make_net([link(head="i")], [Path("p", ("a", "a"), "i", "i")])

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), None, "0.6", True])
    def test_arrival_target_that_is_no_finite_number_rejected(self, target):
        # built, such a network fails only in its first solve, far from the
        # cause: with non-finite delays, or a bare TypeError inside cost
        with pytest.raises(ValueError, match="^network arrival_target must be"):
            make_net([link()], [Path("p", ("a",), "i", "j")], target=target)

    @pytest.mark.parametrize("links", [
        pytest.param([link(), link("b", "j", "k")], id="its characters are links"),
        pytest.param([link("ab", "i", "k")], id="it is a link"),
    ])
    def test_string_of_link_ids_rejected(self, links):
        # tuple("ab") is ("a", "b"): a two-link path, or an unknown-links
        # error that names neither the string nor its cause
        with pytest.raises(StructureError,
                           match="^path p1: link_ids must be a sequence of link ids, "
                                 "got the string 'ab'$"):
            make_net(links, [Path("p1", "ab", "i", "k")])


FAILURE_MODES = [
    pytest.param(lambda: [link(), link("u", "j", "k", exit_capacity=0.0)], ("a",),
                 "link u: exit_capacity", id="zero capacity on an unused link"),
    pytest.param(lambda: [link(exit_capacity=-5.0)], ("a",), "link a: exit_capacity",
                 id="negative capacity"),
    pytest.param(lambda: [link(free_flow_time=-0.1)], ("a",), "link a: free_flow_time",
                 id="negative free-flow time"),
    pytest.param(lambda: [link()], ("zz",), "path p: unknown links", id="unknown link"),
]


@pytest.mark.parametrize("entry", ["load", "solve", "TinyInstance"])
@pytest.mark.parametrize("links, route, message", FAILURE_MODES)
def test_library_failure_modes_raise_when_built(entry, links, route, message):
    """A network that an entry point would fail on deep inside (division by
    a zero capacity, a negative horizon end, arrivals before departure, a
    bare KeyError) raises when it is built, naming its link or path, before
    the entry point runs."""
    grid = TimeGrid(0.0, 2.0, 2)
    run = {
        "load": lambda net: load(net, np.ones((1, grid.n)), grid),
        "solve": lambda net: solve(net, SchedulePenalty(0.5, 2.0),
                                   InverseDemand([1.0], [0.01], [80.0]), SolverConfig(), grid),
        "TinyInstance": lambda net: TinyInstance(net, grid, SchedulePenalty(0.5, 2.0),
                                                 InverseDemand([1.0], [0.01], [80.0])),
    }[entry]
    with pytest.raises(ValueError, match=message):
        run(make_net(links(), [Path("p", route, "i", "j")]))


class TestLinkConstruction:
    @pytest.mark.parametrize("field", ["free_flow_time", "exit_capacity"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None, "1", True])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(free_flow_time=0.1, exit_capacity=100.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            Link("a", "i", "j", **kwargs)


class TestMaxExitCapacity:
    """M^max, the largest exit capacity, as lemma2_bound reads it: with no
    early penalty the bound is 3 M^max."""

    def test_max_of_two(self):
        net = make_net([link(exit_capacity=1800.0), link("b", "j", "k", exit_capacity=1200.0)],
                       [Path("p", ("a", "b"), "i", "k")])
        assert lemma2_bound(net, SchedulePenalty(0.0, 2.0)) == 3 * 1800.0

    def test_singleton(self):
        net = make_net([link(exit_capacity=600.0)], [Path("p", ("a",), "i", "j")])
        assert lemma2_bound(net, SchedulePenalty(0.0, 2.0)) == 3 * 600.0

    def test_ties(self):
        net = make_net([link(exit_capacity=1000.0), link("b", "j", "k", exit_capacity=1000.0)],
                       [Path("p", ("a", "b"), "i", "k")])
        assert lemma2_bound(net, SchedulePenalty(0.0, 2.0)) == 3 * 1000.0

    def test_empty_links_rejected(self):
        # the empty maximum can no longer arise: a network without links has
        # no paths either
        with pytest.raises(StructureError, match="network has no paths"):
            Network(links=(), paths=(), arrival_target=1.0)

    def test_bound_dominates_each_link(self):
        links = [link(f"l{i}", "a", "b", exit_capacity=100.0 * (i + 1)) for i in range(5)]
        net = make_net(links, [Path("p", ("l0",), "a", "b")])
        bound = lemma2_bound(net, SchedulePenalty(0.0, 2.0))
        assert all(bound >= 3 * l.exit_capacity for l in links)


class TestStructure:
    def test_duplicate_link_ids_rejected(self):
        with pytest.raises(StructureError):
            make_net(
                [Link("a", "i", "j", 0.1, 1.0), Link("a", "j", "k", 0.1, 1.0)],
                [Path("p", ("a",), "i", "j")],
            )

    def test_od_paths_sorted_by_path_id(self):
        links = [
            Link("a1", "O", "D", 0.1, 10.0),
            Link("a2", "O", "D", 0.1, 10.0),
        ]
        paths = [Path("pB", ("a2",), "O", "D"), Path("pA", ("a1",), "O", "D")]
        net = make_net(links, paths)
        (od,) = net.od_paths
        assert [net.paths[i].id for i in od] == ["pA", "pB"]

    def test_clearance_terms_add_free_flow_times_left_to_right(self):
        # math.fsum, and sum() from Python 3.12, give 1.0000000000000002;
        # added left to right, each 1e-16 falls below half an ulp of 1.0
        links = [Link("a", "i", "j", 1.0, 5.0), Link("b", "j", "k", 1e-16, 3.0),
                 Link("c", "k", "l", 1e-16, 4.0)]
        net = make_net(links, [Path("p", ("a", "b", "c"), "i", "l")])
        assert net.clearance_terms == (3.0, 1.0, 3)
        assert math.fsum(l.free_flow_time for l in links) == 1.0000000000000002

    def test_copies_repeat_the_od_structure(self):
        # "p" sorts before "p!", but "p!#0" would sort before "p#0": the
        # copies' prefixed ids keep each OD pair's path order
        links = (Link("a", "O", "D", 1.0, 10.0), Link("b", "O", "D", 1.0, 10.0),
                 Link("c", "X", "D", 1.0, 10.0))
        paths = (Path("p!", ("b",), "O", "D"), Path("q", ("c",), "X", "D"),
                 Path("p", ("a",), "O", "D"))
        net = Network(links=links, paths=paths, arrival_target=0.5)
        copies = net.copies(3)
        n_paths, n_ods = len(net.paths), len(net.od_pairs)
        assert len(copies.paths) == 3 * n_paths and len(copies.od_pairs) == 3 * n_ods
        for k in range(3):
            assert copies.od_pairs[k * n_ods:(k + 1) * n_ods] == tuple(
                (f"{k}#{o}", f"{k}#{d}") for o, d in net.od_pairs)
            assert (copies.path_od[k * n_paths:(k + 1) * n_paths] == net.path_od + k * n_ods).all()
            assert copies.od_paths[k * n_ods:(k + 1) * n_ods] == tuple(
                tuple(p + k * n_paths for p in od) for od in net.od_paths)
        assert net.od_paths[0] == (2, 0)


def fed_ring():
    """f feeds a ring r1 -> r2 -> r3 -> r1 that x leaves; u is unused."""
    links = [
        Link("x", "C", "E", 0.1, 100.0),
        Link("r3", "C", "A", 0.1, 100.0),
        Link("u", "E", "F", 0.1, 100.0),
        Link("r2", "B", "C", 0.1, 100.0),
        Link("r1", "A", "B", 0.1, 100.0),
        Link("f", "S", "A", 0.1, 100.0),
    ]
    paths = [
        Path("in", ("f", "r1", "r2"), "S", "C"),
        Path("a", ("r2", "r3"), "B", "A"),
        Path("b", ("r3", "r1"), "C", "B"),
        Path("out", ("r1", "r2", "x"), "A", "E"),
    ]
    return make_net(links, paths)


@settings(deadline=None)
@given(st.one_of(problems(), layered_loadings(), ring_loadings()).map(lambda case: case[0])
       | st.sampled_from([ring_network, fed_ring, lambda: corridor_network(2)]).map(
           lambda build: build()),
       st.integers(1, 5))
def test_first_copies_of_a_stack_equal_fresh_copies(net, n_copies):
    """Random path sets (multi-OD one-link paths under shuffled ids, layered
    paths that merge and diverge, runs around a ring), the three-link ring,
    a ring with an acyclic feeder and the corridor: the first b copies of a
    stack hold the stack's own links and paths, and every derived structure
    is that of a fresh copies(b)."""
    stack = net.copies(n_copies)
    for b in range(1, n_copies + 1):
        first, fresh = net.copies(b, stack), net.copies(b)
        assert all(a is s for a, s in zip(first.links, stack.links))
        assert all(a is s for a, s in zip(first.paths, stack.paths))
        assert (first.links, first.paths) == (fresh.links, fresh.paths)
        for name in ("routes", "od_paths", "loading_depths", "clearance_terms", "od_pairs",
                     "arrival_target"):
            assert getattr(first, name) == getattr(fresh, name), name
        *arrays, bound = first.queue_bound_terms
        *want, want_bound = fresh.queue_bound_terms
        assert bound == want_bound
        for a, w in zip(arrays + [first.od_rows, first.path_od], want + [fresh.od_rows,
                                                                         fresh.path_od]):
            assert a.dtype == w.dtype and np.array_equal(a, w) and not a.flags.writeable
        take = fresh._od_take
        assert type(first._od_take) is type(take)
        assert first._od_take == take if isinstance(take, slice) else \
            np.array_equal(first._od_take, take)
        assert first.free_flow_delays is not stack.free_flow_delays
        assert first.loading_layouts is not stack.loading_layouts
    with pytest.raises(ValueError, match="between 1 and the stack's"):
        net.copies(n_copies + 1, stack)
    # only this network's own stack is adopted: not an equal network's, not
    # the network itself, not first copies
    equal = Network(net.links, net.paths, net.arrival_target)
    assert equal == net
    for other in (equal.copies(n_copies), net, net.copies(1, stack)):
        with pytest.raises(ValueError, match="stack must be this network's own copies"):
            net.copies(1, other)


def depth_of(net):
    """Per link id, the index of its depth in net.loading_depths."""
    return {link.id: d for d, depth in enumerate(net.loading_depths)
            for link, _ in depth.links + tuple(l for c in depth.cycles for l in c)}


def assert_predecessors_shallower(net):
    """Every link a path uses right before another lies at a lower depth,
    unless both lie on one succession cycle."""
    depth = depth_of(net)
    assert sorted(depth) == sorted(link.id for link in net.links)
    cycle_of = {link.id: c for d in net.loading_depths for c, cycle in enumerate(d.cycles)
                for link, _ in cycle}
    for route in net.routes:
        for a, b in zip(route, route[1:]):
            same_cycle = a.id in cycle_of and cycle_of.get(b.id) == cycle_of[a.id] \
                and depth[a.id] == depth[b.id]
            assert depth[a.id] < depth[b.id] or same_cycle, (a.id, b.id)


class TestLoadingOrder:
    def test_components_in_succession_order(self):
        net = fed_ring()
        depths = [(sorted(link.id for link, _ in d.links),
                   [[link.id for link, _ in c] for c in d.cycles])
                  for d in net.loading_depths]
        assert depths == [(["f", "u"], []), ([], [["r3", "r2", "r1"]]), (["x"], [])]
        users = {link.id: u for d in net.loading_depths
                 for link, u in d.links + tuple(l for c in d.cycles for l in c)}
        assert users["r2"] == ((0, 2), (1, 0), (3, 1))
        assert users["u"] == ()
        assert_predecessors_shallower(net)

    def test_corridor_depths(self):
        # feeders and bypasses, then the shared bottleneck, then the exits
        net = corridor_network(4)
        assert [len(d.links) for d in net.loading_depths] == [8, 1, 4]
        assert all(not d.cycles for d in net.loading_depths)
        assert [link.id for link, _ in net.loading_depths[1].links] == ["bn"]
        assert_predecessors_shallower(net)

    @settings(deadline=None)
    @given(st.one_of(problems(), layered_loadings(), ring_loadings()).map(lambda case: case[0])
           | st.sampled_from([ring_network, fed_ring, lambda: corridor_network(2)]).map(
               lambda build: build()),
           st.integers(1, 3))
    def test_depths_list_their_links_in_network_order(self, net, n_copies):
        # so copy k lies after copy k-1 at every depth of a stack
        for net in (net, net.copies(n_copies)):
            position = {link.id: i for i, link in enumerate(net.links)}
            for depth in net.loading_depths:
                acyclic = [position[link.id] for link, _ in depth.links]
                cycles = [[position[link.id] for link, _ in cycle] for cycle in depth.cycles]
                assert acyclic == sorted(acyclic)
                assert all(cycle == sorted(cycle) for cycle in cycles)
                assert [cycle[0] for cycle in cycles] == sorted(cycle[0] for cycle in cycles)
            assert_predecessors_shallower(net)
