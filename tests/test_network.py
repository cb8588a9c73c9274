import pytest

from edue.grid import TimeGrid
from edue.network import Link, Network, Path, StructureError, max_exit_capacity, validate

from conftest import corridor_network


def make_net(links, paths, target=1.5):
    return Network(links=tuple(links), paths=tuple(paths), arrival_target=target)


class TestValidate:
    def test_minimal_valid_network(self):
        net = make_net(
            [Link("a", "i", "j", 0.2, 1800.0)],
            [Path("p", ("a",), "i", "j")],
            target=1.5,
        )
        assert validate(net, TimeGrid(0.0, 2.0, 4)) == []

    def test_nonpositive_capacity(self):
        net = make_net([Link("a", "i", "j", 0.2, 0.0)], [Path("p", ("a",), "i", "j")])
        report = validate(net, TimeGrid(0.0, 2.0, 4))
        assert any("nonpositive capacity" in v for v in report)

    def test_arrival_target_must_precede_horizon_end(self):
        net = make_net(
            [Link("a", "i", "j", 0.2, 100.0)],
            [Path("p", ("a",), "i", "j")],
            target=2.0,
        )
        report = validate(net, TimeGrid(0.0, 2.0, 4))
        assert any("arrival time must precede" in v for v in report)

    def test_disconnected_path(self):
        links = [Link("a", "i", "k", 0.1, 100.0), Link("b", "m", "j", 0.1, 100.0)]
        net = make_net(links, [Path("p", ("a", "b"), "i", "j")])
        report = validate(net, TimeGrid(0.0, 2.0, 4))
        assert any("not adjacent" in v for v in report)

    def test_unknown_link_reference(self):
        net = make_net([Link("a", "i", "j", 0.1, 100.0)], [Path("p", ("zz",), "i", "j")])
        report = validate(net, TimeGrid(0.0, 2.0, 4))
        assert any("unknown links" in v for v in report)

    def test_no_paths(self):
        net = make_net([Link("a", "i", "j", 0.1, 100.0)], [])
        assert validate(net, TimeGrid(0.0, 2.0, 4)) == ["network has no paths"]

    def test_repeated_link(self):
        net = make_net(
            [Link("a", "i", "i", 0.1, 100.0)], [Path("p", ("a", "a"), "i", "i")]
        )
        report = validate(net, TimeGrid(0.0, 2.0, 4))
        assert any("repeated link" in v for v in report)


class TestLinkConstruction:
    @pytest.mark.parametrize("field", ["free_flow_time", "exit_capacity"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(free_flow_time=0.1, exit_capacity=100.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            Link("a", "i", "j", **kwargs)


class TestMaxExitCapacity:
    def test_max_of_two(self):
        net = make_net(
            [Link("a", "i", "j", 0.1, 1800.0), Link("b", "j", "k", 0.1, 1200.0)],
            [Path("p", ("a", "b"), "i", "k")],
        )
        assert max_exit_capacity(net) == 1800.0

    def test_singleton(self):
        net = make_net([Link("a", "i", "j", 0.1, 600.0)], [Path("p", ("a",), "i", "j")])
        assert max_exit_capacity(net) == 600.0

    def test_ties(self):
        net = make_net(
            [Link("a", "i", "j", 0.1, 1000.0), Link("b", "j", "k", 0.1, 1000.0)],
            [Path("p", ("a", "b"), "i", "k")],
        )
        assert max_exit_capacity(net) == 1000.0

    def test_empty_links_rejected(self):
        with pytest.raises(StructureError):
            max_exit_capacity(Network(links=(), paths=(), arrival_target=1.0))

    def test_bound_dominates_each_link(self):
        links = [Link(f"l{i}", "a", "b", 0.1, 100.0 * (i + 1)) for i in range(5)]
        net = make_net(links, [Path("p", ("l0",), "a", "b")])
        cap = max_exit_capacity(net)
        assert all(cap >= l.exit_capacity for l in links)


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

    def test_copies_repeat_the_od_structure(self):
        # "p" sorts before "p!", but "p!#0" would sort before "p#0": the
        # copies' prefixed ids keep each OD pair's path order
        links = (Link("a", "O", "D", 1.0, 10.0), Link("b", "O", "D", 1.0, 10.0),
                 Link("c", "X", "D", 1.0, 10.0))
        paths = (Path("p!", ("b",), "O", "D"), Path("q", ("c",), "X", "D"),
                 Path("p", ("a",), "O", "D"))
        net = Network(links=links, paths=paths, arrival_target=0.5)
        copies = net.copies(3)
        assert validate(copies, TimeGrid(0.0, 1.0, 2)) == []
        n_paths, n_ods = len(net.paths), len(net.od_pairs)
        assert len(copies.paths) == 3 * n_paths and len(copies.od_pairs) == 3 * n_ods
        for k in range(3):
            assert copies.od_pairs[k * n_ods:(k + 1) * n_ods] == tuple(
                (f"{k}#{o}", f"{k}#{d}") for o, d in net.od_pairs)
            assert (copies.path_od[k * n_paths:(k + 1) * n_paths] == net.path_od + k * n_ods).all()
            assert copies.od_paths[k * n_ods:(k + 1) * n_ods] == tuple(
                tuple(p + k * n_paths for p in od) for od in net.od_paths)
        assert net.od_paths[0] == (2, 0)


def depth_of(net):
    """Per link id, the index of its depth in net.loading_depths."""
    return {link.id: d for d, depth in enumerate(net.loading_depths)
            for link, _ in depth.links + tuple(l for c in depth.cycles for l in c.links)}


def assert_predecessors_shallower(net):
    """Every link a path uses right before another lies at a lower depth,
    unless both lie on one succession cycle."""
    depth = depth_of(net)
    assert sorted(depth) == sorted(link.id for link in net.links)
    cycle_of = {link.id: c for d in net.loading_depths for c, cycle in enumerate(d.cycles)
                for link, _ in cycle.links}
    for route in net.routes:
        for a, b in zip(route, route[1:]):
            same_cycle = a.id in cycle_of and cycle_of.get(b.id) == cycle_of[a.id] \
                and depth[a.id] == depth[b.id]
            assert depth[a.id] < depth[b.id] or same_cycle, (a.id, b.id)


class TestLoadingOrder:
    def test_components_in_succession_order(self):
        # f feeds a ring r1 -> r2 -> r3 -> r1 that x leaves; u is unused
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
        net = make_net(links, paths)
        depths = [(sorted(link.id for link, _ in d.links),
                   [[link.id for link, _ in c.links] for c in d.cycles])
                  for d in net.loading_depths]
        assert depths == [(["f", "u"], []), ([], [["r3", "r2", "r1"]]), (["x"], [])]
        (ring,) = net.loading_depths[1].cycles
        # the users fed from inside the ring: all but path "in" entering r1 from f
        assert ring.inner == {(0, 2), (1, 1), (2, 1), (3, 1)}
        users = {link.id: u for d in net.loading_depths
                 for link, u in d.links + tuple(l for c in d.cycles for l in c.links)}
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
