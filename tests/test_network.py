import pytest

from edue.grid import TimeGrid
from edue.network import Link, Network, Path, StructureError, max_exit_capacity, validate


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
        loading_order = make_net(links, paths).loading_order
        order = [[link.id for link, _ in comp] for comp in loading_order]
        assert sorted(order) == [["f"], ["r3", "r2", "r1"], ["u"], ["x"]]
        assert order.index(["f"]) < order.index(["r3", "r2", "r1"]) < order.index(["x"])
        users = {link.id: u for comp in loading_order for link, u in comp}
        assert users["r2"] == ((0, 2), (1, 0), (3, 1))
        assert users["u"] == ()
