import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edue.dnl import HorizonOverflowError, load
from edue.grid import TimeGrid
from edue.network import Link, Network, Path, validate

from oracles import single_link_delay

MIN = 1 / 60.0  # one minute in hours


def cell_delays(res, p):
    """Cell-averaged delays of path p: the mean of the two cell-endpoint
    values of the exact piecewise-linear delay function."""
    d = res.exit_times(p, res.grid.boundaries) - res.grid.boundaries
    return 0.5 * (d[:-1] + d[1:])


def single_link(tau_min=5.0, cap_per_min=1.0):
    link = Link("a", "O", "D", free_flow_time=tau_min * MIN, exit_capacity=cap_per_min * 60.0)
    return Network(links=(link,), paths=(Path("p", ("a",), "O", "D"),), arrival_target=0.5)


class TestFreeFlow:
    def test_zero_inflow_gives_free_flow_delay(self):
        net = single_link()
        grid = TimeGrid(0.0, 10 * MIN, 2)
        res = load(net, [[0.0, 0.0]], grid)
        delays = res.exit_times(0, grid.boundaries) - grid.boundaries
        assert delays == pytest.approx(5 * MIN, abs=1e-12)

    def test_two_links_huge_capacity(self):
        links = (
            Link("a", "O", "M", 5 * MIN, 1e9),
            Link("b", "M", "D", 5 * MIN, 1e9),
        )
        net = Network(links=links, paths=(Path("p", ("a", "b"), "O", "D"),), arrival_target=0.5)
        grid = TimeGrid(0.0, 10 * MIN, 4)
        res = load(net, [[300.0, 0.0, 120.0, 60.0]], grid)
        delays = res.exit_times(0, grid.boundaries) - grid.boundaries
        assert delays == pytest.approx(10 * MIN, rel=1e-12)

    def test_delay_profiles_constant_at_free_flow(self):
        net = single_link()
        grid = TimeGrid(0.0, 10 * MIN, 4)
        res = load(net, [[0.1] * 4], grid)
        assert np.allclose(cell_delays(res, 0), 5 * MIN)


class TestBottleneck:
    """Capacity 1 veh/min, free-flow 5 min, inflow 2 veh/min on [0, 10] min."""

    def make(self):
        net = single_link(tau_min=5.0, cap_per_min=1.0)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        res = load(net, [[120.0, 120.0]], grid)
        return net, grid, res

    def test_hand_computed_endpoints(self):
        _, _, res = self.make()
        assert res.exit_times(0, 0.0) == pytest.approx(5 * MIN, abs=1e-12)
        assert res.exit_times(0, 10 * MIN) - 10 * MIN == pytest.approx(15 * MIN, rel=1e-9)

    def test_against_independent_simulator(self):
        _, _, res = self.make()
        for depart_min in [0.0, 2.5, 5.0, 7.5, 10.0, 12.0, 15.0]:
            expected = single_link_delay(
                entry_times=[0.0, 10 * MIN],
                entry_rates=[120.0],
                free_flow_time=5 * MIN,
                capacity=60.0,
                depart=depart_min * MIN,
                t_max=1.0,
                dt=1e-5,
            )
            assert res.exit_times(0, depart_min * MIN) - depart_min * MIN == pytest.approx(
                expected, abs=2e-5
            ), f"departure at {depart_min} min"

    def test_cell_average_on_descending_branch(self):
        # Delay is 25 - t minutes for departures in [10, 15] min: endpoint
        # values 15 and 10, cell average 12.5 (endpoint-averaged).
        net = single_link(tau_min=5.0, cap_per_min=1.0)
        grid = TimeGrid(0.0, 15 * MIN, 3)
        res = load(net, [[120.0, 120.0, 0.0]], grid)
        assert cell_delays(res, 0)[2] == pytest.approx(12.5 * MIN, rel=1e-9)

    def test_queue_episode_inside_one_cell(self):
        # A short burst well above capacity creates a queue that clears
        # within the same cell; only that cell's average exceeds free flow.
        net = single_link(tau_min=5.0, cap_per_min=10.0)
        grid = TimeGrid(0.0, 40 * MIN, 4)
        vals = [0.0, 1200.0, 0.0, 0.0]  # 20 veh/min on [10, 20) min
        res = load(net, [vals], grid)
        prof = cell_delays(res, 0)
        assert prof[1] > 5 * MIN
        assert prof[0] == pytest.approx(5 * MIN, abs=1e-12)
        assert prof[3] == pytest.approx(5 * MIN, abs=1e-12)


class TestSharedLink:
    def test_two_paths_merge_fifo(self):
        # Both paths feed one bottleneck; delays seen by both paths at equal
        # departure times are identical (the queue does not discriminate).
        links = (
            Link("a1", "O1", "M", 5 * MIN, 1e9),
            Link("a2", "O2", "M", 5 * MIN, 1e9),
            Link("b", "M", "D", 5 * MIN, 60.0),
        )
        paths = (
            Path("p1", ("a1", "b"), "O1", "D"),
            Path("p2", ("a2", "b"), "O2", "D"),
        )
        net = Network(links=links, paths=paths, arrival_target=0.5)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        flows = [[60.0, 60.0], [60.0, 60.0]]
        res = load(net, flows, grid)
        exits = res.exit_times(0, grid.boundaries)
        assert exits == pytest.approx(res.exit_times(1, grid.boundaries), rel=1e-12)
        # combined inflow is 2 veh/min against 1 veh/min capacity: same
        # queueing as the single-path bottleneck
        assert exits[-1] - 10 * MIN == pytest.approx(20 * MIN, rel=1e-9)


def random_loading(seed, n_cells=6, positive=True):
    rng = np.random.default_rng(seed)
    tau1, tau2 = rng.uniform(0.02, 0.2, size=2)
    cap1, cap2 = rng.uniform(100.0, 800.0, size=2)
    links = (
        Link("a", "O", "M", tau1, cap1),
        Link("b", "M", "D", tau2, cap2),
        Link("c", "O", "D", tau1 + tau2, cap1),
    )
    paths = (Path("p1", ("a", "b"), "O", "D"), Path("p2", ("c",), "O", "D"))
    net = Network(links=links, paths=paths, arrival_target=0.8)
    grid = TimeGrid(0.0, 1.0, n_cells)
    lo = 1.0 if positive else 0.0
    flows = rng.uniform(lo, 1200.0, size=(len(paths), n_cells))
    return net, grid, flows


class TestInvariants:
    def test_conservation_battery(self):
        for seed in range(30):
            net, grid, flows = random_loading(seed, positive=False)
            res = load(net, flows, grid)
            assert res.conservation_residual <= 1e-9, f"seed {seed}"

    def test_fifo_strict_on_grid_battery(self):
        for seed in range(30):
            net, grid, flows = random_loading(seed, positive=True)
            res = load(net, flows, grid)
            for p in range(2):
                exits = res.exit_times(p, grid.boundaries)
                assert np.all(np.diff(exits) > 0.0), f"seed {seed}"

    def test_capacity_respected_battery(self):
        for seed in range(30):
            net, grid, flows = random_loading(seed, positive=False)
            res = load(net, flows, grid)
            for link in net.links:
                st = res.states[link.id]
                samples = st.curve_samples()
                if samples.shape[0] < 2:
                    continue
                rates = np.diff(samples[:, 2]) / np.diff(samples[:, 0])
                assert np.all(rates <= link.exit_capacity + 1e-9), f"seed {seed}"

    def test_delay_never_below_free_flow(self):
        for seed in range(10):
            net, grid, flows = random_loading(seed)
            res = load(net, flows, grid)
            for p in range(2):
                fft = sum(link.free_flow_time for link in net.routes[p])
                delays = res.exit_times(p, grid.boundaries) - grid.boundaries
                assert np.all(delays >= fft - 1e-12)

    def test_causality(self):
        # Delay for a departure is unchanged by flow in cells that start
        # after that departure's exit time.
        net = single_link(tau_min=5.0, cap_per_min=1.0)
        grid = TimeGrid(0.0, 30 * MIN, 6)
        base = [120.0, 120.0, 0.0, 0.0, 0.0, 0.0]
        res_a = load(net, [base], grid)
        t_probe = 5 * MIN
        exit_probe = res_a.exit_times(0, t_probe)
        # cell 5 starts at 25 min; make sure it is after the probe's exit
        assert grid.boundaries[5] > exit_probe
        perturbed = list(base)
        perturbed[5] = 500.0
        res_b = load(net, [perturbed], grid)
        assert res_b.exit_times(0, t_probe) == pytest.approx(exit_probe, rel=1e-12)

    def test_fifo_rate_inequality(self):
        # (t - s) * min inflow on [s, t] <= M^max * (exit(t) - exit(s)) on a
        # single path, for grid-sampled departure pairs.
        for seed in range(10):
            net, grid, flows = random_loading(seed, positive=True)
            res = load(net, flows, grid)
            m_max = max(l.exit_capacity for l in net.links)
            for p in range(2):
                bounds = grid.boundaries
                exits = res.exit_times(p, bounds)
                for i in range(len(bounds) - 1):
                    for j in range(i + 1, len(bounds)):
                        min_inflow = float(np.min(flows[p][i:j]))
                        lhs = (bounds[j] - bounds[i]) * min_inflow
                        rhs = m_max * (exits[j] - exits[i])
                        assert lhs <= rhs + 1e-6, f"seed {seed}"


class TestErrors:
    def test_horizon_overflow_reports_residual(self):
        net = single_link(tau_min=5.0, cap_per_min=1.0)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, [[6000.0, 6000.0]], grid, horizon=0.02)
        assert exc.value.residual_volume > 0.0
        assert (exc.value.path_id, exc.value.link_id) == ("p", "a")

    def test_horizon_overflow_names_the_queued_link(self):
        links = (
            Link("a", "O", "M", 5 * MIN, 1e9),
            Link("b", "M", "D", 5 * MIN, 60.0),
        )
        net = Network(links=links, paths=(Path("p", ("a", "b"), "O", "D"),), arrival_target=0.5)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, [[600.0, 600.0]], grid, horizon=0.3)
        # 100 vehicles queue at b, which lets 1 veh/min out from 10 min on:
        # 18 have left by the horizon end at 28 min
        assert exc.value.residual_volume == pytest.approx(82.0, rel=1e-9)
        assert (exc.value.path_id, exc.value.link_id) == ("p", "b")
        assert "path p" in str(exc.value) and "link b" in str(exc.value)

    def test_negative_flow_rejected(self):
        net = single_link()
        grid = TimeGrid(0.0, 10 * MIN, 2)
        with pytest.raises(ValueError):
            load(net, [[-1.0, 0.0]], grid)


def ring_network():
    """Three links A->B->C->A; each path uses two of them, so every link
    succeeds another and the succession graph is one cycle."""
    links = (
        Link("r1", "A", "B", 0.10, 300.0),
        Link("r2", "B", "C", 0.15, 250.0),
        Link("r3", "C", "A", 0.12, 400.0),
    )
    paths = (
        Path("p12", ("r1", "r2"), "A", "C"),
        Path("p23", ("r2", "r3"), "B", "A"),
        Path("p31", ("r3", "r1"), "C", "B"),
    )
    return Network(links=links, paths=paths, arrival_target=0.5)


# Exit times at the cell boundaries, per seed and path, from the earlier
# parcel-and-heap implementation of the loader on ring_network() with
# flows uniform on [0, 900) veh/h drawn from default_rng(seed).
RING_EXITS = {
    0: (
        (0.36838887927618474, 1.6222663450019472, 2.872503243222953, 2.8986862387905408,
         2.908602820107659, 3.396564963627822, 3.944218309994455),
        (0.4093739433483047, 0.9923742412250878, 1.8214025243533847, 2.0252618961529185,
         2.425367756435942, 2.9904259388573524, 3.013446864451394),
        (0.32930620743572353, 0.9966559401212642, 1.0227624586408544, 2.0290656385010584,
         2.3432881479767893, 2.7748776091517326, 3.0456082192762786),
    ),
    1: (
        (0.447972933775359, 1.3352385056450473, 2.8907977644156047, 2.9772935320473843,
         3.546483200329731, 3.733582071536022, 3.987577940919568),
        (0.27, 1.190255969494928, 1.5270566279004398, 1.7362354857349205,
         1.901258237232033, 2.504129519994343, 2.978705550985023),
        (0.2842557848920924, 0.8803796849026073, 1.9608963409549416, 2.3302512701906313,
         2.6825527102829616, 2.749573558906544, 2.951130052130109),
    ),
    2: (
        (0.25, 0.48194740916227896, 1.2171280603114458, 2.139619830282894,
         2.1947693955639522, 2.554829711143345, 2.9919660272304216),
        (0.27, 0.631026456985704, 0.7802940251575045, 1.2864135650802115,
         1.9929301156814425, 2.2037797392241028, 2.260053087963604),
        (0.22, 0.5863109660425851, 1.3918702019118032, 1.842974584035281,
         2.6022212192171548, 3.0859391954639928, 3.4274716066188056),
    ),
}


def assert_loading_invariants(net, grid, flows, res):
    """Conservation, strictly increasing exit times for paths with positive
    flow in every cell, exit rates within capacity, no delay below free flow.

    The exit rate is checked as volume per curve piece, within capacity times
    the piece length plus 1e-9 vehicles: on pieces a few microseconds long the
    quotient of two rounded differences is not accurate to 1e-9 veh/h."""
    assert res.conservation_residual <= 1e-9
    for p, f in enumerate(flows):
        exits = res.exit_times(p, grid.boundaries)
        if np.all(f > 0.0):
            assert np.all(np.diff(exits) > 0.0), f"path {p}"
        fft = sum(link.free_flow_time for link in net.routes[p])
        assert np.all(exits - grid.boundaries >= fft - 1e-12)
    for link in net.links:
        samples = res.states[link.id].curve_samples()
        if samples.shape[0] < 2:
            continue
        out, pieces = np.diff(samples[:, 2]), np.diff(samples[:, 0])
        assert np.all(out <= link.exit_capacity * pieces + 1e-9), link.id


class TestCyclicSuccession:
    @pytest.mark.parametrize("seed", sorted(RING_EXITS))
    def test_ring_matches_recorded_exit_times(self, seed):
        net = ring_network()
        grid = TimeGrid(0.0, 1.0, 6)
        assert validate(net, grid) == []
        rng = np.random.default_rng(seed)
        flows = np.array([rng.uniform(0.0, 900.0, size=6) for _ in net.paths])
        res = load(net, flows, grid)
        for p, expected in enumerate(RING_EXITS[seed]):
            exits = res.exit_times(p, grid.boundaries)
            assert exits == pytest.approx(expected, abs=1e-9), f"path {p}"
        assert_loading_invariants(net, grid, flows, res)


@st.composite
def ring_loadings(draw):
    """Paths along a ring of m links r0 -> r1 -> ... (node i to node i+1 mod
    m), each a run of consecutive ring links, so paths share links. In the
    cyclic half of the cases one two-link path starts on every ring link, so
    the succession graph is a cycle, and further runs may wrap around."""
    m = draw(st.integers(2, 4))
    cyclic = draw(st.booleans())
    links = tuple(
        Link(f"r{i}", f"n{i}", f"n{(i + 1) % m}", draw(st.floats(0.02, 0.3)),
             draw(st.floats(50.0, 1000.0)))
        for i in range(m)
    )
    runs = [(i, 2) for i in range(m)] if cyclic else []
    for _ in range(draw(st.integers(0 if cyclic else 1, 3))):
        start = draw(st.integers(0, m - 1))
        runs.append((start, draw(st.integers(1, m - 1 if cyclic else m - start))))
    n_cells = draw(st.integers(1, 5))
    grid = TimeGrid(0.0, 1.0, n_cells)
    # a cell is empty or carries at least 1 veh/h, as in random_loading:
    # strictly increasing exit times need a resolvable rate
    rate = st.one_of(st.just(0.0), st.floats(1.0, 1500.0))
    paths = tuple(
        Path(f"p{k}", tuple(f"r{(start + j) % m}" for j in range(length)),
             f"n{start}", f"n{(start + length) % m}")
        for k, (start, length) in enumerate(runs)
    )
    flows = np.array([draw(st.lists(rate, min_size=n_cells, max_size=n_cells)) for _ in paths])
    return Network(links=links, paths=paths, arrival_target=0.5), grid, flows


class TestLoaderProperties:
    @settings(max_examples=60, deadline=None)
    @given(ring_loadings())
    def test_invariants_on_random_path_sets(self, case):
        net, grid, flows = case
        assert_loading_invariants(net, grid, flows, load(net, flows, grid))
