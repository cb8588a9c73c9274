import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from edue.cli import write_curves_csv
from edue.cost import CostField, SchedulePenalty, effective_delay
from edue.demand import InverseDemand
from edue import dnl
from edue.dnl import (_MIN_PARCEL_LEN, HorizonOverflowError, _batch_states, _batch_step,
                      _end_to_end, _link_step, _step, cannot_queue, default_horizon, load)
from edue.grid import ExtendedPoint, TimeGrid
from edue.network import Link, Network, Path
from edue.solver import compute_gap, f_map

from conftest import corridor_network, single_link_network
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


def cut_horizon(monkeypatch, length):
    """Make load's horizon ``length`` hours past tf (plus its rounding room),
    too short for the loadings below to clear."""
    monkeypatch.setattr(dnl, "default_horizon", lambda network, volume: length)


class TestErrors:
    def test_horizon_overflow_reports_residual(self, monkeypatch):
        net = single_link(tau_min=5.0, cap_per_min=1.0)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        cut_horizon(monkeypatch, 0.02)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, [[6000.0, 6000.0]], grid)
        assert exc.value.residual_volume > 0.0
        assert (exc.value.path_id, exc.value.link_id) == ("p", "a")

    def test_horizon_overflow_names_the_queued_link(self, monkeypatch):
        links = (
            Link("a", "O", "M", 5 * MIN, 1e9),
            Link("b", "M", "D", 5 * MIN, 60.0),
        )
        net = Network(links=links, paths=(Path("p", ("a", "b"), "O", "D"),), arrival_target=0.5)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        cut_horizon(monkeypatch, 0.3)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, [[600.0, 600.0]], grid)
        # 100 vehicles queue at b, which lets 1 veh/min out from 10 min on:
        # 18 have left by the horizon end at 28 min
        assert exc.value.residual_volume == pytest.approx(82.0, rel=1e-9)
        assert (exc.value.path_id, exc.value.link_id) == ("p", "b")
        assert "path p" in str(exc.value) and "link b" in str(exc.value)

    def test_horizon_overflow_names_a_queued_link_loaded_in_a_batch(self, monkeypatch):
        # b1 and b2 each carry one path and share depth 1, so they are loaded
        # in one _batch_step; b1 queues as b does above, p2 clears
        links = (
            Link("a1", "O", "M1", 5 * MIN, 1e9),
            Link("a2", "O", "M2", 5 * MIN, 1e9),
            Link("b1", "M1", "D", 5 * MIN, 60.0),
            Link("b2", "M2", "D", 5 * MIN, 1e9),
        )
        paths = (Path("p1", ("a1", "b1"), "O", "D"), Path("p2", ("a2", "b2"), "O", "D"))
        net = Network(links=links, paths=paths, arrival_target=0.5)
        assert [len(d.links) for d in net.loading_depths] == [2, 2]
        grid = TimeGrid(0.0, 10 * MIN, 2)
        cut_horizon(monkeypatch, 0.3)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, [[600.0, 600.0], [60.0, 60.0]], grid)
        assert exc.value.residual_volume == pytest.approx(82.0, rel=1e-9)
        assert (exc.value.path_id, exc.value.link_id) == ("p1", "b1")

    def test_horizon_overflow_behind_a_ring_cut_short(self, monkeypatch):
        # Paths x1 and x2 leave the ring r3 -> r1 -> r2 -> r3 on r3, which the
        # pass steps before r2. The ring's free-flow times exceed the horizon
        # end, so it gets one pass and their curves at r3's exit stay empty.
        # The exit links carry live paths but no inflow curve; the loader must
        # step them as links without users and report the overflow.
        links = (
            Link("r3", "C", "A", 0.2, 400.0),
            Link("r1", "A", "B", 0.2, 300.0),
            Link("r2", "B", "C", 0.2, 250.0),
            Link("e1", "A", "D1", 0.1, 1e9),
            Link("e2", "A", "D2", 0.1, 1e9),
        )
        paths = (
            Path("x1", ("r2", "r3", "e1"), "B", "D1"),
            Path("x2", ("r2", "r3", "e2"), "B", "D2"),
            Path("p31", ("r3", "r1"), "C", "B"),
            Path("p12", ("r1", "r2"), "A", "C"),
        )
        net = Network(links=links, paths=paths, arrival_target=0.5)
        assert [len(d.links) for d in net.loading_depths] == [0, 2]
        grid = TimeGrid(0.0, 0.1, 2)
        cut_horizon(monkeypatch, 0.01)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, np.full((4, 2), 100.0), grid)
        assert exc.value.residual_volume == pytest.approx(40.0, rel=1e-9)

    def test_horizon_overflow_tie_names_the_last_path(self, monkeypatch):
        # two copies of one link carry the same flows, so both hold the same
        # volume at the horizon end; the error names the later path
        net = single_link(tau_min=5.0, cap_per_min=1.0).copies(2)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        cut_horizon(monkeypatch, 0.02)
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, np.full((2, 2), 600.0), grid)
        assert (exc.value.path_id, exc.value.link_id) == ("1#p", "1#a")

    @pytest.mark.parametrize("volume", [0.0, 100.0])
    def test_default_horizon_ignores_links_no_path_uses(self, volume):
        # an unused link of capacity 1 veh/h and free-flow time 5 h once
        # stretched the horizon to 5.17 h at 0 veh and 105.2 h at 100 veh
        used = single_link_network(capacity=100.0)
        unused = Link("z", "X", "Y", free_flow_time=5.0, exit_capacity=1.0)
        both = Network(used.links + (unused,), used.paths, used.arrival_target)
        assert default_horizon(both, volume) == default_horizon(used, volume)
        assert default_horizon(used, volume) == pytest.approx(volume / 100.0 + 1 / 6)
        grid = TimeGrid(0.0, 1.0, 2)
        flows = [[0.0, 2.0 * volume]]
        got, want = load(both, flows, grid).states["a"], load(used, flows, grid).states["a"]
        for x, y in ((got.s, want.s), (got.cum_in, want.cum_in), (got.queue, want.queue)):
            assert np.array_equal(x, y)

    def test_negative_flow_rejected(self):
        net = single_link()
        grid = TimeGrid(0.0, 10 * MIN, 2)
        with pytest.raises(ValueError):
            load(net, [[-1.0, 0.0]], grid)

    @pytest.mark.parametrize("flows", [[1.0, 2.0], [[1.0, 2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]]])
    def test_flows_of_the_wrong_shape_rejected(self, flows):
        grid = TimeGrid(0.0, 10 * MIN, 2)
        with pytest.raises(ValueError, match=r"need a \(1, 2\) array of path flows, got shape"):
            load(single_link(), flows, grid)


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
        rng = np.random.default_rng(seed)
        flows = np.array([rng.uniform(0.0, 900.0, size=6) for _ in net.paths])
        res = load(net, flows, grid)
        for p, expected in enumerate(RING_EXITS[seed]):
            exits = res.exit_times(p, grid.boundaries)
            assert exits == pytest.approx(expected, abs=1e-9), f"path {p}"
        assert_loading_invariants(net, grid, flows, res)


# Exit times at the cell boundaries per path, and the sha256 of curves.csv,
# from the loader that reset the downstream curves of users without flow in
# every pass, on ring_network() with flows uniform on [0, 900) veh/h from
# default_rng(0) on p12 alone: r1 and r2 have one live user, r3 none.
ONE_PATH_RING_EXITS = (
    (0.25, 0.6321770123928725, 0.7940490406511946, 0.8186331550129116, 0.9166666666666666,
     1.40462881018683, 1.952282156553463),
    (0.27, 0.44999999999999996, 0.6499999999999999, 0.85, 0.9425997875397585,
     1.1166666666666667, 1.3166666666666669),
    (0.32930620743572353, 0.5156040606157203, 0.5681246691596923, 0.72, 1.0594439527787647,
     1.501893794086782, 1.6296795749056636),
)
ONE_PATH_RING_CURVES = "5204045389e90176b17ba9cff923e027a44741dd034b7a9065053b80ca6cfc8a"


def one_path_ring_loading():
    net = ring_network()
    grid = TimeGrid(0.0, 1.0, 6)
    flows = np.zeros((len(net.paths), grid.n))
    flows[0] = np.random.default_rng(0).uniform(0.0, 900.0, size=grid.n)
    return net, grid, flows


def test_ring_with_one_live_path_matches_the_recorded_bytes(tmp_path):
    net, grid, flows = one_path_ring_loading()
    res = load(net, flows, grid)
    assert tuple(tuple(res.exit_times(p, grid.boundaries).tolist())
                 for p in range(len(net.paths))) == ONE_PATH_RING_EXITS
    assert [res.states[lid].queued for lid in ("r1", "r2", "r3")] == [True, True, False]
    write_curves_csv(tmp_path / "curves.csv", res)
    assert hashlib.sha256((tmp_path / "curves.csv").read_bytes()).hexdigest() \
        == ONE_PATH_RING_CURVES
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


# Exit times at the cell boundaries, per seed and path, from the loader that
# ran every link through its own _link_step, on corridor_network(3) with flows
# uniform on [0, 900) veh/h drawn from default_rng(seed) on 6 cells of [0, 1.6]
# h. The bypasses queue and are loaded together at depth 0.
CORRIDOR_EXITS = {
    0: (
        (0.12, 0.4575601720624444, 0.6533333333333333, 0.9361875583181893, 1.1866666666666668,
         1.5645852500316033, 1.9013334218387439),
        (0.3, 0.7853086206137438, 1.3689058694009426, 1.803805862573281, 2.5518638016034956,
         3.204546644900721, 3.2067374450368398),
        (0.12, 0.4575601720624444, 0.6533333333333333, 0.9361875583181893, 1.1866666666666668,
         1.5645852500316033, 1.9013334218387439),
        (0.3, 0.5666666666666667, 0.9048164436247934, 1.1, 1.3666666666666667, 1.9031661984215709,
         2.4209178076809708),
        (0.12, 0.4575601720624444, 0.6533333333333333, 0.9361875583181893, 1.1866666666666668,
         1.5645852500316033, 1.9013334218387439),
        (0.3, 0.850757384456752, 1.161894523640035, 1.269971727657964, 1.8471623998132294,
         2.26744585779381, 2.515639358240975),
    ),
    1: (
        (0.12, 0.40851368557810175, 0.8027028600625614, 0.9608758676719555, 1.2295220341780781,
         1.4533333333333334, 1.7407517091150673),
        (0.3, 0.9621620750563533, 1.2895213841516824, 1.72919633429013, 1.7512436248845846,
         2.3540541118244294, 2.7845687623998523),
        (0.12, 0.40851368557810175, 0.8027028600625614, 0.9608758676719555, 1.2295220341780781,
         1.4533333333333334, 1.7407517091150673),
        (0.3, 0.5666666666666667, 0.8333333333333333, 1.4336250714373755, 1.6579520778262073,
         2.0461048573715153, 2.8306946172125063),
        (0.12, 0.40851368557810175, 0.8027028600625614, 0.9608758676719555, 1.2295220341780781,
         1.4533333333333334, 1.7407517091150673),
        (0.3, 0.7128548684383029, 0.8333333333333333, 1.3321251377633336, 1.9534716292371719,
         2.443874270079604, 3.177712433912326),
    ),
    2: (
        (0.12, 0.3866666666666667, 0.6893875208259415, 0.9626547687107679, 1.189672238088599,
         1.4576312439946657, 1.7200000000000002),
        (0.3, 0.5666666666666667, 0.8333333333333333, 1.1, 1.625946411900474, 2.0757589421248164,
         2.1958087527690857),
        (0.12, 0.3866666666666667, 0.6893875208259415, 0.9626547687107679, 1.189672238088599,
         1.4576312439946657, 1.7200000000000002),
        (0.3, 0.6132998664640209, 0.8333333333333333, 1.1101018657907198, 1.5189546446463815,
         2.2319221722468447, 2.8523733262249964),
        (0.12, 0.3866666666666667, 0.6893875208259415, 0.9626547687107679, 1.189672238088599,
         1.4576312439946657, 1.7200000000000002),
        (0.3, 0.5666666666666667, 1.2742264056173014, 1.8180755748049684, 2.497464633696516,
         3.0130136490609303, 3.338247567201359),
    ),
}


class TestBatchedDepths:
    @pytest.mark.parametrize("seed", sorted(CORRIDOR_EXITS))
    def test_corridor_matches_recorded_exit_times(self, seed):
        net = corridor_network(3)
        grid = TimeGrid(0.0, 1.6, 6)
        rng = np.random.default_rng(seed)
        flows = rng.uniform(0.0, 900.0, size=(len(net.paths), grid.n))
        res = load(net, flows, grid)
        for p, expected in enumerate(CORRIDOR_EXITS[seed]):
            assert tuple(res.exit_times(p, grid.boundaries).tolist()) == expected, f"path {p}"
        assert all(res.states[f"by{i}"].queued for i in range(3))
        assert_loading_invariants(net, grid, flows, res)


def feeder_and_merge():
    """Link a feeds link c, which a second path also enters: a is loaded alone
    at its depth, c merges two users."""
    links = (Link("a", "O", "A", 0.1, 500.0), Link("c", "A", "D", 0.1, 800.0))
    paths = (Path("p1", ("a", "c"), "O", "D"), Path("p2", ("c",), "A", "D"))
    return Network(links=links, paths=paths, arrival_target=0.5)


# Loadings that reach every branch of the link step, each with flows uniform
# on [0, top) veh/h from default_rng(1) and the paths ``dead`` at zero flow:
# (network, grid, top, links that must queue, dead). On the tiny grids the
# breakpoints of the lone link a and the merge link c merge: all of them where
# cells are shorter than _MIN_PARCEL_LEN, some where rounding of the entry
# times meets cells of about its length. With a1 and b2 dead the corridor's
# first depth has dead rows, bn two live users and out1 none; the dead
# bottleneck copies are the shape of the oracle's padded stacks.
LOADER_CASES = {
    "criterion-1 link, n=64": (lambda: single_link_network(1 / 6, 1e6, 7 / 6),
                               TimeGrid(0.0, 2.0, 64), 900.0, (), ()),
    "bottleneck, n=16": (lambda: single_link_network(0.1, 1000.0, 0.6),
                         TimeGrid(0.0, 1.0, 16), 3000.0, ("a",), ()),
    "corridor, K=3": (lambda: corridor_network(3), TimeGrid(0.0, 1.0, 16), 900.0, ("bn",), ()),
    "corridor, K=3, a1 and b2 dead": (lambda: corridor_network(3), TimeGrid(0.0, 1.0, 16),
                                      900.0, ("bn", "by0", "by1"), ("a1", "b2")),
    "merged breakpoints": (feeder_and_merge, TimeGrid(0.0, 1e-11, 16), 1e6, (), ()),
    "partly merged breakpoints": (feeder_and_merge, TimeGrid(0.0, 64 * _MIN_PARCEL_LEN, 64),
                                  1e6, ("a", "c"), ()),
    "4 bottleneck copies": (lambda: single_link_network(0.1, 1000.0, 0.6).copies(4),
                            TimeGrid(0.0, 1.0, 8), 3000.0, ("0#a", "3#a"), ()),
    "4 bottleneck copies, 1 and 3 dead": (lambda: single_link_network(0.1, 1000.0, 0.6).copies(4),
                                          TimeGrid(0.0, 1.0, 8), 3000.0, ("0#a", "2#a"),
                                          ("1#p1", "3#p1")),
    "ring": (ring_network, TimeGrid(0.0, 1.0, 6), 900.0, (), ()),
}

# sha256 of every link's s, cum_in, queue and w, in network order, then of
# boundary_exits(), as the loader gave them before the lone-link, merge-link
# and batch steps shared one step routine (the cases with dead paths: as the
# loader that dispatched each link by its live users on every call gave them)
LOADER_DIGESTS = {
    "criterion-1 link, n=64": "ed86eb3dc1d6b3ca75568c365bfc2fb4288f98000aef767c9204e4eccbaa96a2",
    "bottleneck, n=16": "096a5e6f92f74b2d7e3bb1e19d789976eef8a908a8db27cb343e50707088d85b",
    "corridor, K=3": "1dc9064bba3c034d68e3c7c61190748786b1362bc25a69ee7441e1c031a1d208",
    "merged breakpoints": "80c0f9fd9e050cbe985731a93b22eedbf12572d3ff1224dc70ca2f13aa2f6340",
    "partly merged breakpoints":
        "d6ccbfd9959b0f57db3520e677304e0a83d8db45bbd9fab201cb95a1e576d0a3",
    "4 bottleneck copies": "4bb656922e6a37dde33f64d49c7a24cd8a1c16daef2f291c3371ae75ae409575",
    "corridor, K=3, a1 and b2 dead":
        "2b39b913031b2db97f12a8ed0525e180c81d3de3b7148de0e3b171fb39480596",
    "4 bottleneck copies, 1 and 3 dead":
        "294f3cd3e65466b9831fc6f643c9b573dd7fc76e449b59f4910dfdfa0f02eb3e",
    "ring": "9a87b417f602158b0e5c601ab24844544b1f363c5f0b244176d14a8d3723086a",
}


def loader_case(name):
    """The network, grid, flows and links that must queue of a LOADER_CASES
    entry."""
    make, grid, top, queued, dead = LOADER_CASES[name]
    net = make()
    flows = np.random.default_rng(1).uniform(0.0, top, size=(len(net.paths), grid.n))
    flows[[p for p, path in enumerate(net.paths) if path.id in dead]] = 0.0
    return net, grid, flows, queued


def loader_digest(net, grid, flows):
    res = load(net, flows, grid)
    digest = hashlib.sha256()
    for link in net.links:
        state = res.states[link.id]
        for x in (state.s, state.cum_in, state.queue, state.w):
            digest.update(x.tobytes())
    digest.update(res.boundary_exits().tobytes())
    return res, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_loader_bytes_match_the_recorded_ones(name):
    net, grid, flows, queued = loader_case(name)
    res, digest = loader_digest(net, grid, flows)
    assert all(res.states[lid].queued for lid in queued)
    assert digest == LOADER_DIGESTS[name]


@pytest.mark.parametrize("name", ["bottleneck, n=16", "corridor, K=3",
                                  "corridor, K=3, a1 and b2 dead", "ring"])
def test_states_are_built_only_when_read(name, monkeypatch):
    # a lone link, a merge link (bn) between two batches, links with no live
    # user, and a cycle loaded in passes: a loading keeps each step's arrays
    # and builds no LinkState until states is read, then one per link
    built = []

    class CountedState(dnl.LinkState):
        def __init__(self, link, *rest):
            built.append(link.id)
            super().__init__(link, *rest)

    monkeypatch.setattr(dnl, "LinkState", CountedState)
    net, grid, flows, _ = loader_case(name)
    res = load(net, flows, grid)
    res.boundary_exits()
    assert built == []
    states = res.states
    assert sorted(built) == sorted(link.id for link in net.links) == sorted(states)
    for state in states.values():
        assert np.array_equal(state.segments, np.column_stack((state.s[:-1], state.s[1:])))


def test_a_layout_is_built_once_per_network_and_grid(monkeypatch):
    # loads whose live paths differ read one layout and give the bytes of
    # loads on a fresh network; an equal grid reads it too, another grid and
    # each copies network build their own
    built = []
    real = dnl._layout
    monkeypatch.setattr(dnl, "_layout", lambda net, grid: built.append(grid) or real(net, grid))
    net, grid, flows, _ = loader_case("corridor, K=3")
    dead = loader_case("corridor, K=3, a1 and b2 dead")[2]
    for h in (flows, dead, np.zeros_like(flows)):
        assert loader_digest(net, grid, h)[1] == loader_digest(corridor_network(3), grid, h)[1]
    assert built == [grid] * 4
    load(net, flows, TimeGrid(0.0, 1.0, 16))
    other = TimeGrid(0.0, 1.0, 8)
    load(net, flows[:, :8], other)
    assert built == [grid] * 4 + [other]
    stack = net.copies(2)
    load(stack, np.concatenate([flows, dead]), grid)
    load(net.copies(1, stack), flows, grid)
    assert built == [grid] * 4 + [other, grid, grid]


def spy_steps(monkeypatch):
    """The link ids of every _batch_step call and every _link_step call of
    the loadings that follow, in call order."""
    calls = {"batch": [], "merge": []}
    batch_step, link_step = dnl._batch_step, dnl._link_step

    def batch(links, *rows):
        calls["batch"].append([link.id for link in links])
        return batch_step(links, *rows)

    def merge(link, inflows):
        calls["merge"].append(link.id)
        return link_step(link, inflows)

    monkeypatch.setattr(dnl, "_batch_step", batch)
    monkeypatch.setattr(dnl, "_link_step", merge)
    return calls


@pytest.mark.parametrize("flows, batched, merged", [
    # the lone link a, with one live user, is a batch of one; c merges two
    ([[600.0, 900.0], [300.0, 0.0]], [["a"]], ["c"]),
    # c's other user carries nothing, so c has one live user too
    ([[600.0, 900.0], [0.0, 0.0]], [["a"], ["c"]], []),
    # a has no live user and reaches neither step
    ([[0.0, 0.0], [300.0, 0.0]], [["c"]], []),
])
def test_links_are_stepped_by_their_live_users(flows, batched, merged, monkeypatch):
    calls = spy_steps(monkeypatch)
    res = load(feeder_and_merge(), flows, TimeGrid(0.0, 1.0, 2))
    assert (calls["batch"], calls["merge"]) == (batched, merged)
    assert (res.states["a"].s.size == 0) == (flows[0] == [0.0, 0.0])  # the empty state


def test_cycle_links_are_stepped_by_their_live_users(monkeypatch):
    # on the one-path ring, r1 and r2 have one live user each and r3 none:
    # each pass loads r1, then r2, as a batch of one
    calls = spy_steps(monkeypatch)
    net, grid, flows = one_path_ring_loading()
    load(net, flows, grid)
    passes = len(calls["batch"]) // 2
    assert passes > 1
    assert calls == {"batch": [["r1"], ["r2"]] * passes, "merge": []}


def batch_step(links, curves):
    """_batch_step on links with one live user each, given their curves, laid
    end to end as load lays out a depth's rows."""
    return _batch_step(links, np.array([link.exit_capacity for link in links]),
                       *_end_to_end(curves, np.array([link.free_flow_time for link in links])))


@st.composite
def single_user_links(draw):
    """2-5 links, each with one inflow curve as the loader hands it on: times
    nondecreasing, some pieces shorter than _MIN_PARCEL_LEN, some carrying
    no flow, and rates on either side of the link's capacity, so that
    queues form, empty inside a piece, and drain after the last breakpoint."""
    links, curves = [], []
    for r in range(draw(st.integers(2, 5))):
        pieces = draw(st.integers(1, 8))
        lengths = draw(st.lists(
            st.one_of(st.floats(0.01 * _MIN_PARCEL_LEN, 0.5 * _MIN_PARCEL_LEN),
                      st.floats(1e-3, 0.3)),
            min_size=pieces, max_size=pieces))
        rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(1.0, 2000.0)),
                              min_size=pieces, max_size=pieces))
        t = draw(st.floats(0.0, 1.0)) + np.concatenate(([0.0], np.cumsum(lengths)))
        n = np.concatenate(([0.0], np.cumsum(np.multiply(rates, lengths))))
        links.append(Link(f"l{r}", "O", "D", draw(st.floats(0.01, 0.3)),
                          draw(st.floats(50.0, 1500.0))))
        curves.append((t, n))
    return links, curves


@st.composite
def under_capacity_users(draw):
    """One link and 2-4 live users, the merge that _link_step loads, whose
    summed inflow rate never exceeds its capacity, each user on breakpoints
    of its own: every user has a share of the capacity, the shares sum to
    it, and each piece carries nothing, the user's full share (so the link
    runs exactly at capacity where all users do) or part of it; some pieces
    are shorter than _MIN_PARCEL_LEN."""
    link = Link("a", "O", "D", draw(st.floats(0.01, 0.3)), draw(st.floats(50.0, 1500.0)))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4))
    curves = []
    for weight in weights:
        share = link.exit_capacity * weight / sum(weights)
        pieces = draw(st.integers(1, 8))
        lengths = draw(st.lists(
            st.one_of(st.floats(0.01 * _MIN_PARCEL_LEN, 0.5 * _MIN_PARCEL_LEN),
                      st.floats(1e-3, 0.3)),
            min_size=pieces, max_size=pieces))
        rates = draw(st.lists(
            st.one_of(st.just(0.0), st.just(share), st.floats(0.0, 1.0).map(share.__mul__)),
            min_size=pieces, max_size=pieces))
        t = draw(st.floats(0.0, 1.0)) + np.concatenate(([0.0], np.cumsum(lengths)))
        curves.append((t, np.concatenate(([0.0], np.cumsum(np.multiply(rates, lengths))))))
    return link, curves


@st.composite
def layered_loadings(draw):
    """2-4 depths of 1-4 parallel links each, between hub nodes h0, h1, ...:
    each path runs one link of every depth from one hub to a later one, so
    paths merge onto shared links and diverge after them."""
    layers = [
        [Link(f"l{d}_{j}", f"h{d}", f"h{d + 1}", draw(st.floats(0.02, 0.3)),
              draw(st.floats(50.0, 1000.0)))
         for j in range(draw(st.integers(1, 4)))]
        for d in range(draw(st.integers(2, 4)))
    ]
    paths = []
    for k in range(draw(st.integers(1, 6))):
        first = draw(st.integers(0, len(layers) - 1))
        end = draw(st.integers(first + 1, len(layers)))
        route = tuple(draw(st.sampled_from(layers[d])).id for d in range(first, end))
        paths.append(Path(f"p{k}", route, f"h{first}", f"h{end}"))
    n_cells = draw(st.integers(1, 5))
    rate = st.one_of(st.just(0.0), st.floats(1.0, 1500.0))
    flows = np.array([draw(st.lists(rate, min_size=n_cells, max_size=n_cells)) for _ in paths])
    links = tuple(link for layer in layers for link in layer)
    return (Network(links=links, paths=tuple(paths), arrival_target=0.5),
            TimeGrid(0.0, 1.0, n_cells), flows)


@st.composite
def lone_link_flows(draw, grid):
    """One link and one user's inflow curve at it, built from cell flows on
    the grid as load() builds it, some cells empty; rates reach far enough
    above the capacity that a queue forms on cells shorter than
    _MIN_PARCEL_LEN too."""
    link = Link("a", "O", "D", draw(st.floats(0.01, 0.3)), draw(st.floats(50.0, 1500.0)))
    top = 3000.0 if grid.dt > _MIN_PARCEL_LEN else 1e6
    rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(1.0, top)),
                          min_size=grid.n, max_size=grid.n))
    counts = np.zeros(grid.n + 1)
    np.cumsum(np.multiply(rates, grid.dt), out=counts[1:])
    return link, (grid.boundaries, counts)


# cells of an ordinary width, whose breakpoints all stand; cells shorter than
# _MIN_PARCEL_LEN, whose breakpoints all merge into one; and cells of about
# _MIN_PARCEL_LEN, where rounding of the entry times merges some breakpoints
# and keeps enough that queues form
LONE_LINK_GRIDS = [TimeGrid(0.0, 1.0, 12), TimeGrid(0.0, 1e-11, 64),
                   TimeGrid(0.0, 64 * _MIN_PARCEL_LEN, 64)]


class TestLoaderProperties:
    @pytest.mark.parametrize("grid", LONE_LINK_GRIDS, ids=["apart", "merged", "partly-merged"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_lone_link_step_equals_batch_step_bit_for_bit(self, grid, data):
        # a batch of one is the bare step of the user's curve as it stands
        link, curve = data.draw(lone_link_flows(grid))
        t, n = curve
        s, a, q, w, counts, exits, _, queued = _step(
            link.exit_capacity, t + link.free_flow_time, n[None], np.array([len(t) - 1]))
        batch, (out,) = batch_step([link], [curve])
        (state,) = _batch_states(batch)
        for got, want in ((state.s, s), (state.cum_in, a), (state.queue, q), (state.w, w),
                          (out[0], exits), (out[1], counts[0])):
            assert got.tobytes() == want.tobytes()
        assert [state.queued] == queued

    @settings(max_examples=60, deadline=None)
    @given(ring_loadings())
    def test_invariants_on_random_path_sets(self, case):
        net, grid, flows = case
        assert_loading_invariants(net, grid, flows, load(net, flows, grid))

    @settings(max_examples=60, deadline=None)
    @given(layered_loadings())
    def test_invariants_on_layered_networks(self, case):
        net, grid, flows = case
        assert_loading_invariants(net, grid, flows, load(net, flows, grid))

    @settings(max_examples=200, deadline=None)
    @given(single_user_links())
    def test_batch_rows_equal_batches_of_one_bit_for_bit(self, case):
        links, curves = case
        batch, outs = batch_step(links, curves)
        for link, curve, state, out in zip(links, curves, _batch_states(batch), outs):
            ref_batch, (ref_out,) = batch_step([link], [curve])
            (ref,) = _batch_states(ref_batch)
            for got, want in ((state.s, ref.s), (state.cum_in, ref.cum_in),
                              (state.queue, ref.queue), (state.w, ref.w),
                              (out[0], ref_out[0]), (out[1], ref_out[1])):
                assert np.array_equal(got, want), link.id
            assert state.queued == ref.queued

    @settings(max_examples=200, deadline=None)
    @given(under_capacity_users())
    def test_link_under_capacity_never_queues(self, case):
        link, curves = case
        batch, outs = _link_step(link, curves)
        (state,) = _batch_states(batch)
        assert not state.queued
        assert np.array_equal(state.queue, np.zeros(len(state.s)))
        assert np.array_equal(state.w, np.zeros(len(state.s)))
        # the users' breakpoints merged as the loader merges them
        e = np.unique(np.concatenate([c[0] for c in curves]))
        s = e + link.free_flow_time
        keep = np.append(s[1:] - s[:-1] > _MIN_PARCEL_LEN, True)
        for curve, out in zip(curves, outs):
            assert np.array_equal(out[0], s[keep])
            assert np.array_equal(out[1], np.interp(e[keep], *curve))

    def test_one_piece_over_capacity_queues(self):
        # at capacity, then 1e-9 above it for 0.1 h, then at half of it
        link = Link("a", "O", "D", 0.1, 1500.0)
        lengths = np.full(3, 0.1)
        rates = link.exit_capacity * np.array([1.0, 1.0 + 1e-9, 0.5])
        curve = (np.arange(4) * 0.1, np.concatenate(([0.0], np.cumsum(rates * lengths))))
        batch, (out,) = batch_step([link], [curve])
        (state,) = _batch_states(batch)
        assert state.queued
        assert state.queue.max() == pytest.approx(1500.0 * 1e-10, rel=1e-3)
        assert (out[0] > state.s).any()


@st.composite
def stacked_loadings(draw):
    """A ring or layered loading and 2-3 copies of its network, each with
    flows of its own (the first copy's are the drawn loading's)."""
    net, grid, flows = draw(st.one_of(ring_loadings(), layered_loadings()))
    rate = st.one_of(st.just(0.0), st.floats(1.0, 1500.0))
    stack = [flows] + [
        np.array([draw(st.lists(rate, min_size=grid.n, max_size=grid.n)) for _ in net.paths])
        for _ in range(draw(st.integers(1, 2)))]
    return net, grid, stack


class TestStackedCopies:
    """Loading disjoint copies of a network with their flows stacked gives
    each copy bit for bit what loading it alone gives, up to its gap: the
    identity that lets the oracle score many points with one cost mapping."""

    @settings(max_examples=40, deadline=None)
    @given(stacked_loadings())
    def test_stacked_load_equals_separate_loads(self, case):
        net, grid, stack = case
        b, paths = len(stack), len(net.paths)
        copies = net.copies(b)
        penalty = SchedulePenalty(0.5, 2.0)
        demands = [net.od_sum(h.sum(axis=1)) * grid.dt for h in stack]
        # an inverse demand per copy, each with caps of its own
        invs = [InverseDemand(0.01 * d + 2.0 + k, np.full(len(d), 0.01), d + 1.0 + k)
                for k, d in enumerate(demands)]
        stacked = InverseDemand(*(np.concatenate([getattr(inv, name) for inv in invs])
                                  for name in ("intercept", "slope", "cap")))
        point = ExtendedPoint.from_matrix(grid, np.concatenate(stack), np.concatenate(demands))
        res = load(copies, point.flows, grid)
        # the cost mapping f_map, on the loading at hand
        psi = effective_delay(res, penalty)
        costs = CostField(psi, stacked.theta(point.demands))
        gaps = compute_gap(point, costs, copies, stacked.cap, copies=b)
        for k, (h, d, inv) in enumerate(zip(stack, demands, invs)):
            alone = load(net, h, grid)
            rows = slice(k * paths, (k + 1) * paths)
            assert np.array_equal(res.boundary_exits()[rows], alone.boundary_exits())
            for link in net.links:
                got, want = res.states[f"{k}#{link.id}"], alone.states[link.id]
                for x, y in ((got.s, want.s), (got.cum_in, want.cum_in),
                             (got.queue, want.queue), (got.w, want.w)):
                    assert np.array_equal(x, y), link.id
                assert got.queued == want.queued
            own_psi = effective_delay(alone, penalty)
            assert np.array_equal(psi[rows], own_psi)
            own = ExtendedPoint.from_matrix(grid, h, d)
            assert gaps[k] == compute_gap(own, CostField(own_psi, inv.theta(d)), net, inv.cap)


def fresh(net):
    """An equal network object with no memo filled."""
    return Network(net.links, net.paths, net.arrival_target)


def at_the_bound(net, flows):
    """The flows scaled so that the users' peaks of the link nearest its
    capacity sum to it, up to a few ulps below, and every other link's stay
    at most at theirs; None if nothing flows."""
    caps, users, starts, _ = net.queue_bound_terms
    sums = np.add.reduceat(flows.max(axis=1)[users], starts)
    i = int(np.argmax(sums / caps))
    if sums[i] == 0.0:
        return None
    scaled = flows * (caps[i] / sums[i])
    for _ in range(8):  # rounding may leave a sum an ulp above its capacity
        if np.all(np.add.reduceat(scaled.max(axis=1)[users], starts) <= caps):
            return scaled
        scaled = scaled * (1.0 - 2.0 ** -52)
    raise AssertionError("could not scale the flows to the bound")


def count_loads(monkeypatch):
    calls = []
    real = dnl.load
    monkeypatch.setattr(dnl, "load", lambda *args: calls.append(args) or real(*args))
    return calls


class TestNoQueueBound:
    """f_map skips the loading when cannot_queue shows that no link can queue
    and the network holds the queue-free delays; psi is then bit for bit the
    loading's."""

    penalty = SchedulePenalty(0.5, 2.0)

    def check_at_the_bound(self, case):
        net, grid, flows = case
        flows = at_the_bound(net, flows)
        assume(flows is not None)
        assert load(net, flows, grid).queue_free
        assert cannot_queue(net, flows, grid) == (net.queue_bound_terms[3] is not None)
        self.filled(net, grid)
        point = ExtendedPoint.from_matrix(grid, flows, net.od_sum(flows.sum(axis=1)) * grid.dt)
        with pytest.MonkeyPatch.context() as m:
            calls = count_loads(m)
            psi = f_map(net, point, self.penalty, None, grid).psi
        assert len(calls) == (not cannot_queue(net, flows, grid))
        want = effective_delay(load(fresh(net), flows, grid), self.penalty)
        assert psi.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(layered_loadings())
    def test_layered_flows_at_the_bound(self, case):
        self.check_at_the_bound(case)

    @settings(max_examples=60, deadline=None)
    @given(ring_loadings())
    def test_ring_flows_at_the_bound(self, case):
        self.check_at_the_bound(case)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(layered_loadings(), ring_loadings()),
           st.one_of(st.floats(0.25, 4.0), st.just(1e-200)))
    def test_bound_implies_queue_free(self, case, scale):
        net, grid, flows = case
        flows = flows * scale
        if cannot_queue(net, flows, grid):
            assert load(net, flows, grid).queue_free

    def filled(self, net, grid):
        """net, once f_map has stored its queue-free delays at zero flow."""
        zero = ExtendedPoint.from_matrix(grid, np.zeros((len(net.paths), grid.n)),
                                         np.zeros(len(net.od_pairs)))
        f_map(net, zero, self.penalty, None, grid)
        assert (grid, self.penalty) in net.free_flow_delays
        return net

    def test_cannot_queue_runs_only_once_an_entry_is_stored(self, monkeypatch):
        # a network without the entry, such as a fresh stack of copies, must
        # load anyway, so f_map asks cannot_queue nothing there
        grid = TimeGrid(0.0, 1.0, 4)
        net = single_link_network(0.1, 1000.0, 0.6)
        asked = []
        real = dnl.cannot_queue
        monkeypatch.setattr(dnl, "cannot_queue", lambda *args: asked.append(args) or real(*args))
        self.filled(net, grid)
        assert asked == []
        self.filled(net, grid)
        assert len(asked) == 1

    def test_negative_flows_still_raise_the_loaders_error(self):
        grid = TimeGrid(0.0, 1.0, 4)
        net = self.filled(single_link_network(0.1, 1000.0, 0.6), grid)
        point = ExtendedPoint.from_matrix(grid, [[10.0, -1.0, 0.0, 0.0]], [2.0])
        assert not cannot_queue(net, point.flows, grid)
        with pytest.raises(ValueError, match="path flows must be finite and nonnegative"):
            f_map(net, point, self.penalty, None, grid)

    def test_flows_over_the_bound_at_one_link_load(self, monkeypatch):
        # the two feeders of corridor_network(2) peak in different cells at
        # 800 veh/h each: no queue forms, but their peaks sum above bn's 1500
        net = corridor_network(2)
        grid = TimeGrid(0.0, 1.6, 4)
        flows = np.zeros((4, 4))
        flows[0, 0] = flows[2, 2] = 800.0
        self.filled(net, grid)
        calls = count_loads(monkeypatch)
        point = ExtendedPoint.from_matrix(grid, flows, net.od_sum(flows.sum(axis=1)) * grid.dt)
        psi = f_map(net, point, self.penalty, None, grid).psi
        assert len(calls) == 1
        assert load(net, flows, grid).queue_free
        flows[2, 2] = 700.0  # 1500 veh/h: at the bound
        point = ExtendedPoint.from_matrix(grid, flows, net.od_sum(flows.sum(axis=1)) * grid.dt)
        assert np.array_equal(f_map(net, point, self.penalty, None, grid).psi, psi)
        assert len(calls) == 1

    def test_far_clock_times_load(self):
        # at 1e6 h the float spacing of a clock time (1.2e-10 h) exceeds
        # _MIN_PARCEL_LEN: rounding alone could then leave a queue
        net = single_link_network(0.1, 1000.0, 0.6)
        flows = np.full((1, 4), 10.0)
        assert cannot_queue(net, flows, TimeGrid(0.0, 1.0, 4))
        assert not cannot_queue(net, flows, TimeGrid(1e6, 1e6 + 1.0, 4))

    def test_a_volume_too_small_to_clear_by_rounding_loads(self, monkeypatch):
        # volume / min_cap of 1e-200 veh adds less than an ulp to the horizon,
        # and the last exit time rounds one ulp past tf plus the free-flow
        # times: the default horizon's rounding room keeps it inside
        taus = (0.18846168232956362, 0.12126649073594618, 0.2991908813788712)
        links = tuple(Link(f"l{i}", f"n{i}", f"n{i + 1}", tau, 1000.0)
                      for i, tau in enumerate(taus))
        net = Network(links, (Path("p", ("l0", "l1", "l2"), "n0", "n3"),), 1.0)
        grid = TimeGrid(0.0, 4.906093160003527, 2)
        flows = np.array([[0.0, 1e-200]])
        res = load(net, flows, grid)
        assert res.queue_free and res.total_out == res.total_in
        assert res.exit_times(0, grid.tf) > grid.tf + sum(taus)
        self.filled(net, grid)
        assert cannot_queue(net, flows, grid)
        calls = count_loads(monkeypatch)
        point = ExtendedPoint.from_matrix(grid, flows, [flows.sum() * grid.dt])
        psi = f_map(net, point, self.penalty, None, grid).psi
        assert calls == []
        assert psi.tobytes() == net.free_flow_delays[grid, self.penalty].tobytes()


class TestSharedMergeAxis:
    """A merge link whose live users share one time array skips the union of
    breakpoints and the interpolation, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(layered_loadings())
    def test_layered_loadings_equal_the_union_path(self, case):
        net, grid, flows = case
        shared = load(net, flows, grid)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(dnl, "_shared_axis", lambda times: None)
            union = load(net, flows, grid)
        for link in net.links:
            got, want = shared.states[link.id], union.states[link.id]
            for x, y in ((got.s, want.s), (got.cum_in, want.cum_in),
                         (got.queue, want.queue), (got.w, want.w)):
                assert x.tobytes() == y.tobytes(), link.id
            assert got.queued == want.queued
        assert shared.boundary_exits().tobytes() == union.boundary_exits().tobytes()

    def test_batched_feeders_share_their_axis_at_the_bottleneck(self, monkeypatch):
        net = corridor_network(3)
        grid = TimeGrid(0.0, 1.6, 8)
        hits = []
        real = dnl._shared_axis
        monkeypatch.setattr(dnl, "_shared_axis", lambda times: hits.append(real(times)) or hits[-1])
        load(net, np.full((6, 8), 200.0), grid)
        assert len(hits) == 1 and hits[0] is not None
