import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edue.dnl import _MIN_PARCEL_LEN, HorizonOverflowError, _batch_step, _link_step, load
from edue.grid import TimeGrid
from edue.network import Link, Network, Path, validate

from conftest import corridor_network
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

    def test_horizon_overflow_names_a_queued_link_loaded_in_a_batch(self):
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
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, [[600.0, 600.0], [60.0, 60.0]], grid, horizon=0.3)
        assert exc.value.residual_volume == pytest.approx(82.0, rel=1e-9)
        assert (exc.value.path_id, exc.value.link_id) == ("p1", "b1")

    def test_horizon_overflow_behind_a_ring_cut_short(self):
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
        with pytest.raises(HorizonOverflowError) as exc:
            load(net, np.full((4, 2), 100.0), grid, horizon=0.01)
        assert exc.value.residual_volume == pytest.approx(40.0, rel=1e-9)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -5.0])
    def test_bad_horizon_rejected(self, horizon):
        net = single_link(tau_min=5.0, cap_per_min=50 / 60)
        grid = TimeGrid(0.0, 10 * MIN, 2)
        with pytest.raises(ValueError, match="horizon"):
            load(net, [[600.0, 600.0]], grid, horizon=horizon)

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
        assert validate(net, grid) == []
        rng = np.random.default_rng(seed)
        flows = rng.uniform(0.0, 900.0, size=(len(net.paths), grid.n))
        res = load(net, flows, grid)
        for p, expected in enumerate(CORRIDOR_EXITS[seed]):
            assert tuple(res.exit_times(p, grid.boundaries).tolist()) == expected, f"path {p}"
        assert all(res.states[f"by{i}"].queued for i in range(3))
        assert_loading_invariants(net, grid, flows, res)


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
    """One link and 1-4 users whose summed inflow rate never exceeds its
    capacity, each user on breakpoints of its own: every user has a share of
    the capacity, the shares sum to it, and each piece carries nothing, the
    user's full share (so the link runs exactly at capacity where all users
    do) or part of it; some pieces are shorter than _MIN_PARCEL_LEN. A user
    without a curve (None) may sit among them."""
    link = Link("a", "O", "D", draw(st.floats(0.01, 0.3)), draw(st.floats(50.0, 1500.0)))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
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
    if draw(st.booleans()):
        curves.insert(draw(st.integers(0, len(curves))), None)
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


class TestLoaderProperties:
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
    def test_batch_step_equals_link_step_bit_for_bit(self, case):
        links, curves = case
        states, outs = _batch_step(links, curves)
        for link, curve, state, out in zip(links, curves, states, outs):
            ref, (ref_out,) = _link_step(link, [curve])
            for got, want in ((state.s, ref.s), (state.cum_in, ref.cum_in),
                              (state.queue, ref.queue), (state.w, ref.w),
                              (out[0], ref_out[0]), (out[1], ref_out[1])):
                assert np.array_equal(got, want), link.id
            assert state.queued == ref.queued

    @settings(max_examples=200, deadline=None)
    @given(under_capacity_users())
    def test_link_under_capacity_never_queues(self, case):
        link, curves = case
        state, outs = _link_step(link, curves)
        assert not state.queued
        assert np.array_equal(state.queue, np.zeros(len(state.s)))
        assert np.array_equal(state.w, np.zeros(len(state.s)))
        # the users' breakpoints merged as the loader merges them
        e = np.unique(np.concatenate([c[0] for c in curves if c is not None]))
        s = e + link.free_flow_time
        keep = np.append(s[1:] - s[:-1] > _MIN_PARCEL_LEN, True)
        for curve, out in zip(curves, outs):
            if curve is None:
                assert out is None
                continue
            assert np.array_equal(out[0], s[keep])
            assert np.array_equal(out[1], np.interp(e[keep], *curve))

    def test_one_piece_over_capacity_queues(self):
        # at capacity, then 1e-9 above it for 0.1 h, then at half of it
        link = Link("a", "O", "D", 0.1, 1500.0)
        lengths = np.full(3, 0.1)
        rates = link.exit_capacity * np.array([1.0, 1.0 + 1e-9, 0.5])
        curve = (np.arange(4) * 0.1, np.concatenate(([0.0], np.cumsum(rates * lengths))))
        state, (out,) = _link_step(link, [curve])
        assert state.queued
        assert state.queue.max() == pytest.approx(1500.0 * 1e-10, rel=1e-3)
        assert (out[0] > state.s).any()
