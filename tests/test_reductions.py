"""The array reductions of the solver and the verifier against their per-OD
loop versions in oracles.py, on random multi-OD networks whose path
declaration order differs from path-id order, with cost ties on purpose."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edue.cost import CostField
from edue.grid import ExtendedPoint, TimeGrid
from edue.network import Link, Network, Path
from edue.solver import _project, compute_gap, fixed_point_step
from edue.verify import (DEFAULT_FLOW_THRESHOLD_REL, FEASIBILITY_RTOL, best_response,
                         due_residuals, is_feasible, od_residuals, random_probe)

from oracles import (
    best_response_loop,
    compute_gap_loop,
    due_residuals_loop,
    fixed_point_step_loop,
    project_loop,
    random_probe_loop,
)

TIGHT = dict(rtol=1e-12, atol=1e-12)


@st.composite
def problems(draw):
    """A network of 1-4 OD pairs with 1-3 one-link paths each, declared in
    random order under shuffled ids; flows, costs, demand values and caps
    drawn from a few values each, so that equal costs are common."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    owner = [w for w, k in enumerate(sizes) for _ in range(k)]
    ids = draw(st.permutations([f"p{i}" for i in range(len(owner))]))
    declared = draw(st.permutations(range(len(owner))))
    links = tuple(Link(f"l{i}", f"O{w}", f"D{w}", 0.1, 100.0) for i, w in enumerate(owner))
    paths = tuple(Path(ids[i], (f"l{i}",), f"O{owner[i]}", f"D{owner[i]}") for i in declared)
    net = Network(links=links, paths=paths, arrival_target=0.5)
    n = draw(st.integers(1, 4))
    grid = TimeGrid(0.0, 2.0, n)

    def matrix(values):
        return np.array([draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
                         for _ in paths])

    h = matrix([0.0, 0.0, 1.0, 2.5, 40.0])
    psi = matrix([0.25, 0.5, 0.75, 1.0])
    n_od = len(net.od_pairs)
    pick = lambda values: np.array(draw(st.lists(st.sampled_from(values), min_size=n_od,
                                                 max_size=n_od)))
    theta, caps = pick([0.25, 0.5, 0.75, 1.0, 1.25]), pick([0.5, 5.0, 50.0, 500.0])
    return net, grid, h, psi, theta, caps


def point_of(net, grid, h):
    demands = [h[list(paths)].sum() * grid.dt for paths in net.od_paths]
    return ExtendedPoint.from_matrix(grid, h, demands)


def od_minima(net, psi):
    return np.array([min(psi[p].min() for p in paths) for paths in net.od_paths])


@given(problems(), st.booleans())
def test_compute_gap_matches_loop(problem, pinned):
    net, grid, h, psi, theta, caps = problem
    pinned_demand = None
    if pinned:
        # in pinned mode the demand value is the OD's least cost, and the
        # mode-free gap must equal the loop's pinned formula
        theta = od_minima(net, psi)
        pinned_demand = caps
    point, costs = point_of(net, grid, h), CostField(psi, theta)
    assert compute_gap(point, costs, net, caps) == pytest.approx(
        compute_gap_loop(point, costs, net, caps, pinned_demand), rel=1e-12, abs=1e-9)


@given(problems())
def test_due_residuals_match_loop(problem):
    net, grid, h, psi, theta, _ = problem
    point, costs = point_of(net, grid, h), CostField(psi, theta)
    rep = due_residuals(point, costs, net)
    ref = due_residuals_loop(point, costs, net, DEFAULT_FLOW_THRESHOLD_REL * h.max())
    got = np.column_stack((rep.v, rep.r1, rep.r2, rep.demand_gap))
    np.testing.assert_allclose(got, ref, **TIGHT)


@given(problems(), st.booleans(), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_od_residuals_equal_the_formulas_over_psi_and_theta(problem, tie, seed):
    """r1 and r2 from the reduced costs equal, bit for bit and in the sign of
    zero, the formulas over psi and theta that due_residuals used before;
    with tie, theta is each OD's least cost, as in fixed mode. With a seed
    the costs are scaled off the drawn values, so that differences round."""
    net, grid, h, psi, theta, _ = problem
    if seed is not None:
        psi = psi * np.random.default_rng(seed).uniform(0.5, 2.0, size=psi.shape)
    if tie:
        theta = od_minima(net, psi)
    r1, r2 = od_residuals(h, CostField(psi, theta), net, grid.dt)
    excess = np.maximum(0.0, psi - theta[net.path_od, None])
    want_r1 = net.od_sum((h * excess).sum(axis=1)) * grid.dt
    want_r2 = np.maximum(0.0, theta - net.od_min(psi))
    for got, want in ((r1, want_r1), (r2, want_r2)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@given(problems(), st.sampled_from(["uncapped", "capped", "pinned"]),
       st.sampled_from([0.5, 20.0, 1e4]))
def test_fixed_point_step_matches_loop(problem, mode, alpha):
    net, grid, h, psi, theta, caps = problem
    pinned = None
    if mode == "uncapped":
        caps = np.full_like(caps, np.inf)  # no volume exceeds it
    elif mode == "capped":
        caps = caps * 1e-3  # below every nonzero OD volume drawn
    else:
        # as in pinned mode, the demand value is the OD's least cost; the
        # first OD pair carries nothing, so its flow stays clipped and only
        # the projection's shift below zero puts its demand back
        theta = od_minima(net, psi)
        h[list(net.od_paths[0])] = 0.0
        pinned = caps
    point, costs = point_of(net, grid, h), CostField(psi, theta)
    new = fixed_point_step(point, costs, net, alpha, caps, pinned=pinned is not None)
    h_ref, demands_ref = fixed_point_step_loop(point, costs, net, alpha, caps, pinned)
    # the loop's bisection finds the shift to within an ulp of the entries
    np.testing.assert_allclose(new.flows, h_ref, rtol=1e-12, atol=1e-12 * alpha)
    np.testing.assert_allclose(new.demands, demands_ref, **TIGHT)


@st.composite
def projections(draw):
    """The network and grid of problems(), rates y of either sign, one bound
    per OD pair (zero among them) and the mode."""
    net, grid = draw(problems())[:2]
    y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=len(net.paths) * grid.n,
                               max_size=len(net.paths) * grid.n)))
    n_od = len(net.od_pairs)
    bound = draw(st.lists(st.sampled_from([0.0, 0.5, 50.0]) | st.floats(0.0, 1e3),
                          min_size=n_od, max_size=n_od))
    return net, grid, y.reshape(len(net.paths), grid.n), np.array(bound), draw(st.booleans())


@given(projections())
def test_projection_meets_its_optimality_conditions(case):
    """Per OD, h = max(0, y - lam) for one lam: lam >= 0 unless pinned, and
    lam > 0 only where the volume sits at the bound; every volume at most
    its cap, or pinned equal to its demand, within FEASIBILITY_RTOL."""
    net, grid, y, bound, pinned = case
    point = ExtendedPoint.from_matrix(grid, *_project(net, grid, y, bound, pinned))
    h = point.flows
    assert (h >= 0.0).all() and is_feasible(point, net)
    vol = net.od_sum(h.sum(axis=1)) * grid.dt
    slack = FEASIBILITY_RTOL * np.maximum(bound, 1.0)
    assert (np.abs(vol - bound) <= slack).all() if pinned else (vol <= bound + slack).all()
    tol = 1e-13 * h.size * max(1.0, float(np.abs(y).max()))
    for w, paths in enumerate(net.od_paths):
        yw, hw = y[list(paths)], h[list(paths)]
        used = hw > 0.0
        if used.any():
            lam = float((yw - hw)[used].mean())
        else:
            lam = float(yw.max()) if pinned else max(0.0, float(yw.max()))
        np.testing.assert_allclose(hw, np.maximum(0.0, yw - lam), rtol=0.0, atol=tol)
        if not pinned:
            assert lam >= -tol
            assert lam <= tol or vol[w] >= bound[w] - slack[w]


@given(projections())
def test_projection_matches_bisection(case):
    net, grid, y, bound, pinned = case
    point = ExtendedPoint.from_matrix(grid, *_project(net, grid, y, bound, pinned))
    h_ref, demands_ref = project_loop(y, net, bound, grid.dt, pinned)
    np.testing.assert_allclose(point.flows, h_ref, rtol=1e-12,
                               atol=1e-12 * max(1.0, float(np.abs(y).max())))
    np.testing.assert_allclose(point.demands, demands_ref, **TIGHT)


@given(problems())
def test_best_response_matches_loop(problem):
    net, grid, _, psi, theta, caps = problem
    costs = CostField(psi, theta)
    br = best_response(costs, net, caps, grid)
    h_ref, demands_ref = best_response_loop(costs, net, caps, grid)
    np.testing.assert_array_equal(br.flows, h_ref)
    np.testing.assert_array_equal(br.demands, demands_ref)


@given(problems(), st.integers(0, 2**32 - 1))
def test_random_probe_matches_loop(problem, seed):
    net, grid, _, _, _, caps = problem
    probe = random_probe(np.random.default_rng(seed), net, caps, grid)
    h_ref, demands_ref = random_probe_loop(np.random.default_rng(seed), net, caps, grid)
    np.testing.assert_allclose(probe.flows, h_ref, **TIGHT)
    np.testing.assert_array_equal(probe.demands, demands_ref)
