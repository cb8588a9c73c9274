"""Independent reference computations used to freeze expected test values.

Nothing here shares code with the package's loading or solver: the queue
simulator is a dense-time cumulative-curve recursion, the demand solver is a
plain bisection, and the per-OD reductions loop over OD pairs and paths.
Deliberately slow and simple.
"""

from __future__ import annotations

import numpy as np


def simulate_point_queue(
    entry_times: np.ndarray,
    entry_rates: np.ndarray,
    free_flow_time: float,
    capacity: float,
    t_max: float,
    dt: float = 1e-4,
):
    """Discrete-time cumulative curves for a single link.

    entry_times/entry_rates describe a step inflow (rate i applies on
    [entry_times[i], entry_times[i+1])). Returns (times, cum_arrival,
    cum_exit) where arrival is at the queue (entry shifted by the free-flow
    time).
    """
    times = np.arange(0.0, t_max, dt)
    rate = np.zeros_like(times)
    for i in range(len(entry_rates)):
        lo, hi = entry_times[i], entry_times[i + 1]
        mask = (times >= lo + free_flow_time) & (times < hi + free_flow_time)
        rate[mask] = entry_rates[i]
    cum_arr = np.concatenate([[0.0], np.cumsum(rate[:-1]) * dt])
    cum_exit = np.zeros_like(cum_arr)
    for i in range(1, len(times)):
        cum_exit[i] = min(cum_arr[i], cum_exit[i - 1] + capacity * dt)
    return times, cum_arr, cum_exit


def exit_time_of(times, cum_arr, cum_exit, free_flow_time, depart: float) -> float:
    """Exit time of a marginal traveler departing at `depart`: the first time
    the cumulative exit curve reaches the arrival count at its queue arrival."""
    arrive = depart + free_flow_time
    level = float(np.interp(arrive, times, cum_arr))
    idx = np.searchsorted(cum_exit, level)
    if idx >= len(times):
        raise ValueError("simulation horizon too short")
    if cum_exit[idx] <= level + 1e-12 and idx + 1 < len(times):
        # interpolate within the step
        lo, hi = idx - 1, idx
        if cum_exit[hi] > cum_exit[lo]:
            frac = (level - cum_exit[lo]) / (cum_exit[hi] - cum_exit[lo])
            return float(times[lo] + frac * (times[hi] - times[lo]))
    return max(float(times[idx]), arrive)


def single_link_delay(
    entry_times, entry_rates, free_flow_time, capacity, depart, t_max, dt=1e-4
) -> float:
    times, ca, ce = simulate_point_queue(
        np.asarray(entry_times, dtype=float),
        np.asarray(entry_rates, dtype=float),
        free_flow_time,
        capacity,
        t_max,
        dt,
    )
    return exit_time_of(times, ca, ce, free_flow_time, depart) - depart


def bisect_demand(theta0: float, theta1: float, v_min: float, q_hi: float) -> float:
    """Solve theta0 - theta1 * q = v_min for q by bisection."""
    lo, hi = 0.0, q_hi
    f = lambda q: theta0 - theta1 * q - v_min
    assert f(lo) > 0.0 and f(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Per-OD loop versions of the solver's and the verifier's reductions, kept as
# the reference for the array versions: the same formulas, one OD pair and
# one path at a time, over rows of the same (paths, n) arrays. They find each
# OD pair's paths themselves rather than through the network's index arrays.


def od_paths_of(network):
    """Per OD pair, the indices of its paths, sorted by path id."""
    return [sorted((i for i, p in enumerate(network.paths) if (p.origin, p.destination) == od),
                   key=lambda i: network.paths[i].id)
            for od in network.od_pairs]


def od_argmin_loop(psi, network, w):
    """Cheapest (path, cell, value) of OD pair w; ties break to the lowest
    path id, then the earliest cell."""
    best = None
    for p in od_paths_of(network)[w]:
        j = int(np.argmin(psi[p]))  # argmin returns the earliest minimizer
        if best is None or psi[p][j] < best[2]:
            best = (p, j, float(psi[p][j]))
    return best


def reduced_costs_loop(costs, network):
    rc = np.empty_like(costs.psi)
    for w, paths in enumerate(od_paths_of(network)):
        for p in paths:
            rc[p] = costs.psi[p] - costs.theta[w]
    return rc


def compute_gap_loop(point, costs, network, caps, pinned_demand=None):
    dt = point.grid.dt
    rc = reduced_costs_loop(costs, network)
    gap = 0.0
    for w, paths in enumerate(od_paths_of(network)):
        carried = float(sum(np.dot(point.flows[p], rc[p]) for p in paths)) * dt
        p_best, j_best, _ = od_argmin_loop(costs.psi, network, w)
        c = float(rc[p_best][j_best])
        if pinned_demand is not None:
            gap += carried - c * float(pinned_demand[w])
        else:
            gap += carried - min(0.0, c) * float(caps[w])
    return gap


def fixed_point_step_loop(point, costs, network, alpha, caps, pinned_demand=None):
    """The stepped (flows, demands)."""
    dt = point.grid.dt
    h_new = np.maximum(0.0, point.flows - alpha * reduced_costs_loop(costs, network))
    demands = np.empty(len(network.od_pairs))
    for w, paths in enumerate(od_paths_of(network)):
        vol = float(sum(h_new[p].sum() for p in paths)) * dt
        if pinned_demand is not None:
            target = float(pinned_demand[w])
            if vol <= 0.0:
                p_best, j_best, _ = od_argmin_loop(costs.psi, network, w)
                h_new[p_best, j_best] = target / dt
            else:
                for p in paths:
                    h_new[p] *= target / vol
            demands[w] = target
        else:
            if vol > caps[w]:
                for p in paths:
                    h_new[p] *= caps[w] / vol
                vol = float(caps[w])
            demands[w] = vol
    return h_new, demands


def due_residuals_loop(point, costs, network, flow_threshold):
    """Per OD pair: (v, r1, r2, demand_gap)."""
    dt = point.grid.dt
    out = []
    for w, paths in enumerate(od_paths_of(network)):
        theta_w = float(costs.theta[w])
        used_min = overall_min = np.inf
        r1 = 0.0
        for p in paths:
            psi, h = costs.psi[p], point.flows[p]
            overall_min = min(overall_min, float(psi.min()))
            used = h > flow_threshold
            if np.any(used):
                used_min = min(used_min, float(psi[used].min()))
            r1 += float(np.dot(h, np.maximum(0.0, psi - theta_w))) * dt
        v = used_min if np.isfinite(used_min) else overall_min
        out.append((v, r1, max(0.0, theta_w - overall_min), abs(v - theta_w)))
    return np.array(out)


def best_response_loop(costs, network, caps, grid):
    """The best-response (flows, demands)."""
    h = np.zeros((len(network.paths), grid.n))
    demands = np.zeros(len(network.od_pairs))
    for w in range(len(network.od_pairs)):
        p, j, val = od_argmin_loop(costs.psi, network, w)
        if val - float(costs.theta[w]) < 0.0:
            h[p, j] = caps[w] / grid.dt
            demands[w] = caps[w]
    return h, demands


def random_probe_loop(rng, network, caps, grid):
    """A random feasible (flows, demands), drawing OD pair after OD pair."""
    h = np.zeros((len(network.paths), grid.n))
    demands = np.zeros(len(network.od_pairs))
    for w, paths in enumerate(od_paths_of(network)):
        for p in paths:
            h[p, :] = rng.uniform(0.0, 1.0, size=grid.n)
        vol = sum(h[p].sum() for p in paths) * grid.dt
        target = rng.uniform(0.0, caps[w])
        if vol > 0.0:
            for p in paths:
                h[p] *= target / vol
            demands[w] = target
        else:
            h[list(paths)] = 0.0
    return h, demands
