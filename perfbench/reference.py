"""An independent point-queue model of the benchmark's networks.

The checks compare the program's effective delays and equilibrium residuals
with the ones computed here from the scenario document and a flow file
alone, without importing edue. It covers the networks the workloads
generate: paths of point-queue links where every link is either reached
only through queue-free links (its arrival curve is then a sum of shifted
departure curves) or cannot queue because its capacity exceeds every rate
that can reach it. Any other network is refused.

Newell's form of the point queue, with A the cumulative arrivals at the
link's exit (departures from the tail shifted by the free-flow times) and c
the exit capacity: the queue at u is A(u) - min over s <= u of
(A(s) + c (u - s)), and a vehicle arriving at u leaves at u + queue(u) / c.
A is piecewise linear, so the minimum is taken at its breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Residuals:
    """Per OD pair, the quantities of an `edue check` line (FIELDS) and the
    demand."""

    v: np.ndarray
    theta: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    demand_gap: np.ndarray
    demand: np.ndarray

    FIELDS = ("v", "theta", "r1", "r2", "demand_gap")


def boundaries(doc: dict) -> np.ndarray:
    h = doc["horizon"]
    return np.linspace(h["t0"], h["tf"], doc["solver"]["n"] + 1)


def read_rates(text: str, doc: dict) -> np.ndarray:
    """Departure rates (veh/h), one row per path in scenario order, from the
    text of a flows.csv file."""
    paths = [p["id"] for p in doc["network"]["paths"]]
    rates = np.full((len(paths), doc["solver"]["n"]), np.nan)
    lines = text.strip().splitlines()
    if lines[0] != "path_id,cell_index,t_start,t_end,flow":
        raise ValueError("not a flows.csv file")
    for line in lines[1:]:
        pid, j, _, _, flow = line.split(",")
        rates[paths.index(pid), int(j)] = float(flow)
    if np.isnan(rates).any():
        raise ValueError("the flow file does not cover every (path, cell)")
    return rates


class _Queue:
    """Waiting time at one link exit, from its piecewise-linear arrival curve."""

    def __init__(self, times: np.ndarray, cum: np.ndarray, capacity: float):
        self.times, self.cum, self.c = times, cum, capacity
        self.run_min = np.minimum.accumulate(cum - capacity * times)

    def wait(self, u: np.ndarray) -> np.ndarray:
        k = np.searchsorted(self.times, u, side="right") - 1
        g = np.interp(u, self.times, self.cum) - self.c * u
        q = np.where(k >= 0, g - self.run_min[np.maximum(k, 0)], 0.0)
        return np.maximum(q, 0.0) / self.c


def exit_times(doc: dict, rates: np.ndarray) -> np.ndarray:
    """Exit time of a marginal traveler departing at each cell boundary, one
    row per path."""
    bounds = boundaries(doc)
    dt = bounds[1] - bounds[0]
    links = {l["id"]: l for l in doc["network"]["links"]}
    routes = [p["links"] for p in doc["network"]["paths"]]
    cum = np.concatenate([np.zeros((len(routes), 1)), np.cumsum(rates * dt, axis=1)], axis=1)
    # per path: free-flow time to the exit of each link, and whether every
    # link before it is queue-free; per link: its queue, or None if it has none
    shift = [np.cumsum([links[l]["free_flow_time"] for l in r]) for r in routes]
    free_before = [[True] * len(r) for r in routes]
    queues: dict[str, _Queue | None] = {}
    depth = {l: max(r.index(l) for r in routes if l in r)
             for l in links if any(l in r for r in routes)}
    for lid in sorted(depth, key=depth.get):
        users = [(p, r.index(lid)) for p, r in enumerate(routes) if lid in r]
        cap = links[lid]["exit_capacity"]
        if all(free_before[p][k] for p, k in users):
            times = np.unique(np.concatenate([bounds + shift[p][k] for p, k in users]))
            arrivals = sum(np.interp(times, bounds + shift[p][k], cum[p]) for p, k in users)
            queue = _Queue(times, arrivals, cap)
            queued = bool(queue.wait(times).max() > 0.0)
            queues[lid] = queue if queued else None
        else:
            # a FIFO queue passes at most max(capacity, arrival rate) of each path
            reach = sum(max([rates[p].max()] + [links[l]["exit_capacity"] for l in routes[p][:k]
                                                if queues[l] is not None])
                        for p, k in users)
            if reach > cap:
                raise ValueError(f"link {lid!r} may queue behind a queue; not modelled")
            queued, queues[lid] = False, None
        for p, k in users:
            for later in range(k + 1, len(routes[p])):
                free_before[p][later] &= not queued
    out = np.empty((len(routes), len(bounds)))
    for p, route in enumerate(routes):
        t = bounds.copy()
        for lid in route:
            t = t + links[lid]["free_flow_time"]
            if queues[lid] is not None:
                t = t + queues[lid].wait(t)
        out[p] = t
    return out


def effective_delays(doc: dict, rates: np.ndarray) -> np.ndarray:
    """Cell-averaged travel time plus schedule penalty, one row per path."""
    bounds = boundaries(doc)
    exits = exit_times(doc, rates)
    x = exits - doc["horizon"]["arrival_target"]
    pen = doc["penalty"]
    psi = (exits - bounds) + pen["early"] * np.maximum(0.0, -x) + pen["late"] * np.maximum(0.0, x)
    return 0.5 * (psi[:, :-1] + psi[:, 1:])


def residuals(doc: dict, rates: np.ndarray, flow_threshold_rel: float = 1e-6) -> Residuals:
    """The equilibrium residuals of `edue check`: r1 the flow-weighted excess
    of cell cost over the demand value (veh h), r2 the excess of the demand
    value over the least cell cost (h), v the least cost over used cells,
    demand_gap |v - theta|. OD pairs are numbered by first appearance among
    the paths, and each pair's paths are taken in id order."""
    bounds = boundaries(doc)
    dt = bounds[1] - bounds[0]
    psi = effective_delays(doc, rates)
    paths = doc["network"]["paths"]
    ods = list(dict.fromkeys((p["origin"], p["destination"]) for p in paths))
    entries = {(e["origin"], e["destination"]): e for e in doc["demand"]}
    threshold = flow_threshold_rel * rates.max()
    v, theta, r1, r2, demand = (np.zeros(len(ods)) for _ in range(5))
    for w, od in enumerate(ods):
        mine = sorted((i for i, p in enumerate(paths) if (p["origin"], p["destination"]) == od),
                      key=lambda i: paths[i]["id"])
        demand[w] = sum(rates[i].sum() for i in mine) * dt
        theta[w] = entries[od]["intercept"] - entries[od]["slope"] * demand[w]
        used = [psi[i][rates[i] > threshold] for i in mine]
        used = np.concatenate(used) if any(u.size for u in used) else psi[mine].ravel()
        v[w] = used.min()
        r1[w] = sum(np.dot(rates[i], np.maximum(0.0, psi[i] - theta[w])) for i in mine) * dt
        r2[w] = max(0.0, theta[w] - psi[mine].min())
    return Residuals(v=v, theta=theta, r1=r1, r2=r2, demand_gap=np.abs(v - theta), demand=demand)
