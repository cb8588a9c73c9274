"""Vickrey point-queue network loading with exact piecewise-linear curves.

Traffic entering a link first travels the free-flow time tau, then joins a
vertical queue at the link exit that discharges at the exit capacity M. With
A(u) the cumulative arrivals at the queue, Newell's cumulative-curve form of
the point queue gives the cumulative exits D(u) = min over s <= u of
[A(s) + M (u - s)], so the queue is q = g - (running minimum of g) with
g(u) = A(u) - M u, and an arrival at u leaves at u + q(u) / M. Departure
rates are piecewise constant, so every curve is piecewise linear: the running
minimum is exact at the breakpoints of A plus the instants where a queue
empties inside a piece, and no time stepping enters.

Links are loaded depth by depth in the link-succession graph (link b succeeds
link a when some path uses b right after a), each in one array step over the
whole horizon: merge the users' cumulative inflow curves on the union of their
breakpoints, take the queue from the running minimum of g, insert the emptying
instants and a final drain point, and give each path its downstream curve
(exit time, its own cumulative count), which is exact by FIFO.

No link at a depth feeds another at it, so the links of a depth that have one
live user (a path whose inflow curve there carries flow) are loaded together
when there are two or more of them: one step over their curves laid end to
end, bit for bit the floats of the per-link step, whose cost is almost all
fixed. On a 2-core Xeon host (least of 5 x 200 calls; 17 breakpoints a
link, 65 for 64 links), 8 links take 133 us one by one and 68 us in one
batch; 64 links take 1100 and 265 us. The batch computes no queue: a batched
link whose inflow exceeds its capacity goes through the per-link step, as no
benchmark workload queues on a batched link and a second copy of the queue
arithmetic would serve no measured load. Three kinds of link keep the
per-link step. A lone such link at its depth costs 17 us there and 42 us as
a batch of one. A merge link with two or more live users first merges their
curves on the union of their breakpoints, a sort of its own. The links of a
succession cycle (a ring road) feed each other, so they run the per-link
step in passes: nothing leaves a link sooner than tau after entering it, so
each pass makes the cycle's curves exact for one more min-tau of time.

Both steps test first whether g ever rises. Where it does not, the inflow
never exceeds capacity and the queue is exactly zero, so they skip the
queue arithmetic and each user's exit times are the breakpoints s.

A loading keeps, per link, its breakpoints s and waits w = q / M. Exit times
of a path follow by s <- s + tau, then s <- s + w(s), link by link.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .grid import TimeGrid
from .network import Link, Network, Users

__all__ = ["HorizonOverflowError", "LinkState", "LoadingResult", "load", "default_horizon"]

# Breakpoints closer than this (hours, 3.6 ns) are merged and waits shorter
# than it are zero. It exceeds the float spacing of clock times below 1000 h
# (1.1e-13 h), so the breakpoints kept, emptying instants and drain points
# are distinct floats.
_MIN_PARCEL_LEN = 1e-12

# A path's cumulative curve at one point of its route: (times, counts), both
# nondecreasing and linear between samples; None when the path carries nothing.
Curve = Optional[tuple[np.ndarray, np.ndarray]]


class HorizonOverflowError(RuntimeError):
    """The network did not clear within the extended horizon."""

    def __init__(self, residual_volume: float, horizon_end: float, path_id: str, link_id: str):
        self.residual_volume = residual_volume
        self.horizon_end = horizon_end
        self.path_id = path_id
        self.link_id = link_id
        super().__init__(
            f"loading exceeded horizon end {horizon_end}: "
            f"{residual_volume} vehicles still in network, "
            f"e.g. path {path_id} on link {link_id}"
        )


class LinkState:
    """Point-queue curves of one link, sampled at their breakpoints on the
    queue-arrival time axis (entry time plus free-flow time): cumulative
    arrivals ``cum_in`` and queue ``queue``, both linear between breakpoints
    and constant outside them, with the wait at the exit ``w`` = queue / M."""

    def __init__(self, link: Link, s: np.ndarray, cum_in: np.ndarray, queue: np.ndarray,
                 w: np.ndarray, queued: bool):
        self.link = link
        self.s = s
        self.cum_in = cum_in
        self.queue = queue
        self.w = w
        self.queued = queued  # whether a queue ever forms

    @property
    def segments(self) -> np.ndarray:
        """(start, end) of each piece on which arrivals and queue are linear."""
        return np.column_stack((self.s[:-1], self.s[1:]))

    def curve_samples(self) -> np.ndarray:
        """Breakpoint samples (time, cum_in, cum_out, queue) of the curves."""
        return np.column_stack((self.s, self.cum_in, self.cum_in - self.queue, self.queue))


def _link_step(link: Link, inflows: list[Curve]) -> tuple[LinkState, list[Curve]]:
    """Load one link over the whole horizon: its users' inflow curves (entry
    times) in, its queue curves and the users' downstream curves (exit times)
    out, in the order of ``inflows``.

    Its cost is almost all fixed, so links with one live user that share a
    depth go through _batch_step together (see the module docstring for the
    measured times). This step loads the rest: a lone link at its depth,
    which it loads faster than a batch of one; merge links with two or more
    live users; the links of succession cycles, loaded in passes; and a
    batched link whose inflow exceeds its capacity, which _batch_step hands
    back here because no benchmark workload queues on a batched link. Like
    _batch_step, it returns at once, with a queue of exactly zero, when g
    never rises."""
    live = [c for c in inflows if c is not None]
    if not live:
        empty = np.empty(0)
        return LinkState(link, empty, empty, empty, empty, False), [None] * len(inflows)
    cap = link.exit_capacity
    # sorted in Python: the first use of numpy's sort kernels adds about
    # 0.3 MB of resident memory, more than a few hundred breakpoints are worth
    e = live[0][0] if len(live) == 1 else np.array(
        sorted(set(np.concatenate([t for t, _ in live]).tolist())))
    s = e + link.free_flow_time
    keep = np.concatenate((s[1:] - s[:-1] > _MIN_PARCEL_LEN, [True]))  # each cluster's last
    e, s = e[keep], s[keep]
    if len(live) == 1:
        counts = live[0][1][keep][None]
    else:
        counts = np.array([np.interp(e, t, n) for t, n in live])
    a = counts.sum(axis=0)
    g = a - cap * s
    if not (g[1:] > g[:-1]).any():
        # g never rises, so the running minimum is g itself and q is 0.0
        # exactly; s is strictly increasing, so the exit times are s
        q = np.zeros(len(s))
        out = iter(counts)
        return LinkState(link, s, a, q, q, False), [
            None if c is None else (s, next(out)) for c in inflows]
    run_min = np.minimum.accumulate(g)
    # q = g - run_min, taken from the breakpoint b where the running minimum
    # was set (the start of the busy period) so that no large g cancels
    b = np.maximum.accumulate(np.where(g == run_min, np.arange(len(g)), 0))
    q = (a - a[b]) - cap * (s - s[b])
    q[q < cap * _MIN_PARCEL_LEN] = 0.0

    # The queue empties strictly inside piece i when g falls below the running
    # minimum there, and what is left at the end drains at capacity. Add those
    # instants (q = 0) after breakpoint i, so that q is linear on every piece.
    after, new_s, new_counts = [], [], []
    (i,) = np.nonzero((q[:-1] > 0.0) & (g[1:] < run_min[:-1]))
    if i.size:
        frac = q[i] / (g[i] - g[i + 1])
        u = s[i] + frac * (s[i + 1] - s[i])
        inside = (u > s[i] + _MIN_PARCEL_LEN) & (u < s[i + 1] - _MIN_PARCEL_LEN)
        i, frac = i[inside], frac[inside]
        after.append(i)
        new_s.append(u[inside])
        new_counts.append(counts[:, i] + frac * (counts[:, i + 1] - counts[:, i]))
    if q[-1] > 0.0:
        after.append([len(s) - 1])
        new_s.append([s[-1] + q[-1] / cap])
        new_counts.append(counts[:, -1:])
    if after:
        after = np.concatenate(after)
        shift = np.zeros(len(s) + 1, dtype=np.intp)
        shift[after + 1] = 1
        old_at = np.arange(len(s)) + np.cumsum(shift[:-1])  # moved by the points before
        new_at = after + np.arange(1, len(after) + 1)
        size = len(s) + len(after)
        s_all, q_all = np.empty(size), np.zeros(size)
        s_all[old_at], s_all[new_at], q_all[old_at] = s, np.concatenate(new_s), q
        counts_all = np.empty((len(counts), size))
        counts_all[:, old_at], counts_all[:, new_at] = counts, np.concatenate(new_counts, axis=1)
        s, q, counts = s_all, q_all, counts_all
        a = counts.sum(axis=0)

    w = q / cap
    state = LinkState(link, s, a, q, w, np.count_nonzero(q) > 0)
    exits = np.maximum.accumulate(s + w)
    out = iter(counts)
    return state, [None if c is None else (exits, next(out)) for c in inflows]


def _batch_step(links: list[Link], inflows: list[tuple[np.ndarray, np.ndarray]]
                ) -> tuple[list[LinkState], list[Curve]]:
    """_link_step of links that have one user each, that user's inflow curve
    given per link: one array step over the links' curves laid end to end,
    which gives each link bit for bit the floats its own _link_step gives.

    The arithmetic runs elementwise on the flat arrays, with each link's
    free-flow time and capacity repeated over its row. Where the inflow never
    exceeds capacity, g falls along the row and no queue forms. A row on
    which g rises (the inflow exceeds capacity somewhere) goes through
    _link_step on its own: no batched link of the benchmark workloads
    queues, so a batched copy of the queue arithmetic would serve no measured
    load. The whole-batch test comes first, so a batch without a queue pays
    for nothing else."""
    sizes = np.array([len(t) for t, _ in inflows])
    s = np.concatenate([t for t, _ in inflows]) + np.repeat(
        [link.free_flow_time for link in links], sizes)
    a = np.concatenate([n for _, n in inflows])
    last = np.cumsum(sizes) - 1
    keep = np.empty(len(s), dtype=bool)  # each cluster's last, and each row's last
    keep[:-1] = s[1:] - s[:-1] > _MIN_PARCEL_LEN
    keep[last] = True
    if not keep.all():
        s, a = s[keep], a[keep]
        last = np.cumsum(keep)[last] - 1
    g = a - np.repeat([link.exit_capacity for link in links], np.diff(last, prepend=-1)) * s
    rises = g[1:] > g[:-1]
    rises[last[:-1]] = False  # pieces that span two rows
    queues = set(np.searchsorted(last, np.flatnonzero(rises)).tolist()) if rises.any() else ()
    q = w = np.zeros(len(s))
    bounds = (last + 1).tolist()
    states, outs = [], []
    for r, (link, inflow, lo, hi) in enumerate(zip(links, inflows, [0] + bounds, bounds)):
        if r in queues:
            state, (out,) = _link_step(link, [inflow])
        else:
            state = LinkState(link, s[lo:hi], a[lo:hi], q[lo:hi], w[lo:hi], False)
            out = (s[lo:hi], a[lo:hi])
        states.append(state)
        outs.append(out)
    return states, outs


def _settle_time(curve: Curve) -> float:
    """Time at which the curve reaches its final count."""
    t, n = curve
    return float(t[np.searchsorted(n, n[-1])])


def default_horizon(network: Network, volume: float) -> float:
    """Extended-horizon length guaranteeing clearance of the loaded volume
    (total departures, vehicles): the volume over the slowest capacity plus
    the total free-flow time."""
    min_cap = min(l.exit_capacity for l in network.links)
    total_fft = sum(l.free_flow_time for l in network.links)
    return volume / min_cap + total_fft


class LoadingResult:
    """Outcome of one network loading: per-link curves plus exact path
    exit-time evaluation."""

    def __init__(
        self,
        network: Network,
        grid: TimeGrid,
        states: dict[str, LinkState],
        total_in: float,
        total_out: float,
    ):
        self.network = network
        self.grid = grid
        self.states = states
        self.total_in = total_in
        self.total_out = total_out
        # per path, per link: free-flow time and the wait curve (None when the
        # link never queues)
        waits = {lid: (st.s, st.w) if st.queued else None for lid, st in states.items()}
        self._legs = tuple(tuple((link.free_flow_time, waits[link.id]) for link in route)
                           for route in network.routes)

    @property
    def conservation_residual(self) -> float:
        scale = max(abs(self.total_in), 1.0)
        return abs(self.total_in - self.total_out) / scale

    def exit_times(self, path_index: int, t):
        """Clock times at which marginal travelers departing at t (a scalar or
        an array) on the path reach the destination."""
        s = t
        for tau, wait in self._legs[path_index]:
            s = s + tau
            if wait is not None:
                s = s + np.interp(s, *wait)
        return s

    def boundary_exits(self) -> np.ndarray:
        """Exit times at every cell boundary, one row per path."""
        bounds = self.grid.boundaries
        return np.array([self.exit_times(p, bounds) for p in range(len(self.network.paths))])


def load(
    network: Network,
    flows: np.ndarray,
    grid: TimeGrid,
    horizon: float | None = None,
) -> LoadingResult:
    """Run the point-queue loading of the given path departure rates, a
    (paths, n) array with one row per path.

    Raises HorizonOverflowError if vehicles remain in the network past
    tf + horizon (horizon defaults to a clearance-guaranteeing bound; a given
    one must be finite and nonnegative).
    """
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (len(network.paths), grid.n):
        raise ValueError(
            f"need a ({len(network.paths)}, {grid.n}) array of path flows, "
            f"got shape {flows.shape}"
        )
    if not (np.isfinite(flows).all() and (flows >= 0.0).all()):
        raise ValueError("path flows must be finite and nonnegative")
    if horizon is not None and not (np.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon!r}")

    # curves[p][k]: path p's curve at the entry of its k-th link; the last
    # one is its arrival curve at the destination
    bounds = grid.boundaries
    cum = np.zeros((len(flows), grid.n + 1))
    np.cumsum(flows * grid.dt, axis=1, out=cum[:, 1:])
    curves: list[list[Curve]] = []
    total_in = 0.0
    for row, route in zip(cum, network.routes):
        total_in += float(row[-1])
        curves.append([(bounds, row) if row[-1] > 0.0 else None] + [None] * len(route))
    if horizon is None:
        horizon = default_horizon(network, total_in)
    t_end = grid.tf + horizon

    states: dict[str, LinkState] = {}

    def step(link: Link, users: Users) -> None:
        state, outs = _link_step(link, [curves[p][k] for p, k in users])
        states[link.id] = state
        for (p, k), out in zip(users, outs):
            curves[p][k + 1] = out

    for depth in network.loading_depths:
        # links with one live user (an inflow curve that is not None) go
        # through _batch_step together; the curves of their other users stay
        # None. Behind a cycle cut short at the horizon end, a path with flow
        # can have no curve here; step() loads its link as one without users.
        single: list[tuple[Link, Users, tuple[int, int]]] = []
        for link, users in depth.links:
            live_users = [(p, k) for p, k in users if curves[p][k] is not None]
            if len(live_users) == 1:
                single.append((link, users, live_users[0]))
            else:
                step(link, users)
        if len(single) == 1:
            link, users, _ = single[0]
            step(link, users)
        elif single:
            batch, outs = _batch_step([link for link, _, _ in single],
                                      [curves[p][k] for _, _, (p, k) in single])
            for state, out, (_, _, (p, k)) in zip(batch, outs, single):
                states[state.link.id] = state
                curves[p][k + 1] = out

        for cycle in depth.cycles:
            # Before a pass, every curve the cycle produces is exact up to
            # `exact_until`: at first the empty curves are, since nothing
            # leaves a link sooner than min tau after the cycle's first entry.
            # A pass of the per-link step moves that time on by min tau. The
            # cycle is done once every curve it produces has reached its final
            # count before that time.
            width = min(link.free_flow_time for link, _ in cycle.links)
            entries = [float(curves[p][k][0][0]) for _, users in cycle.links for p, k in users
                       if (p, k) not in cycle.inner and curves[p][k] is not None]
            produced = [(p, k + 1) for _, users in cycle.links for p, k in users
                        if curves[p][0] is not None]
            exact_until = min(entries, default=t_end) + width
            while True:
                for link, users in cycle.links:
                    step(link, users)
                exact_until += width
                if exact_until > t_end + width or all(
                    curves[p][k] is not None and _settle_time(curves[p][k]) < exact_until
                    for p, k in produced
                ):
                    break

    def count_at_end(curve: Curve) -> float:
        if curve is None:
            return 0.0
        t, n = curve
        return float(n[-1]) if t[-1] <= t_end else float(np.interp(t_end, t, n))

    total_out = 0.0
    worst = (0.0, -1)  # (vehicles still on the path at t_end, path index)
    for p, path_curves in enumerate(curves):
        arrived = count_at_end(path_curves[-1])
        total_out += arrived
        worst = max(worst, (count_at_end(path_curves[0]) - arrived, p))
    if worst[0] > 0.0:
        p = worst[1]
        held = [count_at_end(c_in) - count_at_end(c_out)
                for c_in, c_out in zip(curves[p], curves[p][1:])]
        link = network.routes[p][int(np.argmax(held))]
        raise HorizonOverflowError(total_in - total_out, t_end, network.paths[p].id, link.id)

    return LoadingResult(network, grid, states, total_in, total_out)
