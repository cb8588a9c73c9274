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
link a when some path uses b right after a), each over the whole horizon by
one step routine, _step, over rows of breakpoints laid end to end: merge
breakpoints closer than _MIN_PARCEL_LEN, sum the users' cumulative counts
into the arrivals, take the queue from the running minimum of g, insert the
emptying instants and a final drain point (_queue), and give each path its
downstream curve (exit time, its own cumulative count), which is exact by
FIFO. Where g never rises, the inflow never exceeds capacity: the queue is
exactly zero, the exit times are the breakpoints s, and _queue is skipped.

Two entry points hand _step its rows. _link_step loads one link: a lone link
at its depth, whose one live user's counts go in as they stand; a merge
link, whose live users' curves are first interpolated on the union of their
breakpoints (unless all share one time array); and the links of a
succession cycle (a ring road), which feed each other and so are loaded in
passes: nothing leaves a link sooner than tau after entering it, so each
pass makes the cycle's curves exact for one more min-tau of time. No link
at a depth feeds another at it, so when two or more links of a depth have
one live user each (a path whose inflow curve there carries flow),
_batch_step lays their curves end to end and loads them in one _step, whose
cost is almost all fixed. Batched links do queue: the
oracle scores the copies of its congested instance in batches (oracle-tiny).

On a 2-core Xeon host (least of 30 interleaved runs of 200 calls; k identical
links of 17 breakpoints, fed at half their capacity, or at 1.8 and 0.2 times
it by turns for a queue), k links take one by one / in one batch: without a
queue 15 / 19 us for k = 2, 23 / 20 us for 3, 31 / 20 us for 4 and 62 / 26 us
for 8; with a queue 50 / 46, 74 / 46, 100 / 48 and 202 / 56 us. A lone link
takes 8 us alone and 14 us as a batch of one (25 and 31 us with a queue).
So the batch pays from k = 3 on, but load batches from k = 2: at exactly two
such links it can be the slower way, and no workload has such a depth.

A loading keeps the breakpoints s and waits w = q / M of each link that
queues. Exit times of a path follow by s <- s + tau, then s <- s + w(s), link
by link. The links' states are built from each step's arrays on first access.
cannot_queue tells, without loading, when no link can queue.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .grid import TimeGrid
from .network import Link, Network, Users

__all__ = ["HorizonOverflowError", "LinkState", "LoadingResult", "cannot_queue", "load",
           "default_horizon"]

# Breakpoints closer than this (hours, 3.6 ns) are merged and waits shorter
# than it are zero. It exceeds the float spacing of clock times below 1000 h
# (1.1e-13 h), so the breakpoints kept, emptying instants and drain points
# are distinct floats.
_MIN_PARCEL_LEN = 1e-12
_EPS = float(np.finfo(float).eps)  # the float spacing at 1

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


def _row_accumulate(ufunc: np.ufunc, x: np.ndarray, last: np.ndarray) -> np.ndarray:
    """ufunc.accumulate along each row of x, whose rows lie end to end with
    the last point of each at the indices ``last``: on a (rows, longest row)
    array, padded after each row's end where rows differ in length, so that
    the padding never reaches a row."""
    if len(last) == 1:
        return ufunc.accumulate(x)
    sizes = last.copy()
    sizes[1:] -= last[:-1]
    sizes[0] += 1
    width = sizes.max()
    if width * len(sizes) == len(x):  # rows of one length
        return ufunc.accumulate(x.reshape(len(sizes), width), axis=1).ravel()
    mask = np.arange(width) < sizes[:, None]
    padded = np.zeros(mask.shape)
    padded[mask] = x
    return ufunc.accumulate(padded, axis=1)[mask]


def _queue(s: np.ndarray, a: np.ndarray, g: np.ndarray, counts: np.ndarray, cap,
           last: np.ndarray):
    """The point queue of links whose rows of breakpoints lie end to end, the
    last point of each row at the indices ``last``: queue-arrival times s,
    cumulative arrivals a, g = a - cap * s, the users' cumulative counts (one
    row per user, summing to a) and the exit capacity, a float or repeated
    over each row.

    Returns s, a, the queue q, the wait w = q / cap, the counts and the exit
    times, each with every row's emptying instants and drain point inserted
    (q = 0 there), and the new ``last``."""
    run_min = _row_accumulate(np.minimum, g, last)
    # q = g - run_min, taken from the breakpoint b where the running minimum
    # was set (the start of the busy period) so that no large g cancels. b
    # needs no restart per row: each row's first point sets that row's
    # minimum and has a higher index than every point of the rows before it.
    b = np.maximum.accumulate(np.where(g == run_min, np.arange(len(g)), 0))
    q = (a - a[b]) - cap * (s - s[b])
    q[q < cap * _MIN_PARCEL_LEN] = 0.0
    w = q / cap

    # The queue empties strictly inside piece i when g falls below the running
    # minimum there, and what is left at a row's end drains at capacity. Add
    # those instants (q = 0) after breakpoint i, so that q is linear on every
    # piece; at most one point follows any breakpoint.
    empties = (q[:-1] > 0.0) & (g[1:] < run_min[:-1])
    empties[last[:-1]] = False  # pieces that span two rows
    (i,) = empties.nonzero()
    if i.size:
        frac = q[i] / (g[i] - g[i + 1])
        u = s[i] + frac * (s[i + 1] - s[i])
        inside = (u > s[i] + _MIN_PARCEL_LEN) & (u < s[i + 1] - _MIN_PARCEL_LEN)
        i, frac, u = i[inside], frac[inside], u[inside]
    drain = last[q[last] > 0.0]
    if i.size or drain.size:
        # double each breakpoint that a new point follows and make the second
        # copy the new point: at an emptying instant the users' counts are
        # interpolated, at a drain point they are those of the row's end
        marked = np.zeros(len(s), dtype=bool)
        marked[i] = marked[drain] = True
        at = np.arange(len(s)) + marked.cumsum()  # index of each breakpoint's last copy
        rep = marked + 1
        drained = s[drain] + w[drain]
        if i.size:
            emptied = counts[:, i] + frac * (counts[:, i + 1] - counts[:, i])
        s, q, w, counts = s.repeat(rep), q.repeat(rep), w.repeat(rep), counts.repeat(rep, axis=1)
        new_at = at[marked]
        q[new_at] = w[new_at] = 0.0
        s[at[drain]] = drained
        if i.size:
            s[at[i]], counts[:, at[i]] = u, emptied
        last = at[last]
        a = counts.sum(axis=0)
    return s, a, q, w, counts, _row_accumulate(np.maximum, s + w, last), last


def _step(links: list[Link], s: np.ndarray, counts: np.ndarray, last: np.ndarray):
    """The point-queue step of links whose rows of queue-arrival times s lie
    end to end, the last point of each row at the indices ``last``, with the
    cumulative counts of the users, one row per user over all of s.

    It merges breakpoints closer than _MIN_PARCEL_LEN, keeping each cluster's
    last and each row's last, and sums the users' counts into the arrivals.
    Where g never rises along any row, the inflow never exceeds capacity: the
    queue is exactly zero and the exit times are s, so the queue arithmetic
    is skipped. Otherwise the rows go through _queue.

    Returns s, the arrivals, the queue, the waits, the counts, the exit times
    and ``last``, each after merging and with the rows' emptying instants and
    drain points inserted, and per link whether a queue ever forms."""
    # A piece that spans two rows keeps the first row's last point and never
    # rises; one row has none and skips the masking. The tests count with
    # np.count_nonzero, about a third of the fixed cost of .all() and .any():
    # a lone link's whole step takes only a few microseconds.
    apart = s[1:] - s[:-1] > _MIN_PARCEL_LEN
    if len(last) > 1:
        apart[last[:-1]] = True
    if np.count_nonzero(apart) < len(apart):
        keep = np.append(apart, True)
        s, counts = s[keep], counts[:, keep]
        last = keep.cumsum()[last] - 1
    a = counts[0] if len(counts) == 1 else counts.sum(axis=0)  # one row sums to itself
    if len(links) == 1:
        cap = links[0].exit_capacity
    else:
        sizes = last - np.concatenate(([-1], last[:-1]))
        cap = np.array([link.exit_capacity for link in links]).repeat(sizes)
    g = a - cap * s
    rises = g[1:] > g[:-1]
    if len(last) > 1:
        rises[last[:-1]] = False
    if not np.count_nonzero(rises):
        q = np.zeros(len(s))
        return s, a, q, q, counts, s, last, [False] * len(links)
    s, a, q, w, counts, exits, last = _queue(s, a, g, counts, cap, last)
    queued = np.logical_or.reduceat(q > 0.0, np.concatenate(([0], last[:-1] + 1))).tolist()
    return s, a, q, w, counts, exits, last, queued


# the arrays of one _link_step or _batch_step: its links, then their
# breakpoints s, arrivals, queue and waits laid end to end, the index after
# each link's row and whether each link queues
Batch = tuple[list[Link], np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[int], list[bool]]


def _link_step(link: Link, inflows: list[Curve]) -> tuple[Batch, list[Curve]]:
    """Load one link over the whole horizon: its users' inflow curves (entry
    times) in, its queue curves (a Batch of the one link) and the users'
    downstream curves (exit times) out, in the order of ``inflows``.

    One live user's counts go to _step as they stand; with more, each user's
    counts are interpolated on the union of their breakpoints, unless they
    all share one strictly increasing time array, at whose own breakpoints
    np.interp would return their counts unchanged."""
    live = [c for c in inflows if c is not None]
    if not live:
        empty = np.empty(0)
        return ([link], empty, empty, empty, empty, [0], [False]), [None] * len(inflows)
    if len(live) == 1:
        e, n = live[0]
        counts = n[None]  # the user's own array
    else:
        e = _shared_axis([t for t, _ in live])
        if e is not None:
            counts = np.array([n for _, n in live])
        else:
            # sorted in Python: the first use of numpy's sort kernels adds
            # about 0.3 MB of resident memory, more than a few hundred
            # breakpoints are worth
            e = np.array(sorted(set(np.concatenate([t for t, _ in live]).tolist())))
            counts = np.array([np.interp(e, t, n) for t, n in live])
    s, a, q, w, counts, exits, _, queued = _step(
        [link], e + link.free_flow_time, counts, np.array([len(e) - 1]))
    out = iter(counts)
    return ([link], s, a, q, w, [len(s)], queued), [
        None if c is None else (exits, next(out)) for c in inflows]


def _shared_axis(times: list[np.ndarray]) -> np.ndarray | None:
    """The first of the time arrays if all are equal and strictly
    increasing, else None."""
    first = times[0]
    if any(len(t) != len(first) for t in times):
        return None
    if np.count_nonzero(np.array(times) != first) or np.count_nonzero(first[1:] <= first[:-1]):
        return None
    return first


def _batch_step(links: list[Link], inflows: list[tuple[np.ndarray, np.ndarray]]
                ) -> tuple[Batch, list[Curve]]:
    """_link_step of links that have one user each, that user's inflow curve
    given per link: one _step over the links' curves laid end to end, each
    link's free-flow time repeated over its row. The links' states stay in
    the returned Batch until _batch_states builds them."""
    sizes = np.array([len(t) for t, _ in inflows])
    tau = np.array([link.free_flow_time for link in links])
    s, a, q, w, _, exits, last, queued = _step(
        links, np.concatenate([t for t, _ in inflows]) + tau.repeat(sizes),
        np.concatenate([n for _, n in inflows])[None], sizes.cumsum() - 1)
    ends = (last + 1).tolist()
    outs = [(exits[lo:hi], a[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return (links, s, a, q, w, ends, queued), outs


def _batch_states(batch: Batch) -> list[LinkState]:
    """The LinkState of each link of a Batch, in its order."""
    links, s, a, q, w, ends, queued = batch
    return [LinkState(link, s[lo:hi], a[lo:hi], q[lo:hi], w[lo:hi], queues)
            for link, lo, hi, queues in zip(links, [0] + ends, ends, queued)]


def _settle_time(curve: Curve) -> float:
    """Time at which the curve reaches its final count."""
    t, n = curve
    return float(t[np.searchsorted(n, n[-1])])


def default_horizon(network: Network, volume: float) -> float:
    """Extended-horizon length that clears the loaded volume (total
    departures, vehicles) in exact arithmetic: the volume over the slowest
    capacity plus the total free-flow time, both over the links that some
    path uses (the network's ``clearance_terms``, taken once per network).
    load's horizon is this plus the rounding room of _rounding_room."""
    min_cap, total_fft, _ = network.clearance_terms
    return volume / min_cap + total_fft


def _rounding_room(network: Network, grid: TimeGrid, roundings: int) -> float:
    """eps T times ``roundings``, with eps the float spacing at 1 and T =
    max(|t0|, |tf| + the used links' total free-flow time), which bounds
    every clock time of a loading on the grid in which no link queues.

    With no queue, a network without a succession cycle clears by tf plus the
    free-flow times of one chain of distinct links, up to one rounding per
    link; the horizon end rounds the free-flow sum and three additions. Each
    rounding errs by at most eps T / 2, so room for used links + 2 roundings
    in load's horizon clears such a loading however small its volume."""
    total_fft = network.clearance_terms[1]
    return _EPS * max(abs(grid.t0), abs(grid.tf) + total_fft) * roundings


def cannot_queue(network: Network, flows: np.ndarray, grid: TimeGrid) -> bool:
    """Whether load(network, flows, grid) is sure to report queue_free: the
    flows have the loader's shape and are nonnegative (so NaN and negative
    flows fail and load rejects them), the network has no succession cycle,
    every used link's exit capacity is at least the sum of its users' peak
    rates (each path's largest cell flow), and rounding cannot leave a queue
    (below). load's horizon then clears them (_rounding_room).

    Proof. Through links that do not queue a path's curve is its departure
    curve shifted by free-flow times, so its rate never exceeds its peak.
    Depth by depth, no link's arrival rate then exceeds the sum of its users'
    peaks, at most its capacity, and g = a - cap * s never rises. In floats
    it may rise by a few ulps. With T the bound on clock times of
    _rounding_room, a time is shifted by at most one rounded addition per
    depth; the counts stay at most cap * (tf - t0) <= 2 T cap, and each cell,
    user and operation rounds them by at most eps T cap. So _queue's q is
    below eps T cap (depths + most users of a link + 2 n + 8), and _queue
    zeroes it if that is below cap * _MIN_PARCEL_LEN: the last condition. A
    cycle's passes shift its merged breakpoints on past these bounds, so
    cycles always load."""
    caps, users, starts, steps = network.queue_bound_terms
    # the ufunc reductions of .min() and .max(), without their Python wrappers
    if (steps is None or flows.shape != (len(network.paths), grid.n)
            or not np.minimum.reduce(flows, axis=None) >= 0.0):
        return False
    peaks = np.maximum.reduce(flows, axis=1)
    if np.count_nonzero(np.add.reduceat(peaks[users], starts) <= caps) < len(caps):
        return False
    return _rounding_room(network, grid, steps + 2 * grid.n + 8) < _MIN_PARCEL_LEN


class LoadingResult:
    """Outcome of one network loading: per-link curves plus exact path
    exit-time evaluation."""

    def __init__(
        self,
        network: Network,
        grid: TimeGrid,
        parts: dict[str, Batch],
        waits: dict[str, tuple[np.ndarray, np.ndarray]],
        total_in: float,
        total_out: float,
    ):
        self.network = network
        self.grid = grid
        self.total_in = total_in
        self.total_out = total_out
        self._parts = parts  # per link, the Batch that holds its state
        self._waits = waits  # per queued link, its breakpoints and waits
        # whether no link queues: then a path's exit times are its departure
        # times plus its free-flow times, whatever the flows
        self.queue_free = not waits

    @cached_property
    def states(self) -> dict[str, LinkState]:
        """Per link id, the link's curves, in the order the links were loaded."""
        states: dict[str, LinkState] = {}
        for lid, part in self._parts.items():
            if lid not in states:
                states.update((st.link.id, st) for st in _batch_states(part))
        return states

    @property
    def conservation_residual(self) -> float:
        scale = max(abs(self.total_in), 1.0)
        return abs(self.total_in - self.total_out) / scale

    def exit_times(self, path_index: int, t):
        """Clock times at which marginal travelers departing at t (a scalar or
        an array) on the path reach the destination."""
        waits = self._waits
        s = t
        for link in self.network.routes[path_index]:
            s = s + link.free_flow_time
            if link.id in waits:
                s = s + np.interp(s, *waits[link.id])
        return s

    def boundary_exits(self) -> np.ndarray:
        """Exit times at every cell boundary, one row per path."""
        bounds = self.grid.boundaries
        return np.array([self.exit_times(p, bounds) for p in range(len(self.network.paths))])


def load(network: Network, flows: np.ndarray, grid: TimeGrid) -> LoadingResult:
    """Run the point-queue loading of the given path departure rates, a
    (paths, n) array with one row per path.

    Raises HorizonOverflowError if vehicles remain in the network past
    tf + horizon, the horizon being default_horizon plus room for its own
    rounding (_rounding_room): in exact arithmetic it clears every loading,
    and in floats every queue-free one without a succession cycle.
    """
    flows = np.asarray(flows, dtype=float)
    if flows.shape != (len(network.paths), grid.n):
        raise ValueError(
            f"need a ({len(network.paths)}, {grid.n}) array of path flows, "
            f"got shape {flows.shape}"
        )
    if np.count_nonzero((flows >= 0.0) & (flows < np.inf)) < flows.size:  # NaN fails both
        raise ValueError("path flows must be finite and nonnegative")

    # curves[p][k]: path p's curve at the entry of its k-th link; the last
    # one is its arrival curve at the destination
    bounds = grid.boundaries
    cum = np.zeros((len(flows), grid.n + 1))
    np.add.accumulate(flows * grid.dt, axis=1, out=cum[:, 1:])
    # totals and the overflow test run on Python floats, added in path order
    # by a loop: from Python 3.12, sum() of floats is compensated
    entered = cum[:, -1].tolist()
    curves: list[list[Curve]] = []
    total_in = 0.0
    for row, route, volume in zip(cum, network.routes, entered):
        total_in += volume
        curves.append([(bounds, row) if volume > 0.0 else None] + [None] * len(route))
    t_end = grid.tf + (default_horizon(network, total_in)
                       + _rounding_room(network, grid, network.clearance_terms[2] + 2))

    parts: dict[str, Batch] = {}
    waits: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def record(batch: Batch) -> None:
        links, s, _, _, w, ends, queued = batch
        for link, lo, hi, queues in zip(links, [0] + ends, ends, queued):
            parts[link.id] = batch
            if queues:
                waits[link.id] = s[lo:hi], w[lo:hi]
            else:
                waits.pop(link.id, None)  # a cycle's earlier pass may have queued

    def step(link: Link, users: Users) -> None:
        batch, outs = _link_step(link, [curves[p][k] for p, k in users])
        record(batch)
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
            record(batch)
            for out, (_, _, (p, k)) in zip(outs, single):
                curves[p][k + 1] = out

        for cycle in depth.cycles:
            # Before a pass, every curve the cycle produces is exact up to
            # `exact_until`: at first the empty curves are, since nothing
            # leaves a link sooner than min tau after the cycle's first entry.
            # A pass of the per-link step moves that time on by min tau. The
            # cycle is done once every curve it produces has reached its final
            # count before that time.
            width = min(link.free_flow_time for link, _ in cycle)
            # the curves that enter from outside the cycle: those from its
            # own links are made by the passes below
            entries = [float(curves[p][k][0][0]) for _, users in cycle for p, k in users
                       if curves[p][k] is not None]
            produced = [(p, k + 1) for _, users in cycle for p, k in users
                        if curves[p][0] is not None]
            exact_until = min(entries, default=t_end) + width
            while True:
                for link, users in cycle:
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

    # per path, the vehicles that reached its destination by t_end and those
    # still held in it; total_out adds them in path order, as total_in does
    total_out = 0.0
    held = []
    for volume, path_curves in zip(entered, curves):
        arrived = count_at_end(path_curves[-1])
        total_out += arrived
        held.append(volume - arrived)
    most = max(held)
    if most > 0.0:
        p = len(held) - 1 - held[::-1].index(most)  # the last of the paths holding most
        on_link = [count_at_end(c_in) - count_at_end(c_out)
                   for c_in, c_out in zip(curves[p], curves[p][1:])]
        link = network.routes[p][int(np.argmax(on_link))]
        raise HorizonOverflowError(total_in - total_out, t_end, network.paths[p].id, link.id)

    return LoadingResult(network, grid, parts, waits, total_in, total_out)
