"""Brute-force equilibrium finder for tiny instances.

Minimizes the equilibrium gap directly over the feasible flow lattice -- a
categorically different method from the projection iteration, so agreement
between the two is evidence rather than tautology. Search box per coordinate:
[0, flow bound], the proven ceiling on equilibrium cell flows.

Stages: coarse Cartesian lattice, compass (pattern) search from the
incumbent, then shrinking refinement lattices (box shrunk tenfold per round).
Points are scored in batches, each batch as disjoint copies of the network in
one cost mapping; the search visits and compares exactly the points it would
one by one. A lattice batch is a chunk of the lattice. A compass batch looks
ahead: until a move improves, the trials to come are known, so the rest of
the current sweep and the whole sweeps after it from one incumbent, as many
as the run's stack of copies holds and never fewer than LOOKAHEAD, are scored
together, and the trials after the first better one are discarded. Most
sweeps improve nothing and only halve the step, so the criterion-2 instances
score 29, 32 and 192 batches, against 90, 100 and 223 one sweep at a time and
38, 43 and 192 three sweeps at a time.

A run scores each distinct point once. A table maps the bytes of every
scored point to its gap, so it holds at most the distinct points that the
run scores: 241, 418 and 3872 on the criterion-2 instances, whose batches
hold 482, 684 and 3996 feasible points. The repeats (50%, 39% and 3%) are
nearly all compass trials: a move clipped at a bound of the box lands on
the incumbent, and others land on points scored before. A batch scores the
feasible points it holds for the first time, in one cost mapping, and reads
the rest from the table; a batch with none runs no cost mapping.

A run builds one stack of network copies, with one inverse demand, at its
first batch: as many copies as the largest batch can hold, 25 on those
instances. A batch of b new points is scored on the stack's first b copies
(Network.copies with the stack), which adopt its links, paths and derived
structure, priced by the first b copies' entries of the stack's checked
inverse demand, adopted as they are. On a 2-core Xeon host the 25-copy stack
takes about 160 us to build, and its first b copies 4 to 8 us at any b
(13 us at 1 and 56 us at 24 through the Network constructor). One batch of
the congested one-path instance whose flows queue costs about 155 us at 1
new point, 230 us at 8 and 300 to 375 us at 24, and 13 to 30 us when every
point comes from the table: the fixed cost dominates, so fewer and fuller
batches are faster. Timed over 40 alternating rounds in one process, both
one-path oracle runs took 0.91x and 0.90x at 6 sweeps per batch against 3,
0.94x at 4 and 0.98x at 5; at one cell (dim 1) 2 sweeps took 1.22x of 3, so
LOOKAHEAD stays the floor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cost import SchedulePenalty
from .demand import InverseDemand
from .grid import ExtendedPoint, TimeGrid
from .network import Network
from .solver import compute_gap, f_map, lemma2_bound

__all__ = ["TinyInstance", "OracleResult", "brute_force_equilibrium"]

MAX_LATTICE_POINTS = 200_000
RESOLUTION = 5  # lattice points per coordinate
REFINE_ROUNDS = 6
LOOKAHEAD = 3  # the fewest compass sweeps scored per batch
CERTIFY_REL = 1e-8


@dataclass(frozen=True)
class TinyInstance:
    """A scenario small enough for exhaustive gap search: the coarse lattice,
    RESOLUTION points per flow coordinate, has at most MAX_LATTICE_POINTS."""

    network: Network
    grid: TimeGrid
    penalty: SchedulePenalty
    inv_demand: InverseDemand

    def __post_init__(self) -> None:
        dim = len(self.network.paths) * self.grid.n
        if RESOLUTION**dim > MAX_LATTICE_POINTS:
            raise ValueError(f"lattice of {RESOLUTION}^{dim} = {RESOLUTION**dim} points "
                             f"exceeds the search budget of {MAX_LATTICE_POINTS}")
        self.inv_demand.gap_scale()


@dataclass(frozen=True)
class OracleResult:
    point: ExtendedPoint
    gap: float
    certified: bool
    # the feasible points the search compared; trials scored ahead of an
    # accepted compass move are discarded and not counted
    evaluations: int


class _GapObjective:
    """The equilibrium gap at candidate flow points, scored in batches: the
    feasible points of a batch that were not scored before are stacked as
    disjoint copies of the network and go through one cost mapping. Each
    gap is kept in a table by the bytes of its point, which holds at most
    the distinct points that a run scores."""

    def __init__(self, inst: TinyInstance):
        self.inst = inst
        self.shape = (len(inst.network.paths), inst.grid.n)
        self.evaluations = 0
        # the most points one batch holds: a lattice chunk or a compass batch
        dim = self.shape[0] * self.shape[1]
        self._most = max(min(RESOLUTION**dim, RESOLUTION**2), LOOKAHEAD * 2 * dim)
        # compass sweeps per batch: as many whole sweeps as the stack holds
        self.sweeps = max(LOOKAHEAD, self._most // (2 * dim))
        # per number of copies: the network copies and their inverse demand
        self._stacks: dict[int, tuple[Network, InverseDemand]] = {}
        # the gap of every point scored, by the bytes of its row
        self._scored: dict[bytes, float] = {}

    def _stack(self, b: int) -> tuple[Network, InverseDemand]:
        if b not in self._stacks:
            inv = self.inst.inv_demand
            if b == self._most:
                # the first batch builds the largest stack
                self._stacks[b] = (self.inst.network.copies(b), InverseDemand(
                    np.tile(inv.intercept, b), np.tile(inv.slope, b), np.tile(inv.cap, b)))
            else:
                # every smaller one is its first b copies, priced by the
                # first b copies' entries of its checked inverse demand
                network, tiled = self._stack(self._most)
                n_od = b * len(inv.cap)
                self._stacks[b] = (self.inst.network.copies(b, network), InverseDemand._own(
                    tiled.intercept[:n_od], tiled.slope[:n_od], tiled.cap[:n_od]))
        return self._stacks[b]

    def demands_of(self, xs: np.ndarray) -> np.ndarray:
        """Per point (row of xs), the demand of each OD pair."""
        network = self.inst.network
        n_od = len(network.od_pairs)
        # OD pair w of point k is bin k * n_od + w: the bins of the points'
        # stacked network copies, summed in the same order
        bins = (np.arange(len(xs))[:, None] * n_od + network.path_od).ravel()
        volumes = xs.reshape(len(xs), *self.shape).sum(axis=2).ravel()
        return (np.bincount(bins, weights=volumes, minlength=len(xs) * n_od).reshape(len(xs), n_od)
                * self.inst.grid.dt)

    def gaps(self, xs: np.ndarray) -> np.ndarray:
        """The gap at each point (row of xs); inf where a demand exceeds its
        cap. The search never makes a negative flow (every lattice axis and
        compass trial is clipped at 0), so only the caps can fail.

        Each distinct feasible point not scored before is scored once, all
        of them in one cost mapping; the rest are read from the table. Every
        copy of a stack loads and prices as it would alone, so a gap from the
        table is the float a new scoring would give."""
        demands = self.demands_of(xs)
        feasible = ~(demands > self.inst.inv_demand.cap).any(axis=1)
        gaps = np.full(len(xs), np.inf)
        rows = np.flatnonzero(feasible).tolist()
        keys = [xs[k].tobytes() for k in rows]
        scored = self._scored
        new: dict[bytes, int] = {}  # the first row of each point not scored before
        for k, key in zip(rows, keys):
            if key not in scored:
                new.setdefault(key, k)
        if new:
            fresh = list(new.values())
            network, inv_demand = self._stack(len(fresh))
            # fresh arrays that no one else holds: the point adopts them,
            # with the checks from_matrix would make
            demands = demands[fresh].ravel()
            if np.count_nonzero(np.isfinite(demands)) < demands.size:
                raise ValueError("demands must all be finite")
            point = ExtendedPoint._own(self.inst.grid, xs[fresh].reshape(-1, self.inst.grid.n),
                                       demands)
            costs = f_map(network, point, self.inst.penalty, inv_demand, self.inst.grid)
            scored.update(zip(new, compute_gap(point, costs, network, inv_demand.cap,
                                               copies=len(fresh)).tolist()))
        gaps[feasible] = [scored[key] for key in keys]
        return gaps

    def compare(self, gaps: np.ndarray) -> None:
        """Count the scored points among those the search compares."""
        self.evaluations += int(np.count_nonzero(gaps < np.inf))

    def point_of(self, x: np.ndarray) -> ExtendedPoint:
        return ExtendedPoint.from_matrix(self.inst.grid, x.reshape(self.shape),
                                         self.demands_of(x[None])[0])


def _lattice_search(
    objective: _GapObjective,
    center: np.ndarray,
    half_width: float,
    upper: float,
) -> tuple[np.ndarray, float]:
    axes = []
    for c in center:
        lo = max(0.0, c - half_width)
        hi = min(upper, c + half_width)
        axes.append(np.linspace(lo, hi, RESOLUTION))
    best_x, best_gap = None, np.inf
    # scored in chunks of RESOLUTION^2 points, the whole lattice when dim <= 2
    points = itertools.product(*axes)
    while chunk := list(itertools.islice(points, RESOLUTION**2)):
        xs = np.array(chunk)
        gaps = objective.gaps(xs)
        objective.compare(gaps)
        for x, g in zip(xs, gaps.tolist()):
            if g < best_gap:  # strict: first minimizer wins, lexicographic order
                best_gap, best_x = g, x
    assert best_x is not None
    return best_x, best_gap


def _compass_search(
    objective: _GapObjective,
    x: np.ndarray,
    gap: float,
    step: float,
    upper: float,
    min_step: float,
) -> tuple[np.ndarray, float]:
    """Sweeps over the 2 * dim moves of +-step along each coordinate, in
    order, each from the incumbent of its turn: a move that lowers the gap
    becomes the incumbent, and the step halves after a sweep without one.

    The trials compared next are known until a move improves: the rest of
    the current sweep, then whole sweeps from the same incumbent, each at
    half the step of the one before (the first at the same step if the
    current sweep has improved). Up to objective.sweeps sweeps of them, as
    many whole sweeps as the stack holds and at least LOOKAHEAD (6 at dim 2,
    4 at dim 3, 3 at dim 1 and from dim 4 on), are scored as one batch and
    read in order. Only the trials up to the first better one count; that
    move is accepted at its own step, the sweep goes on from it, and the
    rest are discarded. Without one, every trial counts and the step halves
    after each sweep as it would one at a time: after three sweeps from the
    start of one, the step is an eighth of what it was."""
    moves = [(i, sign) for i in range(x.shape[0]) for sign in (1.0, -1.0)]
    done = 0  # moves of the current sweep compared; nonzero only after one was accepted
    while step > min_step:
        plan: list[tuple[float, int]] = []  # (step, move index) of each trial, in order
        s, start = step, done
        for _ in range(objective.sweeps):
            plan += [(s, m) for m in range(start, len(moves))]
            # a sweep that fails from its start halves the step
            s, start = s * 0.5 if start == 0 else s, 0
            if s <= min_step:
                break
        trials = np.repeat(x[None], len(plan), axis=0)
        for trial, (trial_step, m) in zip(trials, plan):
            i, sign = moves[m]
            trial[i] = min(max(trial[i] + sign * trial_step, 0.0), upper)
        gaps = objective.gaps(trials)
        better = np.flatnonzero(gaps < gap)
        compared = better[0] + 1 if better.size else len(trials)
        objective.compare(gaps[:compared])
        if better.size:
            k = better[0]
            step, m = plan[k]
            x, gap = trials[k], float(gaps[k])
            done = (m + 1) % len(moves)
        else:
            step, done = s, 0
    return x, gap


def brute_force_equilibrium(inst: TinyInstance) -> OracleResult:
    """Search the flow lattice for the minimum-gap point.

    Returns the refined incumbent; ``certified`` marks whether its gap fell
    below 1e-8 of the problem scale. An uncertified point is still the best
    found, it simply carries no optimality evidence.
    """
    objective = _GapObjective(inst)
    dim = len(inst.network.paths) * inst.grid.n
    upper = lemma2_bound(inst.network, inst.penalty)
    center = np.full(dim, upper / 2.0)
    x, gap = _lattice_search(objective, center, upper / 2.0, upper)

    # local polish: compass search from the coarse incumbent
    spacing = upper / (RESOLUTION - 1)
    x, gap = _compass_search(objective, x, gap, spacing, upper, min_step=upper * 1e-14)

    # shrinking refinement lattices around the incumbent; the lattice rarely
    # contains the incumbent itself, so keep it unless the lattice improves
    half_width = spacing
    for _ in range(REFINE_ROUNDS):
        x_cand, gap_cand = _lattice_search(objective, x, half_width, upper)
        if gap_cand < gap:
            x, gap = x_cand, gap_cand
        half_width /= 10.0

    scale = inst.inv_demand.gap_scale()
    return OracleResult(
        point=objective.point_of(x),
        gap=gap,
        certified=gap <= CERTIFY_REL * scale,
        evaluations=objective.evaluations,
    )
