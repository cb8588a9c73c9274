"""Brute-force equilibrium finder for tiny instances.

Minimizes the equilibrium gap directly over the feasible flow lattice -- a
categorically different method from the projection iteration, so agreement
between the two is evidence rather than tautology. Search box per coordinate:
[0, flow bound], the proven ceiling on equilibrium cell flows.

Stages: coarse Cartesian lattice, compass (pattern) search from the
incumbent, then shrinking refinement lattices (box shrunk tenfold per round).
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

MAX_DIMENSIONALITY = 20
MAX_LATTICE_POINTS = 200_000
RESOLUTION = 5  # lattice points per coordinate
REFINE_ROUNDS = 6
CERTIFY_REL = 1e-8


@dataclass(frozen=True)
class TinyInstance:
    """A scenario small enough for exhaustive gap search."""

    network: Network
    grid: TimeGrid
    penalty: SchedulePenalty
    inv_demand: InverseDemand

    def __post_init__(self) -> None:
        dim = len(self.network.paths) * self.grid.n + len(self.network.od_pairs)
        if dim > MAX_DIMENSIONALITY:
            raise ValueError(
                f"instance dimensionality {dim} exceeds the tractable limit "
                f"{MAX_DIMENSIONALITY}"
            )


@dataclass(frozen=True)
class OracleResult:
    point: ExtendedPoint
    gap: float
    certified: bool
    evaluations: int


def _problem_scale(inst: TinyInstance) -> float:
    return float(np.dot(inst.inv_demand.intercept, inst.inv_demand.cap))


class _GapObjective:
    def __init__(self, inst: TinyInstance):
        self.inst = inst
        self.shape = (len(inst.network.paths), inst.grid.n)
        self.dt = inst.grid.dt
        self.evaluations = 0

    def demands_of(self, h: np.ndarray) -> np.ndarray | None:
        demands = self.inst.network.od_sum(h.sum(axis=1)) * self.dt
        if (demands > self.inst.inv_demand.cap).any():
            return None  # outside the feasible set
        return demands

    def __call__(self, flat: np.ndarray) -> float:
        h = flat.reshape(self.shape)
        if np.any(h < 0.0):
            return np.inf
        demands = self.demands_of(h)
        if demands is None:
            return np.inf
        point = ExtendedPoint.from_matrix(self.inst.grid, h, demands)
        costs = f_map(
            self.inst.network, point, self.inst.penalty, self.inst.inv_demand, self.inst.grid
        )
        self.evaluations += 1
        return compute_gap(point, costs, self.inst.network, self.inst.inv_demand.cap)

    def point_of(self, flat: np.ndarray) -> ExtendedPoint:
        h = flat.reshape(self.shape)
        demands = self.demands_of(h)
        assert demands is not None
        return ExtendedPoint.from_matrix(self.inst.grid, h, demands)


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
    for combo in itertools.product(*axes):
        x = np.array(combo)
        g = objective(x)
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
    dim = x.shape[0]
    while step > min_step:
        improved = False
        for i in range(dim):
            for sign in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(max(trial[i] + sign * step, 0.0), upper)
                g = objective(trial)
                if g < gap:
                    x, gap, improved = trial, g, True
        if not improved:
            step *= 0.5
    return x, gap


def brute_force_equilibrium(inst: TinyInstance) -> OracleResult:
    """Search the flow lattice for the minimum-gap point.

    Returns the refined incumbent; ``certified`` marks whether its gap fell
    below 1e-8 of the problem scale. An uncertified point is still the best
    found, it simply carries no optimality evidence.
    """
    objective = _GapObjective(inst)
    dim = len(inst.network.paths) * inst.grid.n
    if RESOLUTION**dim > MAX_LATTICE_POINTS:
        raise ValueError(
            f"lattice of {RESOLUTION}^{dim} points exceeds the search budget"
        )
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

    scale = _problem_scale(inst)
    return OracleResult(
        point=objective.point_of(x),
        gap=gap,
        certified=gap <= CERTIFY_REL * scale,
        evaluations=objective.evaluations,
    )
