"""Fixed-point projection solver for the discretized equilibrium problem.

The extended problem over (path flows, demands) is solved in the reduced
parametrization: demands are induced from flows by conservation, so the step
is h = P_K[h - alpha * rc], rc the reduced costs (cell cost minus the OD's
inverse-demand value) and P_K the Euclidean projection onto the flows whose
volume per OD is at most its demand cap, or in fixed mode its pinned demand.
Its fixed points are the VI's solutions for every alpha; the start is P_K of
zero flow. Only P_K knows the mode. An active cap is flagged in the report
since it is a technical device, not an equilibrium property. Only the start
is built by the public ``ExtendedPoint`` constructor, with its copies and
scans; each step's point adopts the arrays P_K has just made
(``ExtendedPoint._own``), scanning only the flows for finiteness.

Reduced costs and residuals come from ``verify``. One iteration forms its
reduced costs and their per-OD minimum once and shares them among the gap,
the residuals and the step (``verify`` keeps them with the iteration's
CostField). It records the largest residuals only, and the report's are
computed once, at the best point. ``f_map`` alone keeps the delays of a
loading in which no link queues (``Network.free_flow_delays``, per grid and
penalty): they do not depend on the flows. Once they are kept it runs no
loading for flows that ``dnl.cannot_queue`` shows cannot queue: every
link's users' peak rates sum to at most its capacity.

No convergence is guaranteed by theory (the delay operator is not monotone);
non-convergence is reported honestly via the gap history and exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dnl, verify
from .cost import CostField, SchedulePenalty, effective_delay
from .demand import InverseDemand
from .grid import ExtendedPoint, ShapeError, TimeGrid, finite_real, positive_int
from .network import Network
from .verify import reduced_costs

__all__ = [
    "SolverConfig",
    "SolveReport",
    "f_map",
    "fixed_point_step",
    "compute_gap",
    "lemma2_bound",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    alpha: float = 100.0  # step size, (veh/h) per hour of reduced cost
    max_iters: int = 500
    gap_rtol: float = 1e-6  # gap target, relative to the initial gap
    halve_on_stall: int = 40  # halve alpha after this many non-improving iters

    def __post_init__(self) -> None:
        for name in ("alpha", "gap_rtol"):
            finite_real(getattr(self, name), f"solver {name}")
        if self.alpha <= 0.0:
            raise ValueError("step size must be positive")
        for name in ("max_iters", "halve_on_stall"):
            object.__setattr__(self, name, positive_int(getattr(self, name), f"solver {name}"))
        if self.gap_rtol < 0.0:
            raise ValueError("solver gap_rtol must be nonnegative")


@dataclass
class SolveReport:
    point: ExtendedPoint
    costs: CostField
    gap_history: list[tuple[int, float, float, float, float]]  # iter, gap, max_r1, max_r2, alpha
    converged: bool
    residuals: "verify.ResidualReport"
    flow_bound: float  # 3 * M^max / (Delta + 1)
    caps_active: list[int]
    final_gap: float
    mode: str
    # why the loop ended before it converged or spent its budget, if it did
    stop: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.gap_history)

    @property
    def initial_gap(self) -> float:
        return self.gap_history[0][1]

    @property
    def max_cell_flow(self) -> float:
        return float(self.point.flows.max())

    @property
    def flow_bound_ok(self) -> bool:
        return self.max_cell_flow <= self.flow_bound

    def summary_lines(self) -> list[str]:
        lines = [
            f"mode: {self.mode}",
            f"converged: {self.converged}",
            *([f"stopped: {self.stop}"] if self.stop is not None else []),
            f"iterations: {self.iterations}",
            f"initial gap: {self.initial_gap!r}",
            f"final gap: {self.final_gap!r}",
            f"flow bound 3*Mmax/(Delta+1): {self.flow_bound!r}",
            f"max cell flow: {self.max_cell_flow!r}",
            f"flow bound satisfied: {self.flow_bound_ok}",
            f"active demand caps (OD indices): {self.caps_active}",
        ]
        lines.extend(self.residuals.summary_lines())
        return lines


def f_map(
    network: Network,
    point: ExtendedPoint,
    penalty: SchedulePenalty,
    inv_demand: InverseDemand | None,
    grid: TimeGrid,
) -> CostField:
    """Evaluate the cost mapping at a feasible point: run the loading, build
    effective delays, and evaluate the inverse demand at the point's demands.

    f_map alone fills and reads ``network.free_flow_delays``: it stores the
    delays of a loading in which no link queues there, read-only, under
    (grid, penalty). Once they are stored, flows that ``dnl.cannot_queue``
    shows cannot queue run no loading: the loading would report queue_free,
    and its delays would be the stored ones bit for bit. f_map serves a copy
    of the stored entry and stores a copy of the delays it computed, so the
    stored array is never handed out. Each array it builds its CostField from
    is its own and already checked (``effective_delay`` rejects a delay that
    is not a finite positive number), so ``CostField._own`` takes them as
    they are, with no second copy or scan.

    With ``inv_demand=None`` (pinned-demand mode) the OD value is the current
    minimum cell cost, which reduces every downstream formula to the
    fixed-demand equilibrium conditions.
    """
    key = (grid, penalty)
    stored = network.free_flow_delays.get(key)
    if stored is not None and dnl.cannot_queue(network, point.flows, grid):
        psi = stored.copy()
    else:
        result = dnl.load(network, point.flows, grid)
        psi = effective_delay(result, penalty)
        if result.queue_free:
            stored = psi.copy()
            stored.setflags(write=False)
            network.free_flow_delays[key] = stored
    if inv_demand is not None:
        theta = inv_demand.theta(point.demands)
    else:
        theta = network.od_min(psi)
    return CostField._own(psi, theta)


def _project(network: Network, grid: TimeGrid, y: np.ndarray, caps: np.ndarray,
             pinned: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per OD, the Euclidean projection of rates y onto the feasible set:
    h = max(0, y - lam), lam = 0 where the clipped volume meets the bound
    (elastic: fits under the cap), else the root of dt * sum(max(0, y - lam))
    = bound, found by a sort (Held, Wolfe & Crowder 1974); pinned, lam may be < 0.
    Returns (h, demands): h is a new array, and so are the demands when
    elastic; pinned, they are ``caps`` itself."""
    h = np.maximum(0.0, y)
    # .sum's ufunc reduction, without its Python wrapper
    vol = network.od_sum(np.add.reduce(h, axis=1)) * grid.dt
    demands = caps if pinned else np.minimum(vol, caps)
    off = demands != vol
    if np.count_nonzero(off):  # one C call, unlike .any()
        rows = network.by_od(y)[off]
        width = grid.n * np.bincount(network.path_od)[off, None]  # a narrower pair repeats a path
        rows[np.arange(rows.shape[1]) >= width] = -np.inf
        s = np.sort(rows, axis=1)[:, ::-1]
        lam = (np.cumsum(s, axis=1) - demands[off, None] / grid.dt) / np.arange(1, s.shape[1] + 1)
        rho = np.maximum(1, np.count_nonzero(s > lam, axis=1))  # >= 1: a zero bound gets h = 0
        shift = np.zeros(len(off))
        shift[off] = lam[np.arange(len(rho)), rho - 1]
        h = np.maximum(0.0, y - shift[network.path_od][:, None])
    return h, demands


def fixed_point_step(
    point: ExtendedPoint,
    costs: CostField,
    network: Network,
    alpha: float,
    caps: np.ndarray,
    pinned: bool = False,
) -> ExtendedPoint:
    """One projection step, P_K[h - alpha * rc] (``_project``): ``caps`` bound
    each OD's volume from above, or with ``pinned`` exactly.

    The new point holds the arrays ``_project`` made (``ExtendedPoint._own``:
    no copy, only the flows' finiteness scan); pinned demands are the caller's
    caps, so they are copied first."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"step size alpha must be finite and positive, got {alpha!r}")
    verify.check_rows(network, point.flows, costs.psi)
    caps = verify.check_caps(network, caps)
    y = point.flows - alpha * reduced_costs(costs, network)
    h, demands = _project(network, point.grid, y, caps, pinned)
    return ExtendedPoint._own(point.grid, h, demands.copy() if pinned else demands)


def compute_gap(
    point: ExtendedPoint,
    costs: CostField,
    network: Network,
    caps: np.ndarray,
    copies: int | None = None,
) -> float | np.ndarray:
    """Closed-form equilibrium gap: the largest violation of the variational
    inequality over the feasible set, zero exactly at solutions.

    It is nonnegative up to rounding. In exact arithmetic and with h >= 0 it
    is at least sum_w |c_w| (cap_w - V_w), V_w = dt * sum(h) the OD's volume
    and c_w = min(0, its least reduced cost): below zero only where a volume
    overruns its cap, as a projection's rounding can leave it by a few ulps.
    Evaluating the formula can lower it by up to (cells + OD pairs + 2) * eps
    * (dt * sum|h * rc| + sum_w |c_w| (cap_w + V_w)), eps the float spacing
    at 1. So a point whose cap binds can read a few ulps below zero.

    Per OD the best response concentrates on the cheapest (path, cell): the
    cap volume there if its reduced cost is negative, nothing otherwise. In
    fixed mode (``caps`` the pinned demands) ``f_map`` sets theta to each
    OD's least cost, so that reduced cost is exactly 0.0 and the pinned
    formula, carried - cheapest * pinned, gives the same float.

    With ``copies`` = b, ``network`` is ``Network.copies(b)`` of a base
    network, and the result is an array of the b copies' gaps, each the float
    this function gives for that copy alone. ShapeError unless b is an
    integer >= 1 that divides both the path count and the OD-pair count.
    """
    verify.check_rows(network, point.flows, costs.psi)
    caps = verify.check_caps(network, caps)
    if copies is not None:
        try:
            copies = positive_int(copies, "copies")
        except ValueError as exc:
            raise ShapeError(str(exc)) from None
        if len(network.paths) % copies or len(network.od_pairs) % copies:
            raise ShapeError(f"copies {copies} must divide the path count "
                             f"{len(network.paths)} and the OD-pair count "
                             f"{len(network.od_pairs)}")
    # the flow carried at its reduced costs, less the best response's: the cap
    # volume at each OD's cheapest cell where that cell's reduced cost
    # (clipped at 0) is negative
    rc = reduced_costs(costs, network)
    cheapest = np.minimum(0.0, verify.least_reduced_costs(costs, network))
    dt = point.grid.dt
    if copies is None:
        return float(np.vdot(point.flows, rc)) * dt - float(np.dot(cheapest, caps))
    # the same two dot products per copy, stacked as (b, 1, m) @ (b, m, 1):
    # matmul takes each with the dot routine that vdot and dot use, so every
    # copy's gap is bit for bit the one it has alone
    carried = np.matmul(point.flows.reshape(copies, 1, -1), rc.reshape(copies, -1, 1))
    best = np.matmul(cheapest.reshape(copies, 1, -1), caps.reshape(copies, -1, 1))
    return carried.reshape(copies) * dt - best.reshape(copies)


def lemma2_bound(network: Network, penalty: SchedulePenalty) -> float:
    """Upper bound 3 * M^max / (Delta + 1) on equilibrium cell flows (veh/h)."""
    return 3.0 * max(l.exit_capacity for l in network.links) / (penalty.slope_bound() + 1.0)


def zero_point(network: Network, grid: TimeGrid) -> ExtendedPoint:
    h = np.zeros((len(network.paths), grid.n))
    return ExtendedPoint.from_matrix(grid, h, np.zeros(len(network.od_pairs)))


def solve(
    network: Network,
    penalty: SchedulePenalty,
    inv_demand: InverseDemand | None,
    config: SolverConfig,
    grid: TimeGrid,
    pinned_demand: np.ndarray | None = None,
) -> SolveReport:
    """Iterate the projection step from P_K of zero flow until the gap target
    is met or the iteration budget runs out. A halving of alpha that leaves
    the step too small to move the largest flow by one ulp (alpha times the
    largest reduced cost below its float spacing) ends the loop too, as not
    converged, with ``stop`` naming the reason.

    Elastic mode needs ``inv_demand``; fixed-demand mode passes
    ``inv_demand=None`` with ``pinned_demand`` set.
    """
    if (inv_demand is None) == (pinned_demand is None):
        raise ValueError("pass exactly one of inv_demand (elastic) or pinned_demand (fixed)")
    pinned = inv_demand is None
    caps = verify.check_caps(network, pinned_demand if pinned else inv_demand.cap,
                             "pinned demands" if pinned else "inv_demand.cap")
    if pinned:
        bad = ~((caps >= 0.0) & (caps < np.inf))
        if bad.any():
            raise ValueError(f"pinned demands must be finite and nonnegative; OD pair indices "
                             f"{np.flatnonzero(bad).tolist()} are not")
    # P_K of zero flow: zero flow itself when elastic, uniform flows when pinned
    point = ExtendedPoint.from_matrix(
        grid, *_project(network, grid, np.zeros((len(network.paths), grid.n)), caps, pinned))

    alpha = config.alpha
    history: list[tuple[int, float, float, float, float]] = []
    best_gap = np.inf
    best_point = point
    best_costs: CostField | None = None
    stall = 0
    stop = None

    for iteration in range(config.max_iters):
        costs = f_map(network, point, penalty, inv_demand, grid)
        gap = compute_gap(point, costs, network, caps)
        r1, r2 = verify.od_residuals(point.flows, costs, network, grid.dt)
        # .max()'s ufunc reduction, without its Python wrapper
        history.append((iteration, gap, float(np.maximum.reduce(r1)),
                        float(np.maximum.reduce(r2)), alpha))
        converged = gap <= config.gap_rtol * max(history[0][1], 0.0)
        if converged or best_costs is None or gap < best_gap - 1e-15 * max(1.0, abs(best_gap)):
            best_gap, best_point, best_costs = gap, point, costs
            stall = 0
        else:
            stall += 1
            if stall >= config.halve_on_stall:
                alpha *= 0.5
                stall = 0
                largest_move = alpha * np.abs(reduced_costs(costs, network)).max()
                if largest_move < np.spacing(point.flows.max()):
                    stop = f"step too small to move the flows (alpha {alpha!r})"
                    break
        if converged:
            break
        point = fixed_point_step(point, costs, network, alpha, caps, pinned)

    assert best_costs is not None
    caps_active = [] if pinned else np.flatnonzero(
        best_point.demands >= caps * (1.0 - 1e-12)).tolist()
    return SolveReport(
        point=best_point,
        costs=best_costs,
        gap_history=history,
        converged=converged,
        residuals=verify.due_residuals(best_point, best_costs, network),
        flow_bound=lemma2_bound(network, penalty),
        caps_active=caps_active,
        final_gap=float(best_gap),
        mode="fixed" if pinned else "elastic",
        stop=stop,
    )
