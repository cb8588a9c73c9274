"""Fixed-point projection solver for the discretized equilibrium problem.

The extended problem over (path flows, demands) is solved in the reduced
parametrization: demands are induced from flows by conservation, which turns
the step into componentwise clipping of flows against their reduced costs
(cell cost minus the OD's inverse-demand value). Demand caps are enforced by
per-OD rescaling; an active cap is flagged in the report since it is a
technical device, not an equilibrium property.

No convergence is guaranteed by theory (the delay operator is not monotone);
non-convergence is reported honestly via the gap history and exit status.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import dnl, verify
from .cost import CostField, SchedulePenalty, check_slope_bound, effective_delay
from .demand import InverseDemand
from .grid import ExtendedPoint, Profile, TimeGrid
from .network import Network, max_exit_capacity

__all__ = [
    "SolverConfig",
    "SolveReport",
    "f_map",
    "reduced_costs",
    "fixed_point_step",
    "compute_gap",
    "lemma2_bound",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    n: int = 64  # grid cells
    alpha: float = 100.0  # step size, (veh/h) per hour of reduced cost
    max_iters: int = 500
    gap_tol: float = 0.0  # absolute gap target (veh*h)
    gap_rtol: float = 1e-6  # relative to the initial gap
    halve_on_stall: int | None = 40  # halve alpha after this many non-improving iters

    def __post_init__(self) -> None:
        for name in ("alpha", "gap_tol", "gap_rtol"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"solver {name} must be finite, got {value!r}")
        if self.n < 1:
            raise ValueError("grid resolution must be >= 1")
        if self.alpha <= 0.0:
            raise ValueError("step size must be positive")
        if self.max_iters < 1:
            raise ValueError("at least one iteration is required")
        if self.gap_tol < 0.0 or self.gap_rtol < 0.0:
            raise ValueError("gap tolerances must be nonnegative")


@dataclass
class SolveReport:
    point: ExtendedPoint
    costs: CostField
    gap_history: list[tuple[int, float, float, float, float]]  # iter, gap, max_r1, max_r2, alpha
    converged: bool
    iterations: int
    wall_time: float
    residuals: "verify.ResidualReport"
    flow_bound: float  # 3 * M^max / (Delta + 1)
    max_cell_flow: float
    flow_bound_ok: bool
    caps_active: list[int]
    initial_gap: float
    final_gap: float
    mode: str

    def summary_lines(self) -> list[str]:
        lines = [
            f"mode: {self.mode}",
            f"converged: {self.converged}",
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

    With ``inv_demand=None`` (pinned-demand mode) the OD value is the current
    minimum cell cost, which reduces every downstream formula to the
    fixed-demand equilibrium conditions.
    """
    result = dnl.load(network, point.flows, grid)
    psi = effective_delay(result, penalty, network.arrival_target)
    if inv_demand is not None:
        theta = inv_demand.theta(point.demands)
    else:
        theta = np.array(
            [min(float(psi[p].values.min()) for p in paths) for paths in network.od_paths]
        )
    return CostField(psi=psi, theta=theta)


def reduced_costs(costs: CostField, network: Network) -> np.ndarray:
    """Per-path-per-cell margin: cell cost minus the OD's demand value."""
    path_od = network.path_od
    return np.array(
        [costs.psi[p].values - costs.theta[path_od[p]] for p in range(len(network.paths))]
    )


def fixed_point_step(
    point: ExtendedPoint,
    costs: CostField,
    network: Network,
    alpha: float,
    caps: np.ndarray | None = None,
    pinned_demand: np.ndarray | None = None,
) -> ExtendedPoint:
    """One projection step: clip flows against alpha-scaled reduced costs,
    re-induce demands, then rescale any OD that overruns its cap (elastic) or
    misses its pinned demand (fixed mode)."""
    grid = point.grid
    dt = grid.dt
    h = point.flow_matrix()
    rc = reduced_costs(costs, network)
    h_new = np.maximum(0.0, h - alpha * rc)
    demands = np.empty(len(network.od_pairs))
    for w, paths in enumerate(network.od_paths):
        vol = float(sum(h_new[p].sum() for p in paths)) * dt
        if pinned_demand is not None:
            target = float(pinned_demand[w])
            if vol <= 0.0:
                # all flow got clipped; restart the OD at its cheapest cell
                p_best, j_best, _ = _od_argmin(costs, network, w)
                h_new[p_best, j_best] = target / dt
            else:
                scale = target / vol
                for p in paths:
                    h_new[p] *= scale
            demands[w] = target
        else:
            if caps is not None and vol > caps[w]:
                scale = caps[w] / vol
                for p in paths:
                    h_new[p] *= scale
                vol = float(caps[w])
            demands[w] = vol
    return ExtendedPoint.from_matrix(grid, h_new, demands)


def _od_argmin(costs: CostField, network: Network, w: int) -> tuple[int, int, float]:
    """Cheapest (path, cell) of an OD pair; ties break to the lowest path id,
    then the earliest cell."""
    best: tuple[int, int, float] | None = None
    for p in network.od_paths[w]:
        vals = costs.psi[p].values
        j = int(np.argmin(vals))  # argmin returns the earliest minimizer
        if best is None or vals[j] < best[2]:
            best = (p, j, float(vals[j]))
    assert best is not None
    return best


def compute_gap(
    point: ExtendedPoint,
    costs: CostField,
    network: Network,
    caps: np.ndarray,
    pinned_demand: np.ndarray | None = None,
) -> float:
    """Closed-form equilibrium gap: the largest violation of the variational
    inequality over the feasible set, nonnegative and zero exactly at
    solutions.

    Per OD the best response concentrates on the cheapest (path, cell): the
    cap volume there if its reduced cost is negative, nothing otherwise (with
    pinned demand, always the pinned volume there).
    """
    dt = point.grid.dt
    rc = reduced_costs(costs, network)
    gap = 0.0
    for w, paths in enumerate(network.od_paths):
        carried = float(
            sum(np.dot(point.flows[p].values, rc[p]) for p in paths)
        ) * dt
        p_best, j_best, _ = _od_argmin(costs, network, w)
        c = float(rc[p_best][j_best])
        if pinned_demand is not None:
            gap += carried - c * float(pinned_demand[w])
        else:
            gap += carried - min(0.0, c) * float(caps[w])
    return gap


def lemma2_bound(network: Network, penalty: SchedulePenalty) -> float:
    """Upper bound 3 * M^max / (Delta + 1) on equilibrium cell flows (veh/h)."""
    delta = check_slope_bound(penalty)
    return 3.0 * max_exit_capacity(network) / (delta + 1.0)


def zero_point(network: Network, grid: TimeGrid) -> ExtendedPoint:
    h = np.zeros((len(network.paths), grid.n))
    return ExtendedPoint.from_matrix(grid, h, np.zeros(len(network.od_pairs)))


def solve(
    network: Network,
    penalty: SchedulePenalty,
    inv_demand: InverseDemand | None,
    config: SolverConfig,
    grid: TimeGrid | None = None,
    pinned_demand: np.ndarray | None = None,
    warm_start: ExtendedPoint | None = None,
) -> SolveReport:
    """Iterate the projection step from zero flow until the gap target is met
    or the iteration budget runs out.

    Elastic mode needs ``inv_demand``; fixed-demand mode passes
    ``inv_demand=None`` with ``pinned_demand`` set.
    """
    if (inv_demand is None) == (pinned_demand is None):
        raise ValueError("pass exactly one of inv_demand (elastic) or pinned_demand (fixed)")
    check_slope_bound(penalty)
    if grid is None:
        raise ValueError("a time grid is required")
    t_begin = time.perf_counter()

    if pinned_demand is not None:
        caps = np.asarray(pinned_demand, dtype=float)
        mode = "fixed"
    else:
        caps = inv_demand.cap
        mode = "elastic"

    if warm_start is not None:
        point = warm_start
    elif pinned_demand is not None:
        # zero flow is infeasible under pinned demand; start uniform
        h = np.zeros((len(network.paths), grid.n))
        for w, paths in enumerate(network.od_paths):
            per_cell = pinned_demand[w] / (len(paths) * grid.n * grid.dt)
            for p in paths:
                h[p, :] = per_cell
        point = ExtendedPoint.from_matrix(grid, h, np.asarray(pinned_demand, dtype=float))
    else:
        point = zero_point(network, grid)

    alpha = config.alpha
    history: list[tuple[int, float, float, float, float]] = []
    best_gap = np.inf
    best_point = point
    best_costs: CostField | None = None
    stall = 0
    initial_gap = np.nan
    converged = False
    iteration = 0

    for iteration in range(config.max_iters):
        costs = f_map(network, point, penalty, inv_demand, grid)
        gap = compute_gap(point, costs, network, caps, pinned_demand)
        res = verify.due_residuals(point, costs, network)
        history.append((iteration, gap, res.max_r1(), res.max_r2(), alpha))
        if iteration == 0:
            initial_gap = gap
        if best_costs is None or gap < best_gap - 1e-15 * max(1.0, abs(best_gap)):
            best_gap, best_point, best_costs = gap, point, costs
            stall = 0
        else:
            stall += 1
            if config.halve_on_stall is not None and stall >= config.halve_on_stall:
                alpha *= 0.5
                stall = 0
        target = max(config.gap_tol, config.gap_rtol * max(initial_gap, 0.0))
        if gap <= target:
            converged = True
            best_gap, best_point, best_costs = gap, point, costs
            break
        point = fixed_point_step(point, costs, network, alpha, caps=caps,
                                 pinned_demand=pinned_demand)

    assert best_costs is not None
    residuals = verify.due_residuals(best_point, best_costs, network)
    bound = lemma2_bound(network, penalty)
    max_flow = max(float(f.values.max()) for f in best_point.flows)
    caps_active = [
        w
        for w in range(len(network.od_pairs))
        if mode == "elastic" and best_point.demands[w] >= caps[w] * (1.0 - 1e-12)
    ]
    return SolveReport(
        point=best_point,
        costs=best_costs,
        gap_history=history,
        converged=converged,
        iterations=len(history),
        wall_time=time.perf_counter() - t_begin,
        residuals=residuals,
        flow_bound=bound,
        max_cell_flow=max_flow,
        flow_bound_ok=max_flow <= bound,
        caps_active=caps_active,
        initial_gap=float(initial_gap),
        final_gap=float(best_gap),
        mode=mode,
    )
