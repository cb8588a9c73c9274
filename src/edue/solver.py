"""Fixed-point projection solver for the discretized equilibrium problem.

The extended problem over (path flows, demands) is solved in the reduced
parametrization: demands are induced from flows by conservation, which turns
the step into componentwise clipping of flows against their reduced costs
(cell cost minus the OD's inverse-demand value), then per-OD rescaling onto
one bound vector: the demand caps, or in fixed mode the pinned demands. Only
the step knows the mode. An active cap is flagged in the report since it is
a technical device, not an equilibrium property.

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
from .grid import ExtendedPoint, TimeGrid
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
        if self.alpha <= 0.0:
            raise ValueError("step size must be positive")
        if not isinstance(self.max_iters, int):
            raise ValueError(f"solver max_iters must be an integer, got {self.max_iters!r}")
        if not (self.halve_on_stall is None
                or isinstance(self.halve_on_stall, int) and self.halve_on_stall >= 1):
            raise ValueError(f"solver halve_on_stall must be an integer >= 1 or None, "
                             f"got {self.halve_on_stall!r}")
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
    residuals: "verify.ResidualReport"
    flow_bound: float  # 3 * M^max / (Delta + 1)
    caps_active: list[int]
    final_gap: float
    mode: str

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
        theta = network.od_min(psi)
    return CostField(psi=psi, theta=theta)


def reduced_costs(costs: CostField, network: Network) -> np.ndarray:
    """Per-path-per-cell margin: cell cost minus the OD's demand value."""
    return costs.psi - costs.theta[network.path_od, None]


def fixed_point_step(
    point: ExtendedPoint,
    costs: CostField,
    network: Network,
    alpha: float,
    caps: np.ndarray,
    pinned: bool = False,
) -> ExtendedPoint:
    """One projection step: clip flows against alpha-scaled reduced costs,
    re-induce each OD's volume, then rescale every OD whose volume overruns
    its cap, or with ``pinned`` misses its pinned demand in ``caps`` (an OD
    whose flow was all clipped restarts at its cheapest cell)."""
    verify.check_rows(network, point.flows, costs.psi)
    caps = verify.check_caps(network, caps)
    grid = point.grid
    h = np.maximum(0.0, point.flows - alpha * reduced_costs(costs, network))
    vol = network.od_sum(h.sum(axis=1)) * grid.dt
    demands = caps if pinned else np.minimum(vol, caps)
    off = demands != vol
    if off.any():
        empty = vol <= 0.0
        h *= np.divide(demands, vol, out=np.ones_like(vol), where=off & ~empty)[network.path_od, None]
        restart = off & empty
        if restart.any():
            p, j = network.od_argmin(costs.psi)
            h[p[restart], j[restart]] = demands[restart] / grid.dt
    return ExtendedPoint.from_matrix(grid, h, demands)


def compute_gap(
    point: ExtendedPoint,
    costs: CostField,
    network: Network,
    caps: np.ndarray,
) -> float:
    """Closed-form equilibrium gap: the largest violation of the variational
    inequality over the feasible set, nonnegative and zero exactly at
    solutions.

    Per OD the best response concentrates on the cheapest (path, cell): the
    cap volume there if its reduced cost is negative, nothing otherwise. In
    fixed mode (``caps`` the pinned demands) ``f_map`` sets theta to each
    OD's least cost, so that reduced cost is exactly 0.0 and the pinned
    formula, carried - cheapest * pinned, gives the same float.
    """
    verify.check_rows(network, point.flows, costs.psi)
    caps = verify.check_caps(network, caps)
    rc = reduced_costs(costs, network)
    carried = float(np.vdot(point.flows, rc)) * point.grid.dt
    cheapest = network.od_min(rc)  # the reduced cost at each OD's cheapest cell
    return carried - float(np.dot(np.minimum(0.0, cheapest), caps))


def lemma2_bound(network: Network, penalty: SchedulePenalty) -> float:
    """Upper bound 3 * M^max / (Delta + 1) on equilibrium cell flows (veh/h)."""
    return 3.0 * max_exit_capacity(network) / (penalty.slope_bound() + 1.0)


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
    """Iterate the projection step from zero flow until the gap target is met
    or the iteration budget runs out.

    Elastic mode needs ``inv_demand``; fixed-demand mode passes
    ``inv_demand=None`` with ``pinned_demand`` set.
    """
    if (inv_demand is None) == (pinned_demand is None):
        raise ValueError("pass exactly one of inv_demand (elastic) or pinned_demand (fixed)")
    pinned = inv_demand is None
    caps = verify.check_caps(network, pinned_demand if pinned else inv_demand.cap,
                             "pinned demands" if pinned else "inv_demand.cap")
    n_od = len(network.od_pairs)
    bad = ~((caps >= 0.0) & (caps < np.inf))
    if bad.any():
        raise ValueError(f"pinned demands must be finite and nonnegative; OD pair indices "
                         f"{np.flatnonzero(bad).tolist()} are not")

    if pinned:
        # zero flow is infeasible under pinned demand; start uniform
        per_cell = caps / (np.bincount(network.path_od, minlength=n_od) * grid.n * grid.dt)
        h = np.repeat(per_cell[network.path_od, None], grid.n, axis=1)
        point = ExtendedPoint.from_matrix(grid, h, caps)
    else:
        point = zero_point(network, grid)

    alpha = config.alpha
    history: list[tuple[int, float, float, float, float]] = []
    best_gap = np.inf
    best_point = point
    best_costs: CostField | None = None
    best_res: verify.ResidualReport | None = None
    stall = 0
    initial_gap = np.nan
    converged = False
    iteration = 0

    for iteration in range(config.max_iters):
        costs = f_map(network, point, penalty, inv_demand, grid)
        gap = compute_gap(point, costs, network, caps)
        res = verify.due_residuals(point, costs, network)
        history.append((iteration, gap, res.max_r1(), res.max_r2(), alpha))
        if iteration == 0:
            initial_gap = gap
        if best_costs is None or gap < best_gap - 1e-15 * max(1.0, abs(best_gap)):
            best_gap, best_point, best_costs, best_res = gap, point, costs, res
            stall = 0
        else:
            stall += 1
            if config.halve_on_stall is not None and stall >= config.halve_on_stall:
                alpha *= 0.5
                stall = 0
        target = max(config.gap_tol, config.gap_rtol * max(initial_gap, 0.0))
        if gap <= target:
            converged = True
            best_gap, best_point, best_costs, best_res = gap, point, costs, res
            break
        point = fixed_point_step(point, costs, network, alpha, caps, pinned)

    assert best_costs is not None and best_res is not None
    caps_active = [] if pinned else np.flatnonzero(
        best_point.demands >= caps * (1.0 - 1e-12)).tolist()
    return SolveReport(
        point=best_point,
        costs=best_costs,
        gap_history=history,
        converged=converged,
        residuals=best_res,
        flow_bound=lemma2_bound(network, penalty),
        caps_active=caps_active,
        final_gap=float(best_gap),
        mode="fixed" if pinned else "elastic",
    )
