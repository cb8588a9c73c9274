"""Equilibrium verification, independent of how a point was produced.

Checks a (flows, demands) point against the complementarity conditions:
used departure cells cost exactly the OD's demand value, no cell costs less.
The fixed-demand conditions are the special case where the demand value is
the OD's own minimum cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostField
from .grid import ExtendedPoint, ShapeError
from .network import Network

__all__ = ["ResidualReport", "check_rows", "is_feasible", "due_residuals", "vi_lhs", "best_response", "random_probe"]

FEASIBILITY_RTOL = 1e-9  # per-OD conservation, relative to max(|demand|, 1)
DEFAULT_FLOW_THRESHOLD_REL = 1e-6  # of the max cell flow; defines "used" cells
# tolerances of ResidualReport.is_equilibrium
EPS_R1 = 1e-4  # r1 relative to demand * theta
EPS_R2 = 1e-4  # r2 relative to theta
EPS_DEMAND = 1e-3  # demand gap relative to theta


@dataclass(frozen=True)
class ResidualReport:
    """Per-OD equilibrium residuals (all nonnegative).

    r1: flow-weighted positive part of (cell cost - demand value), veh*h.
    r2: amount by which the demand value exceeds the cheapest cell cost, h.
    demand_gap: |min used cost - demand value|, h.
    """

    v: np.ndarray  # min cost over used cells (min over all cells if none used)
    theta: np.ndarray  # demand value per OD
    r1: np.ndarray
    r2: np.ndarray
    demand_gap: np.ndarray
    demand: np.ndarray

    def max_r1(self) -> float:
        return float(self.r1.max())

    def max_r2(self) -> float:
        return float(self.r2.max())

    def is_equilibrium(self) -> bool:
        """Relative test: r1 against demand * theta, r2 and the demand gap
        against theta, per OD pair."""
        scale1 = np.maximum(self.demand * self.theta, 1e-300)
        ok1 = np.all(self.r1 <= EPS_R1 * scale1)
        ok2 = np.all(self.r2 <= EPS_R2 * self.theta)
        ok3 = np.all(self.demand_gap <= EPS_DEMAND * self.theta)
        return bool(ok1 and ok2 and ok3)

    def summary_lines(self) -> list[str]:
        lines = []
        for w in range(self.v.shape[0]):
            lines.append(
                f"od {w}: v={self.v[w]!r} theta={self.theta[w]!r} "
                f"r1={self.r1[w]!r} r2={self.r2[w]!r} demand_gap={self.demand_gap[w]!r}"
            )
        return lines


def check_rows(network: Network, *arrays: np.ndarray) -> None:
    """Raise ShapeError unless each (paths, n) flow or cost array has one row
    per path of the network. Unchecked, one row broadcasts against the
    per-path demand values into a result of the right shape."""
    paths = len(network.paths)
    for a in arrays:
        if a.shape[0] != paths:
            raise ShapeError(f"flows and costs must have one row per path ({paths}), "
                             f"got {a.shape[0]}")


def is_feasible(point: ExtendedPoint, network: Network) -> bool:
    """Membership in the feasible set: nonnegative flows whose per-OD integrals
    match the demand vector within FEASIBILITY_RTOL."""
    check_rows(network, point.flows)
    if point.demands.shape != (len(network.od_pairs),):
        raise ShapeError("the demand vector must have one entry per OD pair")
    if (point.flows < 0.0).any() or (point.demands < 0.0).any():
        return False
    res = network.od_sum(point.flows.sum(axis=1)) * point.grid.dt - point.demands
    scale = np.maximum(np.abs(point.demands), 1.0)
    return bool(np.all(np.abs(res) <= FEASIBILITY_RTOL * scale))


def due_residuals(point: ExtendedPoint, costs: CostField, network: Network) -> ResidualReport:
    """Residuals of the equilibrium conditions at a feasible point.

    A cell counts as used ("h > 0") when its flow exceeds
    DEFAULT_FLOW_THRESHOLD_REL times the maximum cell flow.
    """
    check_rows(network, point.flows, costs.psi)
    flow_threshold = DEFAULT_FLOW_THRESHOLD_REL * float(point.flows.max())
    psi, theta = costs.psi, costs.theta
    excess = np.maximum(0.0, psi - theta[network.path_od, None])
    r1 = network.od_sum((point.flows * excess).sum(axis=1)) * point.grid.dt
    by_od = network.by_od
    psi_od = by_od(psi)
    overall_min = psi_od.min(axis=1)
    used_min = psi_od.min(axis=1, initial=np.inf, where=by_od(point.flows > flow_threshold))
    v = np.where(used_min < np.inf, used_min, overall_min)
    # costs and point are read-only, so the report can share their arrays
    return ResidualReport(
        v=v,
        theta=theta,
        r1=r1,
        r2=np.maximum(0.0, theta - overall_min),
        demand_gap=np.abs(v - theta),
        demand=point.demands,
    )


def vi_lhs(
    x_star: ExtendedPoint,
    x_probe: ExtendedPoint,
    costs: CostField,
    network: Network,
) -> float:
    """Left-hand side of the variational inequality at x_star, probed with
    x_probe: flow-cost pairing of the flow difference minus the demand-value
    pairing of the demand difference. Nonnegative for all feasible probes
    exactly when x_star is an equilibrium."""
    if x_star.flows.shape != x_probe.flows.shape or x_star.grid != x_probe.grid:
        raise ShapeError("probe must share the solution's grid and path set")
    if x_star.demands.shape != x_probe.demands.shape:
        raise ShapeError("probe must share the solution's OD set")
    flow_part = float(np.vdot(costs.psi, x_probe.flows - x_star.flows)) * x_star.grid.dt
    return flow_part - float(np.dot(costs.theta, x_probe.demands - x_star.demands))


def best_response(
    costs: CostField, network: Network, caps: np.ndarray, grid
) -> ExtendedPoint:
    """The feasible point minimizing the pairing with the given costs: per OD,
    the cap volume at the cheapest (path, cell) when its reduced cost is
    negative, nothing otherwise. Ties break to lowest path id, earliest cell."""
    caps = np.asarray(caps, dtype=float)
    p, j = network.od_argmin(costs.psi)
    buy = costs.psi[p, j] - costs.theta < 0.0
    h = np.zeros((len(network.paths), grid.n))
    h[p[buy], j[buy]] = caps[buy] / grid.dt
    return ExtendedPoint.from_matrix(grid, h, np.where(buy, caps, 0.0))


def random_probe(
    rng: np.random.Generator,
    network: Network,
    caps: np.ndarray,
    grid,
) -> ExtendedPoint:
    """A random feasible point: uniform cell flows per path, rescaled so each
    OD carries a uniform fraction of its cap."""
    # the draws, OD pair after OD pair: one per cell of each of its paths in
    # od_paths order, then one for its volume
    sizes = np.bincount(network.path_od, minlength=len(network.od_pairs)) * grid.n + 1
    u = rng.uniform(0.0, 1.0, size=int(sizes.sum()))
    volume_draws = np.cumsum(sizes) - 1
    h = np.empty((len(network.paths), grid.n))
    h[np.concatenate(network.od_paths)] = np.delete(u, volume_draws).reshape(-1, grid.n)
    vol = network.od_sum(h.sum(axis=1)) * grid.dt
    live = vol > 0.0
    demands = np.where(live, caps * u[volume_draws], 0.0)
    h *= np.divide(demands, vol, out=np.zeros_like(vol), where=live)[network.path_od, None]
    return ExtendedPoint.from_matrix(grid, h, demands)
