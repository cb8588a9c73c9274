"""Equilibrium verification, independent of how a point was produced.

Checks a (flows, demands) point against the complementarity conditions:
used departure cells cost exactly the OD's demand value, no cell costs less.
The fixed-demand conditions are the special case where the demand value is
the OD's own minimum cost. Both conditions, and the solver's gap, are
functions of the reduced costs (cell cost minus the OD's demand value),
which are formed here and only here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostField
from .grid import ExtendedPoint, ShapeError
from .network import Network

__all__ = ["ResidualReport", "check_rows", "check_caps", "reduced_costs",
           "least_reduced_costs", "od_residuals",
           "is_feasible", "due_residuals", "vi_lhs", "best_response", "random_probe"]

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
        # Python floats, whose repr reads the same under every NumPy version
        fields = zip(*(a.tolist() for a in (self.v, self.theta, self.r1, self.r2,
                                            self.demand_gap)))
        return [f"od {w}: v={v!r} theta={theta!r} r1={r1!r} r2={r2!r} demand_gap={gap!r}"
                for w, (v, theta, r1, r2, gap) in enumerate(fields)]


def check_rows(network: Network, *arrays: np.ndarray, cells: int | None = None) -> None:
    """Raise ShapeError unless each flow or cost array is (paths, n): one row
    per path of the network and n cells, those of the first array unless
    ``cells`` is given. Unchecked, one row broadcasts against the per-path
    demand values into a result of the right shape, and a cost array with
    other cells fails inside NumPy or, flattened, pairs the wrong cells."""
    paths = len(network.paths)
    want = (paths, arrays[0].shape[1] if cells is None else cells)
    for a in arrays:
        if a.shape[0] != paths:
            raise ShapeError(f"flows and costs must have one row per path ({paths}), "
                             f"got {a.shape[0]}")
        if a.shape != want:
            raise ShapeError(f"flows and costs must have shape {want}, got shape {a.shape}")


def check_caps(network: Network, caps, name: str = "caps") -> np.ndarray:
    """The per-OD bound vector (demand caps, or pinned demands) as a float
    array; raise ShapeError, naming it, unless it has one entry per OD pair.
    Unchecked, one entry broadcasts over every OD pair."""
    caps = np.asarray(caps, dtype=float)
    n_od = len(network.od_pairs)
    if caps.shape != (n_od,):
        raise ShapeError(f"{name} must hold one entry per OD pair ({n_od}), "
                         f"got shape {caps.shape}")
    return caps


def reduced_costs(costs: CostField, network: Network) -> np.ndarray:
    """Per-path-per-cell margin: cell cost minus the OD's demand value;
    ShapeError unless there is one demand value per OD pair.

    The array is formed once per CostField and network object and shared:
    later calls with the same two return the same read-only array, so the
    gap, the residuals and the step of one solver iteration pay for it once.
    """
    return _reduced(costs, network)[1]


def least_reduced_costs(costs: CostField, network: Network) -> np.ndarray:
    """Per OD pair, the least reduced cost over its paths and cells
    (read-only), formed and kept with the reduced costs."""
    return _reduced(costs, network)[2]


def _reduced(costs: CostField, network: Network) -> tuple[Network, np.ndarray, np.ndarray]:
    """The memo of reduced_costs: (network, reduced costs, their per-OD
    minimum), formed on the first call for this CostField and network."""
    memo = costs._reduced
    if memo is None or memo[0] is not network:
        memo = (network, *_form_reduced_costs(costs, network))
        object.__setattr__(costs, "_reduced", memo)
    return memo


def _form_reduced_costs(costs: CostField, network: Network) -> tuple[np.ndarray, np.ndarray]:
    """The reduced costs and their per-OD minimum, formed anew (read-only)."""
    theta = check_caps(network, costs.theta, "demand values")
    rc = costs.psi - theta[network.path_od][:, None]  # faster than theta[path_od, None]
    least = network.od_min(rc)
    rc.setflags(write=False)
    least.setflags(write=False)
    return rc, least


def od_residuals(
    flows: np.ndarray, costs: CostField, network: Network, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per OD pair, r1 and r2 of ResidualReport from the flows and their
    costs."""
    _, rc, least = _reduced(costs, network)
    # .sum's ufunc reduction, without its Python wrapper
    r1 = network.od_sum(np.add.reduce(flows * np.maximum(0.0, rc), axis=1)) * dt
    # 0.0 - m, not -m: where the least reduced cost m is +0.0, -m is -0.0, but
    # theta - min(psi) reads +0.0
    r2 = np.maximum(0.0, 0.0 - least)
    return r1, r2


def is_feasible(point: ExtendedPoint, network: Network) -> bool:
    """Membership in the feasible set: nonnegative flows whose per-OD integrals
    match the demand vector within FEASIBILITY_RTOL."""
    check_rows(network, point.flows)
    check_caps(network, point.demands, "demands")
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
    check_caps(network, point.demands, "demands")
    r1, r2 = od_residuals(point.flows, costs, network, point.grid.dt)
    flow_threshold = DEFAULT_FLOW_THRESHOLD_REL * float(point.flows.max())
    by_od = network.by_od
    psi_od = by_od(costs.psi)
    overall_min = psi_od.min(axis=1)
    used_min = psi_od.min(axis=1, initial=np.inf, where=by_od(point.flows > flow_threshold))
    v = np.where(used_min < np.inf, used_min, overall_min)
    # costs and point are read-only, so the report can share their arrays
    return ResidualReport(
        v=v,
        theta=costs.theta,
        r1=r1,
        r2=r2,
        demand_gap=np.abs(v - costs.theta),
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
    check_rows(network, x_star.flows, costs.psi)
    flow_part = float(np.vdot(costs.psi, x_probe.flows - x_star.flows)) * x_star.grid.dt
    return flow_part - float(np.dot(costs.theta, x_probe.demands - x_star.demands))


def best_response(
    costs: CostField, network: Network, caps: np.ndarray, grid
) -> ExtendedPoint:
    """The feasible point minimizing the pairing with the given costs: per OD,
    the cap volume at the cheapest (path, cell) when its reduced cost is
    negative, nothing otherwise. Ties break to lowest path id, earliest cell."""
    check_rows(network, costs.psi, cells=grid.n)
    caps = check_caps(network, caps)
    p, j = network.od_argmin(costs.psi)
    buy = reduced_costs(costs, network)[p, j] < 0.0
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
    caps = check_caps(network, caps)
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
