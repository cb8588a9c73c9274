"""Uniform time grids, step functions on them, and the extended-space point.

Departure rates and delays are represented as real-valued step functions on a
uniform partition of the analysis horizon [t0, tf], one value per cell. Every
integral reduces to an exact finite sum, so no quadrature error enters the
equilibrium tolerances used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "TimeGrid",
    "ExtendedPoint",
    "integrate",
    "essential_infimum",
    "inner_product",
    "conservation_residuals",
    "is_feasible",
]


class ShapeError(ValueError):
    """Two objects that must share grid / path / OD structure do not."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [t0, tf] into n cells of identical width.

    Only uniform partitions are supported; the piecewise-constant function
    space used throughout assumes equal cell widths.
    """

    t0: float
    tf: float
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"cell count must be a positive integer, got {self.n!r}")
        for name in ("t0", "tf"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"horizon {name} must be finite, got {value!r}")
        if not self.tf > self.t0:
            raise ValueError(f"horizon end {self.tf} must exceed start {self.t0}")

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / self.n

    @cached_property
    def boundaries(self) -> np.ndarray:
        """The n+1 cell boundaries t0 = b[0] < ... < b[n] = tf (read-only)."""
        b = np.linspace(self.t0, self.tf, self.n + 1)
        b.setflags(write=False)
        return b


def integrate(grid: TimeGrid, values) -> np.ndarray | float:
    """Exact integral of step functions on the grid: the sum of cell values
    times cell width, along the last axis (one number per row of a matrix)."""
    return np.sum(values, axis=-1) * grid.dt


def essential_infimum(values) -> float:
    """Essential infimum of a step function; equals the minimum cell value."""
    return float(np.min(values))


@dataclass(frozen=True)
class ExtendedPoint:
    """An element X = (h, Q) of the product space of path flows and OD demands.

    ``flows`` is a read-only (paths, n) array of departure rates on ``grid``,
    one row per path in the network's path order; ``demands`` holds one real
    per OD pair. Feasibility (nonnegative flows that conserve each OD's
    demand) is *not* enforced here -- arbitrary elements of the extended space
    are legal, e.g. as inner-product arguments. Use :func:`is_feasible` to test
    membership in the feasible set.
    """

    grid: TimeGrid
    flows: np.ndarray
    demands: np.ndarray

    def __post_init__(self) -> None:
        flows = np.array(self.flows, dtype=float)
        if flows.ndim != 2 or flows.shape[1] != self.grid.n or not flows.shape[0]:
            raise ShapeError(
                f"path flows must be a (paths, {self.grid.n}) array with at least one "
                f"path, got shape {flows.shape}"
            )
        if not np.isfinite(flows).all():
            raise ValueError("path flows must all be finite")
        demands = np.array(self.demands, dtype=float)
        if demands.ndim != 1:
            raise ShapeError("demands must be a flat vector, one entry per OD pair")
        flows.setflags(write=False)
        demands.setflags(write=False)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "demands", demands)

    @staticmethod
    def from_matrix(grid: TimeGrid, h: np.ndarray, demands: np.ndarray) -> "ExtendedPoint":
        """The point with (paths, n) flow matrix h and the given demands (both copied)."""
        return ExtendedPoint(grid, h, demands)


def _check_same_shape(x: ExtendedPoint, y: ExtendedPoint) -> None:
    if x.flows.shape[0] != y.flows.shape[0]:
        raise ShapeError("path counts differ")
    if x.grid != y.grid:
        raise ShapeError("grids differ")
    if x.demands.shape != y.demands.shape:
        raise ShapeError("OD counts differ")


def inner_product(x: ExtendedPoint, y: ExtendedPoint) -> float:
    """Inner product on the extended space: sum of L2 pairings plus the
    Euclidean pairing of the demand vectors. Exact for step functions."""
    _check_same_shape(x, y)
    return float(np.vdot(x.flows, y.flows)) * x.grid.dt + float(np.dot(x.demands, y.demands))


def conservation_residuals(
    point: ExtendedPoint, od_paths: Sequence[Sequence[int]]
) -> np.ndarray:
    """Per-OD difference between integrated path flows and the stated demand.

    ``od_paths[w]`` lists the row indices into ``point.flows`` of the paths
    serving OD pair w.
    """
    if len(od_paths) != point.demands.shape[0]:
        raise ShapeError("od_paths length must match the demand vector")
    rows = np.concatenate([np.asarray(paths, dtype=np.intp) for paths in od_paths])
    owner = np.repeat(np.arange(len(od_paths)), [len(paths) for paths in od_paths])
    volumes = integrate(point.grid, point.flows[rows])
    return np.bincount(owner, weights=volumes, minlength=len(od_paths)) - point.demands


def is_feasible(
    point: ExtendedPoint,
    od_paths: Sequence[Sequence[int]],
    rtol: float = 1e-9,
) -> bool:
    """Membership in the feasible set: nonnegative flows whose per-OD integrals
    match the demand vector within a relative tolerance."""
    if (point.flows < 0.0).any() or (point.demands < 0.0).any():
        return False
    res = conservation_residuals(point, od_paths)
    scale = np.maximum(np.abs(point.demands), 1.0)
    return bool(np.all(np.abs(res) <= rtol * scale))
