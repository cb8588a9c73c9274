"""Uniform time grids, step-function profiles, and the extended-space inner product.

Departure rates and delays are represented as real-valued step functions on a
uniform partition of the analysis horizon [t0, tf]. Every integral reduces to
an exact finite sum, so no quadrature error enters the equilibrium tolerances
used downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "TimeGrid",
    "Profile",
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

    def cell_bounds(self, j: int) -> tuple[float, float]:
        if not 0 <= j < self.n:
            raise IndexError(f"cell index {j} out of range for n={self.n}")
        b = self.boundaries
        return float(b[j]), float(b[j + 1])


@dataclass(frozen=True)
class Profile:
    """A step function on a TimeGrid: one finite real value per cell."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.shape != (self.grid.n,):
            raise ShapeError(
                f"profile needs exactly {self.grid.n} cell values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile values must all be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        return integrate(self)

    def require_nonnegative(self) -> "Profile":
        if np.any(self.values < 0.0):
            raise ValueError("profile used as a path flow must be nonnegative")
        return self


def integrate(profile: Profile) -> float:
    """Exact integral of a step function: sum of cell values times cell width."""
    return float(profile.values.sum() * profile.grid.dt)


def essential_infimum(profile: Profile) -> float:
    """Essential infimum of a step function; equals the minimum cell value."""
    return float(profile.values.min())


@dataclass(frozen=True)
class ExtendedPoint:
    """An element X = (h, Q) of the product space of path flows and OD demands.

    ``flows`` holds one Profile per path (ordering matches the network's path
    tuple); ``demands`` holds one real per OD pair. Feasibility (conservation
    of each OD's demand) is *not* enforced here -- arbitrary elements of the
    extended space are legal, e.g. as inner-product arguments. Use
    :func:`is_feasible` to test membership in the feasible set.
    """

    flows: tuple[Profile, ...]
    demands: np.ndarray

    def __post_init__(self) -> None:
        flows = tuple(self.flows)
        if not flows:
            raise ShapeError("an extended point needs at least one path flow")
        grid = flows[0].grid
        for f in flows[1:]:
            if f.grid != grid:
                raise ShapeError("all path-flow profiles must share one grid")
        demands = np.asarray(self.demands, dtype=float).copy()
        if demands.ndim != 1:
            raise ShapeError("demands must be a flat vector, one entry per OD pair")
        demands.setflags(write=False)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "demands", demands)

    @property
    def grid(self) -> TimeGrid:
        return self.flows[0].grid

    def flow_matrix(self) -> np.ndarray:
        """Cell values as a (num_paths, n) array (copy)."""
        return np.array([f.values for f in self.flows])

    @staticmethod
    def from_matrix(grid: TimeGrid, h: np.ndarray, demands: np.ndarray) -> "ExtendedPoint":
        return ExtendedPoint(
            flows=tuple(Profile(grid, row) for row in np.asarray(h, dtype=float)),
            demands=np.asarray(demands, dtype=float),
        )


def _check_same_shape(x: ExtendedPoint, y: ExtendedPoint) -> None:
    if len(x.flows) != len(y.flows):
        raise ShapeError("path counts differ")
    if x.grid != y.grid:
        raise ShapeError("grids differ")
    if x.demands.shape != y.demands.shape:
        raise ShapeError("OD counts differ")


def inner_product(x: ExtendedPoint, y: ExtendedPoint) -> float:
    """Inner product on the extended space: sum of L2 pairings plus the
    Euclidean pairing of the demand vectors. Exact for step functions."""
    _check_same_shape(x, y)
    dt = x.grid.dt
    acc = 0.0
    for fx, fy in zip(x.flows, y.flows):
        acc += float(np.dot(fx.values, fy.values)) * dt
    acc += float(np.dot(x.demands, y.demands))
    return acc


def conservation_residuals(
    point: ExtendedPoint, od_paths: Sequence[Sequence[int]]
) -> np.ndarray:
    """Per-OD difference between integrated path flows and the stated demand.

    ``od_paths[w]`` lists the indices into ``point.flows`` of the paths
    serving OD pair w.
    """
    if len(od_paths) != point.demands.shape[0]:
        raise ShapeError("od_paths length must match the demand vector")
    res = np.empty(len(od_paths))
    for w, paths in enumerate(od_paths):
        total = sum(integrate(point.flows[p]) for p in paths)
        res[w] = total - point.demands[w]
    return res


def is_feasible(
    point: ExtendedPoint,
    od_paths: Sequence[Sequence[int]],
    rtol: float = 1e-9,
) -> bool:
    """Membership in the feasible set: nonnegative flows whose per-OD integrals
    match the demand vector within a relative tolerance."""
    for f in point.flows:
        if np.any(f.values < 0.0):
            return False
    if np.any(point.demands < 0.0):
        return False
    res = conservation_residuals(point, od_paths)
    scale = np.maximum(np.abs(point.demands), 1.0)
    return bool(np.all(np.abs(res) <= rtol * scale))
