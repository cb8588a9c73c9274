"""Uniform time grids and the extended-space point.

Departure rates and delays are represented as real-valued step functions on a
uniform partition of the analysis horizon [t0, tf], one value per cell. Every
integral reduces to an exact finite sum, so no quadrature error enters the
equilibrium tolerances used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ShapeError", "TimeGrid", "ExtendedPoint"]


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


@dataclass(frozen=True)
class ExtendedPoint:
    """An element X = (h, Q) of the product space of path flows and OD demands.

    ``flows`` is a read-only (paths, n) array of departure rates on ``grid``,
    one row per path in the network's path order; ``demands`` holds one real
    per OD pair. Feasibility (nonnegative flows that conserve each OD's
    demand) is *not* enforced here -- arbitrary elements of the extended space
    are legal, e.g. as variational-inequality probes. Use
    :func:`edue.verify.is_feasible` to test membership in the feasible set.
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
