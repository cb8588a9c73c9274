"""Uniform time grids and the extended-space point.

Departure rates and delays are represented as real-valued step functions on a
uniform partition of the analysis horizon [t0, tf], one value per cell. Every
integral reduces to an exact finite sum, so no quadrature error enters the
equilibrium tolerances used downstream.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["ShapeError", "TimeGrid", "ExtendedPoint"]


class ShapeError(ValueError):
    """Two objects that must share grid / path / OD structure do not."""


def positive_int(value: object, name: str) -> int:
    """value as an int, if it is an integer (any type operator.index takes,
    bool excepted) of at least 1; else ValueError naming the field."""
    if not isinstance(value, bool):
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= 1:
                return count
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def finite_real(value: object, name: str):
    """value as given, if it is a finite real number (bool excepted); else
    ValueError naming the field."""
    # a float skips the numbers.Real check, an ABC lookup several times
    # slower than the rest of this function
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


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
        object.__setattr__(self, "n", positive_int(self.n, "cell count"))
        for name in ("t0", "tf"):
            finite_real(getattr(self, name), f"horizon {name}")
        if not self.tf > self.t0:
            raise ValueError(f"horizon end {self.tf} must exceed start {self.t0}")

    @cached_property
    def dt(self) -> float:
        """The cell width, (tf - t0) / n."""
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
        if np.count_nonzero(np.isfinite(flows)) < flows.size:  # one C call, unlike .all()
            raise ValueError("path flows must all be finite")
        demands = np.array(self.demands, dtype=float)
        if demands.ndim != 1:
            raise ShapeError("demands must be a flat vector, one entry per OD pair")
        if np.count_nonzero(np.isfinite(demands)) < demands.size:
            raise ValueError("demands must all be finite")
        flows.setflags(write=False)
        demands.setflags(write=False)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "demands", demands)

    @staticmethod
    def from_matrix(grid: TimeGrid, h: np.ndarray, demands: np.ndarray) -> "ExtendedPoint":
        """The point with (paths, n) flow matrix h and the given demands (both copied)."""
        return ExtendedPoint(grid, h, demands)

    @classmethod
    def _own(cls, grid: TimeGrid, flows: np.ndarray, demands: np.ndarray) -> "ExtendedPoint":
        """A point holding flows and demands themselves, made read-only: for a
        (paths, grid.n) float flows array and a flat float demands vector that
        no one else holds. Only the flows are checked, for finiteness."""
        if np.count_nonzero(np.isfinite(flows)) < flows.size:
            raise ValueError("path flows must all be finite")
        flows.setflags(write=False)
        demands.setflags(write=False)
        point = object.__new__(cls)
        object.__setattr__(point, "grid", grid)
        object.__setattr__(point, "flows", flows)
        object.__setattr__(point, "demands", demands)
        return point
