"""Effective delay: travel delay plus a piecewise-linear schedule penalty.

The penalty family is two-slope: early arrivals are charged beta per hour of
earliness, late arrivals gamma per hour of lateness. The early slope must stay
below 1 so that the penalty's slope bound Delta = -beta exceeds -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dnl import LoadingResult
from .grid import ShapeError, finite_real

__all__ = [
    "A1ViolationError",
    "SchedulePenalty",
    "CostField",
    "effective_delay",
]


class A1ViolationError(ValueError):
    """The schedule penalty decreases too steeply (early slope >= 1)."""


class CostInvariantError(RuntimeError):
    """An effective delay came out nonpositive or not finite; signals a loading bug."""


@dataclass(frozen=True)
class SchedulePenalty:
    """f(x) = early * max(0, -x) + late * max(0, x), x = arrival - target (hours)."""

    early: float  # beta, cost per hour of early arrival
    late: float  # gamma, cost per hour of late arrival

    def __post_init__(self) -> None:
        for name in ("early", "late"):
            finite_real(getattr(self, name), f"penalty {name}")
        if self.early < 0.0 or self.late < 0.0:
            raise ValueError("penalty slopes must be nonnegative")
        if self.early >= 1.0:
            raise A1ViolationError(
                f"early penalty slope {self.early} >= 1 makes the slope bound "
                f"{-self.early} <= -1"
            )

    def __call__(self, x):
        """The penalty at x, elementwise for an array."""
        return self.early * np.maximum(0.0, -x) + self.late * np.maximum(0.0, x)

    def slope_bound(self) -> float:
        """The largest Delta with f(x2) - f(x1) >= Delta * (x2 - x1) for x1 < x2.

        For this family the bound is analytic: the steepest descent of f is
        the early branch's slope."""
        return -self.early


@dataclass(frozen=True)
class CostField:
    """Image of one point under the cost mapping: cell-averaged effective
    delays as a read-only (paths, n) array, one row per path, plus the
    inverse-demand value per OD pair (all hours).

    The constructor copies both arrays and checks the delays' shape and that
    every delay and demand value is finite; ``_own`` adopts arrays that
    ``solver.f_map`` made and checked itself, without a copy or a scan.

    ``_reduced`` is a class attribute, not a field, so equality, repr and
    ``dataclasses.replace`` ignore it; a CostField is immutable, so the memo
    it holds cannot go stale."""

    psi: np.ndarray
    theta: np.ndarray
    _reduced = None  # (network, reduced costs, their per-OD minimum), set by verify

    def __post_init__(self) -> None:
        psi = np.array(self.psi, dtype=float)
        if psi.ndim != 2:
            raise ShapeError(f"effective delays must be a (paths, n) array, got shape {psi.shape}")
        if np.count_nonzero(np.isfinite(psi)) < psi.size:  # one C call, unlike .all()
            raise ValueError("effective delays must all be finite")
        theta = np.array(self.theta, dtype=float)
        if np.count_nonzero(np.isfinite(theta)) < theta.size:
            raise ValueError("demand values theta must all be finite")
        psi.setflags(write=False)
        theta.setflags(write=False)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "theta", theta)

    @classmethod
    def _own(cls, psi: np.ndarray, theta: np.ndarray) -> "CostField":
        """A CostField holding psi and theta themselves, made read-only: for a
        (paths, n) psi of finite positive delays that no one else holds."""
        psi.setflags(write=False)
        theta.setflags(write=False)
        costs = object.__new__(cls)
        object.__setattr__(costs, "psi", psi)
        object.__setattr__(costs, "theta", theta)
        return costs


def effective_delay(result: LoadingResult, penalty: SchedulePenalty) -> np.ndarray:
    """Cell-averaged effective delays, a (paths, n) array.

    Each cell value averages the two endpoint evaluations of
    D(t) + f(t + D(t) - target), using the exact exit-time function and the
    loaded network's arrival target. CostInvariantError, naming the path, if
    one is not a finite positive number, so every returned array is checked.
    """
    grid = result.grid
    exits = result.boundary_exits()
    psi_pts = (exits - grid.boundaries) + penalty(exits - result.network.arrival_target)
    vals = 0.5 * (psi_pts[:, :-1] + psi_pts[:, 1:])
    bad = ~((vals > 0.0) & (vals < np.inf))  # True for nan
    if np.count_nonzero(bad):  # one C call, unlike .any()
        p = int(np.argmax(bad.any(axis=1)))
        raise CostInvariantError(
            f"effective delay on path index {p} is not a finite positive number; "
            "free-flow times must be positive and the penalty nonnegative"
        )
    return vals
