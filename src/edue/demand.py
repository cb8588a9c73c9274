"""Linear inverse travel demand with per-OD demand caps.

Theta_w(Q) = intercept_w - slope_w * Q must stay strictly positive on
[0, cap_w], which keeps the demand function invertible (when the slope is
positive) and the inverse-demand image strictly positive as the equilibrium
theory requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DemandDomainError", "InverseDemand"]

DEFAULT_CAP_FRACTION = 0.95  # of the choke demand intercept/slope


class DemandDomainError(ValueError):
    """A demand value falls outside [0, cap]."""


@dataclass(frozen=True)
class InverseDemand:
    """Per-OD linear inverse demand: intercepts (hours), slopes (hours per
    vehicle) and demand caps (vehicles)."""

    intercept: np.ndarray
    slope: np.ndarray
    cap: np.ndarray

    def __post_init__(self) -> None:
        intercept = np.asarray(self.intercept, dtype=float).copy()
        slope = np.asarray(self.slope, dtype=float).copy()
        cap = np.asarray(self.cap, dtype=float).copy()
        if not (intercept.shape == slope.shape == cap.shape) or intercept.ndim != 1:
            raise ValueError("intercept, slope and cap must be flat vectors of equal length")
        for name, a in (("intercept", intercept), ("slope", slope), ("cap", cap)):
            if not np.isfinite(a).all():
                raise ValueError(f"inverse-demand {name} must be finite, got {a.tolist()}")
        if np.any(intercept <= 0.0):
            raise ValueError("inverse-demand intercepts must be strictly positive")
        if np.any(slope < 0.0):
            raise ValueError("inverse-demand slopes must be nonnegative")
        if np.any(cap <= 0.0):
            raise ValueError("demand caps must be strictly positive")
        if np.any(intercept - slope * cap <= 0.0):
            raise ValueError(
                "inverse demand must stay strictly positive up to the cap: "
                "need intercept - slope * cap > 0 for every OD pair"
            )
        for a in (intercept, slope, cap):
            a.setflags(write=False)
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "cap", cap)

    @staticmethod
    def build(
        intercept: "np.ndarray | list[float]",
        slope: "np.ndarray | list[float]",
        cap: "np.ndarray | list[float | None] | None" = None,
    ) -> "InverseDemand":
        """Build with default caps: a fixed fraction of the choke demand when
        the slope is positive. Zero-slope OD pairs need an explicit cap."""
        intercept = np.asarray(intercept, dtype=float)
        slope = np.asarray(slope, dtype=float)
        raw = list(cap) if cap is not None else [None] * intercept.shape[0]
        filled = []
        for w, c in enumerate(raw):
            if c is not None:
                filled.append(float(c))
            elif slope[w] > 0.0:
                filled.append(DEFAULT_CAP_FRACTION * intercept[w] / slope[w])
            else:
                raise ValueError(
                    f"OD pair index {w}: a demand cap is required when the slope is zero"
                )
        return InverseDemand(intercept, slope, np.array(filled))

    def theta(self, demand: np.ndarray) -> np.ndarray:
        """Inverse demand values at the given demand vector (hours)."""
        demand = np.asarray(demand, dtype=float)
        inside = (demand >= 0.0) & (demand <= self.cap)  # False for nan
        if not inside.all():
            raise DemandDomainError(
                f"demand outside [0, cap] for OD pair indices {np.flatnonzero(~inside).tolist()}"
            )
        return self.intercept - self.slope * demand
