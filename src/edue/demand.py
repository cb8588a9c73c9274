"""Linear inverse travel demand with per-OD demand caps.

Theta_w(Q) = intercept_w - slope_w * Q must stay strictly positive on
[0, cap_w], which keeps the demand function invertible (when the slope is
positive) and the inverse-demand image strictly positive as the equilibrium
theory requires. intercept_w * cap_w, which bounds OD pair w's term of the
equilibrium gap, must be a finite float, as its sum must where a gap is taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ShapeError

__all__ = ["DemandDomainError", "InverseDemand"]

DEFAULT_CAP_FRACTION = 0.95  # of the choke demand intercept/slope


class DemandDomainError(ValueError):
    """A demand value falls outside [0, cap]."""


@dataclass(frozen=True)
class InverseDemand:
    """Per-OD linear inverse demand: intercepts (hours), slopes (hours per
    vehicle) and demand caps (vehicles). A cap left out, or given as None
    for one OD pair, defaults to a fixed fraction of the choke demand
    intercept/slope; a zero-slope OD pair needs an explicit cap."""

    intercept: np.ndarray
    slope: np.ndarray
    cap: "np.ndarray | list[float | None] | None" = None

    def __post_init__(self) -> None:
        intercept = np.asarray(self.intercept, dtype=float).copy()
        slope = np.asarray(self.slope, dtype=float).copy()
        given = (np.full(intercept.shape, None) if self.cap is None
                 else np.asarray(self.cap, dtype=object))
        missing = np.equal(given, None)
        cap = np.where(missing, 0.0, given).astype(float)
        if not (intercept.shape == slope.shape == cap.shape) or intercept.ndim != 1:
            raise ValueError("intercept, slope and cap must be flat vectors of equal length")
        for name, a in (("intercept", intercept), ("slope", slope)):
            if not np.isfinite(a).all():
                raise ValueError(f"inverse-demand {name} must be finite, got {a.tolist()}")
        if np.any(intercept <= 0.0):
            raise ValueError("inverse-demand intercepts must be strictly positive")
        if np.any(slope < 0.0):
            raise ValueError("inverse-demand slopes must be nonnegative")
        if missing.any():
            uncapped = np.flatnonzero(missing & (slope == 0.0))
            if uncapped.size:
                raise ValueError(f"OD pair index {uncapped[0]}: a demand cap is required "
                                 "when the slope is zero")
            with np.errstate(over="ignore"):  # an overflow is the ValueError below
                cap[missing] = DEFAULT_CAP_FRACTION * intercept[missing] / slope[missing]
        if not np.isfinite(cap).all():
            raise ValueError(f"inverse-demand cap must be finite, got {cap.tolist()}")
        if np.any(cap <= 0.0):
            raise ValueError("demand caps must be strictly positive")
        # the gap's best-response term sums up to intercept * cap per OD pair
        with np.errstate(over="ignore"):
            unscaled = np.flatnonzero(~np.isfinite(intercept * cap))
        if unscaled.size:
            raise ValueError(f"OD pair index {unscaled[0]}: intercept * cap must be finite")
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

    @classmethod
    def _own(cls, intercept: np.ndarray, slope: np.ndarray, cap: np.ndarray) -> "InverseDemand":
        """An inverse demand holding the given arrays themselves: read-only
        float vectors of equal length that already passed the checks above,
        such as the first entries of another InverseDemand's. Nothing is
        checked or copied."""
        inv = object.__new__(cls)
        object.__setattr__(inv, "intercept", intercept)
        object.__setattr__(inv, "slope", slope)
        object.__setattr__(inv, "cap", cap)
        return inv

    def gap_scale(self) -> float:
        """Sum over OD pairs of intercept * cap, which bounds the gap; a
        ValueError unless finite. Construction checks each pair alone, so
        that the oracle's stack of many copies passes where one copy does."""
        with np.errstate(over="ignore"):
            scale = float(np.dot(self.intercept, self.cap))
        if not scale < np.inf:
            raise ValueError(f"inverse demand: intercept * cap summed over the OD pairs is "
                             f"{scale}, and must be finite")
        return scale

    def theta(self, demand: np.ndarray) -> np.ndarray:
        """Inverse demand values at the given demand vector (hours); ShapeError
        unless it holds one entry per OD pair."""
        demand = np.asarray(demand, dtype=float)
        if demand.shape != self.cap.shape:
            raise ShapeError(f"demand must have shape (OD pairs,) = {self.cap.shape}, "
                             f"got shape {demand.shape}")
        inside = (demand >= 0.0) & (demand <= self.cap)  # False for nan
        if np.count_nonzero(inside) < inside.size:  # one C call, unlike .all()
            raise DemandDomainError(
                f"demand outside [0, cap] for OD pair indices {np.flatnonzero(~inside).tolist()}"
            )
        return self.intercept - self.slope * demand
