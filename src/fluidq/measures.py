"""Finite nonnegative measures represented by tail functions on grids.

A TailMeasure stores x -> nu((x, inf)) at grid points.  Fluid profiles are
continuous in x and interpolate linearly; empirical snapshots are
right-continuous steps.  Below the grid the tail is the total mass, above it
the last stored value.  Measures on (0, inf) follow the convention that any
mass at or below 0 is zero, so their tail at x <= 0 equals the total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-9


@dataclass(frozen=True)
class TailMeasure:
    grid: np.ndarray
    tails: np.ndarray
    total: float
    interpolation: str = "linear"  # "linear" for fluid profiles, "step" for empirical

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        tails = np.asarray(self.tails, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "total", float(self.total))
        if grid.ndim != 1 or grid.size == 0 or grid.shape != tails.shape:
            raise ValueError("grid and tails must be equal-length 1-d arrays")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        scale = max(abs(self.total), 1.0)
        if np.any(np.diff(tails) > _TOL * scale):
            raise ValueError("tails must be nonincreasing")
        if np.any(tails < -_TOL * scale) or np.any(tails > self.total + _TOL * scale):
            raise ValueError("tails must lie in [0, total]")
        if self.interpolation not in ("linear", "step"):
            raise ValueError("interpolation must be 'linear' or 'step'")

    @classmethod
    def from_samples(cls, values, mass_per_point: float) -> "TailMeasure":
        """Empirical measure: tail(x) = mass_per_point * #{i : values[i] > x}, from one sort:
        the grid takes the first of each run of equal values, as np.unique does."""
        values = np.sort(np.asarray(values, dtype=float), axis=None)
        first = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        grid = values[first] if values.size else np.array([0.0])
        counts = values.size - np.append(first[1:], values.size)
        return cls(grid, mass_per_point * counts, mass_per_point * values.size, "step")

    def tail_at(self, x):
        """Evaluate the tail function; below the grid returns total, above returns the last value."""
        x = np.asarray(x, dtype=float)
        if self.interpolation == "linear":
            return np.interp(x, self.grid, self.tails, left=self.total, right=self.tails[-1])
        idx = np.searchsorted(self.grid, x, side="right") - 1
        return np.where(idx < 0, self.total, self.tails[np.clip(idx, 0, self.grid.size - 1)])

    def inverse_tail(self, q):
        """Smallest x with tail(x) <= q, by interpolation on the stored tails."""
        q = np.asarray(q, dtype=float)
        # tails are nonincreasing; flip for np.interp
        out = np.interp(q, self.tails[::-1], self.grid[::-1])
        out = np.where(q >= self.tails[0], self.grid[0], out)
        return np.where(q <= self.tails[-1], self.grid[-1], out)

    def scaled(self, factor: float) -> "TailMeasure":
        return TailMeasure(self.grid, self.tails * factor, self.total * factor, self.interpolation)


def sup_distance(m1: TailMeasure, m2: TailMeasure, probes) -> float:
    """Max tail gap over the probes, maximized with the total-mass gap.

    A computable surrogate for weak-convergence distance: on a dense probe
    grid against a continuous limit, convergence here implies weak
    convergence.
    """
    probes = np.asarray(probes, dtype=float)
    if probes.size == 0:
        raise ValueError("probes must be nonempty")
    return float(tail_gap(m1.tail_at(probes), m1.total, m2.tail_at(probes), m2.total))


def tail_gap(tails1, total1, tails2, total2):
    """sup_distance from tails already read at the same probes, along the last axis:
    max(max |tails1 - tails2|, |total1 - total2|)."""
    return np.maximum(np.max(np.abs(tails1 - tails2), axis=-1), np.abs(total1 - total2))


def uniform_probes(lo: float, hi: float, count: int = 512) -> np.ndarray:
    """count evenly spaced probes from lo to hi, checked finite and strictly increasing.

    The span is checked before linspace runs, which would warn on one beyond the float
    range and fill the grid with nan and inf."""
    if not (hi > lo and count >= 2):
        raise ValueError("probe grid needs hi > lo and count >= 2")
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"probe grid from {lo!r} to {hi!r} spans more than the float range")
    grid = np.linspace(lo, hi, count)
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError(f"probe grid of {count} points from {lo!r} to {hi!r} "
                         "is not strictly increasing")
    return grid

