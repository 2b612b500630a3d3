"""Sampled real potentials and their Birman-Schwinger factorization.

A Potential carries V together with v = sqrt|V| and w = sgn(V) v (so V = w v
pointwise) and the support set used for dense Birman-Schwinger assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import ConfigError, GridSpec


@dataclass(frozen=True)
class Potential:
    """Real potential sampled on a grid."""

    grid: GridSpec
    values: np.ndarray
    name: str = "potential"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).reshape(self.grid.shape)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def tau_supp(self) -> float:
        """Support truncation threshold: 1e-12 x max|V|."""
        return 1e-12 * self.max_abs

    def v(self) -> np.ndarray:
        return np.sqrt(np.abs(self.values))

    def w(self) -> np.ndarray:
        return np.sign(self.values) * np.sqrt(np.abs(self.values))

    def support_indices(self) -> np.ndarray:
        """Flat indices of the support set {|V| > tau_supp}, sorted."""
        flat = np.abs(self.values).reshape(-1)
        return np.flatnonzero(flat > self.tau_supp)

    def scaled(self, coupling: float) -> "Potential":
        """coupling * V, named "<name>*<coupling>"."""
        return Potential(self.grid, coupling * self.values, f"{self.name}*{coupling:g}")


def gaussian_well(grid: GridSpec, depth: float, width: float = 1.0,
                  center: Optional[tuple] = None) -> Potential:
    """V(x) = -depth exp(-|x - c|^2 / width^2): attractive for depth > 0,
    named "gauss(depth=...,width=...)"."""
    if width <= 0:
        raise ConfigError(f"width must be positive, got {width}")
    coords = grid.coords()
    if center is None:
        center = (0.0,) * grid.n
    r2 = sum((x - c) ** 2 for x, c in zip(coords, center))
    vals = -depth * np.exp(-r2 / width ** 2)
    return Potential(grid, vals, name=f"gauss(depth={depth:g},width={width:g})")


def bracket_decay(grid: GridSpec, amplitude: float, s: float) -> Potential:
    """V(x) = amplitude <x>^{-s}; repulsive for amplitude > 0, named
    "bracket(a=...,s=...)"."""
    if s <= 0:
        raise ConfigError(f"decay exponent must be positive, got {s}")
    r = grid.radii()
    vals = amplitude * (1.0 + r ** 2) ** (-s / 2.0)
    return Potential(grid, vals, name=f"bracket(a={amplitude:g},s={s:g})")
