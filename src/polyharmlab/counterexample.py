"""Compactly supported smooth potentials embedding an eigenvalue at 1.

The kernel G of (1 - Delta)^{-1} satisfies Delta G = G away from the origin,
hence (-Delta)^m G = G there for even m.  Any strictly positive phi that
agrees with G outside a ball B(0, delta) therefore yields a potential

    V = phi^{-1} (phi - (-Delta)^m phi)

supported in B(0, delta) with ((-Delta)^m + V) phi = phi: an eigenvalue
embedded at 1 inside the essential spectrum [0, infinity).

The construction (method "mollified") takes phi = G * rho_sigma with a
Gaussian mollifier, so phi-hat = e^{-sigma^2 xi^2 / 4} / (1 + |xi|^2) exactly
and the numerator phi - (-Delta)^m phi = Q(-Delta) rho_sigma is an analytic
bump of width sigma (Q the polynomial (1 - t^m)/(1 + t) in t = -Delta).  The
grid phi is synthesized from the exact symbol, so the residual of the
eigen-identity is limited only by the Gaussian tail of the symbol at the
lattice Nyquist radius and collapses spectrally under refinement.  The
support of V leaks by the Gaussian factor e^{-r^2/sigma^2}, quantified in the
residual record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .grid import (ConfigError, GridSpec, apply_symbol, center_signs,
                   outer_product, real_inverse_fft, slabs, write_field)
from .potentials import Potential
from .reporting import ProbeReport


def _check_parameters(m: int, n: int, delta: float) -> None:
    if m < 2 or m % 2 != 0:
        raise ConfigError(
            f"even m >= 2 required ((-Delta)^m G = -G for odd m), got {m}")
    if n % 2 == 0 or n < 3:
        raise ConfigError(f"odd n >= 3 required, got {n}")
    if delta <= 0:
        raise ConfigError(f"support radius must be positive, got {delta}")


@dataclass(frozen=True)
class EmbeddedPair:
    """A potential V and state phi (real samples on the potential's grid)
    with ((-Delta)^m + V) phi = phi."""

    potential: Potential
    phi: np.ndarray
    delta: float
    m: int
    n: int
    residuals: Dict[str, float]

    @property
    def grid(self) -> GridSpec:
        return self.potential.grid


def _mollified_phi(grid: GridSpec, m: int, sigma: float):
    """Grid samples of the periodized G * rho_sigma and of the numerator
    phi - (-Delta)^m phi, synthesized from the exact continuum symbol.

    The symbol is alias-summed over the neighbouring Nyquist period on each
    side, so the synthesized values are exact samples of the periodized
    (strictly positive) function rather than its band-limited interpolant.
    Each of the 3^n alias terms has a separable Gaussian factor, built as the
    outer product of its 1-D factors.  Both symbols are real and even, so
    only the half spectrum of the last axis is built (centre phase
    included, as complex128 for real_inverse_fft) and synthesized by one
    real inverse transform, the numerator's first: each transform consumes
    its half spectrum, which is released before the next one runs."""
    axis = grid.axis_freqs()
    width = 2.0 * grid.nyquist_radius
    # per shift and axis: the shifted frequencies squared and their Gaussian,
    # which carries the centre phase (-1)^k; the last axis keeps its half
    shifted2 = (axis[None, :] + width * np.arange(-1, 2)[:, None]) ** 2
    gauss = center_signs(grid) * np.exp(-sigma * sigma * shifted2 / 4.0)
    half = grid.npts // 2 + 1
    sq_rows = [shifted2] * (grid.n - 1) + [shifted2[:, :half]]
    gauss_rows = [gauss] * (grid.n - 1) + [gauss[:, :half]]
    phi_hat = np.zeros(grid.shape[:-1] + (half,), dtype=np.complex128)
    for kv in np.ndindex(*([3] * grid.n)):
        term = 1.0 + outer_product([r[k] for r, k in zip(sq_rows, kv)],
                                   np.add)  # 1 + |xi|^2
        np.divide(outer_product([r[k] for r, k in zip(gauss_rows, kv)]), term,
                  out=term)
        phi_hat += term
    xi2 = outer_product([r[1] for r in sq_rows], np.add)  # the unshifted |xi|^2
    numer_hat = (1.0 - xi2 ** m) * phi_hat
    del xi2
    scale = grid.cell_volume_xi * grid.size / (2.0 * np.pi) ** grid.n
    numer = real_inverse_fft(numer_hat, grid.shape)
    del numer_hat
    numer *= scale
    phi = real_inverse_fft(phi_hat, grid.shape)
    del phi_hat
    phi *= scale
    return phi, numer


def build_embedded_pair(grid: GridSpec, m: int, delta: float = 1.0,
                        method: str = "mollified",
                        sigma: Optional[float] = None) -> EmbeddedPair:
    """Construct the embedded-eigenvalue pair on a grid.

    The potential is evaluated spectrally from the sampled profile and then
    truncated to the ball |x| <= delta + 2h, outside of which the continuum
    potential vanishes up to the recorded Gaussian leak; the discarded
    exterior values are recorded as support_leak, not silently dropped.  The
    eigen-residual ||H phi - phi|| / ||phi|| measures exactly that truncation
    and decreases under N-refinement.  method must be "mollified", the only
    construction.
    """
    _check_parameters(m, grid.n, delta)
    if method != "mollified":
        raise ConfigError(f"unknown construction {method!r}; use 'mollified'")
    if delta < 4.0 * grid.h:
        raise ConfigError(
            f"support radius {delta:g} under-resolved: need delta >= 4h = "
            f"{4.0 * grid.h:.4g}"
        )
    if grid.half_width <= delta:
        raise ConfigError(
            f"box half-width {grid.half_width:g} must exceed the support "
            f"radius {delta:g}"
        )

    if sigma is None:
        sigma = 0.135 * delta
    if not 0 < sigma < delta:
        raise ConfigError(f"mollifier width must lie in (0, delta), got {sigma}")
    phi, v = _mollified_phi(grid, m, sigma)

    if np.min(phi) <= 0.0:
        raise ValueError("constructed profile not strictly positive on the grid")

    np.divide(v, phi, out=v)  # V = numerator / phi, over the numerator
    leak = _truncate(grid, v, delta)
    pot = Potential(grid, v,
                    name=f"embedded(m={m},n={grid.n},delta={delta:g},{method})")
    del v
    # H phi - phi by real transforms, with |xi|^{2m} on the half lattice
    kinetic = np.empty(grid.shape[:-1] + (grid.npts // 2 + 1,))
    for rows in slabs(kinetic.shape):
        kinetic[rows] = grid.xi_radii(rows, half=True) ** (2 * m)
    diff = apply_symbol(phi, kinetic)
    for rows in slabs(grid.shape):
        diff[rows] += pot.values[rows] * phi[rows]
    diff -= phi
    residuals = {
        "eigen_residual": float(np.linalg.norm(diff) / np.linalg.norm(phi)),
        "support_leak": leak,
        "positivity_margin": float(np.min(phi)),
        "max_abs_v": pot.max_abs,
        "method": method,
        "sigma": sigma,
    }
    return EmbeddedPair(pot, phi, delta, m, grid.n, residuals)


def _exterior(grid: GridSpec, delta: float) -> Iterator[Tuple[slice, np.ndarray]]:
    """(rows, outside) per slab (slabs): outside marks the points of the
    rows beyond the truncation radius |x| > delta + 2h."""
    for rows in slabs(grid.shape):
        yield rows, grid.radii(rows=rows) > delta + 2.0 * grid.h


def _truncate(grid: GridSpec, values: np.ndarray, delta: float) -> float:
    """Zeroes values (grid shape) in place beyond the truncation radius
    (_exterior) and returns the largest |value| it zeroed, 0 for none."""
    leak = 0.0
    for rows, outside in _exterior(grid, delta):
        part = values[rows]
        leak = max(leak, _max_abs(part, outside))
        part[outside] = 0.0
    return leak


def _max_abs(values: np.ndarray, where: np.ndarray) -> float:
    """max |values| over the points where is true, 0 for none."""
    return float(np.max(np.abs(values), where=where, initial=0.0))


def verify_embedded(pair: EmbeddedPair) -> ProbeReport:
    """Report the eigen-residual and support leak that the construction
    measured, with the truncated exterior and the positivity margin."""
    grid = pair.grid
    residual = pair.residuals["eigen_residual"]
    leak = pair.residuals["support_leak"]
    post_leak = max(_max_abs(pair.potential.values[rows], outside)
                    for rows, outside in _exterior(grid, pair.delta))
    margin = float(np.min(pair.phi))
    report = ProbeReport(
        name="embedded_pair",
        params={"m": pair.m, "n": pair.n, "delta": pair.delta},
        provenance={"grid": grid.provenance()},
    )
    report.add_row(m=pair.m, n=pair.n, delta=pair.delta,
                   eigen_residual=residual,
                   support_leak=leak,
                   truncated_exterior_max=post_leak,
                   positivity_margin=margin,
                   max_abs_v=pair.potential.max_abs)
    report.metrics.update(
        eigen_residual=residual,
        support_leak=leak,
        positivity_margin=margin,
    )
    report.passes["phi_strictly_positive"] = margin > 0.0
    report.passes["exterior_truncated"] = post_leak <= pair.potential.tau_supp
    return report


def save_embedded_pair(pair: EmbeddedPair, directory) -> Path:
    """Persist as two field binaries plus a JSON manifest; returns the dir."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "potential.field", "wb") as fh:
        write_field(pair.grid, pair.potential.values, fh)
    with open(directory / "phi.field", "wb") as fh:
        write_field(pair.grid, pair.phi, fh)
    manifest = {
        "m": pair.m,
        "n": pair.n,
        "delta": pair.delta,
        "residuals": pair.residuals,
        "grid": pair.grid.provenance(),
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return directory
