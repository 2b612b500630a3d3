"""The free resolvent R0(z) = ((-Delta)^m - z)^{-1} on the grid: the query
type, its lattice symbol, the boundary values R0_pm(lam) and the high-energy
decay probe.

On the positive half-line z = lam > 0, the symbol of R0_pm(lam)
(boundary_symbol) realizes

    p.v. 1/(|xi|^{2m} - lam)  +/-  pi i c delta(|xi| - rho),
    rho = lam^{1/(2m)},  c = (1/2m) lam^{(1-2m)/(2m)},

with a symmetric principal-value exclusion window around the resonant shell
|xi| = rho, and the surface term spread over the shell bin, the annulus
|xi - rho| <= h_xi/2, weighted by exact shell area over the lattice measure of
the binned cells.  The shell part (sigma_+ - sigma_-)/2 pi i is the spectral
density E'_0(lam) of (-Delta)^m.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from .grid import ConfigError, GridSpec, sphere_area, weight_bracket_power
from .operators import NormEstimate, operator_norm, weighted_multiplier
from .reporting import ProbeReport, fit_loglog

BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class ResolventQuery:
    """Spectral parameter z of R0(z) in dimension n, odd as on a GridSpec
    and above 2m, where weighted R0(z) stays bounded as z -> 0.

    On the positive half-line z = lambda > 0 the side '+' or '-' selects the
    boundary value R0(lambda +/- i0); off it side is None.  roots() takes
    arg z in (0, 2pi) off the half-line, 0 on side '+' and 2pi on side '-'.
    z = 0 is rejected: R0(0) is the Riesz kernel, singular at xi = 0.
    """

    z: complex
    m: int
    n: int
    side: Optional[str] = None  # '+' | '-' | None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"order m must be >= 1, got {self.m}")
        if self.n <= 2 * self.m or self.n % 2 == 0:
            raise ValueError(f"need odd dimension n > 2m, got n={self.n}, m={self.m}")
        if self.side not in (None, "+", "-"):
            raise ValueError(f"boundary side must be '+', '-' or None, got {self.side!r}")
        z = complex(self.z)
        if z == 0:
            raise ValueError("z = 0 resolvent is the Riesz kernel, which has no grid symbol")
        on_axis = abs(z.imag) <= BRANCH_TOL * max(1.0, abs(z))
        if self.side is not None:
            if not on_axis or z.real < 0:
                raise ValueError("boundary side set requires z = lambda real > 0")
        elif on_axis and z.real >= 0:
            raise ValueError("z on (0, inf) requires an explicit boundary side")

    @property
    def arg(self) -> float:
        """Branch argument of z in [0, 2pi]."""
        if self.side == "+":
            return 0.0
        if self.side == "-":
            return 2.0 * np.pi
        a = cmath.phase(complex(self.z))
        if a <= 0:
            a += 2.0 * np.pi
        return a

    def roots(self) -> np.ndarray:
        """The m roots z_l = z^{1/m} e^{i 2 pi l / m} with z_l^m = z."""
        z = complex(self.z)
        rad = abs(z) ** (1.0 / self.m)
        ls = np.arange(self.m)
        return rad * np.exp(1j * (self.arg + 2.0 * np.pi * ls) / self.m)

    def symbol(self, xi_abs: np.ndarray) -> np.ndarray:
        """1/(|xi|^{2m} - z) evaluated at |xi|; the grid realization of the
        free resolvent away from the resonant shell."""
        return 1.0 / (xi_abs ** (2 * self.m) - complex(self.z))


def boundary_symbol(grid: GridSpec, lam: float, m: int, side: str) -> np.ndarray:
    """Lattice symbol of R0_pm(lam) for lam > 0 and side '+' or '-' (module
    docstring).  The principal-value window is |s| < w, with s =
    |xi|^{2m} - lam and w three local symbol gradients times the lattice
    spacing; the resonant shell must lie inside the Nyquist radius."""
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    if lam <= 0:
        raise ValueError(f"boundary values need lambda > 0, got {lam}")
    rho = lam ** (1.0 / (2 * m))
    if rho >= grid.nyquist_radius:
        raise ValueError(
            f"resonant shell radius {rho:.4g} exceeds the lattice Nyquist "
            f"radius {grid.nyquist_radius:.4g}"
        )
    c = lam ** ((1.0 - 2 * m) / (2.0 * m)) / (2 * m)
    xi_abs = grid.xi_radii()
    w = 3.0 * (2 * m * rho ** (2 * m - 1)) * grid.h_xi
    s = xi_abs ** (2 * m) - lam
    coef = (np.pi * 1j if side == "+" else -np.pi * 1j) * c
    sym = np.zeros(grid.shape, dtype=np.complex128)
    outside = np.abs(s) >= w
    sym[outside] = 1.0 / s[outside]
    mask = np.abs(xi_abs - rho) <= grid.h_xi / 2
    bin_volume = np.count_nonzero(mask) * grid.cell_volume_xi
    if bin_volume:
        sym[mask] += coef * sphere_area(grid.n, rho) / bin_volume
    return sym


def resolvent_symbol_array(grid: GridSpec, q: ResolventQuery) -> np.ndarray:
    """Lattice symbol of R0(z): boundary-regularized on the positive half-line,
    plain 1/(|xi|^{2m} - z) elsewhere."""
    if q.side is not None:
        return boundary_symbol(grid, float(np.real(q.z)), q.m, q.side)
    return q.symbol(grid.xi_radii())


def weighted_resolvent_norm(
    grid: GridSpec,
    q: ResolventQuery,
    weight: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    max_iter: int = 50,
    rtol: float = 1e-6,
    start: Optional[np.ndarray] = None,
) -> NormEstimate:
    """Operator norm of W R0(z) W on the grid, matrix-free, for the real
    weight W (grid shape, only read), e.g. <x>^{-s} = weight_bracket_power(grid, -s).
    start is consumed, as by operator_norm."""
    apply, adjoint = weighted_multiplier(weight, resolvent_symbol_array(grid, q), weight)
    return operator_norm(apply, adjoint, grid.size,
                         rng=rng, max_iter=max_iter, rtol=rtol, start=start)


def z_ray(z_magnitudes: Iterable[float]) -> Tuple[np.ndarray, float]:
    """(sorted |z| samples, decades they span) of a log-log slope fit along a
    ray of z: at least 3 positive samples (|z| >= delta > 0) spanning at
    least 1.5 decades, else ConfigError."""
    mags = np.sort(np.asarray(list(z_magnitudes), dtype=float))
    if mags.size < 3:
        raise ConfigError("need at least 3 |z| samples")
    if mags[0] <= 0:
        raise ConfigError("|z| samples must be positive (|z| >= delta > 0)")
    decades = math.log10(mags[-1] / mags[0])
    if decades < 1.5:
        raise ConfigError(f"|z| samples span {decades:.2f} decades; need >= 1.5")
    return mags, decades


def high_energy_decay_probe(
    grid: GridSpec,
    m: int,
    n: int,
    s: float,
    z_magnitudes: Iterable[float],
    rng: Optional[np.random.Generator] = None,
) -> ProbeReport:
    """Fit the decay exponent of ||<x>^{-s} R0(z) <x>^{-s}|| along a ray of
    |z| samples; the expected slope is (1 - 2m)/(2m).

    The ray is the positive half-line approached from the + side
    (z = lambda + i0, the boundary-value operators), where the decay law is
    sharp.  n must be the grid's; one weight <x>^{-s} serves every |z|,
    and each estimate's final vector, the next |z|'s start, is the next
    power iteration's first iterate in its own buffer.
    """
    if n != grid.n:
        raise ValueError(f"n={n} does not match the {grid.n}-d grid")
    mags, decades = z_ray(z_magnitudes)
    if rng is None:
        rng = np.random.default_rng(0)

    report = ProbeReport(
        name="high_energy_decay",
        params={"m": m, "n": n, "s": s, "z_arg": 0.0, "side": "+"},
        provenance={"grid": grid.provenance()},
    )
    weight = weight_bracket_power(grid, -s)
    norms = []
    warm = None
    for mag in mags:
        z = complex(mag)
        q = ResolventQuery(z=z, m=m, n=n, side="+")
        est = weighted_resolvent_norm(grid, q, weight, rng=rng, start=warm)
        warm = est.vector
        if not est.converged and est.residual > 1e-2:
            raise RuntimeError(
                f"power iteration non-convergent at |z|={mag:g} "
                f"(residual {est.residual:.3g})"
            )
        norms.append(est.norm)
        report.add_row(m=m, n=n, s=s, re_z=z.real, im_z=z.imag,
                       norm=est.norm, iterations=est.iterations,
                       residual=est.residual)
    slope, intercept, width = fit_loglog(mags, norms)
    report.metrics.update(
        slope=slope, slope_confidence=width,
        expected_slope=(1.0 - 2 * m) / (2.0 * m),
        decades=decades,
    )
    report.passes["norms_finite_positive"] = bool(np.all(np.isfinite(norms)) and min(norms) > 0)
    return report
