"""Boundary values of the free resolvent on the grid and the high-energy
decay probe.

The boundary pairing realizes

    <R0_pm(lam) f, g> = p.v. sum_xi fhat conj(ghat) / (|xi|^{2m} - lam)
                        +/- (pi i / 2m) lam^{(1-2m)/(2m)} * (shell integral),

with a symmetric principal-value exclusion window around the resonant shell
|xi| = lam^{1/(2m)} plus an analytically integrated window correction, and a
shell-binned surface integral weighted by exact shell area over bin volume.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .grid import (
    Field,
    GridSpec,
    apply_symbol,
    forward_transform,
    sphere_area,
    weight_bracket_power,
)
from .kernels import ResolventQuery
from .operators import NormEstimate, operator_norm
from .reporting import ProbeReport, fit_loglog


def _check_shell(grid: GridSpec, rho: float) -> None:
    if rho >= grid.nyquist_radius:
        raise ValueError(
            f"resonant shell radius {rho:.4g} exceeds the lattice Nyquist "
            f"radius {grid.nyquist_radius:.4g}"
        )


def shell_integral(grid: GridSpec, values_hat: np.ndarray, rho: float) -> complex:
    """Integral of a frequency-lattice function over the sphere |xi| = rho,
    estimated by binning the annulus [rho - h/2, rho + h/2] and weighting by
    exact shell area over bin volume.

    The bin volume is the lattice measure of the binned cells (cell volume
    times occupancy), so quasi-random fluctuations of the lattice shell count
    cancel between numerator and denominator; the estimator reduces to
    (mean binned density) x (exact shell area)."""
    _check_shell(grid, rho)
    h = grid.h_xi
    xi_abs = grid.xi_radii()
    mask = np.abs(xi_abs - rho) <= h / 2
    count = int(np.count_nonzero(mask))
    if count == 0:
        return 0.0 + 0.0j
    bin_volume = count * grid.cell_volume_xi
    bin_sum = complex(np.sum(values_hat[mask])) * grid.cell_volume_xi
    return bin_sum * sphere_area(grid.n, rho) / bin_volume


def _pv_window(grid: GridSpec, m: int, lam: float) -> float:
    """Exclusion half-width in the symbol variable s = |xi|^{2m} - lam:
    three local symbol gradients times the lattice spacing."""
    rho = lam ** (1.0 / (2 * m))
    return 3.0 * (2 * m * rho ** (2 * m - 1)) * grid.h_xi


def boundary_value_pairing(f: Field, g: Field, lam: float, side: str, m: int) -> complex:
    """<R0_pm(lam) f, g> for lam > 0: principal-value lattice sum plus the
    signed surface term of the limiting absorption boundary value."""
    if lam <= 0:
        raise ValueError(f"boundary pairing needs lambda > 0, got {lam}")
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    grid = f.grid
    rho = lam ** (1.0 / (2 * m))
    _check_shell(grid, rho)

    density = forward_transform(f) * np.conj(forward_transform(g))

    xi_abs = grid.xi_radii()
    s = xi_abs ** (2 * m) - lam
    w = _pv_window(grid, m, lam)

    outside = np.abs(s) >= w
    pv = complex(np.sum(density[outside] / s[outside])) * grid.cell_volume_xi

    # Window correction: the principal value of A(s)/s over |s| < w is
    # integrated analytically for a cubic fit of the binned spectral density
    # A(s), giving 2 a1 w + (2/3) a3 w^3 (even terms cancel by symmetry).
    band = np.abs(s) < 3 * w
    if np.any(band):
        sb = s[band]
        ab = density[band] * grid.cell_volume_xi
        nbins = 16
        edges = np.linspace(-3 * w, 3 * w, nbins + 1)
        centers, dens = [], []
        for i in range(nbins):
            sel = (sb >= edges[i]) & (sb < edges[i + 1])
            if np.any(sel):
                centers.append(0.5 * (edges[i] + edges[i + 1]))
                dens.append(np.sum(ab[sel]) / (edges[i + 1] - edges[i]))
        if len(centers) >= 4:
            centers = np.asarray(centers)
            dens = np.asarray(dens, dtype=np.complex128)
            cre = np.polynomial.polynomial.polyfit(centers, dens.real, 3)
            cim = np.polynomial.polynomial.polyfit(centers, dens.imag, 3)
            a1 = complex(cre[1], cim[1])
            a3 = complex(cre[3], cim[3])
            pv += 2.0 * a1 * w + (2.0 / 3.0) * a3 * w ** 3
        elif len(centers) >= 2:
            centers = np.asarray(centers)
            dens = np.asarray(dens, dtype=np.complex128)
            cre = np.polynomial.polynomial.polyfit(centers, dens.real, 1)
            cim = np.polynomial.polynomial.polyfit(centers, dens.imag, 1)
            pv += 2.0 * complex(cre[1], cim[1]) * w

    sign = 1.0 if side == "+" else -1.0
    surface = shell_integral(grid, density, rho)
    prefac = (np.pi * 1j / (2 * m)) * lam ** ((1.0 - 2 * m) / (2.0 * m))
    return pv + sign * prefac * surface


def boundary_symbol(grid: GridSpec, lam: float, m: int, side: str) -> np.ndarray:
    """Effective lattice symbol of R0_pm(lam): 1/(|xi|^{2m} - lam) outside the
    principal-value window, zero inside it, and the signed surface term
    distributed over the resonant-shell bin (shell area over bin volume).

    Pairing a field against this diagonal symbol reproduces
    boundary_value_pairing up to the density-dependent window correction, and
    it realizes R0_pm(lam) as an operator on the grid.
    """
    if lam <= 0:
        raise ValueError(f"boundary symbol needs lambda > 0, got {lam}")
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    rho = lam ** (1.0 / (2 * m))
    _check_shell(grid, rho)
    xi_abs = grid.xi_radii()
    s = xi_abs ** (2 * m) - lam
    w = _pv_window(grid, m, lam)

    sym = np.zeros(grid.shape, dtype=np.complex128)
    outside = np.abs(s) >= w
    sym[outside] = 1.0 / s[outside]

    h = grid.h_xi
    bin_mask = np.abs(xi_abs - rho) <= h / 2
    count = int(np.count_nonzero(bin_mask))
    if count:
        bin_volume = count * grid.cell_volume_xi
        sign = 1.0 if side == "+" else -1.0
        prefac = sign * (np.pi * 1j / (2 * m)) * lam ** ((1.0 - 2 * m) / (2.0 * m))
        sym[bin_mask] += prefac * sphere_area(grid.n, rho) / bin_volume
    return sym


def spectral_density(f: Field, lam: float, m: int) -> float:
    """Spectral measure density <E'(lam) f, f> of (-Delta)^m: shell-binned
    (1/2m) lam^{(1-2m)/(2m)} * integral of |fhat|^2 over |xi| = lam^{1/(2m)}."""
    if lam <= 0:
        raise ValueError(f"spectral density needs lambda > 0, got {lam}")
    grid = f.grid
    rho = lam ** (1.0 / (2 * m))
    surf = shell_integral(grid, np.abs(forward_transform(f)) ** 2, rho)
    return float(np.real(surf)) * lam ** ((1.0 - 2 * m) / (2.0 * m)) / (2 * m)


def resolvent_symbol_array(grid: GridSpec, q: ResolventQuery) -> np.ndarray:
    """Lattice symbol of R0(z): boundary-regularized on the positive half-line,
    plain 1/(|xi|^{2m} - z) elsewhere.  z = 0 is handled by the Riesz kernel
    path (birman_schwinger.riesz_base_column), not here."""
    if complex(q.z) == 0:
        raise ValueError("z = 0 resolvent uses the Riesz kernel, not a symbol")
    if q.side is not None:
        return boundary_symbol(grid, float(np.real(q.z)), q.m, q.side)
    return q.symbol(grid.xi_radii())


def weighted_resolvent_norm(
    grid: GridSpec,
    q: ResolventQuery,
    s: float,
    rng: Optional[np.random.Generator] = None,
    max_iter: int = 50,
    rtol: float = 1e-6,
    start: Optional[np.ndarray] = None,
) -> NormEstimate:
    """Operator norm of <x>^{-s} R0(z) <x>^{-s} on the grid, matrix-free.

    The resolvent symbol is resolvent_symbol_array's, so z = 0 is rejected.
    """
    w = weight_bracket_power(grid, -s)
    sym = resolvent_symbol_array(grid, q)
    sym_c = np.conj(sym)

    def mk_apply(symbol):
        def apply(vflat: np.ndarray) -> np.ndarray:
            out = apply_symbol(w * vflat.reshape(grid.shape), symbol)
            out *= w
            return out.reshape(-1)

        return apply

    return operator_norm(mk_apply(sym), mk_apply(sym_c), grid.size,
                         rng=rng, max_iter=max_iter, rtol=rtol, start=start)


def high_energy_decay_probe(
    grid: GridSpec,
    m: int,
    n: int,
    s: float,
    z_magnitudes: Iterable[float],
    z_arg: float = 0.0,
    side: Optional[str] = "+",
    rng: Optional[np.random.Generator] = None,
) -> ProbeReport:
    """Fit the decay exponent of ||<x>^{-s} R0(z) <x>^{-s}|| along a ray of
    |z| samples; the expected slope is (1 - 2m)/(2m).

    The default ray is the positive half-line approached from the + side
    (z = lambda + i0, the boundary-value operators), where the decay law is
    sharp.  Pass side=None with z_arg > 0 for an interior ray arg z = z_arg,
    where the norm decays at least as fast.
    """
    if side is None and z_arg <= 0:
        raise ValueError("interior ray needs z_arg > 0")
    mags = np.sort(np.asarray(list(z_magnitudes), dtype=float))
    if mags.size < 3:
        raise ValueError("need at least 3 |z| samples")
    if mags[0] <= 0:
        raise ValueError("|z| samples must be positive (|z| >= delta > 0)")
    decades = np.log10(mags[-1] / mags[0])
    if decades < 1.5:
        raise ValueError(f"|z| samples span {decades:.2f} decades; need >= 1.5")
    if rng is None:
        rng = np.random.default_rng(0)

    report = ProbeReport(
        name="high_energy_decay",
        params={"m": m, "n": n, "s": s, "z_arg": z_arg, "side": side},
        provenance={"grid": {"n": grid.n, "N": grid.npts, "L": grid.half_width}},
    )
    norms = []
    warm = None
    for mag in mags:
        if side is not None:
            z = complex(mag)
            q = ResolventQuery(z=z, m=m, n=n, side=side)
        else:
            z = mag * np.exp(1j * z_arg)
            q = ResolventQuery(z=z, m=m, n=n)
        est = weighted_resolvent_norm(grid, q, s, rng=rng, start=warm)
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
        decades=float(decades),
    )
    report.passes["norms_finite_positive"] = bool(np.all(np.isfinite(norms)) and min(norms) > 0)
    return report
