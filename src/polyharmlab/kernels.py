"""Closed-form convolution kernels of the free resolvent family.

The polyharmonic resolvent ((-Delta)^m - z)^{-1} decomposes into Laplace
resolvents through the partial-fraction identity

    1/(|xi|^{2m} - z) = (1/(m z)) * sum_l z_l / (|xi|^2 - z_l),
    z_l = z^{1/m} e^{i 2 pi l / m},

so every kernel here reduces to the odd-dimensional Helmholtz kernel, which in
n = 3 is e^{i k r}/(4 pi r) and in higher odd dimensions follows from the
recursion G_{n+2}(r) = -(2 pi r)^{-1} dG_n/dr.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class ResolventQuery:
    """Spectral parameter z with branch convention for z^{1/m}.

    The principal m-th root takes arg z in (0, 2pi), so approaching the
    positive half-line from above (side '+') uses arg z = 0 and from below
    (side '-') uses arg z = 2pi.  Each Laplace-factor square root is chosen
    with Im sqrt(z_l) >= 0 so the summand kernels decay.
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
        if self.side is not None:
            if abs(z.imag) > BRANCH_TOL * max(1.0, abs(z)) or z.real < 0:
                raise ValueError("boundary side set requires z = lambda real >= 0")
        else:
            if z.real >= 0 and abs(z.imag) <= BRANCH_TOL * max(1.0, abs(z)):
                if z != 0:
                    raise ValueError(
                        "z on [0, inf) requires an explicit boundary side"
                    )

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

    def sqrt_roots(self) -> np.ndarray:
        """sqrt(z_l) with argument in [0, pi) (decaying Helmholtz branch)."""
        z = complex(self.z)
        rad = abs(z) ** (1.0 / (2.0 * self.m))
        ls = np.arange(self.m)
        return rad * np.exp(1j * (self.arg + 2.0 * np.pi * ls) / (2.0 * self.m))

    def symbol(self, xi_abs: np.ndarray) -> np.ndarray:
        """1/(|xi|^{2m} - z) evaluated at |xi|; the grid realization of the
        free resolvent away from the resonant shell."""
        return 1.0 / (xi_abs ** (2 * self.m) - complex(self.z))


def _laplace_coeffs(n: int, k: complex) -> dict:
    """Coefficients c_j of G_n(r) = e^{ikr} sum_j c_j r^{-j} for odd n >= 3,
    built from the dimension recursion starting at G_3 = e^{ikr}/(4 pi r)."""
    coeffs = {1: 1.0 / (4.0 * np.pi)}
    dim = 3
    while dim < n:
        nxt: dict = {}
        for j, c in coeffs.items():
            # -(2 pi r)^{-1} d/dr [e^{ikr} r^{-j}]
            nxt[j + 1] = nxt.get(j + 1, 0.0) - 1j * k * c / (2.0 * np.pi)
            nxt[j + 2] = nxt.get(j + 2, 0.0) + j * c / (2.0 * np.pi)
        coeffs = nxt
        dim += 2
    return coeffs


def laplace_kernel(n: int, zeta: complex, r, sqrt_zeta: Optional[complex] = None):
    """Convolution kernel of (-Delta - zeta)^{-1} at radius r, odd n >= 3.

    The square-root branch has Im sqrt(zeta) >= 0 so the kernel decays; pass
    sqrt_zeta explicitly to select a boundary-value branch (e.g. a negative
    real root for the '-' side).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"odd dimension n >= 3 required, got {n}")
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    if sqrt_zeta is None:
        k = cmath.sqrt(zeta)
        if k.imag < 0:
            k = -k
    else:
        k = complex(sqrt_zeta)
        if abs(k * k - zeta) > 1e-9 * max(1.0, abs(zeta)):
            raise ValueError("sqrt_zeta is not a square root of zeta")
    out = np.zeros(np.shape(r), dtype=np.complex128)
    for j, c in _laplace_coeffs(n, k).items():
        out += c * r ** (-float(j))
    out = out * np.exp(1j * k * r)
    return out if out.shape else complex(out)


def polyharm_kernel(q: ResolventQuery, r):
    """Convolution kernel of ((-Delta)^m - z)^{-1} at radius r via the
    partial-fraction decomposition over the m-th roots of z."""
    z = complex(q.z)
    if z == 0:
        raise ValueError("z = 0 is the Riesz kernel, which the lab does not build")
    r = np.asarray(r, dtype=np.float64)
    roots = q.roots()
    sroots = q.sqrt_roots()
    out = np.zeros(np.shape(r), dtype=np.complex128)
    for zl, kl in zip(roots, sroots):
        out += zl * laplace_kernel(q.n, zl, r, sqrt_zeta=kl)
    out = out / (q.m * z)
    return out if out.shape else complex(out)


def bessel_kernel(n: int, r):
    """Kernel of (1 - Delta)^{-1} at radius r (real, positive, decaying);
    this is the zeta = -1 Laplace kernel."""
    out = laplace_kernel(n, -1.0, r)
    return np.real(out) if np.shape(r) else float(np.real(out))
