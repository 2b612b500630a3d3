"""Matrix-free Hamiltonian H = (-Delta)^m + V: eigensolvers, bound-state
counting, the absolutely-continuous projector, and time propagation.

Eigenpairs come from ARPACK's implicitly restarted Lanczos
(scipy.sparse.linalg.eigsh) on H as a real symmetric operator, applied in
real arithmetic.  The negative spectrum is the lowest k pairs, with k sized by
the exact Birman-Schwinger count and doubled until at most half of them lie
below the cut and none of the counted ones is missing, so multiplicities are
captured without deflation; an unconverged solve raises instead of
truncating the count.  The count checks every solve, so a counted eigenset is
converged to ARPACK's tol 1e-10 rather than to machine precision; only an
uncounted one (support too large to count) keeps the tighter solve.

Propagation expands e^{itH} in Chebyshev polynomials of H scaled to the
estimated spectral interval.  One recurrence from the initial state, one
matvec per term, serves every output time of a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
from scipy.special import jv

from .birman_schwinger import birman_schwinger_count
from .grid import Field, GridSpec, apply_symbol
from .potentials import Potential


@dataclass
class Hamiltonian:
    """H = (-Delta)^m + V bound to a grid, with spectral-interval estimates."""

    grid: GridSpec
    m: int
    potential: Potential
    _symbol: np.ndarray = field(default=None, repr=False)
    _eigenset: Optional["EigenSet"] = field(default=None, repr=False)

    def __post_init__(self):
        if self.potential.grid != self.grid:
            raise ValueError("potential lives on a different grid")
        self._symbol = self.grid.xi_radii() ** (2 * self.m)

    @property
    def spectral_bounds(self) -> Tuple[float, float]:
        """[E_min, E_max] from the lattice symbol range plus the potential
        range.  The kinetic part is diagonal on the lattice and V on the grid,
        so by Weyl's inequality the interval contains the spectrum exactly."""
        vmin = float(np.min(self.potential.values))
        vmax = float(np.max(self.potential.values))
        sym_max = float(np.max(self._symbol))
        return (min(0.0, vmin), sym_max + max(0.0, vmax))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """H on samples, flat or grid-shaped, as an array of the same shape:
        real for real input (the symbol is real and even), complex for
        complex input.  values is left unchanged."""
        vals = np.asarray(values).reshape(self.grid.shape)
        out = apply_symbol(vals, self._symbol)
        out += self.potential.values * vals
        return out.reshape(np.shape(values))

    def eigenset(self) -> "EigenSet":
        if self._eigenset is None:
            self._eigenset = negative_spectrum(self)
        return self._eigenset


@dataclass
class EigenSet:
    """Ritz pairs with residuals; count_negative tracks N0.
    count_birman_schwinger is the independent count of eigenvalues below the
    cut (None when not computed)."""

    eigenvalues: List[float]
    vectors: List[Field]
    residuals: List[float]
    count_birman_schwinger: Optional[int] = None

    @property
    def count_negative(self) -> int:
        return sum(1 for e in self.eigenvalues if e < 0)

    def __len__(self) -> int:
        return len(self.eigenvalues)


class LanczosError(RuntimeError):
    """An eigensolve did not converge."""


def lanczos_extreme(h: Hamiltonian, k: int,
                    rng: Optional[np.random.Generator] = None,
                    tol: float = 0.0) -> EigenSet:
    """The k lowest eigenpairs in ascending order, from one ARPACK run on H
    restricted to real vectors.

    ARPACK stops when every Ritz pair (theta, x) has ||H x - theta x|| <=
    tol |theta| (Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998); tol 0
    means machine precision.  H maps real vectors to real vectors (V is real
    and the symbol is real and even), and the real symmetric solver returns
    orthonormal vectors inside a degenerate level.  The start vector is drawn
    from rng, so results are deterministic.  Raises LanczosError when ARPACK
    does not converge.
    """
    if k > 50:
        raise ValueError(f"k capped at 50, got {k}")
    size = h.grid.size
    if rng is None:
        rng = np.random.default_rng(0)
    op = LinearOperator((size, size), dtype=np.float64, matvec=h.apply)
    try:
        vals, vecs = eigsh(op, k=k, which="SA", tol=tol,
                           v0=rng.standard_normal(size))
    except ArpackNoConvergence as exc:
        raise LanczosError(
            f"ARPACK unconverged for {k} eigenpairs: {exc}") from exc
    out_vals, out_vecs, out_res = [], [], []
    for idx in np.argsort(vals):
        vec = vecs[:, idx]
        out_vals.append(float(vals[idx]))
        out_vecs.append(Field(h.grid, vec.reshape(h.grid.shape)))
        out_res.append(float(np.linalg.norm(h.apply(vec) - vals[idx] * vec)))
    return EigenSet(out_vals, out_vecs, out_res)


def negative_spectrum(h: Hamiltonian) -> EigenSet:
    """All eigenvalues below -tau_neg, tau_neg = 1e-6 max(1, max|V|), with
    eigenvectors and the Birman-Schwinger count of them.

    The lowest k pairs are computed from one seed-0 stream, k capped at 50 and
    at size - 1.  k starts at the smallest 4 * 2^j holding twice the count
    (at 4 when the support is too large to count) and doubles while more than
    half of the pairs lie below -tau_neg or fewer than the count do.
    Lanczos sees a second copy of a degenerate level only once rounding has
    grown it from the start vector, and the pairs above the cut give it the
    iterations to do so (with only one pair above the cut, copies were missed
    on 12^3 test wells).  A missed copy leaves fewer pairs below the cut than
    the count, so with a count the solve stops at ARPACK's tol 1e-10 (relative
    residual) and the count catches a miss; without one it converges to
    machine precision, as nothing else would.
    """
    tau_neg = 1e-6 * max(1.0, h.potential.max_abs)
    count = birman_schwinger_count(h.potential, h._symbol, tau_neg)
    tol = 0.0 if count is None else 1e-10
    rng = np.random.default_rng(0)
    k_max = min(50, h.grid.size - 1)
    k = 4
    while count is not None and 2 * count > k:
        k *= 2
    k = min(k, k_max)
    while True:
        es = lanczos_extreme(h, k, rng=rng, tol=tol)
        below = sum(1 for e in es.eigenvalues if e < -tau_neg)
        missing = count is not None and below < count
        if (2 * below <= k and not missing) or (k == k_max and below < k):
            break
        if k == k_max:
            raise RuntimeError(f"more than {k} eigenvalues below -{tau_neg:g}")
        k = min(2 * k, k_max)
    return EigenSet(es.eigenvalues[:below], es.vectors[:below],
                    es.residuals[:below], count)


def clr_check(h: Hamiltonian, c: float) -> Tuple[int, float, bool]:
    """Bound-state count against the semiclassical bound
    N0 <= c * h^n sum |V_-|^{n/2m} (only the attractive part binds)."""
    n0 = h.eigenset().count_negative
    p = h.grid.n / (2.0 * h.m)
    bound = c * h.grid.cell_volume * float(np.sum(np.abs(h.potential.values) ** p))
    return n0, bound, n0 <= bound


def repulsive_check(pot: Potential) -> Tuple[bool, bool]:
    """(repulsive, nonnegative) flags: repulsive means x . grad V <= tau_grad
    everywhere (spectral gradient); nonneg means min V >= -tau_grad, with
    tau_grad = 1e-6 max(1, max|V|)."""
    grid = pot.grid
    tau_grad = 1e-6 * max(1.0, pot.max_abs)
    coords = grid.coords()
    freqs = grid.freqs()
    radial = np.zeros(grid.shape)
    for a in range(grid.n):
        radial += coords[a] * apply_symbol(pot.values, 1j * freqs[a]).real
    repulsive = bool(np.max(radial) <= tau_grad)
    nonneg = bool(np.min(pot.values) >= -tau_grad)
    return repulsive, nonneg


def projector_ac(h: Hamiltonian, f: Field) -> Field:
    """P_ac f = f minus projections onto all computed bound states."""
    es = h.eigenset()
    out = f.values.copy()
    for psi in es.vectors:
        # eigenvectors are unit in the flat l2 sense; projection uses the same
        coeff = np.vdot(psi.values.reshape(-1), out.reshape(-1))
        out = out - coeff * psi.values
    return Field(h.grid, out)


def _chebyshev_coeffs(args: np.ndarray, tol: float) -> np.ndarray:
    """Coefficients (2 - delta_k0) i^k J_k(a) for every argument a (rows)
    and order k (columns), truncated once eight consecutive orders fall below
    tol at every argument."""
    a_max = float(np.max(np.abs(args), initial=0.0))
    kmax = int(a_max) + 200 + int(40 * max(1.0, a_max) ** (1.0 / 3.0))
    cols = []
    small = 0
    for k in range(kmax + 1):
        c = (2.0 if k else 1.0) * (1j ** k) * jv(k, args)
        cols.append(c)
        if np.max(np.abs(c), initial=0.0) < tol:
            small += 1
            if small >= 8:
                break
        else:
            small = 0
    return np.stack(cols, axis=-1)


#: Chebyshev vectors held at once; each block is folded into the output
#: with one (times x block) @ (block x points) product.
_BLOCK = 32


def propagate(h: Hamiltonian, psi0: Field, times: Sequence[float]) -> List[Field]:
    """e^{itH} psi0 at each requested time via the Chebyshev expansion of the
    exponential scaled to the spectral interval.

    One recurrence T_k(H~) psi0 serves every output time (Tal-Ezer & Kosloff
    1984): the vectors do not depend on t, so each state is sum_k c_k(t)
    T_k(H~) psi0, truncated once the coefficients fall below 1e-12 at the
    largest |t|.  H~ is H scaled to spectral_bounds padded by 1 %; those
    bounds contain the spectrum, so |H~| < 1 and the recurrence stays bounded.
    """
    times = np.asarray(list(times), dtype=float)
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted ascending")
    grid = h.grid
    e_min, e_max = h.spectral_bounds
    half = 0.5 * (e_max - e_min) * 1.01 + 1e-12
    mid = 0.5 * (e_max + e_min)
    coeffs = _chebyshev_coeffs(half * times, 1e-12)
    coeffs *= np.exp(1j * mid * times)[:, None]
    v0 = psi0.values.reshape(-1).astype(np.complex128)
    out = np.zeros((times.size, v0.size), dtype=np.complex128)
    block = np.empty((min(_BLOCK, coeffs.shape[1]), v0.size), dtype=np.complex128)
    prev = cur = v0
    for start in range(0, coeffs.shape[1], _BLOCK):
        stop = min(start + _BLOCK, coeffs.shape[1])
        for k in range(start, stop):
            if k == 1:
                prev, cur = v0, (h.apply(v0) - mid * v0) / half
            elif k > 1:
                prev, cur = cur, 2.0 * (h.apply(cur) - mid * cur) / half - prev
            block[k - start] = cur
        out += coeffs[:, start:stop] @ block[:stop - start]
    return [Field(grid, row.reshape(grid.shape)) for row in out]


def duhamel(h: Hamiltonian, forcing: Sequence[Field], f_times: Sequence[float],
            times: Sequence[float]) -> List[Field]:
    """i * integral_0^t e^{i(t-s)H} F(s) ds by composite trapezoid over the
    forcing sample times, stepping the accumulated integral forward with the
    propagator between samples."""
    f_times = np.asarray(list(f_times), dtype=float)
    if len(forcing) != f_times.size:
        raise ValueError("forcing and f_times length mismatch")
    if np.any(np.diff(f_times) <= 0):
        raise ValueError("f_times must be strictly increasing")
    times = list(times)
    for t in times:
        if not np.any(np.isclose(f_times, t, rtol=0, atol=1e-12)):
            raise ValueError(f"output time {t} is not a forcing sample time")

    grid = h.grid
    acc = np.zeros(grid.size, dtype=np.complex128)
    out: List[Field] = []
    ti = 0
    fvals = [f.values.reshape(-1).astype(np.complex128) for f in forcing]
    for j in range(f_times.size):
        if j > 0:
            # trapezoid step by linearity: one propagation per interval
            dt = f_times[j] - f_times[j - 1]
            acc = acc + 0.5j * dt * fvals[j - 1]
            acc = propagate(h, Field(grid, acc.reshape(grid.shape)),
                            [dt])[0].values.reshape(-1)
            acc = acc + 0.5j * dt * fvals[j]
        while ti < len(times) and np.isclose(times[ti], f_times[j], rtol=0, atol=1e-12):
            out.append(Field(grid, acc.reshape(grid.shape)))
            ti += 1
    return out
