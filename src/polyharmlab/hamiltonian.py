"""Matrix-free Hamiltonian H = (-Delta)^m + V: eigensolvers, bound-state
counting, the absolutely-continuous projector, and time propagation.

Eigenpairs come from LOBPCG (scipy.sparse.linalg.lobpcg) on H as a real
symmetric operator, applied in real arithmetic and preconditioned by the
inverse kinetic symbol, so its iteration count does not grow with the
spectral width as the grid is refined.  The negative spectrum is the lowest
k pairs, with k sized by the exact Birman-Schwinger count (count + 1,
doubled until no copy of a level is missing) or, when the support is too
large to count, started at 4 and doubled until at most half of them lie
below the cut; multiplicities are captured without deflation.  Every pair
below the cut meets one absolute residual bound on both paths, and a solve
that leaves one above it raises instead of truncating the count.

Every time sum is one Chebyshev series in H scaled to the spectral interval,
summed by one recurrence with one matvec per term: propagate's states
e^{itH} psi0 and propagate_adjoint's sum_k e^{-i t_k H} g_k (Clenshaw).

A stack of states (eigenvectors, propagated states) is one array whose
leading axis indexes the states and whose other axes are the grid's shape.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import lobpcg

from .birman_schwinger import birman_schwinger_count
from .grid import GridSpec, apply_symbol, slabs
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
        complex input.  values is left unchanged.  V is added one slab at
        a time (slabs), so the only grid-sized temporaries are the
        transform's."""
        vals = np.asarray(values).reshape(self.grid.shape)
        out = apply_symbol(vals, self._symbol)
        for rows in slabs(out.shape):
            out[rows] += self.potential.values[rows] * vals[rows]
        return out.reshape(np.shape(values))

    def eigenset(self) -> "EigenSet":
        if self._eigenset is None:
            self._eigenset = negative_spectrum(self)
        return self._eigenset


@dataclass
class EigenSet:
    """Ritz pairs with residuals; count_negative tracks N0.  vectors is the
    complex128 stack of the eigenvectors, unit in the flat l2 sense.
    count_birman_schwinger is the independent count of eigenvalues below the
    cut (None when not computed)."""

    eigenvalues: List[float]
    vectors: np.ndarray
    residuals: List[float]
    count_birman_schwinger: Optional[int] = None

    @property
    def count_negative(self) -> int:
        return sum(1 for e in self.eigenvalues if e < 0)

    def __len__(self) -> int:
        return len(self.eigenvalues)


class LanczosError(RuntimeError):
    """An eigensolve left a pair below its cut above RESIDUAL_TOL."""


#: Every returned pair below the cut has ||H x - theta x|| <= RESIDUAL_TOL
#: (absolute, x unit in the flat l2 sense).
RESIDUAL_TOL = 1e-10
#: Shift sigma of the kinetic preconditioner (|xi|^{2m} + sigma)^{-1}.
PRECONDITIONER_SHIFT = 1.0
#: LOBPCG iterations per run, and runs per solve: a run that leaves a pair
#: below the cut above RESIDUAL_TOL is restarted from its Ritz vectors.
RUN_ITERATIONS = 40
MAX_RUNS = 5


def _per_column(fn: Callable) -> Callable:
    """The block map X -> [fn(x_1), ..., fn(x_k)] of a map on one vector."""
    def block(cols: np.ndarray) -> np.ndarray:
        out = np.empty(cols.shape)
        for j in range(cols.shape[1]):
            out[:, j] = fn(cols[:, j])
        return out
    return block


def lanczos_extreme(h: Hamiltonian, k: int,
                    rng: Optional[np.random.Generator] = None,
                    cut: float = np.inf) -> EigenSet:
    """The k lowest Ritz pairs in ascending order, from LOBPCG on H
    restricted to real vectors; raises LanczosError unless every pair below
    cut has ||H x - theta x|| <= RESIDUAL_TOL.

    LOBPCG (Knyazev, SIAM J. Sci. Comput. 23 (2001) 517) is preconditioned
    by the kinetic symbol (|xi|^{2m} + PRECONDITIONER_SHIFT)^{-1} through
    apply_symbol (Teter, Payne & Allan, Phys. Rev. B 40 (1989) 12255), so
    its rate does not degrade with the spectral width (pi/h)^{2m} as
    Lanczos's does.  H and the preconditioner act one column at a time,
    H through Hamiltonian.apply.  A run stops once every pair meets
    RESIDUAL_TOL or after RUN_ITERATIONS; the residuals are then recomputed
    here, and only the pairs below cut are judged, for continuum pairs
    above it can converge far more slowly.  Up to MAX_RUNS runs are made.
    H maps real vectors to real vectors (V is real and the symbol is real
    and even).  The start block is drawn from rng, so results are
    deterministic.  The name is that of the Lanczos solver this replaced;
    the benchmark traces the layer under it.
    """
    if k > 50:
        raise ValueError(f"k capped at 50, got {k}")
    if rng is None:
        rng = np.random.default_rng(0)
    inverse = 1.0 / (h._symbol + PRECONDITIONER_SHIFT)
    matmat = _per_column(h.apply)
    precondition = _per_column(lambda col: apply_symbol(
        col.reshape(h.grid.shape), inverse).reshape(-1))
    vecs = rng.standard_normal((k, h.grid.size)).T
    for _ in range(MAX_RUNS):
        with warnings.catch_warnings():
            # lobpcg warns when it stops short of tol; the check below decides
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs = lobpcg(matmat, vecs, M=precondition, tol=RESIDUAL_TOL,
                                maxiter=RUN_ITERATIONS, largest=False)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        residuals = np.array([np.linalg.norm(h.apply(vec) - val * vec)
                              for val, vec in zip(vals, vecs.T)])
        loose = (vals < cut) & (residuals > RESIDUAL_TOL)
        if not loose.any():
            return EigenSet([float(val) for val in vals],
                            vecs.T.astype(np.complex128, order="C").reshape(
                                (k,) + h.grid.shape),
                            [float(res) for res in residuals])
    raise LanczosError(
        f"{int(loose.sum())} of {k} pairs below {cut:g} above residual "
        f"{RESIDUAL_TOL:g} after {MAX_RUNS} runs of {RUN_ITERATIONS} LOBPCG "
        f"iterations: theta {vals[loose]}, residuals {residuals[loose]}")


def negative_spectrum(h: Hamiltonian) -> EigenSet:
    """All eigenvalues below -tau_neg, tau_neg = 1e-6 max(1, max|V|), with
    eigenvectors and the Birman-Schwinger count of them.

    The lowest k pairs come from lanczos_extreme, every solve drawing its
    start block from one seed-0 stream, k capped at 50 and at size - 1.
    LOBPCG resolves a degenerate level whole when the block holds one pair
    above it.  With the count, k starts at count + 1 and doubles while fewer
    than the count lie below -tau_neg or none lies above it.  Without one
    (support too large to count), k starts at 4 and doubles while more than
    half of the pairs lie below -tau_neg.  Either way only the pairs below
    the cut are held to RESIDUAL_TOL: the continuum pairs above it converge
    slowly and are not returned.
    """
    tau_neg = 1e-6 * max(1.0, h.potential.max_abs)
    count = birman_schwinger_count(h.potential, h._symbol, tau_neg)
    rng = np.random.default_rng(0)
    k_max = min(50, h.grid.size - 1)
    k = min(4 if count is None else count + 1, k_max)
    while True:
        es = lanczos_extreme(h, k, rng=rng, cut=-tau_neg)
        below = sum(1 for e in es.eigenvalues if e < -tau_neg)
        done = 2 * below <= k if count is None else count <= below < k
        if done or (k == k_max and below < k):
            break
        if k == k_max:
            raise RuntimeError(f"more than {k} eigenvalues below -{tau_neg:g}")
        k = min(2 * k, k_max)
    return EigenSet(es.eigenvalues[:below], es.vectors[:below].copy(),
                    es.residuals[:below], count)


def clr_check(h: Hamiltonian, c: float) -> Tuple[int, float, bool]:
    """Bound-state count against the semiclassical bound
    N0 <= c * h^n sum V_-^{n/2m}, V_- = max(-V, 0) (only the attractive part
    binds, so a repulsive V has bound 0)."""
    n0 = h.eigenset().count_negative
    p = h.grid.n / (2.0 * h.m)
    attractive = np.maximum(-h.potential.values, 0.0)
    bound = c * h.grid.cell_volume * float(np.sum(attractive ** p))
    return n0, bound, n0 <= bound


def projector_ac(h: Hamiltonian, values: np.ndarray) -> np.ndarray:
    """P_ac f = f minus projections onto all computed bound states, for the
    samples values (flat or grid-shaped), as a complex128 array of their
    shape."""
    out = np.array(values, dtype=np.complex128)
    for psi in h.eigenset().vectors:
        # eigenvectors are unit in the flat l2 sense; projection uses the same
        out = out - np.vdot(psi, out) * psi.reshape(out.shape)
    return out


def _bessel_orders(mags: np.ndarray, kmax: int) -> np.ndarray:
    """J_k(a) for every a >= 0 in mags (rows) and order k = 0..kmax
    (columns), from one backward recurrence J_{k-1} = (2k/a) J_k - J_{k+1}
    (Miller's algorithm), started 30 orders above kmax and normalized by
    J_0 + 2 sum_k J_2k = 1.  A row is scaled down whenever it nears
    overflow; the orders above it then underflow harmlessly."""
    start = kmax + 30
    a = np.where(mags > 0, mags, 1.0)
    out = np.zeros((mags.size, start + 2))
    out[:, start] = 1e-300
    for k in range(start, 0, -1):
        out[:, k - 1] = (2.0 * k / a) * out[:, k] - out[:, k + 1]
        big = np.abs(out[:, k - 1]) > 1e250
        if big.any():
            out[big, k - 1:] *= 1e-250
    out /= (out[:, 0] + 2.0 * out[:, 2::2].sum(axis=1))[:, None]
    out[mags == 0] = 0.0
    out[mags == 0, 0] = 1.0
    return out[:, :kmax + 1]


def _chebyshev_coeffs(args: np.ndarray, tol: float) -> np.ndarray:
    """Coefficients (2 - delta_k0) i^k J_k(a) for every argument a (rows)
    and order k (columns), truncated once eight consecutive orders fall below
    tol at every argument.  All orders come at once per distinct |a|
    (_bessel_orders), with J_k(-a) = (-1)^k J_k(a)."""
    mags, row = np.unique(np.abs(args), return_inverse=True)
    a_max = float(mags[-1]) if mags.size else 0.0
    kmax = int(a_max) + 200 + int(40 * max(1.0, a_max) ** (1.0 / 3.0))
    order = np.arange(kmax + 1)
    weight = np.where(order > 0, 2.0, 1.0)
    bessel = _bessel_orders(mags, kmax)
    small = weight * np.max(np.abs(bessel), axis=0, initial=0.0) < tol
    runs = np.flatnonzero(np.convolve(small, np.ones(8), "valid") == 8)
    stop = runs[0] + 8 if runs.size else kmax + 1
    order = order[:stop]
    sign = np.where((args.reshape(-1, 1) < 0) & (order % 2 == 1), -1.0, 1.0)
    i_pow = np.array([1.0, 1j, -1.0, -1j])[order % 4]
    return (weight[:stop] * i_pow) * sign * bessel[row, :stop]


#: Chebyshev vectors held at once; each block is folded into the output
#: with one (rows x block) @ (block x points) product.
_BLOCK = 32


def _expansion(h: Hamiltonian, times: np.ndarray) -> Tuple[np.ndarray, Callable]:
    """Coefficients c_k(t) of e^{itH} = sum_k c_k(t) T_k(H~) for each time
    (rows) and order (columns), and H~ = (H - mid) / half: H scaled to
    spectral_bounds padded by 1 %.  Those bounds contain the spectrum, so
    |H~| < 1 and every recurrence in H~ stays bounded."""
    e_min, e_max = h.spectral_bounds
    half = 0.5 * (e_max - e_min) * 1.01 + 1e-12
    mid = 0.5 * (e_max + e_min)
    coeffs = _chebyshev_coeffs(half * times, 1e-12)
    coeffs *= np.exp(1j * mid * times)[:, None]
    return coeffs, lambda vec: (h.apply(vec) - mid * vec) / half


def propagate(h: Hamiltonian, psi0: np.ndarray,
              times: Sequence[float]) -> np.ndarray:
    """e^{itH} psi0 at each requested time, in any order, as the stack of
    shape (len(times),) + grid shape; psi0 is flat or grid-shaped.

    One recurrence T_k(H~) psi0 serves every output time (Tal-Ezer & Kosloff
    1984): the vectors do not depend on t, so each state is sum_k c_k(t)
    T_k(H~) psi0, truncated once the coefficients fall below 1e-12 at the
    largest |t|.
    """
    coeffs, scaled = _expansion(h, np.asarray(times, dtype=float))
    v0 = np.reshape(psi0, -1).astype(np.complex128)
    out = np.zeros((coeffs.shape[0], v0.size), dtype=np.complex128)
    block = np.empty((min(_BLOCK, coeffs.shape[1]), v0.size), dtype=np.complex128)
    prev = cur = v0
    for start in range(0, coeffs.shape[1], _BLOCK):
        stop = min(start + _BLOCK, coeffs.shape[1])
        for k in range(start, stop):
            if k == 1:
                prev, cur = v0, scaled(v0)
            elif k > 1:
                prev, cur = cur, 2.0 * scaled(cur) - prev
            block[k - start] = cur
        out += coeffs[:, start:stop] @ block[:stop - start]
    return out.reshape((len(times),) + h.grid.shape)


def propagate_adjoint(h: Hamiltonian, states: np.ndarray,
                      times: Sequence[float]) -> np.ndarray:
    """sum_k e^{-i t_k H} states[k], the adjoint of psi -> (e^{i t_k H} psi)_k,
    with grid shape.  states is a stack with one state per time.

    With propagate's coefficients c_j(t), the sum is sum_j T_j(H~) b_j with
    b_j = sum_k conj(c_j(t_k)) states[k].  Clenshaw's recurrence (Clenshaw
    1955) y_j = b_j + 2 H~ y_{j+1} - y_{j+2} sums it from the highest order
    down, one matvec per order; each block of b_j is built with one
    (block x times) @ (times x points) product as the recurrence reaches it.
    """
    coeffs, scaled = _expansion(h, np.asarray(times, dtype=float))
    snaps = np.asarray(states, dtype=np.complex128).reshape(coeffs.shape[0], -1)
    conj_t = coeffs.conj().T
    nxt = cur = np.zeros(snaps.shape[1], dtype=np.complex128)
    for stop in range(coeffs.shape[1], 0, -_BLOCK):
        start = max(stop - _BLOCK, 0)
        block = conj_t[start:stop] @ snaps
        for j in range(stop - 1, max(start, 1) - 1, -1):
            nxt, cur = cur, block[j - start] + 2.0 * scaled(cur) - nxt
    # order 0: b_0 + H~ y_1 - y_2, with y_1 in cur and y_2 in nxt
    return (block[0] + scaled(cur) - nxt).reshape(h.grid.shape)
