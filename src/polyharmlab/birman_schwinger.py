"""Dense Birman-Schwinger operator M(z) = I + w R0(z) v on the potential's
support set, the bound-state count, the perturbed resolvent, and the
limiting-absorption sweep of ||M^{-1}||.

The sandwiched resolvent w R0(z) v is translation-invariant between grid
points, so the dense block is gathered from a single resolvent column (the
multiplier applied to a delta at the origin index) instead of one transform
per support point, in row panels written straight into the preallocated block
(an assembly peaks at about the block); the result is identical to the
column-by-column definition.

Since V is real, w = U v with U = sgn V, a signature matrix on the support,
and the block is held as the complex-symmetric S = U M = U + v R0(z) v
(S^T = S, not Hermitian).  One Bunch-Kaufman LDL^T of S (LAPACK sytrf, in
place) serves everything: M^{-1} b = S^{-1} U b, M^{-H} b = U conj(S^{-1}
conj b), and sigma_min(M) = sigma_min(S) = lambda_max(S^{-H} S^{-1})^{-1/2}
from ARPACK.  Also M(z-bar) = U M(z)^H U: sigma_min(M(z-bar)) =
sigma_min(M(z)) and v M(z-bar)^{-1} w = w M(z)^{-H} v, so the sweep factors
one block per pair z, z-bar and the perturbed resolvent at z-bar can use the
block of z.

The bound-state count reads the inertia of the real block U + v (H0 + tau)^{-1} v
from one LDL^T (Sylvester's law of inertia).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .grid import ConfigError, GridSpec, apply_symbol
from .potentials import Potential
from .reporting import ProbeReport
from .resolvent import ResolventQuery, resolvent_symbol_array

#: At 6000 points the complex block is 549 MiB; the support x support int64
#: offsets of a one-shot gather added 275 MiB, the row panels add none.
DEFAULT_SUPPORT_CAP = 6000

#: Rows per gather panel: 16-32 were the fastest of 16-256 at 1419 points.
GATHER_PANEL_ROWS = 32

#: Largest support on which birman_schwinger_count factors its block: one
#: O(n^3) LDL^T in place, measured at 5 ms for 619 points, 41 ms for 1419,
#: 81 ms for 1863 and 0.10 s for 2048 (2-core Xeon), against about 0.5 s
#: for one eigensolve at 16^3.
COUNT_SUPPORT_CAP = 2048

#: ARPACK's Lanczos basis size and relative tolerance for sigma_min.  Over
#: the benchmark's spectral and lab blocks and the dipole test blocks,
#: ncv = 8 took the fewest applications of the sizes 4-20 (9 per spectral
#: block, 17 on average, at most 29).
SIGMA_MIN_NCV = 8
SIGMA_MIN_TOL = 1e-12


def _base_column(grid: GridSpec, sym: np.ndarray) -> np.ndarray:
    """The multiplier sym applied to the delta at flat index 0; every other
    column of the grid operator is a periodic shift of this one."""
    delta = np.zeros(grid.shape)
    delta[(0,) * grid.n] = 1.0
    return apply_symbol(delta, sym)


def _symmetric_ldlt(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """Bunch-Kaufman LDL^T of the symmetric (for complex: not Hermitian)
    C-ordered square block, written over its memory.

    LAPACK sytrf factors the F-ordered transpose view, which is the same
    symmetric matrix read from the opposite triangle; f2py would copy the
    C-ordered block itself.  Returns (ldu, ipiv, info) with ldu that view;
    info > 0 marks an exactly zero pivot."""
    view = block.T
    sytrf, sytrf_lwork = scipy.linalg.get_lapack_funcs(("sytrf", "sytrf_lwork"),
                                                       (view,))
    lwork = int(np.real(sytrf_lwork(view.shape[0], lower=1)[0]))
    ldu, ipiv, info = sytrf(view, lower=1, lwork=lwork, overwrite_a=1)
    if info < 0:
        raise ValueError(f"sytrf: illegal argument {-info}")
    return ldu, ipiv, int(info)


@dataclass
class BSMatrix:
    """M(z) = I + w R0(z) v restricted to the potential's support set, held
    as S = U M = U + v R0(z) v with U = diag(signs) = sgn V (module
    docstring).  The first use of `factors` overwrites `matrix` with the
    LDL^T factors of S, so the block is never held twice."""

    query: ResolventQuery
    matrix: np.ndarray  # S, C-ordered; its LDL^T factors once factored
    signs: np.ndarray  # the diagonal of U, +/-1 per support point
    support: np.ndarray  # flat grid indices, sorted

    @property
    def size(self) -> int:
        return int(self.support.size)

    @cached_property
    def factors(self) -> tuple:
        """(ldu, ipiv, info) of S in place; info > 0 (an exactly zero
        pivot) marks M singular."""
        return _symmetric_ldlt(self.matrix)

    def solve(self, rhs: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """M^{-1} rhs = S^{-1} U rhs, or M^{-H} rhs = U conj(S^{-1} conj rhs)
        with adjoint=True."""
        if self.factors[2] > 0:
            raise scipy.linalg.LinAlgError(f"M({self.query.z}) is singular")
        signs = self.signs if np.ndim(rhs) == 1 else self.signs[:, None]
        if adjoint:
            return signs * _sym_solve(self.factors, np.conj(rhs)).conj()
        return _sym_solve(self.factors, signs * rhs)


def _sym_solve(factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """S^{-1} rhs from the LDL^T factors of S, overwriting rhs when LAPACK
    can take it as is."""
    ldu, ipiv, _ = factors
    sytrs = scipy.linalg.get_lapack_funcs("sytrs", (ldu, rhs))
    x, info = sytrs(ldu, ipiv, rhs, lower=1, overwrite_b=1)
    if info < 0:
        raise ValueError(f"sytrs: illegal argument {-info}")
    return x


class SigmaMinError(RuntimeError):
    """The smallest-singular-value solve did not converge."""


def sigma_min(factors: tuple) -> Tuple[float, int]:
    """(sigma_min(S), operator applications) from the LDL^T factors of a
    complex-symmetric S (BSMatrix.factors); for a block, sigma_min(S) =
    sigma_min(M), since U is unitary.

    ARPACK (k = 1, ncv SIGMA_MIN_NCV, tol SIGMA_MIN_TOL, fixed-seed start)
    finds lambda_max of x -> S^{-H} S^{-1} x in its real form on
    [Re x; Im x], one application being y = S^{-1} x and then
    S^{-H} y = conj(S^{-1} conj y); the complex solver varied in the last
    digits between runs at two BLAS threads.  An exactly zero pivot gives
    0; no convergence raises."""
    ldu, _, info = factors
    nn = ldu.shape[0]
    if nn == 0:
        return 1.0, 0
    if info > 0:
        return 0.0, 0
    applications = 0

    def inverse_gram(x: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        y = _sym_solve(factors, x[:nn] + 1j * x[nn:])
        y = _sym_solve(factors, np.conjugate(y, out=y))
        return np.concatenate([y.real, -y.imag])

    op = LinearOperator((2 * nn, 2 * nn), matvec=inverse_gram, dtype=np.float64)
    try:
        lam = eigsh(op, k=1, which="LA", ncv=min(SIGMA_MIN_NCV, 2 * nn),
                    tol=SIGMA_MIN_TOL,
                    v0=np.random.default_rng(7).standard_normal(2 * nn),
                    return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise SigmaMinError(f"ARPACK unconverged on a {nn}-point block: {exc}") from exc
    return float(lam[0]) ** -0.5, applications


def _signed_block(pot: Potential, sym: np.ndarray,
                  support: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(U + v G v, U) on the support, G[i, j] = c[(idx_i - idx_j) mod N per
    axis] with c the base column of the grid multiplier sym, v = |V|^{1/2}
    and U = sgn V as a vector of +/-1.

    c tiled twice along every axis holds c[d mod N] at every d in [0, 2N)^n,
    so with F_i the flat index of support point i in that tile and C the
    flat index of (N, ..., N), entry (i, j) sits at flat index F_i - F_j + C.
    Panels of GATHER_PANEL_ROWS rows are gathered and scaled by v, rows
    first, straight into the block."""
    grid, npts = pot.grid, pot.grid.npts
    tile = np.tile(_base_column(grid, sym), (2,) * grid.n).reshape(-1)
    flat = np.ravel_multi_index(np.unravel_index(support, grid.shape),
                                (2 * npts,) * grid.n)
    shifted = flat + int(np.ravel_multi_index((npts,) * grid.n, (2 * npts,) * grid.n))
    values = pot.values.reshape(-1)[support]
    v = np.sqrt(np.abs(values))
    block = np.empty((support.size, support.size), dtype=tile.dtype)
    for start in range(0, support.size, GATHER_PANEL_ROWS):
        rows = slice(start, start + GATHER_PANEL_ROWS)
        panel = block[rows]
        # offsets are in the tile by construction; mode "raise" would buffer
        np.take(tile, shifted[rows, None] - flat[None, :], out=panel, mode="clip")
        panel *= v[rows, None]
        panel *= v[None, :]
    signs = np.sign(values)
    block[np.diag_indices(support.size)] += signs
    return block, signs


def birman_schwinger_count(pot: Potential, symbol: np.ndarray,
                           tau: float) -> Optional[int]:
    """Number of eigenvalues below -tau of the grid operator H0 + V, H0 the
    multiplier with the nonnegative lattice symbol `symbol`, or None when the
    support exceeds COUNT_SUPPORT_CAP.

    With U = sgn V, v = |V|^{1/2} and G = (H0 + tau)^{-1} on the support,
    Sylvester's law of inertia gives n_-(H + tau) = n_+(U + v G v) - n_+(U)
    (Birman 1961; Schwinger 1961).  n_+ of the real symmetric block is read
    from one Bunch-Kaufman LDL^T: its positive 1x1 pivots plus one per 2x2
    pivot block, which has one eigenvalue of each sign.  V is taken on
    pot.support_indices(), so points with |V| <= tau_supp are left out."""
    support = pot.support_indices()
    if support.size > COUNT_SUPPORT_CAP:
        return None
    if support.size == 0:
        return 0
    block, signs = _signed_block(pot, 1.0 / (symbol + tau), support)
    ldu, ipiv, _ = _symmetric_ldlt(block)
    # an exactly zero 1x1 pivot (info > 0) counts as not positive
    pivots = np.diagonal(ldu)[ipiv > 0]
    positive = np.count_nonzero(pivots > 0) + np.count_nonzero(ipiv < 0) // 2
    return int(positive - np.count_nonzero(signs > 0))


def assemble_M(pot: Potential, q: ResolventQuery) -> BSMatrix:
    """M(z) = I + w R0(z) v on the support set, as the dense S = U M =
    U + v R0(z) v (BSMatrix)."""
    grid = pot.grid
    support = pot.support_indices()
    if support.size > DEFAULT_SUPPORT_CAP:
        raise ConfigError(
            f"support set size {support.size} exceeds dense cap {DEFAULT_SUPPORT_CAP}"
        )
    if support.size == 0:
        return BSMatrix(q, np.zeros((0, 0), dtype=np.complex128), np.zeros(0),
                        support)
    block, signs = _signed_block(pot, resolvent_symbol_array(grid, q), support)
    return BSMatrix(q, block, signs, support)


def inv_norm_sweep(pot: Potential, m: int, lambdas: Sequence[float],
                   thetas: Sequence[float]) -> ProbeReport:
    """Table of ||M^{-1}(lambda +/- i theta)|| = 1 / sigma_min over the
    sweep.

    Per lambda (ascending) and theta > 0 (descending), the block of
    lambda + i theta serves the conjugate pair (module docstring): its
    sigma_min and ARPACK applications are recorded on a '+' and a '-' row.
    Sets the sup of the norms, plateau_ratio (the sup at the smallest theta
    over the sup at the next one) and the flag finite."""
    lambdas = np.asarray(sorted(lambdas), dtype=float)
    report = ProbeReport(
        name="inv_norm_sweep",
        params={"m": m, "n": pot.grid.n, "potential": pot.name},
    )
    thetas = np.sort(np.asarray(list(thetas), dtype=float))[::-1]
    if np.any(thetas <= 0):
        raise ConfigError("theta ladder must be positive")
    sup_by_theta = {}
    for lam in lambdas:
        for th in thetas:
            # the block lives only until sigma_min returns (peak memory)
            q = ResolventQuery(z=complex(lam, th), m=m, n=pot.grid.n)
            smin, applications = sigma_min(assemble_M(pot, q).factors)
            norm = 1.0 / smin if smin > 0 else np.inf
            for side in ("+", "-"):
                report.add_row(lam=lam, theta=th, side=side, norm=norm,
                               sigma_min=smin, iterations=applications)
            sup_by_theta[float(th)] = max(sup_by_theta.get(float(th), 0.0), norm)
    sup = report.metrics["sup"] = max(sup_by_theta.values(), default=0.0)
    ths = sorted(sup_by_theta)
    if len(ths) >= 2:
        a, b = sup_by_theta[ths[0]], sup_by_theta[ths[1]]
        report.metrics["plateau_ratio"] = a / b if b else np.inf
    report.passes["finite"] = bool(np.isfinite(sup))
    return report


def perturbed_resolvent_apply(pot: Potential, q: ResolventQuery,
                              values: np.ndarray,
                              bs: Optional[BSMatrix] = None) -> np.ndarray:
    """R(z) f for H = (-Delta)^m + V and the samples f = values (flat or
    grid-shaped), with grid shape, via the factorized second-resolvent
    formula R = R0 - R0 v M^{-1} w R0 with M = I + w R0 v.

    (With M in this convention the inner factors must appear in the order
    v M^{-1} w for mixed-sign V; for sign-definite V the orders coincide.)
    bs may also be the block of the conjugate point z-bar: then
    v M(z)^{-1} w = w M(z-bar)^{-H} v is applied from its factors."""
    grid = pot.grid
    if bs is None:
        bs = assemble_M(pot, q)
    conjugate = complex(bs.query.z) != complex(q.z)
    if conjugate and complex(bs.query.z) != complex(q.z).conjugate():
        raise ValueError(f"block of z = {bs.query.z} given for z = {q.z}")
    sym = resolvent_symbol_array(grid, q)
    g0 = apply_symbol(np.reshape(values, grid.shape), sym)
    if bs.size == 0:
        return g0
    support = bs.support
    w = pot.w().reshape(-1)[support]
    v = pot.v().reshape(-1)[support]
    left, right = (v, w) if conjugate else (w, v)
    coeffs = bs.solve(left * g0.reshape(-1)[support], adjoint=conjugate)
    spread = np.zeros(grid.size, dtype=np.complex128)
    spread[support] = right * coeffs
    correction = apply_symbol(spread.reshape(grid.shape), sym)
    return g0 - correction
