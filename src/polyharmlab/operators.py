"""Matrix-free operator-norm estimation by power iteration on A* A.

Operator norms on weighted spaces are never assembled: the factors (pointwise
weights, Fourier multipliers, dense Birman-Schwinger solves) are applied as
callables on flat vectors, complex or, for a real operator, real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import apply_symbol


@dataclass
class NormEstimate:
    norm: float
    iterations: int
    residual: float
    converged: bool
    vector: Optional[np.ndarray] = None  # final iterate, usable as warm start


def operator_norm(
    apply_a: Callable[[np.ndarray], np.ndarray],
    apply_a_adjoint: Callable[[np.ndarray], np.ndarray],
    size: int,
    rng: Optional[np.random.Generator] = None,
    max_iter: int = 50,
    rtol: float = 1e-6,
    start: Optional[np.ndarray] = None,
) -> NormEstimate:
    """Largest singular value of A via power iteration on A* A.

    Stops after max_iter iterations or when the Rayleigh quotient stagnates to
    relative tolerance rtol, whichever comes first; the estimate is converged
    when the quotient stagnated or the last residual is below sqrt(rtol).
    The iterates keep the start's arithmetic: a real start stays real as
    long as A and A* map real vectors to real ones, so a real operator runs
    real transforms.  Without a start the iteration starts from a complex
    Gaussian draw from rng.  The residual and the next iterate are formed in
    the buffer of the iterate, so an iteration holds the iterate and A* A v.

    start is consumed: a contiguous float64 or complex128 start is the
    first iterate in its own buffer, so a caller that passes the vector of
    an earlier estimate as a warm start holds no copy of it, and a caller
    that still needs start passes a copy.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if start is not None:
        start = np.asarray(start)
        v = start.astype(np.result_type(start, np.float64),
                         copy=False).reshape(-1)
    else:
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ValueError("zero start vector")
    v /= nv
    rho_prev = None
    rho = 0.0
    residual = np.inf
    stagnated = False
    it = 0
    for it in range(1, max_iter + 1):
        w = apply_a_adjoint(apply_a(v))
        rho = float(np.real(np.vdot(v, w)))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return NormEstimate(0.0, it, 0.0, True, v)
        if v.dtype != w.dtype:
            v = v.astype(w.dtype)  # a real start under a complex operator
        v *= rho
        np.subtract(w, v, out=v)
        residual = float(np.linalg.norm(v) / nw)
        np.divide(w, nw, out=v)
        del w  # the next A* A v takes its place
        stagnated = (rho_prev is not None
                     and abs(rho - rho_prev) <= rtol * max(abs(rho), 1e-300))
        if stagnated:
            break
        rho_prev = rho
    converged = bool(stagnated or residual < np.sqrt(rtol))
    return NormEstimate(float(np.sqrt(max(rho, 0.0))), it, residual, converged, v)


def weighted_multiplier(w_out: np.ndarray, sym: np.ndarray, w_in: np.ndarray
                        ) -> Tuple[Callable[[np.ndarray], np.ndarray],
                                   Callable[[np.ndarray], np.ndarray]]:
    """(A, A*) on flat vectors for A = W_out m(D) W_in, with pointwise real
    weights and the lattice symbol sym of m(D) (grid-shaped arrays), and
    A* = W_in conj(m)(D) W_out, which applies conj(sym) without a conjugated
    copy of sym.  Real weights and a real symbol keep a real vector real:
    apply_symbol's real transforms.  Each apply transforms its own weighted
    temporary in place."""
    def sandwich(left, right, adjoint):
        def apply(vec: np.ndarray) -> np.ndarray:
            out = apply_symbol(right * vec.reshape(sym.shape), sym,
                               adjoint=adjoint, overwrite=True)
            out *= left
            return out.reshape(-1)
        return apply

    return sandwich(w_out, w_in, False), sandwich(w_in, w_out, True)
