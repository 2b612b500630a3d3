"""Power-iteration operator-norm estimator against dense singular values."""

import numpy as np
import pytest

from polyharmlab.grid import GridSpec, apply_symbol
from polyharmlab.operators import NormEstimate, operator_norm, weighted_multiplier

RNG = np.random.default_rng(3)


def dense_pair(mat):
    return (lambda v: mat @ v), (lambda v: mat.conj().T @ v)


class TestOperatorNorm:
    def test_random_dense(self):
        for _ in range(5):
            mat = RNG.standard_normal((30, 30)) + 1j * RNG.standard_normal((30, 30))
            a, at = dense_pair(mat)
            est = operator_norm(a, at, 30, rng=RNG, max_iter=500, rtol=1e-12)
            top = np.linalg.svd(mat, compute_uv=False)[0]
            assert est.norm == pytest.approx(top, rel=1e-6)

    def test_diagonal_exact(self):
        d = np.array([3.0, -7.0, 2.0, 0.5])
        mat = np.diag(d).astype(complex)
        a, at = dense_pair(mat)
        est = operator_norm(a, at, 4, max_iter=300, rtol=1e-12)
        assert est.norm == pytest.approx(7.0, rel=1e-9)

    def test_zero_operator(self):
        mat = np.zeros((5, 5), dtype=complex)
        a, at = dense_pair(mat)
        est = operator_norm(a, at, 5)
        assert est.norm == 0.0
        assert est.converged

    def test_warm_start_speeds_convergence(self):
        mat = np.diag(np.linspace(1.0, 2.0, 40)).astype(complex)
        a, at = dense_pair(mat)
        cold = operator_norm(a, at, 40, max_iter=400, rtol=1e-12)
        warm = operator_norm(a, at, 40, max_iter=400, rtol=1e-12,
                             start=cold.vector)
        assert warm.iterations <= cold.iterations
        assert warm.norm == pytest.approx(2.0, rel=1e-6)

    def test_start_is_consumed_as_the_first_iterate(self):
        mat = np.diag(np.linspace(1.0, 2.0, 40)).astype(complex)
        a, at = dense_pair(mat)
        start = RNG.standard_normal(40) + 0j
        est = operator_norm(a, at, 40, max_iter=400, rtol=1e-12, start=start)
        assert np.shares_memory(est.vector, start)
        warm = operator_norm(a, at, 40, max_iter=400, rtol=1e-12,
                             start=est.vector)
        assert np.shares_memory(warm.vector, start)
        assert warm.norm == pytest.approx(2.0, rel=1e-6)

    def test_result_fields(self):
        mat = np.eye(3, dtype=complex)
        a, at = dense_pair(mat)
        est = operator_norm(a, at, 3)
        assert isinstance(est, NormEstimate)
        assert est.vector is not None and est.vector.shape == (3,)
        assert est.iterations >= 1

    def test_real_start_keeps_real_iterates(self):
        mat = RNG.standard_normal((20, 20))
        seen = []

        def a(v):
            seen.append(v.dtype)
            return mat @ v

        real = operator_norm(a, lambda v: mat.T @ v, 20, max_iter=500,
                             rtol=1e-12, start=RNG.standard_normal(20))
        assert real.vector.dtype == np.float64
        assert set(seen) == {np.dtype(np.float64)}
        cplx = operator_norm(*dense_pair(mat), 20, max_iter=500, rtol=1e-12)
        assert real.norm == pytest.approx(cplx.norm, rel=1e-9)
        assert real.norm == pytest.approx(np.linalg.norm(mat, 2), rel=1e-9)
        # a complex operator turns a real start's iterates complex
        cmat = mat + 1j * RNG.standard_normal((20, 20))
        mixed = operator_norm(*dense_pair(cmat), 20, max_iter=500, rtol=1e-12,
                              start=RNG.standard_normal(20))
        assert mixed.vector.dtype == np.complex128
        assert mixed.norm == pytest.approx(np.linalg.norm(cmat, 2), rel=1e-9)

    def test_stagnation_on_the_last_iteration_converges(self):
        # A* A = diag(1, 0.01) from a start near its lower eigenvector: the
        # quotient moves by 20 % from iteration 1 to 2, within rtol = 0.5,
        # while the residual stays above sqrt(rtol)
        d = np.array([1.0, 0.1])
        a = lambda v: d * v
        est = operator_norm(a, a, 2, max_iter=2, rtol=0.5,
                            start=np.array([0.0005, 1.0]))
        assert est.iterations == 2
        assert est.residual > np.sqrt(0.5)
        assert est.converged is True
        capped = operator_norm(a, a, 2, max_iter=2, rtol=0.1,
                               start=np.array([0.0005, 1.0]))
        assert capped.converged is False

    def test_zero_start_rejected(self):
        mat = np.eye(3, dtype=complex)
        a, at = dense_pair(mat)
        with pytest.raises(ValueError):
            operator_norm(a, at, 3, start=np.zeros(3))


class TestWeightedMultiplier:
    GRID = GridSpec(3, 6, 2.0)

    def dense(self, w_out, sym, w_in):
        """W_out m(D) W_in column by column."""
        cols = [w_out * apply_symbol(w_in * e.reshape(self.GRID.shape), sym)
                for e in np.eye(self.GRID.size)]
        return np.stack([c.reshape(-1) for c in cols], axis=1)

    def test_apply_and_adjoint_match_dense(self):
        g = self.GRID
        w_out, w_in = 1.0 + RNG.random(g.shape), 1.0 + RNG.random(g.shape)
        sym = 1.0 / (g.xi_radii() ** 2 - (0.7 + 0.3j))
        apply, adjoint = weighted_multiplier(w_out, sym, w_in)
        mat = self.dense(w_out, sym, w_in)
        v = RNG.standard_normal(g.size) + 1j * RNG.standard_normal(g.size)
        np.testing.assert_allclose(apply(v), mat @ v, atol=1e-12)
        np.testing.assert_allclose(adjoint(v), mat.conj().T @ v, atol=1e-12)

    def test_real_symbol_stays_real(self):
        g = self.GRID
        w = 1.0 / (1.0 + g.radii())
        apply, adjoint = weighted_multiplier(w, g.xi_radii(), w)
        v = RNG.standard_normal(g.size)
        assert apply(v).dtype == adjoint(v).dtype == np.float64
        np.testing.assert_allclose(apply(v), adjoint(v), atol=1e-12)
