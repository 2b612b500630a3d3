"""Matrix-free Hamiltonian: dense equivalence, eigensolvers, projector, and
Chebyshev propagation."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import lobpcg
from scipy.special import jv

from polyharmlab import birman_schwinger, hamiltonian
from polyharmlab.grid import (
    GridSpec,
    apply_symbol,
    forward_transform,
    norm_lp,
    samples_from_spectrum,
    slabs,
)
from polyharmlab.hamiltonian import (
    Hamiltonian,
    LanczosError,
    clr_check,
    lanczos_extreme,
    negative_spectrum,
    projector_ac,
    propagate,
)
from polyharmlab.potentials import Potential, bracket_decay, gaussian_well

RNG = np.random.default_rng(13)


def dense_matrix(h):
    sz = h.grid.size
    mat = np.zeros((sz, sz), dtype=np.complex128)
    eye = np.eye(sz)
    for j in range(sz):
        mat[:, j] = h.apply(eye[:, j].astype(np.complex128))
    return mat


# ---------------------------------------------------------------------------
# stepped Chebyshev propagation: restarts the recurrence at every output time,
# stepping from one time to the next.  Kept here as the independent oracle of
# the single-recurrence propagate.
# ---------------------------------------------------------------------------

def _stepped_coeffs(a, tol):
    """Coefficients (2 - delta_k0) i^k J_k(a) truncated when eight consecutive
    terms fall below tol."""
    coeffs = []
    k = 0
    small = 0
    kmax = int(abs(a)) + 200 + int(40 * max(1.0, abs(a)) ** (1.0 / 3.0))
    while k <= kmax:
        c = (2.0 if k else 1.0) * (1j ** k) * jv(k, a)
        coeffs.append(c)
        if abs(c) < tol:
            small += 1
            if small >= 8:
                break
        else:
            small = 0
        k += 1
    return np.array(coeffs)


def _stepped_run(h, psi0, times, half, mid, tol):
    grid = h.grid
    norm0 = np.linalg.norm(psi0)
    out = []
    cur = psi0.reshape(-1).astype(np.complex128)
    t_prev = 0.0

    def apply_scaled(vec):
        return (h.apply(vec) - mid * vec) / half

    for t in times:
        dt = t - t_prev
        if dt != 0.0:
            a = half * dt
            coeffs = _stepped_coeffs(a, tol * 1e-2)
            t0 = cur
            t1 = apply_scaled(cur)
            acc = coeffs[0] * t0
            if len(coeffs) > 1:
                acc = acc + coeffs[1] * t1
            for k in range(2, len(coeffs)):
                t2 = 2.0 * apply_scaled(t1) - t0
                nrm = np.linalg.norm(t2)
                if not np.isfinite(nrm) or nrm > 50.0 * max(norm0, 1e-300):
                    raise AssertionError("stepped oracle diverged")
                acc = acc + coeffs[k] * t2
                t0, t1 = t1, t2
            cur = np.exp(1j * mid * dt) * acc
            t_prev = t
        out.append(cur.reshape(grid.shape))
    return np.stack(out)


def _count_matvecs(monkeypatch, h):
    calls = []
    apply = h.apply
    monkeypatch.setattr(h, "apply", lambda vec: calls.append(1) or apply(vec))
    return calls


def _scaling(h):
    """half-width and centre of the spectral interval padded by 1 %, as
    propagate scales H."""
    e_min, e_max = h.spectral_bounds
    return 0.5 * (e_max - e_min) * 1.01 + 1e-12, 0.5 * (e_max + e_min)


def _unit_random(g):
    psi = RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape)
    return psi / norm_lp(g, psi, 2)


def _unit_real(g):
    psi = RNG.standard_normal(g.shape) + 0j
    return psi / norm_lp(g, psi, 2)


@pytest.fixture(scope="module")
def small_h():
    g = GridSpec(3, 4, 3.0)
    return Hamiltonian(g, 1, gaussian_well(g, 5.0))


@pytest.fixture(scope="module")
def small_dense(small_h):
    return dense_matrix(small_h)


class TestSpectralKernel:
    @pytest.mark.parametrize("n,npts,m", [(1, 16, 1), (1, 16, 2), (3, 8, 1), (3, 8, 2)])
    def test_apply_matches_centred_composition(self, n, npts, m):
        g = GridSpec(n, npts, 3.0)
        h = Hamiltonian(g, m, gaussian_well(g, 5.0))
        psi = RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape)
        kin = samples_from_spectrum(
            g, g.xi_radii() ** (2 * m) * forward_transform(g, psi))
        want = kin + h.potential.values * psi
        got = h.apply(psi)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_apply_matches_explicit_dft_matrix(self):
        # H = F^{-1} diag(|xi|^2) F + diag(V), with F the unitary continuum
        # DFT fhat(xi_k) = (2 pi)^{-1/2} sum_j f(x_j) e^{-i xi_k x_j} h
        g = GridSpec(1, 16, 3.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 5.0))
        x = g.axis_coords()
        xi = g.axis_freqs()
        fwd = g.h / np.sqrt(2.0 * np.pi) * np.exp(-1j * np.outer(xi, x))
        inv = g.h_xi / np.sqrt(2.0 * np.pi) * np.exp(1j * np.outer(x, xi))
        np.testing.assert_allclose(inv @ fwd, np.eye(g.size), atol=1e-12)
        want = inv @ np.diag(xi ** 2) @ fwd + np.diag(h.potential.values)
        got = dense_matrix(h)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", ["flat", "grid"])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_apply_on_arrays(self, small_h, small_dense, shape, dtype):
        # real input runs the real-arithmetic path, complex input the complex
        # one; both equal the dense H, keep the input's shape and dtype kind,
        # and leave the input alone
        g = small_h.grid
        vec = RNG.standard_normal(g.size).astype(dtype)
        if dtype is np.complex128:
            vec += 1j * RNG.standard_normal(g.size)
        arr = vec.reshape(g.shape) if shape == "grid" else vec.copy()
        before = arr.copy()
        out = small_h.apply(arr)
        assert out.shape == arr.shape and out.dtype == dtype
        np.testing.assert_allclose(out.reshape(-1), small_dense @ vec, rtol=0,
                                   atol=1e-12 * np.max(np.abs(small_dense)))
        np.testing.assert_array_equal(arr, before)
        assert arr.flags.writeable
        assert not np.shares_memory(out, arr)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_slab_wise_potential_term(self, dtype):
        # V is added slab by slab: bitwise the whole-grid sum
        g = GridSpec(3, 64, 8.0)
        assert len(list(slabs(g.shape))) >= 3
        h = Hamiltonian(g, 1, gaussian_well(g, 5.0))
        vals = RNG.standard_normal(g.shape).astype(dtype)
        if dtype is np.complex128:
            vals += 1j * RNG.standard_normal(g.shape)
        want = apply_symbol(vals, h._symbol) + h.potential.values * vals
        np.testing.assert_array_equal(h.apply(vals), want)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("k", [1, 3])
    def test_apply_on_a_stack(self, monkeypatch, dtype, k):
        # a (k,) + grid stack, over a grid of several slabs, takes one kernel
        # call and equals the whole-grid formula state by state, bitwise; the
        # (k, size) block of the same states keeps its shape
        g = GridSpec(3, 48, 8.0)
        assert len(list(slabs(g.shape))) >= 2
        h = Hamiltonian(g, 1, gaussian_well(g, 5.0))
        stack = RNG.standard_normal((k,) + g.shape).astype(dtype)
        if dtype is np.complex128:
            stack += 1j * RNG.standard_normal(stack.shape)
        before = stack.copy()
        want = np.stack([apply_symbol(state, h._symbol) + h.potential.values * state
                         for state in stack])
        calls = []
        inner = hamiltonian.apply_symbol
        monkeypatch.setattr(hamiltonian, "apply_symbol",
                            lambda *a, **kw: calls.append(1) or inner(*a, **kw))
        got = h.apply(stack)
        assert len(calls) == 1
        assert got.shape == stack.shape and got.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(h.apply(stack.reshape(k, -1)),
                                      want.reshape(k, -1))
        np.testing.assert_array_equal(stack, before)


class TestDenseEquivalence:
    def test_hermitian(self, small_dense):
        assert np.max(np.abs(small_dense - small_dense.conj().T)) < 1e-12

    def test_matvec(self, small_h, small_dense):
        vec = RNG.standard_normal(small_h.grid.size) + 1j * RNG.standard_normal(
            small_h.grid.size)
        np.testing.assert_allclose(small_h.apply(vec), small_dense @ vec,
                                   atol=1e-12 * np.max(np.abs(small_dense)))

    def test_spectral_bounds_contain_spectrum(self, small_h, small_dense):
        evals = np.linalg.eigvalsh(small_dense.real)
        lo, hi = small_h.spectral_bounds
        assert lo <= evals[0] and evals[-1] <= hi

    def test_lanczos_extreme_matches_dense(self, small_h, small_dense):
        evals = np.linalg.eigvalsh(small_dense.real)
        es = lanczos_extreme(small_h, 1)
        assert es.eigenvalues[0] == pytest.approx(evals[0], abs=1e-8)

    def test_propagate_matches_expm(self, small_h, small_dense):
        g = small_h.grid
        psi = _unit_real(g)
        for t in (0.5, 2.0):
            got = propagate(small_h, psi, [t])[0].reshape(-1)
            want = scipy.linalg.expm(1j * t * small_dense) @ psi.reshape(-1)
            np.testing.assert_allclose(got, want, atol=1e-8)


class TestEigensolvers:
    def test_negative_spectrum_multiplicity(self):
        # deep well: ground state plus threefold-degenerate first excited level
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 15.0))
        es = negative_spectrum(h)
        assert es.count_negative >= 4
        excited = [e for e in es.eigenvalues[1:4]]
        assert max(excited) - min(excited) < 1e-6  # p-level degeneracy
        assert all(r < 1e-7 for r in es.residuals)

    def test_eigenvalues_sorted(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 15.0))
        es = negative_spectrum(h)
        assert es.eigenvalues == sorted(es.eigenvalues)

    def test_vectors_orthonormal(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 15.0))
        es = negative_spectrum(h)
        # one stack: a leading axis over the states, then the grid's axes
        assert es.vectors.shape == (len(es),) + g.shape
        assert es.vectors.dtype == np.complex128
        basis = es.vectors.reshape(len(es), -1)
        gram = basis.conj() @ basis.T
        np.testing.assert_allclose(gram, np.eye(len(es)), atol=1e-8)

    def test_no_bound_states_for_repulsive(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, bracket_decay(g, 2.0, 3.0))
        assert negative_spectrum(h).count_negative == 0

    @pytest.mark.parametrize("m,npts,half_width,depth,count", [
        (1, 8, 3.0, 20.0, 5),   # ground state, 3-fold level, one more
        (2, 12, 4.0, 30.0, 4),  # 3-fold level just below the edge
    ])
    def test_negative_spectrum_matches_dense(self, m, npts, half_width, depth,
                                             count):
        g = GridSpec(3, npts, half_width)
        h = Hamiltonian(g, m, gaussian_well(g, depth))
        evals = np.linalg.eigvalsh(dense_matrix(h).real)
        tau = 1e-6 * max(1.0, h.potential.max_abs)
        want = evals[evals < -tau]
        es = negative_spectrum(h)
        assert len(want) == count
        assert len(es) == count
        np.testing.assert_allclose(es.eigenvalues, want, rtol=0, atol=1e-10)

    @pytest.mark.slow
    @pytest.mark.parametrize("m,npts,half_width,depth", [
        (1, 8, 3.0, 20.0), (1, 8, 3.0, 8.0), (1, 12, 5.0, 15.0),
        (1, 12, 5.0, 40.0), (1, 16, 6.0, 20.0), (1, 16, 8.0, 5.0),
        (2, 8, 3.0, 30.0), (2, 12, 4.0, 30.0), (2, 12, 5.0, 10.0),
    ])
    def test_negative_spectrum_count_over_seeds(self, monkeypatch, m, npts,
                                                half_width, depth):
        # the start vectors are the only randomness of the eigensolve: shift
        # its seed-0 stream and count misses against dense eigvalsh
        g = GridSpec(3, npts, half_width)
        h = Hamiltonian(g, m, gaussian_well(g, depth))
        tau = 1e-6 * max(1.0, h.potential.max_abs)
        want = scipy.linalg.eigvalsh(dense_matrix(h).real,
                                     subset_by_value=(-np.inf, -tau))
        default_rng = np.random.default_rng
        misses = []
        for seed in (1, 2, 3):
            monkeypatch.setattr(np.random, "default_rng",
                                lambda s=None, seed=seed: default_rng(seed))
            es = negative_spectrum(h)
            monkeypatch.setattr(np.random, "default_rng", default_rng)
            if len(es) != len(want):
                misses.append((seed, len(es), len(want)))
                continue
            np.testing.assert_allclose(es.eigenvalues, want, rtol=0, atol=1e-9)
            assert max(es.residuals) < 1e-10 * max(1.0, abs(want[0]))
        assert len(want) > 0 and misses == []

    @pytest.fixture
    def solves(self, monkeypatch):
        """The (k, cut) of every lanczos_extreme call, in order."""
        seen = []
        inner = hamiltonian.lanczos_extreme

        def counted(h, k, rng=None, cut=np.inf):
            seen.append((k, cut))
            return inner(h, k, rng=rng, cut=cut)

        monkeypatch.setattr(hamiltonian, "lanczos_extreme", counted)
        return seen

    def five_states(self):
        # ground state, a 3-fold level and one more below the cut
        g = GridSpec(3, 8, 3.0)
        return Hamiltonian(g, 1, gaussian_well(g, 20.0))

    @staticmethod
    def cut(h):
        return -1e-6 * max(1.0, h.potential.max_abs)

    def test_count_sizes_a_single_solve(self, solves):
        h = self.five_states()
        es = negative_spectrum(h)
        assert solves == [(6, self.cut(h))]
        assert len(es) == es.count_birman_schwinger == 5

    def test_solve_short_of_the_count_doubles_k(self, monkeypatch, solves):
        # a missed copy shows as fewer pairs below the cut than the count:
        # the block doubles up to the cap, and the report keeps the
        # disagreement
        monkeypatch.setattr(hamiltonian, "birman_schwinger_count",
                            lambda pot, symbol, tau: 6)
        es = negative_spectrum(self.five_states())
        assert [k for k, _ in solves] == [7, 14, 28, 50]
        assert len(es) == 5 and es.count_birman_schwinger == 6

    def test_uncounted_support_starts_at_four(self, monkeypatch, solves):
        monkeypatch.setattr(birman_schwinger, "COUNT_SUPPORT_CAP", 100)
        es = negative_spectrum(self.five_states())
        assert [k for k, _ in solves] == [4, 8, 16]
        assert len(es) == 5 and es.count_birman_schwinger is None

    def test_counted_solve_stops_at_1e_10(self, solves):
        # the pairs below the cut are held to 1e-10 absolute; the continuum
        # pair above it is not judged
        h = self.five_states()
        es = negative_spectrum(h)
        assert hamiltonian.RESIDUAL_TOL == 1e-10
        assert [cut for _, cut in solves] == [self.cut(h)]
        assert len(es) == es.count_birman_schwinger == 5
        assert max(es.residuals) <= 1e-10

    def test_uncounted_solve_meets_the_same_bound(self, monkeypatch, solves):
        monkeypatch.setattr(birman_schwinger, "COUNT_SUPPORT_CAP", 100)
        h = self.five_states()
        es = negative_spectrum(h)
        assert [cut for _, cut in solves] == [self.cut(h)] * 3
        assert es.count_birman_schwinger is None
        assert len(es) == 5 and max(es.residuals) <= 1e-10

    def test_unconverged_solve_raises(self, monkeypatch):
        # one LOBPCG iteration per run leaves the pairs below the cut loose
        monkeypatch.setattr(hamiltonian, "RUN_ITERATIONS", 1)
        with pytest.raises(LanczosError):
            negative_spectrum(self.five_states())

    def test_unconverged_uncounted_solve_raises(self, monkeypatch):
        monkeypatch.setattr(birman_schwinger, "COUNT_SUPPORT_CAP", 100)
        monkeypatch.setattr(hamiltonian, "RUN_ITERATIONS", 1)
        with pytest.raises(LanczosError):
            negative_spectrum(self.five_states())

    def test_pairs_above_the_cut_are_not_judged(self, monkeypatch):
        monkeypatch.setattr(hamiltonian, "RUN_ITERATIONS", 2)
        h = self.five_states()
        es = lanczos_extreme(h, 6, cut=-np.inf)
        assert max(es.residuals) > 1e-10
        with pytest.raises(LanczosError):
            lanczos_extreme(h, 6)

    def test_solves_repeat_exactly(self, monkeypatch):
        # the spectral workload's well: the start block is fixed, so two
        # solves agree bitwise and make the same number of matvecs
        g = GridSpec(3, 16, 6.0)
        runs = []
        for _ in range(2):
            h = Hamiltonian(g, 1, gaussian_well(g, 20.0))
            calls = _count_matvecs(monkeypatch, h)
            runs.append((negative_spectrum(h).eigenvalues, len(calls)))
        assert len(runs[0][0]) == 5 and runs[0][1] > 0
        assert runs[0] == runs[1]

    def test_block_operators_match_a_per_column_reference(self, monkeypatch):
        # LOBPCG given H and the preconditioner one column at a time, from
        # the same start, returns the same pairs bit for bit: the block maps
        # hand back each column's bits in a C-ordered block, as LOBPCG's BLAS
        # products round them; the residuals are one norm per vector
        monkeypatch.setattr(hamiltonian, "MAX_RUNS", 1)
        h = self.five_states()
        k, shape = 6, h.grid.shape
        es = lanczos_extreme(h, k, rng=np.random.default_rng(5), cut=-np.inf)

        def per_column(fn):
            def block(cols):
                out = np.empty(cols.shape)
                for j in range(cols.shape[1]):
                    out[:, j] = fn(cols[:, j])
                return out
            return block

        inverse = 1.0 / (h._symbol + hamiltonian.PRECONDITIONER_SHIFT)
        start = np.random.default_rng(5).standard_normal((k, h.grid.size)).T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs = lobpcg(
                per_column(h.apply), start,
                M=per_column(lambda col: apply_symbol(col.reshape(shape),
                                                      inverse).reshape(-1)),
                tol=hamiltonian.RESIDUAL_TOL,
                maxiter=hamiltonian.RUN_ITERATIONS, largest=False)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        assert es.eigenvalues == list(vals)
        np.testing.assert_array_equal(es.vectors.reshape(k, -1), vecs.T)
        assert es.residuals == [np.linalg.norm(h.apply(vec) - val * vec)
                                for val, vec in zip(vals, vecs.T)]

    def test_k_cap(self, small_h):
        with pytest.raises(ValueError):
            lanczos_extreme(small_h, 51)

    def test_grid_mismatch_rejected(self):
        g1 = GridSpec(3, 8, 3.0)
        g2 = GridSpec(3, 8, 4.0)
        with pytest.raises(ValueError):
            Hamiltonian(g1, 1, gaussian_well(g2, 1.0))


def _radial_ground_state(depth, radius=40.0, steps=(8000, 16000)):
    """E0 of -u'' - depth e^{-r^2} u = E u, u(0) = u(radius) = 0: the l = 0
    channel of -Delta + V on R^3 for the radial V = -depth e^{-|x|^2}.
    Second-order differences at two steps, Richardson-extrapolated."""
    values = []
    for n in steps:
        dr = radius / n
        r = dr * np.arange(1, n)
        diag = 2.0 / dr ** 2 - depth * np.exp(-r ** 2)
        off = np.full(n - 2, -1.0 / dr ** 2)
        values.append(scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 0), eigvals_only=True)[0])
    return (4.0 * values[1] - values[0]) / 3.0


def _radial_quartic_ground_state(depth, radius=40.0, steps=(4000, 8000)):
    """E0 of u'''' - depth e^{-r^2} u = E u, u(0) = u''(0) = 0: the l = 0
    channel of (-Delta)^2 + V on R^3 for the radial V = -depth e^{-|x|^2}
    (f = u / r, so Delta^2 f = u'''' / r).  The five-point fourth difference,
    with the odd extension folding the first and last rows' diagonal to
    5 / dr^4, as a banded eigenproblem at two steps, Richardson-extrapolated."""
    values = []
    for n in steps:
        dr = radius / n
        r = dr * np.arange(1, n)
        bands = np.empty((3, n - 1))  # upper form: second, first, main diagonal
        bands[0] = 1.0 / dr ** 4
        bands[1] = -4.0 / dr ** 4
        bands[2] = 6.0 / dr ** 4 - depth * np.exp(-r ** 2)
        bands[2, [0, -1]] -= 1.0 / dr ** 4
        values.append(scipy.linalg.eig_banded(
            bands, eigvals_only=True, select="i", select_range=(0, 0))[0])
    return (4.0 * values[1] - values[0]) / 3.0


class TestRadialOracle:
    """The lattice E0 of the reference well against the continuum value, at
    m = 1 and m = 2."""

    @pytest.fixture(scope="class")
    def continuum(self):
        return _radial_ground_state(5.0)

    @pytest.fixture(scope="class")
    def continuum_m2(self):
        return _radial_quartic_ground_state(5.0)

    def test_continuum_value(self, continuum):
        assert continuum == pytest.approx(-0.406121, abs=1e-6)

    @pytest.mark.parametrize("npts,within", [(48, True), (32, False)])
    def test_lattice_ground_state(self, continuum, npts, within):
        # h = 0.5 is uncounted (support 4945) and within 1e-4; the reference
        # spacing h = 0.75 is more than 1 % off
        g = GridSpec(3, npts, 12.0)
        es = negative_spectrum(Hamiltonian(g, 1, gaussian_well(g, 5.0)))
        assert es.count_birman_schwinger is (None if within else 1)
        assert len(es) == 1 and es.residuals[0] <= 1e-10
        error = abs(es.eigenvalues[0] / continuum - 1.0)
        assert (error < 1e-4) if within else (error > 1e-2)

    def test_continuum_value_m2(self, continuum_m2):
        # radius 80 at the same dr moves it by under 1e-7
        assert continuum_m2 == pytest.approx(-0.2436646, abs=1e-7)

    @pytest.mark.parametrize("npts,tol", [(48, 1e-4), (32, 1e-3)])
    def test_lattice_ground_state_m2(self, continuum_m2, npts, tol):
        # measured: 2.1e-5 at h = 0.5 (support 4945, uncounted) and 1.6e-4 at
        # the reference spacing h = 0.75
        g = GridSpec(3, npts, 12.0)
        es = negative_spectrum(Hamiltonian(g, 2, gaussian_well(g, 5.0)))
        assert es.count_birman_schwinger is (None if npts == 48 else 1)
        assert len(es) == 1 and es.residuals[0] <= 1e-10
        assert abs(es.eigenvalues[0] / continuum_m2 - 1.0) < tol


class TestChecks:
    def test_clr_bound_fields(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 15.0))
        n0, bound, ok = clr_check(h, 1.0)
        assert n0 == h.eigenset().count_negative
        expect = g.cell_volume * float(np.sum(np.abs(h.potential.values) ** 1.5))
        assert bound == pytest.approx(expect)
        assert ok == (n0 <= bound)

    def test_clr_bound_counts_only_the_attractive_part(self):
        g = GridSpec(3, 8, 4.0)
        n0, bound, ok = clr_check(Hamiltonian(g, 1, bracket_decay(g, 2.0, 3.0)), 1.0)
        assert (n0, bound, ok) == (0, 0.0, True)
        # a well off centre beside a repulsive bump: V takes both signs, and
        # only V_- = max(-V, 0) enters the sum
        vals = (gaussian_well(g, 4.0, center=(1.5, 0.0, 0.0)).values
                + bracket_decay(g, 1.0, 3.0).values)
        assert vals.min() < 0 < vals.max()
        _, bound, _ = clr_check(Hamiltonian(g, 1, Potential(g, vals, "mixed")), 1.0)
        attractive = g.cell_volume * float(np.sum((-vals[vals < 0]) ** 1.5))
        assert bound == pytest.approx(attractive, rel=1e-12)
        assert bound < g.cell_volume * float(np.sum(np.abs(vals) ** 1.5))


class TestProjector:
    def test_removes_bound_states(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 15.0))
        es = h.eigenset()
        psi = es.vectors[0]
        out = projector_ac(h, psi)
        assert np.max(np.abs(out)) < 1e-8

    def test_idempotent(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 15.0))
        f = RNG.standard_normal(g.shape)
        once = projector_ac(h, f)
        assert once.dtype == np.complex128 and once.shape == g.shape
        twice = projector_ac(h, once)
        np.testing.assert_allclose(twice, once, atol=1e-10)
        # flat samples are projected in their flat shape
        np.testing.assert_array_equal(projector_ac(h, f.reshape(-1)),
                                      once.reshape(-1))

    def test_identity_without_bound_states(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, bracket_decay(g, 1.0, 3.0))
        f = RNG.standard_normal(g.shape) + 0j
        np.testing.assert_allclose(projector_ac(h, f), f, atol=1e-12)


class TestPropagation:
    def test_unitarity(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 2, gaussian_well(g, 3.0))
        psi = _unit_real(g)
        for st in propagate(h, psi, [1.0, 3.0, 7.0]):
            assert norm_lp(g, st, 2) == pytest.approx(1.0, abs=1e-10)

    def test_free_propagation_multiplier(self):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, Potential(g, np.zeros(g.shape), "zero"))
        psi = np.exp(-g.radii() ** 2)
        t = 2.5
        got = propagate(h, psi, [t])[0]
        exact = samples_from_spectrum(
            g, np.exp(1j * t * g.xi_radii() ** 2) * forward_transform(g, psi))
        np.testing.assert_allclose(got, exact, atol=1e-10)

    def test_group_property(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 3.0))
        psi = RNG.standard_normal(g.shape) + 0j
        direct = propagate(h, psi, [3.0])[0]
        stepped = propagate(h, propagate(h, psi, [1.0])[0], [2.0])[0]
        np.testing.assert_allclose(stepped, direct, atol=1e-9)

    def test_negative_times(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 3.0))
        psi = RNG.standard_normal(g.shape) + 0j
        back = propagate(h, propagate(h, psi, [2.0])[0], [-2.0])[0]
        np.testing.assert_allclose(back, psi, atol=1e-9)

    def test_shuffled_times_permute_states(self):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 3.0))
        psi = _unit_random(g)
        times = np.linspace(-3.0, 3.0, 13)
        order = np.random.default_rng(4).permutation(times.size)
        ordered = propagate(h, psi, times)
        shuffled = propagate(h, psi, times[order])
        for k, st in zip(order, shuffled):
            np.testing.assert_allclose(st, ordered[k], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("m,t_final", [(1, 4.0), (2, 0.25)])
    def test_matches_stepped_oracle(self, m, t_final):
        # symmetric grid of 65 times, as the smoothing and strichartz probes use
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, m, gaussian_well(g, 15.0))
        psi = _unit_random(g)
        times = np.linspace(-t_final, t_final, 65)
        half, mid = _scaling(h)
        want = _stepped_run(h, psi, times, half, mid, 1e-10)
        got = propagate(h, psi, times)
        assert got.shape == (times.size,) + g.shape  # a view, no copy
        assert got.base is not None and got.base.shape == (times.size, g.size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_one_matvec_per_term(self, monkeypatch):
        g = GridSpec(3, 12, 5.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 3.0))
        times = np.linspace(-3.0, 3.0, 33)
        half, _ = _scaling(h)
        terms = hamiltonian._chebyshev_coeffs(half * times, 1e-12).shape[1]
        calls = _count_matvecs(monkeypatch, h)
        propagate(h, _unit_random(g), times)
        assert terms > 2 * hamiltonian._BLOCK
        assert len(calls) == terms - 1


def _per_order_coeffs(args, tol):
    """_chebyshev_coeffs one order at a time from jv: the rule it replaced,
    kept as its oracle."""
    a_max = float(np.max(np.abs(args), initial=0.0))
    kmax = int(a_max) + 200 + int(40 * max(1.0, a_max) ** (1.0 / 3.0))
    cols, small = [], 0
    for k in range(kmax + 1):
        cols.append((2.0 if k else 1.0) * (1j ** k) * jv(k, args))
        small = small + 1 if np.max(np.abs(cols[-1]), initial=0.0) < tol else 0
        if small >= 8:
            break
    return np.stack(cols, axis=-1)


class TestChebyshevCoeffs:
    @pytest.mark.parametrize("times", [
        np.linspace(-8.0, 8.0, 65),            # the lab grid's smoothing times
        np.array([-3.0, 0.0, 1e-3, 0.4, 3.0]),
        np.array([]),
    ])
    def test_matches_per_order_bessel(self, times):
        g = GridSpec(3, 16, 8.0)
        half, _ = _scaling(Hamiltonian(g, 1, gaussian_well(g, 5.0)))
        want = _per_order_coeffs(half * times, 1e-12)
        got = hamiltonian._chebyshev_coeffs(half * times, 1e-12)
        assert got.shape == want.shape  # same truncation order
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-14 * np.max(np.abs(want), initial=1.0))

    def test_lab_grid_truncation(self):
        g = GridSpec(3, 16, 8.0)
        half, _ = _scaling(Hamiltonian(g, 1, gaussian_well(g, 5.0)))
        times = np.linspace(-8.0, 8.0, 65)
        assert hamiltonian._chebyshev_coeffs(half * times, 1e-12).shape == (65, 195)
