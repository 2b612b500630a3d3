"""Dense Birman-Schwinger assembly, bound-state location, and the perturbed
resolvent identity."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from polyharmlab import birman_schwinger
from polyharmlab.birman_schwinger import (
    BSMatrix,
    SigmaMinError,
    assemble_M,
    birman_schwinger_count,
    inv_norm_sweep,
    perturbed_resolvent_apply,
    sigma_min,
)
from polyharmlab.grid import GridSpec, apply_symbol
from polyharmlab.hamiltonian import Hamiltonian, negative_spectrum
from polyharmlab.potentials import Potential, bracket_decay, gaussian_well
from polyharmlab.resolvent import ResolventQuery, resolvent_symbol_array

RNG = np.random.default_rng(9)


def truncated_well(grid, depth, width=1.0, rcut=3.0, name=None):
    """Gaussian well hard-truncated at rcut: keeps the dense support set small."""
    def fn(*coords):
        r2 = sum(c ** 2 for c in coords)
        return np.where(r2 <= rcut ** 2, -depth * np.exp(-r2 / width ** 2), 0.0)
    return Potential(grid, fn(*grid.coords()), name or f"trunc_well({depth:g})")


def dipole(grid):
    """Mixed-sign V = 3 x exp(-|x|^2), truncated at |x| = 2.5."""
    def fn(x, y, z):
        r2 = x ** 2 + y ** 2 + z ** 2
        return np.where(r2 <= 6.25, 3.0 * x * np.exp(-r2), 0.0)
    return Potential(grid, fn(*grid.coords()), "dipole")


def modular_gather(grid, base_column, support):
    """G[i, j] = base_column[(idx_i - idx_j) mod N per axis], from one modular
    offset per axis: the oracle of the panel gather in _signed_block."""
    multis = np.unravel_index(support, grid.shape)
    offsets = np.zeros((support.size, support.size), dtype=np.int64)
    stride = 1
    for axis in range(grid.n - 1, -1, -1):
        diff = multis[axis][:, None] - multis[axis][None, :]
        offsets += (diff % grid.npts) * stride
        stride *= grid.npts
    return base_column.reshape(-1)[offsets]


def assert_block_matches_oracle(monkeypatch, grid, support, rng):
    """The panel path _signed_block, given a random real and a random complex
    base column and a random mixed-sign V on the support, equals
    U + v G v of the oracle bitwise (rows scaled first, as the block is)."""
    values = np.zeros(grid.size)
    values[support] = (rng.choice([-1.0, 1.0], support.size)
                       * rng.uniform(0.25, 4.0, support.size))
    pot = Potential(grid, values.reshape(grid.shape), "random")
    v, signs = np.sqrt(np.abs(values[support])), np.sign(values[support])
    for base in (rng.standard_normal(grid.shape),
                 rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)):
        monkeypatch.setattr(birman_schwinger, "_base_column", lambda grid, sym: base)
        block, got_signs = birman_schwinger._signed_block(pot, None, support)
        assert block.dtype == base.dtype and block.flags.c_contiguous
        want = v[:, None] * modular_gather(grid, base, support) * v[None, :]
        want[np.diag_indices(support.size)] += signs
        np.testing.assert_array_equal(got_signs, signs)
        np.testing.assert_array_equal(block, want)


class TestAssembly:
    @pytest.mark.parametrize("n,npts", [(1, 16), (3, 6), (3, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gather_block_matches_modular_oracle(self, monkeypatch, n, npts, seed):
        # random supports that contain every corner of the box, so that the
        # offsets wrap around on every axis in both directions
        rng = np.random.default_rng(seed)
        g = GridSpec(n, npts, 3.0)
        corners = [np.ravel_multi_index(c, g.shape)
                   for c in itertools.product((0, npts - 1), repeat=n)]
        picks = rng.choice(g.size, size=g.size // 3, replace=False)
        support = np.unique(np.concatenate([corners, picks]))
        assert_block_matches_oracle(monkeypatch, g, support, rng)

    @pytest.mark.parametrize("size", [1, 31, 32, 33, 67])
    def test_gather_block_across_panel_edges(self, monkeypatch, size):
        # supports on either side of one and two GATHER_PANEL_ROWS panels
        assert birman_schwinger.GATHER_PANEL_ROWS == 32
        rng = np.random.default_rng(size)
        g = GridSpec(3, 8, 3.0)
        support = np.sort(rng.choice(g.size, size=size, replace=False))
        assert_block_matches_oracle(monkeypatch, g, support, rng)

    @pytest.mark.parametrize("make", [lambda g: truncated_well(g, 4.0, rcut=2.5),
                                      dipole], ids=["well", "mixed-sign"])
    @pytest.mark.parametrize("z", [-1.0 + 0.5j, 0.7 + 0.0j])
    def test_block_equals_scaled_oracle_bitwise(self, make, z):
        # M = I + (w G) v with w scaling the rows first, as (w G v) evaluates;
        # the block holds S with U S = M exactly (U = sgn V flips signs only)
        g = GridSpec(3, 12, 5.0)
        pot = make(g)
        side = "+" if complex(z).imag == 0 else None
        q = ResolventQuery(z=z, m=1, n=3, side=side)
        bs = assemble_M(pot, q)
        delta = np.zeros(g.shape, dtype=np.complex128)
        delta[0, 0, 0] = 1.0
        base = apply_symbol(delta, resolvent_symbol_array(g, q))
        support = pot.support_indices()
        w = pot.w().reshape(-1)[support]
        v = pot.v().reshape(-1)[support]
        want = w[:, None] * modular_gather(g, base, support) * v[None, :]
        want[np.diag_indices(support.size)] += 1.0
        np.testing.assert_array_equal(bs.signs, np.sign(pot.values.reshape(-1)[support]))
        np.testing.assert_array_equal(bs.signs[:, None] * bs.matrix, want)

    def test_gather_matches_columnwise(self):
        # the gathered block must equal literal column-by-column application
        g = GridSpec(3, 8, 3.0)
        pot = truncated_well(g, 2.0, rcut=1.5)
        q = ResolventQuery(z=-1.0 + 0.5j, m=1, n=3)
        bs = assemble_M(pot, q)
        support = bs.support
        v = pot.v().reshape(-1)
        w = pot.w().reshape(-1)
        direct = np.zeros((support.size, support.size), dtype=np.complex128)
        for col, j in enumerate(support):
            delta = np.zeros(g.size, dtype=np.complex128)
            delta[j] = v[j]
            r0 = apply_symbol(delta.reshape(g.shape),
                              resolvent_symbol_array(g, q)).reshape(-1)
            direct[:, col] = w[support] * r0[support]
        direct[np.diag_indices(support.size)] += 1.0
        np.testing.assert_allclose(dense_M(bs), direct, atol=1e-12)

    def test_support_cap(self, monkeypatch):
        g = GridSpec(3, 16, 6.0)
        pot = gaussian_well(g, 3.0)  # support covers the whole box
        q = ResolventQuery(z=-1.0 + 0.5j, m=1, n=3)
        monkeypatch.setattr(birman_schwinger, "DEFAULT_SUPPORT_CAP", 100)
        with pytest.raises(ValueError, match="exceeds dense cap 100"):
            assemble_M(pot, q)


def traced_peak(fn):
    """(fn(), the peak of the memory traced while fn runs)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def spectral_well():
    """The depth-20 Gaussian well on the 16^3 grid at h = 0.75, with the
    1419-point support of the benchmark's spectral blocks."""
    pot = gaussian_well(GridSpec(3, 16, 6.0), 20.0)
    assert pot.support_indices().size == 1419
    return pot


class TestAssemblyMemory:
    """The panel gather writes into the block itself, so an assembly's traced
    peak stays near the block; a support x support int64 offset array would
    add half a complex block or a whole real one."""

    def test_assemble_M_peak(self, spectral_well):
        q = ResolventQuery(z=0.5 + 0.03j, m=1, n=3)
        bs, peak = traced_peak(lambda: assemble_M(spectral_well, q))
        assert bs.matrix.nbytes == 1419 ** 2 * 16
        assert peak <= 1.15 * bs.matrix.nbytes

    def test_count_peak(self, spectral_well):
        h = Hamiltonian(spectral_well.grid, 1, spectral_well)
        count, peak = traced_peak(
            lambda: birman_schwinger_count(spectral_well, h._symbol, 2e-5))
        assert count == 5
        assert peak <= 1.15 * 1419 ** 2 * 8


def dense_M(bs):
    """M = U S of an unfactored block."""
    return bs.signs[:, None] * bs.matrix


def _bs(pot, z):
    return assemble_M(pot, ResolventQuery(z=z, m=1, n=pot.grid.n))


def _block(pot, z):
    return dense_M(_bs(pot, z))


def _factors(sym):
    """LDL^T factors of a copy of the complex-symmetric sym."""
    return birman_schwinger._symmetric_ldlt(sym.copy())


def _sigma_case(name):
    """(complex-symmetric S given to sigma_min, matrix whose dense SVD it
    must match)."""
    g = GridSpec(3, 12, 5.0)
    z = 0.8 + 0.05j
    if name in ("well", "mixed-sign"):
        bs = _bs(truncated_well(g, 5.0, rcut=2.5) if name == "well" else dipole(g), z)
        return bs.matrix, dense_M(bs)
    if name.startswith("conjugate-pair"):
        # the sweep takes sigma_min(M(z-bar)) from S(z)
        pot = dipole(g) if name.endswith("mixed-sign") else truncated_well(g, 5.0, rcut=2.5)
        return _bs(pot, z).matrix, _block(pot, np.conj(z))
    size = int(name.split("-")[1])
    rng = np.random.default_rng(size)
    mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return mat + mat.T, mat + mat.T


class TestSigmaMin:
    @pytest.mark.parametrize("case", ["well", "mixed-sign", "conjugate-pair",
                                      "conjugate-pair-mixed-sign",
                                      "size-1", "size-2", "size-3"])
    def test_matches_dense_svd(self, case):
        sym, dense = _sigma_case(case)
        got, applications = sigma_min(_factors(sym))
        want = scipy.linalg.svdvals(dense)[-1]
        assert got == pytest.approx(want, rel=1e-10)
        assert applications > 0

    def test_deterministic(self):
        # value and application count repeat exactly from fresh factors
        sym, _ = _sigma_case("mixed-sign")
        assert sigma_min(_factors(sym)) == sigma_min(_factors(sym))

    def test_exact_zero_pivot_is_singular(self):
        for signs in ([1.0] * 5, [1.0, -1.0, 1.0, -1.0, -1.0]):
            mat = np.diag([1.0, 2.0, 0.0, 3.0, 4.0]).astype(np.complex128)
            bs = BSMatrix(ResolventQuery(z=1.0 + 0.1j, m=1, n=3), mat,
                          np.array(signs), np.arange(5))
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # sytrf reports by info, not a warning
                assert sigma_min(bs.factors) == (0.0, 0)
            assert bs.factors[2] == 3  # D[2, 2] = 0
            for adjoint in (False, True):
                with pytest.raises(scipy.linalg.LinAlgError):
                    bs.solve(np.ones(5), adjoint=adjoint)

    def test_unconverged_solve_raises(self, monkeypatch):
        def unconverged(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0),
                                      np.zeros((0, 0)))

        monkeypatch.setattr(birman_schwinger, "eigsh", unconverged)
        sym, _ = _sigma_case("well")
        with pytest.raises(SigmaMinError):
            sigma_min(_factors(sym))

    def test_sweep_records_applications(self, monkeypatch):
        # one solve per conjugate pair; each application is two sytrs solves
        solves = []
        sym_solve = birman_schwinger._sym_solve

        def counting(*args, **kwargs):
            solves.append(1)
            return sym_solve(*args, **kwargs)

        monkeypatch.setattr(birman_schwinger, "_sym_solve", counting)
        g = GridSpec(3, 8, 3.0)
        pot = dipole(g)
        rep = inv_norm_sweep(pot, 1, [1.0], [0.1])
        plus, minus = rep.rows
        assert (plus["side"], minus["side"]) == ("+", "-")
        assert plus["iterations"] == minus["iterations"] == len(solves) // 2 > 0
        assert plus["sigma_min"] == minus["sigma_min"]
        for row in rep.rows:
            z = complex(1.0, 0.1 if row["side"] == "+" else -0.1)
            want = scipy.linalg.svdvals(_block(pot, z))[-1]
            assert row["sigma_min"] == pytest.approx(want, rel=1e-10)

    def test_sweep_repeats_exactly(self):
        # sigma_min and the application counts of every row, run to run
        pot = dipole(GridSpec(3, 12, 5.0))
        runs = [inv_norm_sweep(pot, 1, [0.5, 1.5], [0.1, 0.01]).rows
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert all(row["iterations"] > 0 for row in runs[0])


class TestSolve:
    """M^{-1} and M^{-H} from the LDL^T of S = U M, against dense solves."""

    @pytest.mark.parametrize("make", [lambda g: truncated_well(g, 5.0, rcut=2.5),
                                      dipole], ids=["well", "mixed-sign"])
    @pytest.mark.parametrize("adjoint", [False, True], ids=["M", "M^H"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "columns"])
    def test_matches_dense_solve(self, make, adjoint, shape):
        bs = _bs(make(GridSpec(3, 12, 5.0)), 0.8 + 0.05j)
        mat = dense_M(bs)
        if adjoint:
            mat = mat.conj().T
        rng = np.random.default_rng(4)
        rhs = (rng.standard_normal((bs.size,) + shape)
               + 1j * rng.standard_normal((bs.size,) + shape))
        kept = rhs.copy()
        got = bs.solve(rhs, adjoint=adjoint)
        want = scipy.linalg.solve(mat, rhs)
        np.testing.assert_array_equal(rhs, kept)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_block_is_factored_in_place(self):
        bs = _bs(dipole(GridSpec(3, 12, 5.0)), 0.8 + 0.05j)
        assert bs.signs.min() == -1.0 and bs.signs.max() == 1.0
        assert np.shares_memory(bs.factors[0], bs.matrix)


class TestBirmanSchwingerCount:
    """For V <= 0, the eigenvalues of H below -tau are counted by the negative
    eigenvalues of the Hermitian M(-tau) = I - |V|^{1/2} (H0 + tau)^{-1} |V|^{1/2}."""

    @pytest.mark.parametrize("npts, half_width, depth, count", [
        (8, 3.0, 20.0, 5), (12, 5.0, 5.0, 1), (12, 5.0, 15.0, 5),
        (12, 4.0, 30.0, 10)])
    def test_count_matches_eigensolver(self, npts, half_width, depth, count):
        g = GridSpec(3, npts, half_width)
        pot = gaussian_well(g, depth)
        tau = 1e-6 * max(1.0, pot.max_abs)  # negative_spectrum's cut
        mat = _block(pot, -tau)
        bs_count = int(np.sum(scipy.linalg.eigvalsh(0.5 * (mat + mat.conj().T)) < 0))
        es = negative_spectrum(Hamiltonian(g, 1, pot))
        assert bs_count == es.count_negative == es.count_birman_schwinger == count

    @pytest.mark.parametrize("m, npts, half_width, make, count", [
        (1, 8, 3.0, lambda g: gaussian_well(g, 20.0), 5),
        (1, 10, 4.0, lambda g: gaussian_well(g, 30.0), 7),
        (2, 8, 3.0, lambda g: gaussian_well(g, 20.0), 1),
        (2, 10, 5.0, lambda g: gaussian_well(g, 50.0), 5),
        (1, 10, 5.0, lambda g: dipole(g).scaled(30.0), 5),
        (1, 8, 4.0, lambda g: bracket_decay(g, 2.0, 3.0), 0),
        (1, 10, 5.0, lambda g: bracket_decay(g, -10.0, 2.5), 5),
        (2, 10, 5.0, lambda g: bracket_decay(g, -40.0, 3.0), 14),
    ], ids=["well", "well-10", "well-m2", "well-10-m2", "mixed-sign",
            "repulsive", "polynomial-decay", "polynomial-decay-m2"])
    def test_count_matches_dense_spectrum(self, m, npts, half_width, make, count):
        # Sylvester's law on U + v (H0 + tau)^{-1} v, for any sign of V and m
        g = GridSpec(3, npts, half_width)
        h = Hamiltonian(g, m, make(g))
        tau = 1e-6 * max(1.0, h.potential.max_abs)
        dense = np.column_stack([h.apply(e) for e in np.eye(g.size)])
        want = int(np.sum(scipy.linalg.eigvalsh(dense) < -tau))
        assert birman_schwinger_count(h.potential, h._symbol, tau) == want == count

    def test_block_is_factored_in_place(self, monkeypatch):
        # sytrf writes over the gathered block itself, not over a copy
        seen = []
        ldlt = birman_schwinger._symmetric_ldlt

        def recording(block):
            out = ldlt(block)
            seen.append(np.shares_memory(out[0], block))
            return out

        monkeypatch.setattr(birman_schwinger, "_symmetric_ldlt", recording)
        g = GridSpec(3, 8, 3.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 20.0))
        assert birman_schwinger_count(h.potential, h._symbol, 1e-5) == 5
        assert seen == [True]

    def test_support_above_cap_is_not_counted(self, monkeypatch):
        g = GridSpec(3, 8, 3.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 20.0))
        monkeypatch.setattr(birman_schwinger, "COUNT_SUPPORT_CAP", 511)
        assert birman_schwinger_count(h.potential, h._symbol, 1e-5) is None
        monkeypatch.setattr(birman_schwinger, "COUNT_SUPPORT_CAP", 512)
        assert birman_schwinger_count(h.potential, h._symbol, 1e-5) == 5


class TestPerturbedResolvent:
    def test_second_resolvent_identity(self):
        # (H - z) R(z) f == f
        g = GridSpec(3, 12, 5.0)
        pot = truncated_well(g, 4.0, rcut=2.5)
        h = Hamiltonian(g, 1, pot)
        q = ResolventQuery(z=-2.0 + 1.0j, m=1, n=3)
        f = RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape)
        rf = perturbed_resolvent_apply(pot, q, f)
        back = h.apply(rf) - complex(q.z) * rf
        np.testing.assert_allclose(back, f, atol=1e-9 * np.max(np.abs(f)))

    def test_mixed_sign_potential(self):
        g = GridSpec(3, 12, 5.0)
        pot = dipole(g)
        h = Hamiltonian(g, 1, pot)
        q = ResolventQuery(z=-1.5 + 0.7j, m=1, n=3)
        f = RNG.standard_normal(g.shape)
        rf = perturbed_resolvent_apply(pot, q, f.reshape(-1))  # flat samples
        assert rf.shape == g.shape
        back = h.apply(rf) - complex(q.z) * rf
        np.testing.assert_allclose(back, f, atol=1e-9 * np.max(np.abs(f)))


class TestConjugateBlock:
    @pytest.mark.parametrize("make", [lambda g: truncated_well(g, 4.0, rcut=2.5),
                                      dipole], ids=["well", "mixed-sign"])
    def test_adjoint_apply_matches_fresh_block(self, make):
        # R(z-bar) from the factors of M(z) equals R(z-bar) from M(z-bar)
        g = GridSpec(3, 12, 5.0)
        pot = make(g)
        z = 0.7 + 0.2j
        q, qc = (ResolventQuery(z=zz, m=1, n=3) for zz in (z, np.conj(z)))
        f = RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape)
        got = perturbed_resolvent_apply(pot, qc, f, bs=assemble_M(pot, q))
        want = perturbed_resolvent_apply(pot, qc, f)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_sweeps_assemble_one_block_per_pair(self, monkeypatch):
        queries = []
        assemble = birman_schwinger.assemble_M

        def recording(pot, q, *args, **kwargs):
            queries.append(complex(q.z))
            return assemble(pot, q, *args, **kwargs)

        monkeypatch.setattr(birman_schwinger, "assemble_M", recording)
        g = GridSpec(3, 8, 3.0)
        pot = truncated_well(g, 2.0, rcut=1.5)
        inv = inv_norm_sweep(pot, 1, [0.5, 1.0], [0.1, 0.03])
        assert len(inv.rows) == 8
        assert queries == [complex(0.5, 0.1), complex(0.5, 0.03), complex(1.0, 0.1),
                           complex(1.0, 0.03)]

    def test_unrelated_block_rejected(self):
        g = GridSpec(3, 8, 3.0)
        pot = truncated_well(g, 2.0, rcut=1.5)
        bs = assemble_M(pot, ResolventQuery(z=1.0 + 0.1j, m=1, n=3))
        f = np.ones(g.shape, dtype=complex)
        with pytest.raises(ValueError):
            perturbed_resolvent_apply(pot, ResolventQuery(z=1.0 + 0.2j, m=1, n=3),
                                      f, bs=bs)


class TestSweeps:
    def test_theta_validation(self):
        # a negative theta and theta = 0 at lambda > 0
        g = GridSpec(3, 8, 3.0)
        pot = truncated_well(g, 1.0, rcut=1.5)
        for thetas in ([0.1, -0.1], [0.1, 0.0]):
            with pytest.raises(ValueError, match="theta ladder must be positive"):
                inv_norm_sweep(pot, 1, [1.0], thetas)
