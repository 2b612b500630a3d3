"""The free resolvent: the query and its partial-fraction roots, boundary
values through boundary_symbol (continuum oracle, Stone's formula, the shell
part, the window), and the weighted-norm machinery."""

import numpy as np
import pytest
import scipy.integrate as si

from polyharmlab.grid import (
    GridSpec,
    apply_symbol,
    forward_transform,
    samples_from_spectrum,
    sphere_area,
    weight_bracket_power,
)
from polyharmlab import resolvent
from polyharmlab.resolvent import (
    ResolventQuery,
    boundary_symbol,
    high_energy_decay_probe,
    weighted_resolvent_norm,
)

RNG = np.random.default_rng(21)


class TestResolventQuery:
    def test_dimension_constraint(self):
        with pytest.raises(ValueError):
            ResolventQuery(z=1j, m=2, n=3)  # n must exceed 2m
        with pytest.raises(ValueError):
            ResolventQuery(z=1j, m=1, n=4)  # odd dimension only

    def test_positive_axis_needs_side(self):
        with pytest.raises(ValueError):
            ResolventQuery(z=2.0, m=1, n=3)
        ResolventQuery(z=2.0, m=1, n=3, side="+")
        ResolventQuery(z=complex(2.0, 0.1), m=1, n=3)  # off axis is fine

    def test_zero_z_rejected_at_construction(self):
        for side in (None, "+", "-"):
            with pytest.raises(ValueError, match="Riesz kernel"):
                ResolventQuery(z=0.0, m=1, n=3, side=side)

    def test_roots_power_back(self):
        q = ResolventQuery(z=3.0 + 2.0j, m=3, n=7)
        for zl in q.roots():
            assert zl ** 3 == pytest.approx(3.0 + 2.0j, rel=1e-12)
        # both boundary sides: arg z = 0 and arg z = 2 pi
        for side in ("+", "-"):
            for zl in ResolventQuery(z=4.0, m=2, n=5, side=side).roots():
                assert zl ** 2 == pytest.approx(4.0, rel=1e-12)


class TestPartialFractions:
    def test_identity_random_samples(self):
        # 1/(xi^{2m} - z) == (1/(m z)) sum_l z_l/(xi^2 - z_l); the residual is
        # normalized by the largest intermediate term so cancellation between
        # the summands (huge xi^{2m}/|z| ratios) is not misread as error
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = 2 * m + 1 + 2 * int(rng.integers(0, 2))
            xi = 10.0 ** rng.uniform(-1, 1)
            z = 10.0 ** rng.uniform(-1, 2) * np.exp(1j * rng.uniform(0.05, 2 * np.pi - 0.05))
            q = ResolventQuery(z=z, m=m, n=n)
            lhs = 1.0 / (xi ** (2 * m) - z)
            terms = [zl / (xi ** 2 - zl) / (m * z) for zl in q.roots()]
            rhs = sum(terms)
            scale = max(abs(lhs), max(abs(t) for t in terms))
            assert abs(lhs - rhs) < 1e-12 * scale


def gaussian_pairing_oracle(lam=1.0):
    """Continuum <R0^+(lam) f, f> for f = e^{-|x|^2} in n = 3, m = 1, computed
    by radial principal-value quadrature.  The unitary transform of e^{-r^2}
    is 2^{-3/2} e^{-xi^2/4}, so the pairing density is A(rho) = e^{-rho^2/2}/8."""
    A = lambda rho: np.exp(-rho ** 2 / 2.0) / 8.0
    root = np.sqrt(lam)
    pv_inner, _ = si.quad(lambda rho: rho ** 2 * A(rho) / (rho + root),
                          0.0, 2.0 * root, weight="cauchy", wvar=root)
    pv_outer, _ = si.quad(lambda rho: rho ** 2 * A(rho) / (rho ** 2 - lam),
                          2.0 * root, np.inf)
    pv = 4.0 * np.pi * (pv_inner + pv_outer)
    surface = np.pi * (4.0 * np.pi * root ** 2 * A(root)) / (2.0 * root)
    return pv + 1j * surface


GRID = GridSpec(3, 160, 30.0)
LAMBDAS = (0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def density():
    """|fhat|^2 of f = e^{-|x|^2} on GRID."""
    f = np.exp(-np.sum(GRID.coords() ** 2, axis=0))
    return np.abs(forward_transform(GRID, f)) ** 2


@pytest.fixture(scope="module")
def pairings(density):
    """<R0_pm(lam) f, f> = sum of boundary_symbol * |fhat|^2 over the lattice,
    by (lam, side), for lam in LAMBDAS."""
    return {(lam, side): complex(np.sum(boundary_symbol(GRID, lam, 1, side) * density)
                                 * GRID.cell_volume_xi)
            for lam in LAMBDAS for side in ("+", "-")}


def shell_part(grid, lam, m):
    """(sigma_+ - sigma_-) / 2 pi i of boundary_symbol: the lattice density
    E'_0(lam) of (-Delta)^m."""
    return ((boundary_symbol(grid, lam, m, "+") - boundary_symbol(grid, lam, m, "-"))
            / (2j * np.pi))


class TestBoundaryPairing:
    """<R0_pm(lam) f, f> for f = e^{-|x|^2} on 160^3 with L = 30, paired
    through boundary_symbol."""

    def test_matches_continuum_oracle(self, pairings):
        # the surface term; the principal value (real part) reads 0.899,
        # 0.539 and 0.021 against 1.133, 0.542 and -0.150, and is not held
        for lam in LAMBDAS:
            truth = gaussian_pairing_oracle(lam)
            assert pairings[lam, "+"].imag == pytest.approx(truth.imag, rel=0.01)

    def test_sides_conjugate(self, pairings):
        for lam in LAMBDAS:
            plus, minus = pairings[lam, "+"], pairings[lam, "-"]
            assert plus.real == pytest.approx(minus.real, rel=1e-12)
            assert plus.imag == pytest.approx(-minus.imag, rel=1e-12)

    def test_imaginary_part_sign(self, pairings):
        for lam in LAMBDAS:
            assert pairings[lam, "+"].imag >= 0.0

    def test_stone_formula_exact(self, density):
        # <E'_0(lam) f, f> = (pi/4) sqrt(lam) e^{-lam/2} for f = e^{-|x|^2}
        for lam in LAMBDAS:
            stone = complex(np.sum(shell_part(GRID, lam, 1) * density)
                            * GRID.cell_volume_xi)
            assert abs(stone.imag) < 1e-14
            want = np.pi / 4 * np.sqrt(lam) * np.exp(-lam / 2)
            assert stone.real == pytest.approx(want, rel=0.01)

    def test_theta_extrapolation_consistency(self, density, pairings):
        # interior pairings at z = lam + i theta, quadratically extrapolated
        # to theta = 0, approach the boundary pairing
        xi2 = GRID.xi_radii() ** 2
        thetas = [0.4, 0.2, 0.1]
        vals = [complex(np.sum(density / (xi2 - (1.0 + 1j * th))) * GRID.cell_volume_xi)
                for th in thetas]
        coeff = np.polynomial.polynomial.polyfit(thetas, np.array(vals), 2)
        boundary = pairings[1.0, "+"]
        assert abs(coeff[0] - boundary) / abs(boundary) < 0.08

    def test_validation(self):
        with pytest.raises(ValueError, match="lambda > 0"):
            boundary_symbol(GRID, -1.0, 1, "+")
        with pytest.raises(ValueError, match="side must be"):
            boundary_symbol(GRID, 1.0, 1, "0")
        with pytest.raises(ValueError, match="Nyquist"):
            boundary_symbol(GRID, (2 * GRID.nyquist_radius) ** 2, 1, "+")


class TestShellIntegral:
    """The shell part of boundary_symbol integrates over the resonant shell
    |xi| = rho: c times the surface integral, c = 1/(2 rho) for m = 1."""

    def test_constant_density_gives_area(self):
        g = GridSpec(3, 64, 16.0)
        rho = 1.5
        got = complex(np.sum(shell_part(g, rho ** 2, 1)) * g.cell_volume_xi)
        assert got.real == pytest.approx(4 * np.pi * rho ** 2 / (2 * rho), rel=1e-12)

    def test_radial_profile(self):
        g = GridSpec(3, 64, 16.0)
        rho = 1.2
        prof = np.exp(-g.xi_radii() ** 2)
        got = complex(np.sum(shell_part(g, rho ** 2, 1) * prof) * g.cell_volume_xi).real
        want = 4 * np.pi * rho ** 2 * np.exp(-rho ** 2) / (2 * rho)
        assert got == pytest.approx(want, rel=0.01)


class TestBoundarySymbol:
    def test_pairing_against_symbol(self):
        # the symbol applied as a grid operator gives the pairing summed on
        # the frequency lattice (Parseval)
        g = GridSpec(3, 32, 6.0)
        f = np.exp(-np.sum(g.coords() ** 2, axis=0))
        sym = boundary_symbol(g, 1.0, 1, "+")
        via_operator = complex(np.vdot(f, apply_symbol(f, sym)) * g.cell_volume)
        via_symbol = complex(np.sum(sym * np.abs(forward_transform(g, f)) ** 2)
                             * g.cell_volume_xi)
        assert via_operator == pytest.approx(via_symbol, rel=1e-12)

    def test_sides_conjugate(self):
        g = GridSpec(3, 32, 6.0)
        sp = boundary_symbol(g, 1.0, 1, "+")
        sm = boundary_symbol(g, 1.0, 1, "-")
        np.testing.assert_allclose(sp, np.conj(sm), atol=1e-14)

    def test_window_zeroed(self):
        # m = 2, lam = 1: rho = 1, c = 1/4, window |s| < 3 * 4 * h_xi
        g = GridSpec(3, 32, 6.0)
        xi_abs = g.xi_radii()
        inside = np.abs(xi_abs ** 4 - 1.0) < 3.0 * 4 * g.h_xi
        shell = np.abs(xi_abs - 1.0) <= g.h_xi / 2
        assert np.any(shell) and np.all(inside[shell]) and np.any(inside & ~shell)
        bin_volume = np.count_nonzero(shell) * g.cell_volume_xi
        for side, sign in (("+", 1.0), ("-", -1.0)):
            sym = boundary_symbol(g, 1.0, 2, side)
            assert np.all(sym[inside & ~shell] == 0)
            coef = sign * np.pi * 1j * 0.25
            np.testing.assert_array_equal(
                sym[shell], coef * sphere_area(3, 1.0) / bin_volume)


class TestWeightedResolventNorm:
    def test_matches_dense_singular_value(self):
        # tiny grid: assemble <x>^{-s} R0(z) <x>^{-s} densely and compare
        g = GridSpec(3, 8, 3.0)
        q = ResolventQuery(z=-2.0 + 0.0j, m=1, n=3)
        w = weight_bracket_power(g, -1.0)
        sym = q.symbol(g.xi_radii())

        def apply(vec):
            fhat = forward_transform(g, w * vec.reshape(g.shape))
            return (w * samples_from_spectrum(g, sym * fhat)).reshape(-1)

        dense = np.zeros((g.size, g.size), dtype=np.complex128)
        eye = np.eye(g.size)
        for j in range(g.size):
            dense[:, j] = apply(eye[:, j].astype(np.complex128))
        top = float(np.linalg.svd(dense, compute_uv=False)[0])
        est = weighted_resolvent_norm(g, q, w, max_iter=200, rtol=1e-10)
        assert est.norm == pytest.approx(top, rel=1e-6)

    def test_closures_leave_input_alone(self, monkeypatch):
        # the power-iteration closures must not overwrite the iterate
        g = GridSpec(3, 8, 3.0)
        checked = []
        norm = resolvent.operator_norm

        def checking(apply_a, apply_at, size, **kwargs):
            for fn in (apply_a, apply_at):
                vec = RNG.standard_normal(size) + 1j * RNG.standard_normal(size)
                before = vec.copy()
                out = fn(vec)
                np.testing.assert_array_equal(vec, before)
                assert vec.flags.writeable and not np.shares_memory(out, vec)
                checked.append(fn)
            return norm(apply_a, apply_at, size, **kwargs)

        monkeypatch.setattr(resolvent, "operator_norm", checking)
        for q in (ResolventQuery(z=-2.0 + 0.5j, m=1, n=3),
                  ResolventQuery(z=1.0, m=1, n=3, side="-")):
            weighted_resolvent_norm(g, q, weight_bracket_power(g, -1.0),
                                    max_iter=3)
        assert len(checked) == 4

    def test_boundary_query_uses_regularized_symbol(self):
        g = GridSpec(3, 32, 6.0)
        q = ResolventQuery(z=1.0, m=1, n=3, side="+")
        est = weighted_resolvent_norm(g, q, weight_bracket_power(g, -1.0))
        assert np.isfinite(est.norm) and est.norm > 0

    def test_zero_z_rejected(self):
        g = GridSpec(3, 8, 3.0)
        with pytest.raises(ValueError, match="Riesz kernel"):
            weighted_resolvent_norm(g, ResolventQuery(z=0.0, m=1, n=3),
                                    weight_bracket_power(g, -1.0))


class TestDecayProbe:
    def test_validation(self):
        g = GridSpec(3, 16, 4.0)
        with pytest.raises(ValueError):
            high_energy_decay_probe(g, 1, 3, 1.0, [1.0, 2.0, 4.0])  # 0.6 decades
        with pytest.raises(ValueError):
            high_energy_decay_probe(g, 1, 3, 1.0, [1.0, 50.0])  # too few samples

    def test_report_shape(self):
        g = GridSpec(3, 32, 2 * np.pi)
        mags = np.logspace(0.0, 1.5, 4)
        rep = high_energy_decay_probe(g, 1, 3, 1.0, mags)
        assert len(rep.rows) == 4
        assert rep.metrics["expected_slope"] == pytest.approx(-0.5)
        assert rep.passes["norms_finite_positive"]
        assert rep.metrics["decades"] >= 1.5

    def test_dimension_must_match_the_grid(self):
        g = GridSpec(3, 8, 4.0)
        with pytest.raises(ValueError, match="n=5 does not match the 3-d grid"):
            high_energy_decay_probe(g, 1, 5, 1.0, np.logspace(0.0, 1.5, 4))

    def test_weight_built_once_per_probe(self, monkeypatch):
        # one <x>^{-s} for the whole ray, one weighted_resolvent_norm per |z|
        g = GridSpec(3, 16, 4.0)
        calls = {"weight": 0, "norm": 0}
        build, norm = resolvent.weight_bracket_power, resolvent.weighted_resolvent_norm

        def counted(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(resolvent, "weight_bracket_power", counted("weight", build))
        monkeypatch.setattr(resolvent, "weighted_resolvent_norm", counted("norm", norm))
        rep = high_energy_decay_probe(g, 1, 3, 1.0, np.logspace(0.0, 1.5, 4))
        assert calls == {"weight": 1, "norm": 4}
        assert len(rep.rows) == 4
