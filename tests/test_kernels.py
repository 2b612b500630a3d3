"""Closed-form resolvent kernels against quadrature and symbol oracles."""

import cmath

import numpy as np
import pytest
import scipy.integrate

from polyharmlab.kernels import (
    ResolventQuery,
    bessel_kernel,
    laplace_kernel,
    polyharm_kernel,
)

RNG = np.random.default_rng(7)


def radial_inverse_ft(symbol, n, r):
    """Radial inverse Fourier transform oracle for odd n in {3, 5}:
    K(r) = (2 pi)^{-n/2} int_0^inf symbol(rho) rho^{n/2} r^{1-n/2} J_{n/2-1}(rho r) drho,
    reduced to sin/cos weights (QUADPACK handles the oscillatory infinite tails)."""
    if n == 3:
        val, _ = scipy.integrate.quad(
            lambda rho: rho * symbol(rho), 0.0, np.inf, weight="sin", wvar=r,
            limit=400)
        return val / (2.0 * np.pi ** 2 * r)
    if n == 5:
        i_sin, _ = scipy.integrate.quad(
            lambda rho: rho * symbol(rho), 0.0, np.inf, weight="sin", wvar=r,
            limit=400)
        i_cos, _ = scipy.integrate.quad(
            lambda rho: rho ** 2 * symbol(rho), 0.0, np.inf, weight="cos",
            wvar=r, limit=400)
        return (2.0 * np.pi) ** -2.5 * np.sqrt(2.0 / np.pi) * r ** -2 * (
            i_sin / r - i_cos)
    raise ValueError(n)


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

    def test_roots_power_back(self):
        q = ResolventQuery(z=3.0 + 2.0j, m=3, n=7)
        for zl in q.roots():
            assert zl ** 3 == pytest.approx(3.0 + 2.0j, rel=1e-12)

    def test_sqrt_roots_decaying_branch(self):
        q = ResolventQuery(z=5.0, m=2, n=5, side="+")
        ks = q.sqrt_roots()
        # one real propagating root on the '+' side, the rest with Im >= 0
        assert all(k.imag >= -1e-12 for k in ks)
        np.testing.assert_allclose(ks ** 2, q.roots(), rtol=1e-12)

    def test_side_branches_differ(self):
        qp = ResolventQuery(z=4.0, m=2, n=5, side="+")
        qm = ResolventQuery(z=4.0, m=2, n=5, side="-")
        assert not np.allclose(qp.sqrt_roots(), qm.sqrt_roots())
        # ... but both root sets still satisfy z_l^m = z
        np.testing.assert_allclose(sorted(qm.roots() ** 2), sorted(qp.roots() ** 2),
                                   rtol=1e-12)


class TestPartialFractions:
    def test_identity_random_samples(self):
        # 1/(xi^{2m} - z) == (1/(m z)) sum_l z_l/(xi^2 - z_l); the residual is
        # normalized by the largest intermediate term so cancellation between
        # the summands (huge xi^{2m}/|z| ratios) is not misread as error
        for _ in range(200):
            m = int(RNG.integers(1, 5))
            n = 2 * m + 1 + 2 * int(RNG.integers(0, 2))
            xi = 10.0 ** RNG.uniform(-1, 1)
            z = 10.0 ** RNG.uniform(-1, 2) * np.exp(1j * RNG.uniform(0.05, 2 * np.pi - 0.05))
            q = ResolventQuery(z=z, m=m, n=n)
            lhs = 1.0 / (xi ** (2 * m) - z)
            terms = [zl / (xi ** 2 - zl) / (m * z) for zl in q.roots()]
            rhs = sum(terms)
            scale = max(abs(lhs), max(abs(t) for t in terms))
            assert abs(lhs - rhs) < 1e-12 * scale


class TestLaplaceKernel:
    def test_n3_helmholtz_closed_form(self):
        z = 2.0 + 1.5j
        k = cmath.sqrt(z)
        r = np.array([0.3, 1.0, 2.7])
        expect = np.exp(1j * k * r) / (4.0 * np.pi * r)
        np.testing.assert_allclose(laplace_kernel(3, z, r), expect, rtol=1e-12)

    def test_n3_quadrature(self):
        # (|xi|^2 + 1)^{-1} kernel against the radial quadrature oracle
        for r in (0.5, 1.0, 2.0):
            oracle = radial_inverse_ft(lambda rho: 1.0 / (rho ** 2 + 1.0), 3, r)
            got = laplace_kernel(3, -1.0, r)
            assert got.real == pytest.approx(oracle, rel=1e-6)
            assert abs(got.imag) < 1e-12

    def test_n5_recursion_consistent(self):
        # G_5 = -(2 pi r)^{-1} dG_3/dr, checked by central differences
        z = -1.0 + 0.7j
        r = 1.3
        eps = 1e-6
        d = (laplace_kernel(3, z, r + eps) - laplace_kernel(3, z, r - eps)) / (2 * eps)
        expect = -d / (2.0 * np.pi * r)
        assert laplace_kernel(5, z, r) == pytest.approx(expect, rel=1e-8)

    def test_wrong_sqrt_rejected(self):
        with pytest.raises(ValueError):
            laplace_kernel(3, 4.0 + 0j, 1.0, sqrt_zeta=1.5)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            laplace_kernel(3, 1j, -1.0)


class TestPolyharmKernel:
    def test_m1_reduces_to_laplace(self):
        for _ in range(50):
            z = 10.0 ** RNG.uniform(-1, 1) * np.exp(1j * RNG.uniform(0.1, 6.1))
            r = 10.0 ** RNG.uniform(-0.5, 0.5)
            q = ResolventQuery(z=z, m=1, n=3)
            assert polyharm_kernel(q, r) == pytest.approx(laplace_kernel(3, z, r),
                                                          rel=1e-12)

    def test_m2_n5_quadrature(self):
        # ((-Delta)^2 + 1)^{-1} in n = 5 against the radial quadrature oracle
        q = ResolventQuery(z=-1.0, m=2, n=5)
        for r in (0.5, 1.0, 2.0, 3.0):
            oracle = radial_inverse_ft(lambda rho: 1.0 / (rho ** 4 + 1.0), 5, r)
            got = polyharm_kernel(q, r)
            assert got.real == pytest.approx(oracle, rel=1e-6)
            assert abs(got.imag) < 1e-10 * abs(got.real)

    def test_z0_directed_to_riesz(self):
        q = ResolventQuery(z=0.0, m=2, n=5)
        with pytest.raises(ValueError):
            polyharm_kernel(q, 1.0)


class TestRieszAndBessel:
    def test_bessel_positive_decreasing(self):
        r = np.logspace(-1, 1, 40)
        vals = bessel_kernel(3, r)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_bessel_n3_closed_form(self):
        r = 1.7
        assert bessel_kernel(3, r) == pytest.approx(
            np.exp(-r) / (4 * np.pi * r), rel=1e-12)
