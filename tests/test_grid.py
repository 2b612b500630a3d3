"""Grid, transforms, multipliers, norms, and field serialization."""

import io
import struct

import numpy as np
import pytest
import scipy.fft

from polyharmlab.counterexample import build_embedded_pair
from polyharmlab.grid import (
    ConfigError,
    GridSpec,
    abs_derivative_symbol,
    apply_multiplier,
    apply_symbol,
    apply_symbol_spectrum,
    check_smoothing_gamma,
    forward_transform,
    norm_lp,
    outer_product,
    read_field,
    real_inverse_fft,
    samples_from_spectrum,
    separable_norm_lp,
    slabs,
    smoothing_weight,
    sphere_area,
    unit_ball_volume,
    weight_abs_power,
    weight_bracket_power,
    write_field,
)
from polyharmlab.hamiltonian import (Hamiltonian, projector_ac, propagate,
                                     propagate_adjoint)
from polyharmlab.potentials import gaussian_well

RNG = np.random.default_rng(42)


def random_samples(grid):
    return RNG.standard_normal(grid.shape) + 1j * RNG.standard_normal(grid.shape)


class TestGridSpec:
    def test_spacings(self):
        g = GridSpec(3, 16, 4.0)
        assert g.h == pytest.approx(0.5)
        assert g.h_xi == pytest.approx(np.pi / 4.0)
        assert g.cell_volume == pytest.approx(0.125)
        assert g.nyquist_radius == pytest.approx(np.pi / 4.0 * 8)
        assert g.shape == (16, 16, 16)
        assert g.size == 16 ** 3

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(2, 16, 4.0)

    def test_odd_point_count_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(3, 15, 4.0)

    def test_memory_budget_enforced(self):
        with pytest.raises(ConfigError, match="memory budget"):
            GridSpec(3, 512, 4.0)  # 512^3 > 2^25
        GridSpec(3, 256, 4.0)  # 256^3 = 2^24 is within it

    def test_coords_cover_box(self):
        g = GridSpec(1, 8, 2.0)
        assert g.axis_coords()[0] == pytest.approx(-2.0)
        assert g.axis_coords()[-1] == pytest.approx(2.0 - g.h)

    @pytest.mark.parametrize("n", [1, 3])
    def test_xi_radii_of_rows_are_the_rows_of_the_whole_grid(self, n):
        g = GridSpec(n, 8, 2.0)
        half = g.xi_radii()[..., :5]
        for rows in (slice(0, 3), slice(3, 8), slice(5, 13)):
            np.testing.assert_array_equal(g.xi_radii(rows), g.xi_radii()[rows])
            np.testing.assert_array_equal(g.radii(rows=rows), g.radii()[rows])
            np.testing.assert_array_equal(g.xi_radii(rows, half=True),
                                          half[rows])
            np.testing.assert_array_equal(
                abs_derivative_symbol(g, -1.5, rows),
                abs_derivative_symbol(g, -1.5)[rows])

    def test_half_lattice_is_the_real_transforms(self):
        # rfftn's last axis holds the frequencies 0, ..., N/2
        g = GridSpec(3, 8, 2.0)
        assert g.xi_radii(half=True).shape == scipy.fft.rfftn(
            np.zeros(g.shape)).shape
        np.testing.assert_array_equal(g.xi_radii(half=True)[0, 0],
                                      g.h_xi * np.arange(5))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_radii_equal_the_meshgrid_formula(self, n):
        g = GridSpec(n, 8, 2.0)
        r = np.sqrt(np.sum(g.coords() ** 2, axis=0))
        np.testing.assert_array_equal(g.radii(), r)
        np.testing.assert_array_equal(g.radii(regularize_origin=True),
                                      np.where(r == 0.0, g.origin_cell_radius(), r))
        np.testing.assert_array_equal(g.xi_radii(),
                                      np.sqrt(np.sum(g.freqs() ** 2, axis=0)))

    def test_origin_cell_radius_volume(self):
        g = GridSpec(3, 16, 4.0)
        r0 = g.origin_cell_radius()
        assert unit_ball_volume(3) * r0 ** 3 == pytest.approx(g.cell_volume)

    def test_sphere_area(self):
        assert sphere_area(3, 2.0) == pytest.approx(4 * np.pi * 4.0)


class TestCallerArrays:
    def test_calls_leave_caller_arrays_unchanged_and_writeable(self):
        # ROADMAP: library calls do not mutate or freeze the caller's arrays
        g = GridSpec(3, 8, 3.0)
        h = Hamiltonian(g, 1, gaussian_well(g, 8.0))
        assert h.eigenset().count_negative >= 1  # projector_ac has work to do
        times = [-1.0, 0.5, 2.0]
        psi = random_samples(g)
        stack = np.stack([random_samples(g) for _ in times])
        calls = [
            (psi, lambda: propagate(h, psi, times)),
            (psi, lambda: projector_ac(h, psi)),
            (psi, lambda: norm_lp(g, psi, 3.0)),
            (psi, lambda: write_field(g, psi, io.BytesIO())),
            (stack, lambda: propagate_adjoint(h, stack, times)),
        ]
        for arr, call in calls:
            before = arr.copy()
            out = call()
            np.testing.assert_array_equal(arr, before)
            assert arr.flags.writeable
            if isinstance(out, np.ndarray):
                assert out.flags.writeable and not np.shares_memory(out, arr)


class TestTransforms:
    @pytest.mark.parametrize("n,npts", [(1, 32), (3, 16)])
    def test_round_trip(self, n, npts):
        g = GridSpec(n, npts, 3.0)
        f = random_samples(g)
        hat = forward_transform(g, f)
        back = samples_from_spectrum(g, hat)
        np.testing.assert_allclose(back, f, atol=1e-12)
        # the synthesis runs in the buffer of hat
        assert np.shares_memory(back, hat)
        # flat samples transform as their grid-shaped view
        np.testing.assert_array_equal(forward_transform(g, f.reshape(-1)),
                                      forward_transform(g, f))

    def test_parseval(self):
        g = GridSpec(3, 16, 3.0)
        f = random_samples(g)
        fhat = forward_transform(g, f)
        assert isinstance(fhat, np.ndarray) and fhat.shape == g.shape
        hat_norm = np.sqrt(np.sum(np.abs(fhat) ** 2) * g.cell_volume_xi)
        assert hat_norm == pytest.approx(norm_lp(g, f, 2), rel=1e-12)

    def test_gaussian_transform_matches_continuum(self):
        # e^{-x^2/2} is its own unitary Fourier transform
        g = GridSpec(1, 128, 12.0)
        fhat = forward_transform(g, np.exp(-g.coords()[0] ** 2 / 2.0))
        xi = np.sort(g.axis_freqs())
        expect = np.exp(-xi ** 2 / 2.0)
        got = np.real(fhat[np.argsort(g.axis_freqs())])
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_plane_wave_is_delta(self):
        g = GridSpec(1, 16, np.pi)
        k = 3
        fhat = forward_transform(g, np.exp(1j * k * g.coords()[0]))
        mags = np.abs(fhat)
        peak = np.argmax(mags)
        assert g.axis_freqs()[peak] == pytest.approx(float(k))
        mags_rest = np.delete(mags, peak)
        assert mags_rest.max() < 1e-12 * mags[peak]


class TestSymbols:
    def test_negative_order_zero_mode_rule(self):
        g = GridSpec(3, 8, 2.0)
        sym = abs_derivative_symbol(g, -2.0)
        assert sym[(0, 0, 0)] == 0.0
        assert np.all(np.isfinite(sym))

    def test_smoothing_operator(self):
        g = GridSpec(3, 8, 2.0)
        d = abs_derivative_symbol(g, -0.5)
        assert d[(0, 0, 0)] == 0.0
        assert d[(0, 0, 1)] == g.xi_radii()[(0, 0, 1)] ** -0.5
        np.testing.assert_array_equal(smoothing_weight(g, 1, 0.25, 0.1),
                                      weight_abs_power(g, -0.75))
        # the endpoint gamma = m - 1/2 is matched to a tolerance, not exactly
        np.testing.assert_array_equal(smoothing_weight(g, 1, 0.5 - 1e-14, 0.1),
                                      weight_bracket_power(g, -0.6))
        check_smoothing_gamma(1, 3, 0.5)
        for gamma in (0.75, -0.5):
            with pytest.raises(ValueError, match="admissible window"):
                check_smoothing_gamma(1, 3, gamma)

    def test_multiplier_identity(self):
        g = GridSpec(3, 8, 2.0)
        f = random_samples(g)
        out = apply_multiplier(f, np.ones(g.shape))
        np.testing.assert_allclose(out, f, atol=1e-12)

    def test_multiplier_composition(self):
        g = GridSpec(3, 8, 2.0)
        f = random_samples(g)
        lap = g.xi_radii() ** 2
        twice = apply_multiplier(apply_multiplier(f, lap), lap)
        once = apply_multiplier(f, lap ** 2)
        np.testing.assert_allclose(twice, once, atol=1e-10)


def centred_composition(g, f, sym):
    """The multiplier through the unitary transforms: forward, sigma, inverse."""
    return samples_from_spectrum(g, sym * forward_transform(g, f))


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSpectralKernel:
    @pytest.mark.parametrize("n,npts", [(1, 16), (3, 8)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_multiplier_matches_centred_composition(self, n, npts, kind):
        g = GridSpec(n, npts, 2.5)
        f = random_samples(g)
        xi2 = g.xi_radii() ** 2
        sym = xi2 ** 2 if kind == "real" else 1.0 / (xi2 - (1.0 + 0.3j))
        assert max_rel(apply_multiplier(f, sym),
                       centred_composition(g, f, sym)) <= 1e-12

    @pytest.mark.parametrize("n,npts", [(1, 16), (3, 8)])
    def test_zero_mode_override_matches_centred_composition(self, n, npts):
        # |D|^{-3/2}: abs_derivative_symbol overrides the infinite zero mode by 0
        g = GridSpec(n, npts, 2.5)
        f = random_samples(g)
        sym = abs_derivative_symbol(g, -1.5)
        got = apply_multiplier(f, sym)
        assert max_rel(got, centred_composition(g, f, sym)) <= 1e-12
        # the override is what reaches the constant mode
        ones = np.ones(g.shape, dtype=complex)
        np.testing.assert_allclose(apply_multiplier(ones, sym), 0.0, atol=1e-12)

    def test_kernel_leaves_caller_array_alone(self):
        g = GridSpec(3, 8, 2.0)
        vals = random_samples(g)
        before = vals.copy()
        apply_multiplier(vals, g.xi_radii() ** 2 + 0.5j)
        out = apply_symbol(vals, g.xi_radii() ** 2)
        np.testing.assert_array_equal(vals, before)
        assert vals.flags.writeable
        assert out is not vals and not np.shares_memory(out, vals)

    def test_derivative_of_real_input(self):
        g = GridSpec(1, 64, 6.0)
        x = g.coords()[0]
        vals = np.exp(-x ** 2)
        out = apply_symbol(vals, 1j * g.freqs()[0])  # d/dx
        assert out.dtype == np.complex128
        np.testing.assert_allclose(out.real, -2.0 * x * vals, atol=1e-10)

    @pytest.mark.parametrize("n,npts", [(1, 16), (3, 8)])
    def test_odd_symbol_on_real_input_takes_complex_path(self, n, npts):
        # i xi_a, a derivative of real samples: a complex symbol keeps the
        # complex path, bit for bit
        g = GridSpec(n, npts, 2.5)
        vals = RNG.standard_normal(g.shape)
        sym = 1j * g.freqs()[n - 1]
        want = scipy.fft.ifftn(sym * scipy.fft.fftn(vals))
        np.testing.assert_array_equal(apply_symbol(vals, sym), want)

    @pytest.mark.parametrize("n,npts", [(1, 6), (1, 16), (1, 96), (3, 4),
                                        (3, 10), (3, 16), (3, 24)])
    def test_real_inverse_fft_is_irfftn(self, n, npts):
        shape = (npts,) * n
        half = scipy.fft.rfftn(RNG.standard_normal(shape))
        half *= RNG.standard_normal(half.shape)  # a spectrum of no symmetry
        want = scipy.fft.irfftn(half, s=shape)
        got = real_inverse_fft(half, shape)  # consumes half
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, want)

    def test_no_irfftn_call_remains(self, monkeypatch):
        # irfftn copies its input into a hidden whole-array temporary
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.fft.irfftn called")

        monkeypatch.setattr(scipy.fft, "irfftn", refuse)
        g = GridSpec(3, 16, 2.5)
        vals = RNG.standard_normal(g.shape)
        assert apply_symbol(vals, g.xi_radii() ** 2).dtype == np.float64
        build_embedded_pair(GridSpec(3, 16, 1.1), 2, 1.0)

    @pytest.mark.parametrize("n,npts", [(1, 16), (3, 8)])
    def test_real_path_accepts_a_half_lattice_symbol(self, n, npts):
        g = GridSpec(n, npts, 2.5)
        vals = RNG.standard_normal(g.shape)
        np.testing.assert_array_equal(
            apply_symbol(vals, g.xi_radii(half=True) ** 4),
            apply_symbol(vals, g.xi_radii() ** 4))

    @pytest.mark.parametrize("n,npts", [(1, 16), (3, 8)])
    @pytest.mark.parametrize("kind", ["xi^2", "xi^4", "xi^0.7", "xi^-1.5",
                                      "resolvent z<0", "resolvent m=2 z<0"])
    def test_real_path_matches_complex_path(self, n, npts, kind):
        g = GridSpec(n, npts, 2.5)
        xi = g.xi_radii()
        sym = {"xi^2": xi ** 2, "xi^4": xi ** 4,
               "xi^0.7": abs_derivative_symbol(g, 0.7),
               "xi^-1.5": abs_derivative_symbol(g, -1.5),
               "resolvent z<0": 1.0 / (xi ** 2 + 0.7),
               "resolvent m=2 z<0": 1.0 / (xi ** 4 + 0.7)}[kind]
        vals = RNG.standard_normal(g.shape)
        before = vals.copy()
        got = apply_symbol(vals, sym)
        assert got.dtype == np.float64 and got.shape == g.shape
        np.testing.assert_array_equal(vals, before)
        assert vals.flags.writeable
        want = apply_symbol(vals.astype(np.complex128), sym)
        assert want.dtype == np.complex128
        assert max_rel(got, want) <= 1e-12


class TestSeparableInputs:
    @staticmethod
    def bump_factors(g, modulated):
        x = g.axis_coords()
        gauss = np.exp(-x ** 2 / (2.0 * 0.7 ** 2))
        first = gauss * np.exp(1.3j * x) if modulated else gauss
        return [first] + [gauss] * (g.n - 1)

    @staticmethod
    def assemble(factors):
        out = factors[0]
        for fac in factors[1:]:
            out = np.multiply.outer(out, fac)
        return out

    @pytest.mark.parametrize("n,npts", [(1, 32), (3, 16)])
    @pytest.mark.parametrize("modulated", [False, True])
    def test_spectrum_equals_fftn_of_sample(self, n, npts, modulated):
        g = GridSpec(n, npts, 4.0)
        factors = self.bump_factors(g, modulated)
        want = scipy.fft.fftn(self.assemble(factors))
        # the outer product of the 1-D transforms, written into a buffer
        out = np.empty(g.shape, dtype=np.complex128)
        spectra = [scipy.fft.fft(fac) for fac in factors]
        got = outer_product(spectra, out=out)
        assert got is out
        assert max_rel(got, want) <= 1e-13
        np.testing.assert_array_equal(got, outer_product(spectra))

    @pytest.mark.parametrize("n,npts", [(1, 32), (3, 16)])
    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
    def test_norm_equals_full_grid_norm(self, n, npts, p):
        g = GridSpec(n, npts, 4.0)
        factors = self.bump_factors(g, True)
        want = norm_lp(g, self.assemble(factors), p)
        assert separable_norm_lp(g, factors, p) == pytest.approx(want, rel=1e-13)

    def test_spectrum_kernel_is_apply_symbols_complex_path(self):
        g = GridSpec(3, 8, 2.5)
        vals = random_samples(g)
        sym = 1.0 / (g.xi_radii() ** 2 - (1.0 + 0.3j))
        spec = scipy.fft.fftn(vals)
        got = apply_symbol_spectrum(spec, sym)
        np.testing.assert_array_equal(got, apply_symbol(vals, sym))
        # spec is consumed: the result lives in its buffer
        assert np.shares_memory(got, spec)

    def test_adjoint_spectrum_kernel_is_bitwise(self):
        # adjoint applies conj(sym) without a conjugated copy of sym and
        # gives the bits of the plain kernel with conj(sym)
        g = GridSpec(3, 8, 2.5)
        sym = 1.0 / (g.xi_radii() ** 2 - (1.0 + 0.3j))
        spec = scipy.fft.fftn(random_samples(g))
        np.testing.assert_array_equal(
            apply_symbol_spectrum(spec.copy(), sym, adjoint=True),
            apply_symbol_spectrum(spec.copy(), np.conj(sym)))


class TestNormsAndWeights:
    @pytest.mark.parametrize("n,npts", [(1, 3 * 2 ** 16 + 10), (3, 70)])
    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0, np.inf])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_slab_norm_equals_the_whole_array_formula(self, n, npts, p, kind):
        # the leading axis is not a multiple of the slab rows (65536 rows of
        # one point in 1-D, 13 rows of 70^2 points in 3-D)
        g = GridSpec(n, npts, 4.0)
        rows = [s.stop - s.start for s in slabs(g.shape)]
        assert len(rows) > 1 and npts % rows[0] != 0
        f = RNG.standard_normal(g.shape)
        if kind == "complex":
            f = f + 1j * RNG.standard_normal(g.shape)
        if np.isinf(p):
            assert norm_lp(g, f, p) == float(np.abs(f).max())
        else:
            want = (np.sum(np.abs(f) ** p) * g.cell_volume) ** (1.0 / p)
            assert norm_lp(g, f, p) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
    def test_even_norm_by_products_matches_the_float_power(self, p):
        g = GridSpec(3, 16, 3.0)
        f = random_samples(g)
        want = (np.sum(np.abs(f) ** p) * g.cell_volume) ** (1.0 / p)
        assert norm_lp(g, f, p) == pytest.approx(want, rel=1e-14)

    def test_l2_norm_is_the_rounded_root_of_the_squared_moduli(self):
        # bit for bit the L^2 norm the probes' denominators have always used
        g = GridSpec(3, 8, 1.5)
        for f in (random_samples(g), RNG.standard_normal(g.shape)):
            want = float(np.sqrt(np.sum(np.abs(f) ** 2) * g.cell_volume))
            assert norm_lp(g, f, 2) == want
            assert norm_lp(g, f.reshape(-1), 2) == want

    def test_norm_lp_constants(self):
        g = GridSpec(3, 8, 1.0)
        f = np.full(g.shape, 2.0 + 0j)
        vol = (2.0 * g.half_width) ** g.n
        assert norm_lp(g, f, 2.0) == pytest.approx(2.0 * np.sqrt(vol))
        assert norm_lp(g, f, np.inf) == pytest.approx(2.0)
        # real samples give the norm of their complex cast
        assert norm_lp(g, f.real, 4.0) == norm_lp(g, f, 4.0)
        with pytest.raises(ValueError):
            norm_lp(g, f, 0.5)

    def test_abs_weight_finite_at_origin(self):
        g = GridSpec(3, 8, 2.0)
        w = weight_abs_power(g, -2.0)
        assert np.all(np.isfinite(w))


def write_bytes(grid, values):
    buf = io.BytesIO()
    write_field(grid, values, buf)
    return buf.getvalue()


class TestSerialization:
    def test_round_trip(self):
        g = GridSpec(3, 8, 2.5)
        f = random_samples(g)
        back_grid, back = read_field(io.BytesIO(write_bytes(g, f)))
        assert back_grid == GridSpec(3, 8, 2.5)
        assert back.dtype == np.complex128 and back.shape == g.shape
        np.testing.assert_array_equal(back, f)
        # real samples are written with zero imaginary parts, as their
        # complex cast, and flat samples as their grid-shaped view
        assert write_bytes(g, f.real) == write_bytes(g, f.real.astype(np.complex128))
        assert write_bytes(g, f.reshape(-1)) == write_bytes(g, f)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            read_field(io.BytesIO(b"NOPE" + b"\x00" * 64))

    @pytest.mark.parametrize("size, message", [
        (4 + 8, "header is truncated"),
        (21 + 16 * 512 - 1, "shorter than the 8192 bytes"),
        (21 + 8, "shorter than the 8192 bytes"),
        (21 + 16 * 512 + 1, "longer than the 8192 bytes"),
        (21 + 16 * 513, "longer than the 8192 bytes"),
    ])
    def test_payload_of_the_wrong_length_rejected(self, size, message):
        # the 21-byte header of an 8^3 grid, then exactly 16 bytes per point
        g = GridSpec(3, 8, 2.5)
        raw = write_bytes(g, random_samples(g)) + b"\x00" * 32
        with pytest.raises(ValueError, match=message):
            read_field(io.BytesIO(raw[:size]))

    def test_frequency_tag_rejected(self):
        # the format is unchanged: tag byte 0 after the header, then the
        # interleaved payload; tag 1 (frequency-side values) is not read
        g = GridSpec(1, 8, 1.0)
        f = random_samples(g)
        raw = write_bytes(g, f)
        head = b"PHLF" + struct.pack("<iidB", 1, 8, 1.0, 0)
        assert raw[:len(head)] == head
        assert len(raw) == len(head) + 16 * g.size
        np.testing.assert_array_equal(
            np.frombuffer(raw[len(head):], dtype=np.float64)[1::2], f.imag)
        tagged = bytearray(raw)
        tagged[len(head) - 1] = 1
        with pytest.raises(ValueError, match="tag 1"):
            read_field(io.BytesIO(bytes(tagged)))
