"""Admissible pairs, sample families, and the space-time / scaling probes."""

import copy
import math
import sys
import threading
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.fft

from polyharmlab import grid as grid_module
from polyharmlab import probes
from polyharmlab.grid import (
    ConfigError,
    GridSpec,
    abs_derivative_symbol,
    abs_power,
    apply_multiplier,
    apply_symbol_spectrum,
    norm_lp,
    outer_product,
    samples_from_spectrum,
    slabs,
    smoothing_weight,
)
from polyharmlab.hamiltonian import Hamiltonian, projector_ac, propagate
from polyharmlab.potentials import Potential, gaussian_well
from polyharmlab.reporting import ProbeReport
from polyharmlab.probes import (
    AdmissiblePair,
    frequency_localized_samples,
    kato_smoothing_probe,
    plateau_increments,
    sobolev_scaling_probe,
    stein_weiss_probe,
    stein_weiss_satisfied,
    strichartz_probe,
    validate_admissible,
)


class _CopyingBackend:
    """A scipy.fft backend that never transforms in place: pocketfft called
    without overwrite_x, so every result is a new array.  calls counts the
    transforms it made."""

    __ua_domain__ = "numpy.scipy.fft"
    calls = 0

    @classmethod
    def __ua_function__(cls, method, args, kwargs):
        fn = getattr(scipy.fft._pocketfft, method.__name__, None)
        if fn is None:
            return NotImplemented
        cls.calls += 1
        kwargs = {key: val for key, val in kwargs.items() if key != "overwrite_x"}
        return fn(*args, **kwargs)


def _free(grid):
    """V = 0 on grid."""
    return Potential(grid, np.zeros(grid.shape), "zero")


class TestAdmissiblePairs:
    def test_valid_pairs(self):
        AdmissiblePair(2, 10, Fraction(5, 4))
        AdmissiblePair(Fraction(8, 3), 4, Fraction(3, 2))
        AdmissiblePair(np.inf, 2, Fraction(3, 2))

    def test_forbidden_endpoint(self):
        assert not validate_admissible(2, np.inf, 1)
        with pytest.raises(ValueError):
            AdmissiblePair(2, np.inf, 1)

    def test_relation_must_hold_exactly(self):
        assert validate_admissible(Fraction(8, 3), 4, Fraction(3, 2))
        assert not validate_admissible(Fraction(8, 3), 4, Fraction(7, 5))
        assert not validate_admissible(3, 4, Fraction(3, 2))

    def test_range_bounds(self):
        assert not validate_admissible(1.5, 6, 2)  # p < 2
        assert not validate_admissible(4, 1.5, 2)  # q < 2

    def test_float_inputs(self):
        assert validate_admissible(2.0, 10.0, 1.25)
        assert validate_admissible(np.inf, 2.0, 0.5)
        # no exact rational value: not admissible
        assert not validate_admissible(4, 4, np.nan)
        assert not validate_admissible(4, 2, np.inf)
        assert not validate_admissible(np.nan, 4, 1)
        with pytest.raises(ValueError):
            AdmissiblePair(3, 3, np.nan)


class TestPlateauIncrements:
    def test_basic(self):
        assert plateau_increments([1.0, 2.0, 4.0]) == [1.0, 1.0]

    def test_flat(self):
        incs = plateau_increments([3.0, 3.0, 3.0])
        assert incs == [0.0, 0.0]

    def test_zero_start(self):
        assert plateau_increments([0.0, 1.0]) == [np.inf]


def full_grid_packs(g, count, rng):
    """frequency_localized_samples as full-grid exponentials, normalized to
    unit L^2 norm: the construction the axis factors replaced."""
    coords, big_l, out = g.coords(), g.half_width, []
    for j in range(count):
        width = big_l * rng.uniform(1.0 / 12.0, 1.0 / 8.0)
        center = rng.uniform(-big_l / 8.0, big_l / 8.0, size=g.n)
        if j == 0:
            carrier = np.zeros(g.n)
        else:
            carrier = rng.uniform(-1.0, 1.0, size=g.n)
            carrier *= 0.4 * g.nyquist_radius / max(1.0, np.linalg.norm(carrier)) * rng.uniform(0.2, 1.0)
        r2 = sum((coords[a] - center[a]) ** 2 for a in range(g.n))
        phase = sum(carrier[a] * coords[a] for a in range(g.n))
        vals = np.exp(-r2 / (2.0 * width ** 2)) * np.exp(1j * phase)
        out.append(vals / norm_lp(g, vals, 2))
    return out


def full_grid_draws(g, rng, count):
    """The shell samples' random numbers as whole grids: per sample the
    width factor, then one phase fraction per lattice point."""
    return [(rng.uniform(1.0, 3.0), rng.random(g.shape)) for _ in range(count)]


def shell_samples_complex_path(g, xi_abs, envelope, rho, draws):
    """_shell_localized_samples through full-grid temporaries and the complex
    synthesis of a fresh spectrum: the construction the in-place one
    replaced, for the same draws."""
    rho = min(rho, 0.8 * g.nyquist_radius)
    out = []
    for factor, fractions in draws:
        prof = np.exp(-((xi_abs - rho) / (g.h_xi * factor)) ** 2)
        phases = np.exp(2j * np.pi * fractions)
        vals = samples_from_spectrum(g, prof * phases) * envelope
        out.append(vals / np.linalg.norm(vals))
    return out


class TestSampleFamilies:
    def test_frequency_localized_normalized(self):
        g = GridSpec(3, 32, 6.0)
        packs = frequency_localized_samples(g, 4, np.random.default_rng(3))
        assert len(packs) == 4
        for factors in packs:
            assert len(factors) == 3
            assert norm_lp(g, outer_product(factors), 2) == pytest.approx(1.0, rel=1e-12)

    def test_frequency_localized_reproducible(self):
        g = GridSpec(3, 32, 6.0)
        a = frequency_localized_samples(g, 3, np.random.default_rng(5))
        b = frequency_localized_samples(g, 3, np.random.default_rng(5))
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(outer_product(fa), outer_product(fb))

    @pytest.mark.parametrize("n,npts", [(1, 64), (3, 32)])
    def test_frequency_localized_match_full_grid_formula(self, n, npts):
        g = GridSpec(n, npts, 6.0)
        got = frequency_localized_samples(g, 4, np.random.default_rng(7))
        want = full_grid_packs(g, 4, np.random.default_rng(7))
        for factors, vals in zip(got, want):
            np.testing.assert_allclose(outer_product(factors), vals,
                                       rtol=1e-13, atol=1e-13 * np.abs(vals).max())

    def test_edge_guard(self, monkeypatch):
        monkeypatch.setattr(probes, "EDGE_DECAY_TOL", 0.0)
        with pytest.raises(ValueError, match="decays to"):
            frequency_localized_samples(GridSpec(3, 16, 6.0), 1, np.random.default_rng(0))

    @pytest.mark.parametrize("rho", [0.5, 1.5, 3.0])
    def test_scaled_bumps_have_unit_factors(self, rho):
        # the sobolev rows depend on the candidates' absolute scale
        g = GridSpec(3, 48, 8.0)
        bumps = probes._scaled_bumps(g, rho)
        assert bumps
        for factors in bumps:
            assert len(factors) == 3
            for fac in factors:
                assert np.linalg.norm(fac) == pytest.approx(1.0, rel=1e-14)


class TestKatoSmoothingProbe:
    def test_free_case_finite(self):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, _free(g))
        rep = kato_smoothing_probe(h, 0.25, t_final=2.0, samples=2,
                                   rng=np.random.default_rng(2))
        assert rep.passes["finite"]
        assert rep.metrics["sup_ratio_samples"] > 0
        # the benchmark's gated metric is the sampled sup itself
        assert rep.metrics["sup_ratio_refined"] == rep.metrics["sup_ratio_samples"]
        assert len(rep.metrics["plateau_increments"]) == 2

    def test_gamma_window_enforced(self):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, _free(g))
        with pytest.raises(ValueError):
            kato_smoothing_probe(h, 0.75)  # above m - 1/2
        with pytest.raises(ValueError):
            kato_smoothing_probe(h, -0.5)  # at/below m - n/2
        with pytest.raises(ValueError):
            kato_smoothing_probe(h, 0.25, t_final=-1.0)


class TestSpaceTimeFunctional:
    """The one space-time functional both time-integral probes measure,
    || A e^{itH} P_ac psi0 ||_{L^p_t L^q_x} / ||psi0||_2."""

    T_FINAL = 2.0

    def case(self, potential):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, potential(g))
        times = probes._symmetric_times(self.T_FINAL, 0.25)
        t_checks = [self.T_FINAL / 4.0, self.T_FINAL / 2.0, self.T_FINAL]
        return g, h, times, t_checks

    def test_free_identity_l2_is_unitary(self):
        # V = 0, A = 1, p = q = 2: ||e^{itH} psi0||_2 = ||psi0||_2 at every t,
        # so the ratio is sqrt(2 T_j) at every checkpoint
        g, h, times, t_checks = self.case(_free)
        for factors in frequency_localized_samples(g, 2, np.random.default_rng(2)):
            ratios = probes._space_time_ratios(h, times, lambda st: st, 2.0, 2.0,
                                               outer_product(factors), t_checks)
            np.testing.assert_allclose(ratios, np.sqrt(2.0 * np.array(t_checks)),
                                       rtol=1e-10)

    def test_free_strichartz_gaussian_matches_the_sharp_constant(self):
        # n = 1, m = 1, V = 0, (p, q) = (6, 6): every Gaussian attains the
        # sharp constant 12^(-1/12) (Foschini, J. Eur. Math. Soc. 9 (2007);
        # Hundertmark and Zharnitsky, IMRN 2006), and on [-T, T] the
        # Gaussian exp(-x^2 / sigma^2) gives exactly
        # 12^(-1/12) ((2 / pi) arctan(4 T / sigma^2))^(1/6).  Measured
        # relative errors: 3.2e-6, 4.6e-7 and 5.8e-8 at T/4, T/2 and T
        g = GridSpec(1, 512, 20.0)
        sigma, t_final = 1.0, 2.0
        t_checks = [t_final / 4.0, t_final / 2.0, t_final]
        psi0 = np.exp(-g.radii() ** 2 / sigma ** 2) + 0j
        ratios = probes._space_time_ratios(
            Hamiltonian(g, 1, _free(g)), probes._symmetric_times(t_final, 0.01),
            lambda st: st, 6.0, 6.0, psi0, t_checks)
        exact = [12.0 ** (-1.0 / 12.0)
                 * (2.0 / math.pi * math.atan(4.0 * t / sigma ** 2)) ** (1.0 / 6.0)
                 for t in t_checks]
        np.testing.assert_allclose(ratios, exact, rtol=1e-5)

    def test_unbounded_functional_fails_the_plateau(self):
        # the time integral 2 T_j doubles with T: increment 1 per doubling
        _, h, times, _ = self.case(_free)
        rep = ProbeReport("unbounded")
        best = probes._sup_over_samples(
            rep, h, 2, np.random.default_rng(2), times, lambda st: st, 2.0, 2.0,
            probes.PLATEAU_TOL, integral=True)
        assert best == pytest.approx(2.0 * self.T_FINAL, rel=1e-10)
        np.testing.assert_allclose(rep.metrics["plateau_increments"], [1.0, 1.0],
                                   rtol=1e-9)
        assert rep.passes == {"finite": True, "plateau": False}

    def test_smoothing_identity_path_matches_the_multiplier(self):
        # gamma = 0 skips |D|^0; the rows equal the time integral of
        # ||W |D|^0 u(t)||^2 taken through the all-ones multiplier
        g, h, times, t_checks = self.case(lambda g: gaussian_well(g, 5.0))
        rep = kato_smoothing_probe(h, 0.0, t_final=self.T_FINAL, samples=2,
                                   rng=np.random.default_rng(2))
        weight = smoothing_weight(g, 1, 0.0, 0.1)
        ones = abs_derivative_symbol(g, 0.0)
        assert np.all(ones == 1.0)
        packs = frequency_localized_samples(g, 2, np.random.default_rng(2))
        for idx, factors in enumerate(packs):
            psi0 = outer_product(factors)
            sq = np.array([
                np.sum(weight ** 2 * np.abs(apply_multiplier(st, ones)) ** 2)
                * g.cell_volume
                for st in propagate(h, projector_ac(h, psi0), times)])
            want = [np.trapezoid(sq[np.abs(times) <= tc + 1e-12],
                                 times[np.abs(times) <= tc + 1e-12])
                    / norm_lp(g, psi0, 2) ** 2 for tc in t_checks]
            got = [row["ratio"] for row in rep.rows if row["sample"] == idx]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _smoothing(h, **kw):
    return kato_smoothing_probe(h, 0.25, **kw), 1


def _strichartz(h, **kw):
    pair = AdmissiblePair(Fraction(8, 3), 4, Fraction(3, 2))
    return strichartz_probe(h, pair, **kw), 8.0 / 3.0


TIME_INTEGRAL_PROBES = {"smoothing": _smoothing, "strichartz": _strichartz}


class TestTimeIntegralDriver:
    @pytest.mark.parametrize("name", TIME_INTEGRAL_PROBES)
    def test_plateau_flag_against_stated_tolerance(self, name):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, _free(g))

        def probe(tol):
            return TIME_INTEGRAL_PROBES[name](
                h, t_final=2.0, samples=3, plateau_tol=tol,
                rng=np.random.default_rng(2))

        rep, power = probe(0.05)
        # increment of the time integral ratio ** power over the last two
        # checkpoints of the sample with the largest final ratio
        finals = {row["sample"]: row["ratio"] for row in rep.rows}
        best = max(finals, key=finals.get)
        assert best > 0  # not the first sample, so the sup is a real choice
        sup = rep.metrics.get("sup_ratio", rep.metrics.get("sup_ratio_samples"))
        assert sup == finals[best]
        a, b = [row["ratio"] ** power for row in rep.rows
                if row["sample"] == best][-2:]
        inc = rep.metrics["plateau_increment"]
        assert inc == (b - a) / a > 0
        for tol, flag in ((inc / 2.0, False), (inc * 2.0, True)):
            rep, _ = probe(tol)
            assert rep.metrics["plateau_increment"] == inc
            assert rep.metrics["plateau_increments"][-1] == inc
            assert rep.metrics["plateau_tol"] == tol
            assert rep.passes["plateau"] is flag

    @pytest.mark.parametrize("name", TIME_INTEGRAL_PROBES)
    def test_zero_samples_rejected(self, name):
        g = GridSpec(3, 8, 4.0)
        h = Hamiltonian(g, 1, _free(g))
        with pytest.raises(ValueError, match="need at least one sample"):
            TIME_INTEGRAL_PROBES[name](h, t_final=1.0, samples=0)

    @pytest.mark.parametrize("name", TIME_INTEGRAL_PROBES)
    @pytest.mark.parametrize("t_final, time_step, message", [
        (0.0, 0.25, "t_final must be positive"),
        (-1.0, 0.25, "t_final must be positive"),
        (math.inf, 0.25, "t_final must be positive and finite"),
        (1.0, 0.0, "time_step must be positive"),
        (1.0, -0.25, "time_step must be positive"),
    ])
    def test_time_grid_rejected(self, name, t_final, time_step, message):
        g = GridSpec(3, 8, 4.0)
        h = Hamiltonian(g, 1, _free(g))
        with pytest.raises(ConfigError, match=message):
            TIME_INTEGRAL_PROBES[name](h, t_final=t_final, time_step=time_step,
                                       samples=1)


class TestStrichartzProbe:
    def test_free_standard_mode(self):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, _free(g))
        pair = AdmissiblePair(Fraction(8, 3), 4, Fraction(3, 2))
        rep = strichartz_probe(h, pair, t_final=2.0, samples=2,
                               rng=np.random.default_rng(4))
        assert rep.passes["finite"]
        assert rep.metrics["sup_ratio"] > 0

    def test_gain_mode_records_embedding(self):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 2, _free(g))
        pair = AdmissiblePair(4, 3, Fraction(3, 2))
        rep = strichartz_probe(h, pair, mode="gain", t_final=2.0, samples=2,
                               rng=np.random.default_rng(4))
        assert rep.metrics["sobolev_fitted_constant"] > 0
        assert rep.metrics["sobolev_partner_q1"] > rep.params["q"]

    def test_alpha_mismatch_rejected(self):
        g = GridSpec(3, 16, 6.0)
        h = Hamiltonian(g, 1, _free(g))
        pair = AdmissiblePair(2, 10, Fraction(5, 4))  # alpha for m=2, n=5
        with pytest.raises(ValueError):
            strichartz_probe(h, pair)
        with pytest.raises(ValueError):
            strichartz_probe(h, AdmissiblePair(Fraction(8, 3), 4, Fraction(3, 2)),
                             mode="nope")


def _refine_every_transform(grid, image, den, ratio, sym, p, q, stops):
    """probes._pq_norm_refine as it was before its underflow stops skipped
    transforms: each stop is taken only once a transform's output shows it.
    Appends (where, step, detail) of the stop to stops."""
    pp = p / (p - 1.0)
    u = image
    best = 0.0
    prev = 0.0
    for steps in range(40):
        if steps:
            ratio = norm_lp(grid, u, q) / den
        best = max(best, ratio)
        if prev > 0 and abs(ratio - prev) <= 2e-4 * prev:
            stops.append(("converged", steps, None))
            return best, steps, "converged"
        prev = ratio
        nonzero = False
        for rows in slabs(grid.shape):
            part = u[rows]
            part *= abs_power(part, q - 2.0)
            nonzero |= bool(probes._flush_subnormal(part).any())
        if not nonzero:
            stops.append(("J_q flushed", steps, ratio))
            return best, steps, "underflow"
        w = apply_symbol_spectrum(probes.scipy.fft.fftn(u, overwrite_x=True),
                                  sym, adjoint=True)
        peak = np.max([np.abs(w[rows]).max() for rows in slabs(grid.shape)])
        if peak == 0.0:
            stops.append(("peak", steps, None))
            return best, steps, "underflow"
        for rows in slabs(grid.shape):
            part = w[rows]
            aw = np.abs(part)
            aw /= peak
            aw **= pp - 2.0
            part *= aw
            part[~np.isfinite(part)] = 0.0
            probes._flush_subnormal(part)
        den = norm_lp(grid, w, p)
        if den == 0.0:
            stops.append(("den", steps, "normal" if w.any() else "all flushed"))
            return best, steps, "underflow"
        u = apply_symbol_spectrum(probes.scipy.fft.fftn(w, overwrite_x=True), sym)
    stops.append(("cap", 40, None))
    return best, 40, "cap"


class TestSobolevScalingProbe:
    @pytest.mark.parametrize("slope,width,matches", [
        (0.04, 0.2, True), (0.06, 0.2, False), (-0.127, 0.12, False)])
    def test_slope_gate_uses_the_stated_tolerance(self, monkeypatch, slope,
                                                  width, matches):
        # the fit's confidence width is recorded, never added to slope_tol
        monkeypatch.setattr(probes, "fit_loglog", lambda x, y: (slope, 0.0, width))
        g = GridSpec(3, 16, 8.0)
        rep = sobolev_scaling_probe(g, 1, 0.5, 4.0 / 3.0, 4.0,
                                    np.logspace(-0.5, 1.0, 3), samples=1,
                                    rng=np.random.default_rng(8), slope_tol=0.05)
        assert rep.metrics["expected_slope"] == pytest.approx(0.0, abs=1e-12)
        assert rep.metrics["slope_confidence"] == width
        assert rep.passes["slope_matches"] is matches

    @pytest.mark.parametrize("rho", [1.5, 3.0])
    def test_screened_ratios_match_full_grid_candidates(self, rho):
        # the candidates as full-grid samples: packs, envelope and bumps from
        # full-grid exponentials, each ratio through apply_multiplier: the
        # screening it replaced
        g = GridSpec(3, 48, 8.0)
        p, q = 4.0 / 3.0, 4.0
        sym = abs_derivative_symbol(g, 0.5) / (g.xi_radii() ** 2 - rho ** 2 * 1j)
        xi_abs, r2 = g.xi_radii(), g.radii() ** 2
        envelope = np.exp(-r2 / (2.0 * (g.half_width / 8.0) ** 2))
        rng = np.random.default_rng(5)
        packs = full_grid_packs(g, 2, rng)
        # the shell samples are screened first, then the packs and bumps
        draws = full_grid_draws(g, rng, 2)
        samples = shell_samples_complex_path(g, xi_abs, envelope, rho, draws)
        samples += packs
        carrier = np.exp(1j * rho * g.coords()[0])
        for c in (0.5, 1.0, 2.0, 4.0):
            scale = c / rho
            if 2.0 * g.h <= scale <= g.half_width / 6.0:
                vals = np.exp(-r2 / (2.0 * scale ** 2))
                samples += [vals, vals * carrier]
        want = [norm_lp(g, apply_multiplier(f, sym), q) / norm_lp(g, f, p)
                for f in samples]

        rng = np.random.default_rng(5)
        packs = frequency_localized_samples(g, 2, rng)
        envelope = probes._gaussian_factors(g, g.half_width / 8.0,
                                            np.zeros(3), np.zeros(3))
        draws = probes._shell_draws(g, rng, 2)
        got = []
        # every candidate is built in one reused buffer
        buf = np.full(g.shape, np.nan, dtype=np.complex128)
        for fill in probes._sobolev_candidates(g, packs, envelope, rho, p,
                                               draws):
            spec, den = fill(buf)
            got.append(norm_lp(g, apply_symbol_spectrum(spec, sym), q) / den)
        assert len(samples) > 4 + 2  # some bumps are screened
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_shell_candidate_under_a_copying_backend(self):
        # a scipy.fft backend that returns new arrays, never transforming in
        # place: the screening reads each transform's result from its return
        # value, so the rows and one shell candidate's norm and ratio are
        # those of the default backend.  With no packs, and no bump fitting
        # this grid, the shell samples are the only candidates.  The backend
        # is set for the calling thread only: at workers=1 the rows run there
        g = GridSpec(3, 16, 8.0)
        p, q, rho = 1.2, 6.0, 1.5
        sym = 1.0 / (g.xi_radii() ** 2 - rho ** 2 * 1j)

        def rows():
            return sobolev_scaling_probe(g, 1, 0.0, p, q, [0.3, 1.0, 10.0],
                                         samples=0,
                                         rng=np.random.default_rng(4)).rows

        def candidate():
            envelope = probes._gaussian_factors(g, g.half_width / 8.0,
                                                np.zeros(3), np.zeros(3))
            draws = probes._shell_draws(g, np.random.default_rng(4), 1)
            fill = next(probes._sobolev_candidates(g, [], envelope, rho, p, draws))
            spec, den = fill(np.empty(g.shape, dtype=np.complex128))
            return den, norm_lp(g, apply_symbol_spectrum(spec, sym), q) / den

        for check in (rows, candidate):
            want = check()
            _CopyingBackend.calls = 0
            with scipy.fft.set_backend(_CopyingBackend, only=True):
                got = check()
            assert _CopyingBackend.calls > 0
            np.testing.assert_equal(got, want)

    @pytest.mark.parametrize("rho", [1.5, 40.0])
    def test_lean_shell_samples_are_the_complex_path_bitwise(self, rho,
                                                             monkeypatch):
        # one complex buffer per sample, built in place in slabs of 5 of the
        # 24 leading rows, gives the bits of the full-grid construction;
        # rho = 40 is capped below Nyquist
        monkeypatch.setattr(grid_module, "SLAB_POINTS", 5 * 24 * 24)
        g = GridSpec(3, 24, 6.0)
        xi_abs = g.xi_radii()
        envelope = outer_product(probes._gaussian_factors(
            g, g.half_width / 8.0, np.zeros(3), np.zeros(3)))
        want = shell_samples_complex_path(
            g, xi_abs, envelope, rho, full_grid_draws(g, np.random.default_rng(3), 2))
        factors = probes._gaussian_factors(g, g.half_width / 8.0,
                                           np.zeros(3), np.zeros(3))
        for draw, b in zip(probes._shell_draws(g, np.random.default_rng(3), 2),
                           want):
            a = np.full(g.shape, np.nan, dtype=np.complex128)
            vals = probes._shell_sample(g, factors, rho, draw, a)
            assert np.shares_memory(vals, a)  # built in the buffer
            np.testing.assert_array_equal(vals, b)

    @pytest.mark.parametrize("slab_rows", [5, 24])
    def test_streamed_draws_are_the_full_grid_draws_bitwise(self, slab_rows,
                                                            monkeypatch):
        # the fractions drawn slab by slab from a sample's generator are one
        # full draw, for a slab size that divides the 24 rows and one that
        # does not, and rng is left where the full draws leave it
        monkeypatch.setattr(grid_module, "SLAB_POINTS", slab_rows * 24 * 24)
        g = GridSpec(3, 24, 6.0)
        rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
        draws = probes._shell_draws(g, rng, 2)
        want = full_grid_draws(g, oracle, 2)
        assert rng.bit_generator.state == oracle.bit_generator.state
        for draw, (factor, fractions) in zip(draws, want):
            before = draw.bit_generator.state
            for _ in range(2):  # a sample is drawn anew at every build
                gen = copy.deepcopy(draw)
                assert gen.uniform(1.0, 3.0) == factor
                got = np.concatenate([part.copy() for _, part in
                                      probes._phase_fractions(g, gen)])
                np.testing.assert_array_equal(got, fractions)
                out = np.empty(g.shape, dtype=np.complex128)
                probes._shell_sample(g, [np.ones(24)] * 3, 2.0, draw, out)
            assert draw.bit_generator.state == before

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_do_not_depend_on_workers(self, seed):
        # the rows run on threads, the draws stay in the calling thread: the
        # report and the rng's state are the same for every worker count
        g = GridSpec(3, (16, 20, 24)[seed % 3], 8.0)
        outcomes = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                rng = np.random.default_rng(seed)
                rep = sobolev_scaling_probe(g, 1, 0.0, 1.2, 6.0,
                                            np.geomspace(0.3, 10.0, 4),
                                            samples=2, rng=rng, workers=workers)
                outcomes.append((rep.rows, rep.metrics, rng.bit_generator.state))
        finally:
            sys.setswitchinterval(interval)
        assert outcomes[1] == outcomes[0]
        assert outcomes[2] == outcomes[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_failure_surfaces_and_leaves_no_thread(self, monkeypatch,
                                                       workers):
        refine = probes._pq_norm_refine
        started = []

        def failing(grid, image, den, ratio, sym, p, q):
            started.append(1)
            if len(started) == 2:
                raise FloatingPointError("row diverged")
            return refine(grid, image, den, ratio, sym, p, q)

        monkeypatch.setattr(probes, "_pq_norm_refine", failing)
        before = set(threading.enumerate())
        with pytest.raises(FloatingPointError, match="row diverged"):
            sobolev_scaling_probe(GridSpec(3, 16, 8.0), 1, 0.0, 1.2, 6.0,
                                  np.geomspace(0.3, 10.0, 4), samples=1,
                                  rng=np.random.default_rng(0), workers=workers)
        assert set(threading.enumerate()) <= before
        with pytest.raises(ValueError, match="workers"):
            sobolev_scaling_probe(GridSpec(3, 16, 8.0), 1, 0.0, 1.2, 6.0,
                                  [0.3, 1.0, 10.0], workers=0)

    def test_refinement_reuses_the_screened_ratio_and_stops_on_zero(self,
                                                                    monkeypatch):
        # a start whose duality image J_q(u) flushes to zero stops at step
        # 0 with the screening's ratio, before any transform
        g = GridSpec(3, 8, 4.0)
        calls = []
        monkeypatch.setattr(probes.scipy.fft, "fftn",
                            lambda *a, **k: calls.append(1))
        image = np.full(g.shape, 1e-300 + 0j)
        sym = np.ones(g.shape, dtype=complex)
        assert probes._pq_norm_refine(g, image, 1.0, 0.125, sym, 1.2, 6.0) == \
            (0.125, 0, "underflow")
        assert calls == []

    # (label, symbol scale, start: image scale or the constant-start
    # exponent, p, q, where the loop that runs every transform stops)
    UNDERFLOW_CASES = [
        # J_p'(A* J_q u) flushes everywhere: den = 0 at step 0
        ("a_flushed", -60, -196, 1.2, 6.0, ("den", 0, "all flushed")),
        # J_p'(A* J_q u) is normal, its p-th powers round to 0: den = 0 at 1
        ("a_pth_power", 0, -37, 1.2, 6.0, ("den", 1, "normal")),
        # the next iterate's ratio is 0 and J_q flushes it at step 3
        ("b", 0, -3, 1.2, 6.0, ("J_q flushed", 3, 0.0)),
        # a constant start 2^-611 under the constant symbol 2^38: every
        # ratio after step 0 is 0 (q-th powers round to 0), J_q never
        # flushes, and the exponent of the scale drifts down by a factor
        # q - 1 = 1.125 a step, so that the 40th iterate would flush
        ("b_at_cap", 38, -611, 1.05, 2.125, ("cap", 40, None)),
    ]

    @pytest.mark.parametrize("label, sym_exp, start_exp, p, q, path",
                             UNDERFLOW_CASES,
                             ids=[case[0] for case in UNDERFLOW_CASES])
    def test_refinement_skips_only_transforms_of_a_certain_underflow(
            self, monkeypatch, label, sym_exp, start_exp, p, q, path):
        # the refinement's (best, steps, stop) equal those of the loop that
        # runs every transform, one fftn/ifftn pair fewer where a stop is
        # certain before A* (a) or before A (b); at the cap A still runs
        g = GridSpec(3, 16, 8.0)
        if label == "b_at_cap":
            image = np.full(g.shape, 2.0 ** start_exp, dtype=complex)
            sym = np.full(g.shape, 2.0 ** sym_exp, dtype=complex)
        else:
            phases = np.random.default_rng(0).random(g.shape)
            image = (np.exp(-g.radii() ** 2 / 4.0) * np.exp(2j * np.pi * phases)
                     * 2.0 ** start_exp)
            sym = 2.0 ** sym_exp / (g.xi_radii() ** 2 - 1j)
        calls = []
        for name in ("fftn", "ifftn"):
            monkeypatch.setattr(probes.scipy.fft, name, partial(
                lambda f, *a, **k: calls.append(1) or f(*a, **k),
                getattr(probes.scipy.fft, name)))
        stops = []
        every = _refine_every_transform(g, image.copy(), 1.0, 0.125, sym, p, q,
                                        stops)
        every_calls = len(calls)
        calls.clear()
        assert probes._pq_norm_refine(g, image, 1.0, 0.125, sym, p, q) == every
        assert stops == [path]
        assert every[1:] == (path[1], "cap" if label == "b_at_cap" else "underflow")
        assert every_calls - len(calls) == (0 if label == "b_at_cap" else 2)

    def test_flush_subnormal(self):
        tiny = np.finfo(np.float64).tiny
        a = np.array([1e-310 + 1e-300j, -1e-320j, 3.0 - 1e-309j, tiny])
        assert probes._flush_subnormal(a) is a
        np.testing.assert_array_equal(a, [1e-300j, 0.0, 3.0, tiny])

    def test_validations(self):
        g = GridSpec(3, 16, 6.0)
        with pytest.raises(ValueError):
            sobolev_scaling_probe(g, 1, 0.5, 6.0 / 5.0, 6.0, [1.0, 3.0, 40.0],
                                  z_arg=0.0)  # ray on the positive axis
        with pytest.raises(ValueError):
            sobolev_scaling_probe(g, 1, 0.5, 6.0 / 5.0, 6.0, [1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            sobolev_scaling_probe(g, 1, 2.5, 6.0 / 5.0, 6.0, [1.0, 3.0, 40.0])
        with pytest.raises(ValueError):
            # 1/p - 1/q below 2/(n+1)
            sobolev_scaling_probe(g, 1, 0.5, 2.2, 4.0, [1.0, 3.0, 40.0])

    def test_free_laplacian_quick(self):
        # scale-invariant exponent set: expected slope exactly zero
        g = GridSpec(3, 48, 8.0)
        rep = sobolev_scaling_probe(g, 1, 0.5, 4.0 / 3.0, 4.0,
                                    np.logspace(-0.5, 1.0, 4), samples=2,
                                    rng=np.random.default_rng(8))
        assert rep.metrics["expected_slope"] == pytest.approx(0.0, abs=1e-12)
        assert all(row["norm"] > 0 for row in rep.rows)
        assert rep.metrics["decades"] >= 1.5
        stops = [row["refine_stop"] for row in rep.rows]
        assert set(stops) <= {"converged", "underflow", "cap"}
        assert all(0 <= row["refine_steps"] <= 40 for row in rep.rows)
        assert rep.metrics["refine_underflow_stops"] == stops.count("underflow")


class TestSteinWeiss:
    def test_satisfied_predicate(self):
        assert stein_weiss_satisfied(2.0, 0.5, 0.5, 3)
        assert not stein_weiss_satisfied(3.0, 0.0, 0.0, 3)  # lam = n excluded
        assert not stein_weiss_satisfied(0.2, 1.6, 1.2, 3)  # alpha > n/2
        assert not stein_weiss_satisfied(2.0, 0.4, 0.5, 3)  # sum != n

    def test_identity_symbol_norm_one(self):
        # lam = n makes the multiplier trivial and both weights flat
        rep = stein_weiss_probe(3.0, 0.0, 0.0, 3, npts_ladder=(8, 16),
                                rng=np.random.default_rng(1))
        for row in rep.rows:
            assert row["norm"] == pytest.approx(1.0, rel=1e-6)
        assert rep.passes["stabilized"]
        assert not rep.metrics["satisfied"]

    def test_satisfied_stabilizes_violating_grows(self):
        sat = stein_weiss_probe(2.0, 0.5, 0.5, 3, npts_ladder=(8, 16, 32),
                                rng=np.random.default_rng(1), stab_tol=0.2)
        vio = stein_weiss_probe(0.2, 1.6, 1.2, 3, npts_ladder=(8, 16, 32),
                                rng=np.random.default_rng(1), stab_tol=0.2)
        assert sat.metrics["satisfied"]
        assert sat.metrics["last_rel_change"] < vio.metrics["last_rel_change"]
        assert vio.metrics["norms"][-1] > 1.3 * vio.metrics["norms"][-2]

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            stein_weiss_probe(2.0, 0.5, 0.5, 3, npts_ladder=(8,))
