"""Measurement suites for space-time functionals of H = (-Delta)^m + V:
weighted smoothing integrals, mixed-norm dispersive quadratures with and
without a regularity gain, resolvent L^p -> L^q scaling exponents, and
weighted-multiplier boundedness ladders.

All global-in-time estimates are truncated to [-T, T] and reported as plateau
curves: a bounded functional shows a small relative increment on the last
doubling of T, an unbounded one keeps growing.  Sups over inputs are taken as
the max over seeded frequency-localized samples, refined by power iteration on
the induced quadratic form where the functional is quadratic.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.fft

from .grid import (
    ConfigError,
    GridSpec,
    abs_derivative_symbol,
    abs_power,
    apply_multiplier,
    apply_symbol,
    apply_symbol_spectrum,
    check_smoothing_gamma,
    norm_lp,
    outer_product,
    samples_from_spectrum,
    separable_norm_lp,
    slabs,
    smoothing_weight,
    weight_abs_power,
    weighted_l2_norm,
)
from .hamiltonian import Hamiltonian, projector_ac, propagate, propagate_adjoint
from .operators import NormEstimate, operator_norm, weighted_multiplier
from .reporting import ProbeReport, fit_loglog
from .resolvent import z_ray

#: Relative increment on the last T-doubling below which a time integral is
#: declared plateaued.
PLATEAU_TOL = 0.05

#: Largest allowed |input| on the box faces relative to its peak.
EDGE_DECAY_TOL = 1e-10


# ---------------------------------------------------------------------------
# admissible exponent pairs
# ---------------------------------------------------------------------------

def _as_fraction(x) -> Optional[Fraction]:
    """Exact rational content of x, or None when x is irrational-looking.

    Integers and Fractions pass through; a float is accepted as rational when
    a small-denominator fraction reproduces it exactly in binary.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, (float, np.floating)):
        if math.isinf(x) or math.isnan(x):
            return None
        fr = Fraction(float(x)).limit_denominator(10 ** 6)
        return fr if float(fr) == float(x) else Fraction(float(x))
    return None


def _reciprocal(x) -> Optional[Fraction]:
    """1/x as a Fraction, with 1/inf = 0; None when x is not rational."""
    if isinstance(x, (float, np.floating)) and math.isinf(x):
        return Fraction(0)
    fr = _as_fraction(x)
    if fr is None or fr == 0:
        return None
    return 1 / fr


def validate_admissible(p, q, alpha) -> bool:
    """True iff (p, q) is an alpha-admissible exponent pair:
    1/p = alpha (1/2 - 1/q), 2 <= p, q <= inf, and (p, q, alpha) != (2, inf, 1).

    Exact rational arithmetic; an input with no exact rational value (NaN,
    an infinite alpha, p or q = 0) is not admissible.
    """
    ip, iq, a = _reciprocal(p), _reciprocal(q), _as_fraction(alpha)
    if ip is None or iq is None or a is None:
        return False
    if not (0 <= ip <= Fraction(1, 2) and 0 <= iq <= Fraction(1, 2)):
        return False
    if ip != a * (Fraction(1, 2) - iq):
        return False
    return not (ip == Fraction(1, 2) and iq == 0 and a == 1)


@dataclass(frozen=True)
class AdmissiblePair:
    """Exponent pair (p, q) admissible at scaling alpha; validated on
    construction."""

    p: Union[int, float, Fraction]
    q: Union[int, float, Fraction]
    alpha: Union[int, float, Fraction]

    def __post_init__(self):
        if not validate_admissible(self.p, self.q, self.alpha):
            raise ConfigError(
                f"(p, q, alpha) = ({self.p}, {self.q}, {self.alpha}) is not "
                "an admissible pair"
            )


# ---------------------------------------------------------------------------
# sample states
# ---------------------------------------------------------------------------

def _gaussian_factors(grid: GridSpec, width: float, center: Sequence[float],
                      carrier: Sequence[float]) -> List[np.ndarray]:
    """The n axis factors of the Gaussian exp(-|x - center|^2 / (2 width^2))
    e^{i carrier . x}, each of unit flat l2 norm (so their outer product has
    unit flat l2 norm).  An axis without a carrier keeps a real factor."""
    x = grid.axis_coords()
    out = []
    for c, k in zip(center, carrier):
        fac = np.exp(-(x - c) ** 2 / (2.0 * width ** 2))
        fac /= np.linalg.norm(fac)
        if k:
            fac = fac * np.exp(1j * k * x)
            fac /= np.linalg.norm(fac)
        out.append(fac)
    return out


def frequency_localized_samples(grid: GridSpec, count: int,
                                rng: np.random.Generator) -> List[List[np.ndarray]]:
    """Seeded family of normalized wave packets: Gaussian envelopes (edge
    decay below EDGE_DECAY_TOL) modulated at random carrier frequencies up to
    0.4 of the Nyquist radius.  The first sample is unmodulated (the
    low-frequency representative).  Each packet is given by its n axis
    factors, scaled so that the packet (their outer product) has unit L^2
    norm."""
    out: List[List[np.ndarray]] = []
    big_l = grid.half_width
    for j in range(count):
        width = big_l * rng.uniform(1.0 / 12.0, 1.0 / 8.0)
        center = rng.uniform(-big_l / 8.0, big_l / 8.0, size=grid.n)
        if j == 0:
            carrier = np.zeros(grid.n)
        else:
            carrier = rng.uniform(-1.0, 1.0, size=grid.n)
            carrier *= 0.4 * grid.nyquist_radius / max(1.0, np.linalg.norm(carrier)) * rng.uniform(0.2, 1.0)
        factors = _gaussian_factors(grid, width, center, carrier)
        edge = max(abs(fac[0]) / np.abs(fac).max() for fac in factors)
        if edge > EDGE_DECAY_TOL:
            raise ValueError(
                f"sample {j} decays to {edge:.2e} at the box edge, above the "
                f"periodization budget {EDGE_DECAY_TOL:g}"
            )
        out.append([fac / math.sqrt(grid.h) for fac in factors])
    return out


def _symmetric_times(t_final: float, step: float) -> np.ndarray:
    nt = max(2, int(round(t_final / step)))
    pos = np.linspace(0.0, t_final, nt + 1)
    return np.concatenate([-pos[:0:-1], pos])


def _partial_trapezoids(times: np.ndarray, sq_norms: np.ndarray,
                        t_checks: Sequence[float]) -> List[float]:
    """Trapezoid integrals of sq_norms over [-T_j, T_j] for each checkpoint."""
    vals = []
    for tc in t_checks:
        sel = np.abs(times) <= tc + 1e-12
        vals.append(float(np.trapezoid(sq_norms[sel], times[sel])))
    return vals


def plateau_increments(values: Sequence[float]) -> List[float]:
    """Relative increments between successive checkpoint integrals."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append((b - a) / a if a > 0 else math.inf)
    return out


def _sup_over_samples(report: ProbeReport, grid: GridSpec, samples: int,
                      rng: Optional[np.random.Generator], t_final: float,
                      ratios_of: Callable[[np.ndarray, List[float]], List[float]],
                      plateau_tol: float, power: float) -> Tuple[float, np.ndarray]:
    """Sup over sample states of a functional truncated to [-T, T].

    The states are `samples` frequency_localized_samples drawn from rng
    (seed 0 without one).  ratios_of(psi0, t_checks) gives the functional's
    ratio at each T-checkpoint of t_checks = [T/4, T/2, T]; each becomes a
    row.  The sample with the largest final ratio is the sup, and its
    plateau increments are taken on ratio ** power, the time integral
    itself.  Sets the plateau metrics and the finite / plateau flags, and
    returns (sup ratio, sup sample)."""
    t_checks = [t_final / 4.0, t_final / 2.0, t_final]
    packs = [outer_product(factors) for factors in
             frequency_localized_samples(grid, samples, rng or np.random.default_rng(0))]
    if not packs:
        raise ValueError("need at least one sample")
    best_ratios, best_state = None, None
    for idx, psi0 in enumerate(packs):
        ratios = ratios_of(psi0, t_checks)
        for tc, ratio in zip(t_checks, ratios):
            report.add_row(sample=idx, t_check=tc, ratio=ratio)
        if best_ratios is None or ratios[-1] > best_ratios[-1]:
            best_ratios, best_state = ratios, psi0
    incs = plateau_increments([r ** power for r in best_ratios])
    report.metrics.update(plateau_increments=incs, plateau_increment=incs[-1],
                          plateau_tol=plateau_tol, t_checks=t_checks)
    report.passes["finite"] = bool(np.isfinite(best_ratios[-1]))
    report.passes["plateau"] = bool(incs[-1] < plateau_tol)
    return best_ratios[-1], best_state


def _time_integral_report(name: str, h: Hamiltonian, plateau_tol: float,
                          **params) -> ProbeReport:
    """The report of a time-integral probe of h with the given parameters."""
    grid = h.grid
    return ProbeReport(
        name=name,
        params={"m": h.m, "n": grid.n, **params, "potential": h.potential.name},
        provenance={"grid": grid.provenance(), "seed": "caller rng",
                    "plateau_tol": plateau_tol})


# ---------------------------------------------------------------------------
# Kato smoothing (homogeneous)
# ---------------------------------------------------------------------------

def kato_smoothing_probe(h: Hamiltonian, gamma: float, eps: float = 0.1,
                         t_final: float = 8.0, samples: int = 6,
                         time_step: float = 0.25,
                         rng: Optional[np.random.Generator] = None,
                         refine_iters: int = 6,
                         plateau_tol: float = PLATEAU_TOL) -> ProbeReport:
    """Sup over inputs of the truncated smoothing integral

        integral_{-T}^{T} || W |D|^gamma e^{itH} P_ac psi0 ||^2 dt / ||psi0||^2

    with W from grid.smoothing_weight.  The max over seeded wave packets is
    refined by power iteration on the induced quadratic form; the report
    carries the plateau curve over the T-checkpoints T/4, T/2, T.
    """
    grid = h.grid
    check_smoothing_gamma(h.m, grid.n, gamma)
    if t_final <= 0:
        raise ConfigError(f"t_final must be positive, got {t_final}")

    weight = smoothing_weight(grid, h.m, gamma, eps)
    dsym = abs_derivative_symbol(grid, gamma)
    times = _symmetric_times(t_final, time_step)

    report = _time_integral_report(
        "kato_smoothing", h, plateau_tol, gamma=gamma, eps=eps, t_final=t_final,
        samples=samples, time_step=time_step)

    def ratios_of(psi0: np.ndarray, t_checks: List[float]) -> List[float]:
        states = propagate(h, projector_ac(h, psi0), times)
        sq = np.array([
            weighted_l2_norm(grid, apply_multiplier(st, dsym), weight) ** 2
            for st in states
        ])
        denom = norm_lp(grid, psi0, 2) ** 2
        return [c / denom for c in _partial_trapezoids(times, sq, t_checks)]

    best_ratio, best_state = _sup_over_samples(
        report, grid, samples, rng, t_final, ratios_of, plateau_tol, power=1)

    refined = best_ratio
    if refine_iters > 0:
        est = _refine_quadratic_smoothing(
            h, weight, dsym, times, best_state, refine_iters)
        refined = max(est.norm ** 2, best_ratio)
        report.metrics.update(refine_iterations=est.iterations,
                              refine_converged=est.converged,
                              refine_residual=est.residual)
        report.passes["finite"] = bool(np.isfinite(refined))
    report.metrics.update(sup_ratio_samples=best_ratio,
                          sup_ratio_refined=refined)
    return report


def _refine_quadratic_smoothing(h: Hamiltonian, weight: np.ndarray,
                                dsym: np.ndarray, times: np.ndarray,
                                start: np.ndarray, iters: int) -> NormEstimate:
    """Power iteration on the quadratic smoothing form B*B, at most iters
    steps from start; the form's value is the estimate's norm squared.

    B maps psi to the snapshots (sqrt(w_k) W |D|^gamma e^{i t_k H} P_ac psi)_k
    with trapezoid weights w_k: one forward propagation.  B* weights every
    snapshot back and sums sum_k e^{-i t_k H} (...) with propagate_adjoint,
    one Clenshaw recurrence.  The flat l2 form is scale-invariant, so the
    cell-volume factors cancel in the ratio.
    """
    grid = h.grid
    ends = np.concatenate([times[:1], times, times[-1:]])
    sw = np.sqrt(0.5 * (ends[2:] - ends[:-2]))

    def apply_b(vec: np.ndarray) -> np.ndarray:
        states = propagate(h, projector_ac(h, vec), times)
        return np.concatenate([
            sk * weight.reshape(-1) * apply_multiplier(st, dsym).reshape(-1)
            for sk, st in zip(sw, states)
        ])

    def apply_b_adjoint(snaps: np.ndarray) -> np.ndarray:
        weighted = np.stack([sk * apply_symbol(weight * g.reshape(grid.shape), dsym)
                             for sk, g in zip(sw, snaps.reshape(times.size, -1))])
        return projector_ac(h, propagate_adjoint(h, weighted, times)).reshape(-1)

    # B is complex even on real samples, so iterate in complex from the start
    return operator_norm(apply_b, apply_b_adjoint, grid.size, max_iter=iters,
                         start=start.astype(np.complex128))


# ---------------------------------------------------------------------------
# mixed-norm dispersive quadrature
# ---------------------------------------------------------------------------

def strichartz_probe(h: Hamiltonian, pair: AdmissiblePair,
                     mode: str = "standard", t_final: float = 8.0,
                     samples: int = 6, time_step: float = 0.25,
                     rng: Optional[np.random.Generator] = None,
                     plateau_tol: float = PLATEAU_TOL) -> ProbeReport:
    """Mixed L_t^p L_x^q quadrature of the propagated state over [-T, T],

        standard: alpha = n/(2m), functional || e^{itH} P_ac psi0 ||_{p,q}
        gain:     alpha = n/2,    functional || |D|^{2(m-1)/p} e^{itH} P_ac psi0 ||_{p,q}

    reported as the sup ratio to ||psi0||_2 with a plateau curve in T, judged
    on ratio ** p (the time integral; the ratio itself when p = inf).  In
    gain mode the report also records the sharpest constant observed in the
    embedding ||f||_{q1} <= C || |D|^{2(m-1)/p} f ||_q on the propagated
    states, where 1/q = 1/q1 + 2(m-1)/(p n).
    """
    grid = h.grid
    n, m = grid.n, h.m
    if mode not in ("standard", "gain"):
        raise ConfigError(f"mode must be 'standard' or 'gain', got {mode!r}")
    want = Fraction(n, 2 * m) if mode == "standard" else Fraction(n, 2)
    got = _as_fraction(pair.alpha)
    if got is None or abs(float(got) - float(want)) > 1e-12:
        raise ConfigError(
            f"{mode} mode needs alpha = {want} (got {pair.alpha}); the "
            "exponent relation of the pair does not match the scaling"
        )

    p, q = float(pair.p), float(pair.q)
    gain_order = 2.0 * (m - 1) / p if mode == "gain" else 0.0
    gsym = abs_derivative_symbol(grid, gain_order) if gain_order else None

    times = _symmetric_times(t_final, time_step)

    report = _time_integral_report(
        "strichartz", h, plateau_tol, p=p, q=q, alpha=float(pair.alpha), mode=mode,
        t_final=t_final, samples=samples, time_step=time_step)

    if mode == "gain":
        # embedding partner exponent: 1/q1 = 1/q - 2(m-1)/(p n)
        inv_q1 = 1.0 / q - 2.0 * (m - 1) / (p * n)
        q1 = 1.0 / inv_q1 if inv_q1 > 0 else math.inf
    sobolev_const = 0.0

    def ratios_of(psi0: np.ndarray, t_checks: List[float]) -> List[float]:
        nonlocal sobolev_const
        states = propagate(h, projector_ac(h, psi0), times)
        snap_q = np.empty(times.size)
        for k, st in enumerate(states):
            meas = apply_multiplier(st, gsym) if gsym is not None else st
            snap_q[k] = norm_lp(grid, meas, q)
            if mode == "gain" and snap_q[k] > 0:
                sobolev_const = max(sobolev_const, norm_lp(grid, st, q1) / snap_q[k])
        if math.isinf(p):
            mixed = [float(np.max(snap_q[np.abs(times) <= tc + 1e-12]))
                     for tc in t_checks]
        else:
            mixed = [c ** (1.0 / p) for c in
                     _partial_trapezoids(times, snap_q ** p, t_checks)]
        denom = norm_lp(grid, psi0, 2)
        return [c / denom for c in mixed]

    report.metrics["sup_ratio"], _ = _sup_over_samples(
        report, grid, samples, rng, t_final, ratios_of, plateau_tol,
        power=1 if math.isinf(p) else p)
    if mode == "gain":
        report.metrics.update(sobolev_partner_q1=q1,
                              sobolev_fitted_constant=sobolev_const)
    return report


# ---------------------------------------------------------------------------
# resolvent L^p -> L^q scaling exponents
# ---------------------------------------------------------------------------

def _check_sobolev_window(m: int, n: int, alpha: float, p: float, q: float) -> None:
    ip, iq = 1.0 / p, 1.0 / q
    if not (2 * m - n < alpha <= 2 * m - 2.0 * n / (n + 1) + 1e-12):
        raise ConfigError(
            f"alpha={alpha} outside ({2 * m - n}, {2 * m - 2 * n / (n + 1):g}]"
        )
    if not min(ip - 0.5, 0.5 - iq) > 1.0 / (2 * n):
        raise ConfigError(
            f"(p, q)=({p:g}, {q:g}) violates min(1/p - 1/2, 1/2 - 1/q) > 1/(2n)"
        )
    if not (2.0 / (n + 1) - 1e-12 <= ip - iq <= 1.0 + 1e-12):
        raise ConfigError(
            f"1/p - 1/q = {ip - iq:g} outside [2/(n+1), 1] for n={n}"
        )


def sobolev_scaling_probe(grid: GridSpec, m: int, alpha: float, p: float,
                          q: float, z_magnitudes: Sequence[float],
                          z_arg: float = np.pi / 2, samples: int = 4,
                          rng: Optional[np.random.Generator] = None,
                          slope_tol: float = 0.05,
                          workers: int = 1) -> ProbeReport:
    """Scaling exponent of || |D|^alpha R0(z) ||_{L^p -> L^q} along the ray
    arg z = z_arg: per |z| the norm is lower-bounded by the max ratio over
    random wave packets plus adversarial samples localized at the resonant
    frequency shell, and the log-log slope is fitted against the prediction

        n/(2m) (1/p - 1/q) - (2m - alpha)/(2m).

    slope_matches holds when the fitted slope is within slope_tol of the
    prediction; the fit's confidence width is recorded as slope_confidence.
    Each row records how the p -> q refinement of its best sample stopped
    (refine_steps, refine_stop), and refine_underflow_stops counts the rows
    whose refinement ended by underflow.

    The |z| rows are independent and run on up to `workers` threads (NumPy
    and the transforms release the interpreter lock).  The calling thread
    draws each row's random numbers in row order when the row may start, so
    the report and the state rng is left in do not depend on workers.  It
    also allocates the row's three complex buffers then: freed memory
    returns to the malloc arena of the thread that allocated it, and the
    calling thread's arena is the one the run's later probes allocate from,
    where a pool thread's would keep the freed buffers resident and unused.
    """
    n = grid.n
    _check_sobolev_window(m, n, alpha, p, q)
    mags, decades = z_ray(z_magnitudes)
    if not (0 < z_arg < 2 * np.pi) or abs(z_arg) < 1e-9:
        raise ConfigError("ray must avoid the positive real axis (z_arg != 0)")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if rng is None:
        rng = np.random.default_rng(0)

    expected = n / (2.0 * m) * (1.0 / p - 1.0 / q) - (2.0 * m - alpha) / (2.0 * m)
    report = ProbeReport(
        name="sobolev_scaling",
        params={"m": m, "n": n, "alpha": alpha, "p": p, "q": q,
                "z_arg": z_arg, "samples": samples},
        provenance={"grid": grid.provenance(), "seed": "caller rng",
                    "slope_tol": slope_tol},
    )

    # everything that does not depend on |z|, built once and only read
    dsym = abs_derivative_symbol(grid, alpha)
    envelope = _gaussian_factors(grid, grid.half_width / 8.0, np.zeros(n),
                                 np.zeros(n))
    packs = frequency_localized_samples(grid, samples, rng)

    def row_inputs() -> tuple:
        """A row's three complex buffers and its shell draws."""
        sym, work, image = (np.empty(grid.shape, dtype=np.complex128)
                            for _ in range(3))
        return sym, work, image, _shell_draws(grid, rng, 2)

    def row(mag: float, inputs: tuple):
        """(norm, refine_steps, refine_stop) at |z| = mag.  The buffers hold
        the symbol, the work buffer that each candidate is built,
        transformed and mapped in, and the best image so far; the last two
        swap when a candidate wins.  The shell samples are screened first,
        so their draws are released after the first two candidates."""
        sym, work, image, draws = inputs
        z = mag * complex(math.cos(z_arg), math.sin(z_arg))
        for rows in slabs(grid.shape):  # dsym / (|xi|^{2m} - z)
            np.subtract(grid.xi_radii(rows) ** (2 * m), z, out=sym[rows])
            np.divide(dsym[rows], sym[rows], out=sym[rows])
        rho = mag ** (1.0 / (2 * m))
        best, best_den = 0.0, None
        for fill in _sobolev_candidates(grid, packs, envelope, rho, p, draws):
            den = fill(work)
            if den == 0.0:
                continue
            ratio = norm_lp(grid, apply_symbol_spectrum(work, sym), q) / den
            if ratio > best:
                best, best_den = ratio, den
                image, work = work, image
        if best_den is None:
            return best, 0, None
        return _pq_norm_refine(grid, image, best_den, best, sym, p, q)

    results = _run_rows(row, mags, row_inputs, workers)
    for mag, (norm, steps, stop) in zip(mags, results):
        report.add_row(abs_z=mag, norm=norm, refine_steps=steps, refine_stop=stop)

    slope, _, width = fit_loglog(mags, [r[0] for r in results])
    report.metrics.update(slope=slope, slope_confidence=width,
                          expected_slope=expected, decades=decades,
                          refine_underflow_stops=sum(
                              row["refine_stop"] == "underflow" for row in report.rows))
    report.passes["slope_matches"] = bool(abs(slope - expected) <= slope_tol)
    return report


def _run_rows(row: Callable, inputs: Sequence, prepare: Callable,
              workers: int) -> list:
    """[row(x, prepare()) for x in inputs] with up to `workers` rows running
    at once on threads.  prepare() is called in the calling thread, in input
    order, only when its row may start, so at most `workers` rows' prepared
    inputs are held.  A row's exception propagates once the running rows
    have ended."""
    futures: list = []
    running: set = set()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for x in inputs:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    fut.result()  # a failed row stops the probe here
            fut = pool.submit(row, x, prepare())
            futures.append(fut)
            running.add(fut)
        return [fut.result() for fut in futures]


def _shell_draws(grid: GridSpec, rng: np.random.Generator,
                 count: int) -> List[Tuple[float, np.ndarray]]:
    """The random numbers of count shell-localized samples: per sample a
    width factor in [1, 3) and one uniform phase fraction per lattice
    point, drawn in that order."""
    return [(rng.uniform(1.0, 3.0), rng.random(grid.shape)) for _ in range(count)]


def _sobolev_candidates(grid: GridSpec, packs: Sequence[List[np.ndarray]],
                        envelope: List[np.ndarray], rho: float, p: float,
                        draws: List[Tuple[float, np.ndarray]]
                        ) -> Iterator[Callable[[np.ndarray], float]]:
    """The screening candidates at resonant radius rho, each a function
    fill(out) that writes the candidate's spectrum scipy.fft.fftn(samples)
    into out (a complex128 grid buffer) and returns its L^p norm, 0 for a
    candidate to skip: the shell-localized samples of draws first, each
    popped from draws so that it is released once its sample is built, then
    the packs and the scaled bumps (given by their axis factors), whose
    spectra are outer products of 1-D transforms."""
    while draws:
        yield partial(_shell_spectrum, grid, envelope, rho, p, draws.pop(0))
    for factors in list(packs) + _scaled_bumps(grid, rho):
        yield partial(_separable_spectrum, grid, factors, p)


def _separable_spectrum(grid: GridSpec, factors: Sequence[np.ndarray],
                        p: float, out: np.ndarray) -> float:
    """Writes scipy.fft.fftn of the outer product of the 1-D samples factors
    (one per axis) into out, as the outer product of their 1-D transforms,
    and returns its L^p norm from the factors."""
    outer_product([scipy.fft.fft(fac) for fac in factors], out=out)
    return separable_norm_lp(grid, factors, p)


def _shell_spectrum(grid: GridSpec, envelope: List[np.ndarray], rho: float,
                    p: float, draw: Tuple[float, np.ndarray],
                    out: np.ndarray) -> float:
    """Writes the spectrum of the shell-localized sample of draw into out
    and returns the sample's L^p norm, 0 when the sample vanishes."""
    if not _shell_sample(grid, envelope, rho, draw, out):
        return 0.0
    den = norm_lp(grid, out, p)
    scipy.fft.fftn(out, overwrite_x=True)
    return den


def _shell_sample(grid: GridSpec, envelope: List[np.ndarray], rho: float,
                  draw: Tuple[float, np.ndarray], out: np.ndarray) -> bool:
    """Adversarial input: frequency content concentrated in a Gaussian
    annulus around |xi| = rho (capped at 0.8 of the Nyquist radius), with
    the random phases of draw = (width factor, phase fractions) from
    _shell_draws, times the physical envelope (given by its axis factors)
    for edge decay.  The unit-l2 samples are written into out (complex128,
    grid shape) slab by slab, with no grid-sized temporary; False, with out
    unspecified, when the sample vanishes."""
    factor, fractions = draw
    rho = min(rho, 0.8 * grid.nyquist_radius)
    for rows in slabs(grid.shape):
        part = out[rows]
        part.real = 0.0
        np.multiply(fractions[rows], 2.0 * np.pi, out=part.imag)
        np.exp(part, out=part)  # the random phases e^{2 pi i u}
        prof = grid.xi_radii(rows)
        prof -= rho
        prof /= grid.h_xi * factor
        np.square(prof, out=prof)
        np.negative(prof, out=prof)
        part *= np.exp(prof, out=prof)  # the Gaussian annulus
    vals = samples_from_spectrum(grid, out)
    for rows in slabs(grid.shape):
        vals[rows] *= outer_product([envelope[0][rows]] + envelope[1:])
    nrm = np.linalg.norm(vals)
    if nrm == 0:
        return False
    vals /= nrm
    return True


def _pq_norm_refine(grid: GridSpec, image: np.ndarray, den: float,
                    ratio: float, sym: np.ndarray, p: float,
                    q: float) -> Tuple[float, int, str]:
    """Nonlinear power iteration for ||A||_{L^p -> L^q} of the multiplier A
    (Boyd's fixed point: v <- J_{p'}(A* J_q(A v)), with J_s the pointwise
    duality map w -> |w|^{s-2} w), from a start v given as the screening
    computed it: its image A v (physical samples on grid, overwritten: every
    iterate reuses its buffer), its L^p norm den and the ratio
    ||A v||_q / den.  Converges to a critical ratio, reliably near-extremal
    in the hypercontractive range p <= 2 <= q used here.

    Returns (best ratio, steps, stop): steps counts the iterates the map
    produced, and stop is "converged" when the ratio changed by at most 2e-4
    relative, "underflow" when an iterate or its adjoint image flushed to
    zero, and "cap" after 40 steps."""
    pp = p / (p - 1.0)  # conjugate exponent of p
    u = image
    best = 0.0
    prev = 0.0
    for steps in range(40):
        if steps:
            ratio = norm_lp(grid, u, q) / den
        best = max(best, ratio)
        if prev > 0 and abs(ratio - prev) <= 2e-4 * prev:
            return best, steps, "converged"
        prev = ratio
        nonzero = False
        for rows in slabs(grid.shape):
            part = u[rows]
            part *= abs_power(part, q - 2.0)  # J_q(u)
            nonzero |= bool(_flush_subnormal(part).any())
        if not nonzero:
            return best, steps, "underflow"  # A* 0 = 0
        w = apply_symbol_spectrum(scipy.fft.fftn(u, overwrite_x=True), sym,
                                  adjoint=True)
        peak = np.max([np.abs(w[rows]).max() for rows in slabs(grid.shape)])
        if peak == 0.0:
            return best, steps, "underflow"
        for rows in slabs(grid.shape):
            part = w[rows]
            aw = np.abs(part)
            aw /= peak
            aw **= pp - 2.0
            part *= aw  # J_p'(w), rescaled by peak^(2 - p')
            part[~np.isfinite(part)] = 0.0
            _flush_subnormal(part)
        den = norm_lp(grid, w, p)
        if den == 0.0:
            return best, steps, "underflow"
        u = apply_symbol_spectrum(scipy.fft.fftn(w, overwrite_x=True), sym)
    return best, 40, "cap"


def _flush_subnormal(a: np.ndarray) -> np.ndarray:
    """a with every real and imaginary part below the smallest normal double
    set to zero, in place.  The duality maps raise small entries to high
    powers, and arithmetic on subnormal operands is many times slower."""
    parts = a.view(np.float64)
    tiny = np.finfo(np.float64).tiny
    small = parts < tiny
    small &= parts > -tiny
    np.copyto(parts, 0.0, where=small)
    return a


def _scaled_bumps(grid: GridSpec, rho: float) -> List[List[np.ndarray]]:
    """Self-similar near-extremizers: Gaussian bumps at scales around 1/rho
    (the resonant length), plain and carrier-modulated at |xi| = rho along
    the first axis, each given by its n unit axis factors (so the bump has
    unit flat l2 norm).  The p -> q ratio of this family is |z|-independent
    on the continuum, so it pins the scaling exponent wherever the grid
    resolves the scale."""
    out: List[List[np.ndarray]] = []
    zero, carrier = np.zeros(grid.n), rho * np.eye(grid.n)[0]
    for c in (0.5, 1.0, 2.0, 4.0):
        scale = c / max(rho, 1e-6)
        if scale < 2.0 * grid.h or scale > grid.half_width / 6.0:
            continue
        out.append(_gaussian_factors(grid, scale, zero, zero))
        if rho < 0.8 * grid.nyquist_radius:
            out.append(_gaussian_factors(grid, scale, zero, carrier))
    return out


# ---------------------------------------------------------------------------
# weighted-multiplier boundedness ladder
# ---------------------------------------------------------------------------

def stein_weiss_satisfied(lam: float, alpha: float, beta: float, n: int) -> bool:
    """Exponent constraints under which |x|^{-beta} |D|^{-n+lam} |x|^{-alpha}
    extends to a bounded operator on L^2."""
    return bool(
        0 < lam < n
        and alpha < n / 2.0
        and beta < n / 2.0
        and alpha + beta >= 0
        and abs(lam + alpha + beta - n) < 1e-12
    )


def stein_weiss_probe(lam: float, alpha: float, beta: float, n: int,
                      npts_ladder: Sequence[int] = (8, 16, 32),
                      half_width: float = 6.0,
                      rng: Optional[np.random.Generator] = None,
                      stab_tol: float = 0.05) -> ProbeReport:
    """Operator-norm ladder of |x|^{-beta} |D|^{-n+lam} |x|^{-alpha} on L^2 at
    increasing grid resolutions (power iteration per rung).  Satisfying
    exponent triples stabilize under refinement; violating ones keep growing.
    """
    if len(npts_ladder) < 2:
        raise ConfigError("ladder needs at least two resolutions")
    if rng is None:
        rng = np.random.default_rng(0)

    satisfied = stein_weiss_satisfied(lam, alpha, beta, n)
    report = ProbeReport(
        name="stein_weiss",
        params={"lam": lam, "alpha": alpha, "beta": beta, "n": n,
                "half_width": half_width, "npts_ladder": list(npts_ladder)},
        provenance={"seed": "caller rng", "stab_tol": stab_tol},
    )

    norms = []
    for npts in npts_ladder:
        grid = GridSpec(n, int(npts), half_width)
        apply_a, apply_at = weighted_multiplier(
            weight_abs_power(grid, -beta), abs_derivative_symbol(grid, lam - n),
            weight_abs_power(grid, -alpha))
        # the operator is real: a real start keeps every transform real
        est = operator_norm(apply_a, apply_at, grid.size, max_iter=120,
                            rtol=1e-8, start=rng.standard_normal(grid.size))
        norms.append(est.norm)
        report.add_row(npts=npts, norm=est.norm, iterations=est.iterations,
                       residual=est.residual)

    rel_change = abs(norms[-1] - norms[-2]) / max(norms[-2], 1e-300)
    report.metrics.update(norms=norms, last_rel_change=rel_change,
                          satisfied=satisfied)
    report.passes["power_iteration_finite"] = bool(np.all(np.isfinite(norms)))
    report.passes["stabilized"] = bool(rel_change < stab_tol)
    return report
