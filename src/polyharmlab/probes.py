"""Measurement suites for space-time functionals of H = (-Delta)^m + V:
weighted smoothing integrals, mixed-norm dispersive quadratures with and
without a regularity gain, resolvent L^p -> L^q scaling exponents, and
weighted-multiplier boundedness ladders.

All global-in-time estimates are truncated to [-T, T] and reported as plateau
curves: a bounded functional shows a small relative increment on the last
doubling of T, an unbounded one keeps growing.  Sups over inputs are taken as
the max over seeded frequency-localized samples.
"""

from __future__ import annotations

import copy
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
)
from .hamiltonian import Hamiltonian, projector_ac, propagate
from .operators import operator_norm, weighted_multiplier
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
    """The time grid [-T, T] of the time-integral probes: a step near step,
    at least two steps on each side of 0.  ConfigError unless T = t_final is
    positive and finite and step positive."""
    if not 0 < t_final < math.inf:
        raise ConfigError(f"t_final must be positive and finite, got {t_final}")
    if not step > 0:
        raise ConfigError(f"time_step must be positive, got {step}")
    nt = max(2, int(round(t_final / step)))
    pos = np.linspace(0.0, t_final, nt + 1)
    return np.concatenate([-pos[:0:-1], pos])


def _abs_derivative(values: np.ndarray, dsym: Optional[np.ndarray]) -> np.ndarray:
    """|D|^s values (samples or a stack) for dsym the symbol of |D|^s
    (abs_derivative_symbol), or values itself for dsym None (s = 0)."""
    return values if dsym is None else apply_multiplier(values, dsym)


def _space_time_ratios(h: Hamiltonian, times: np.ndarray,
                       op: Callable[[np.ndarray], np.ndarray], p: float, q: float,
                       psi0: np.ndarray, t_checks: Sequence[float]) -> List[float]:
    """|| op e^{itH} P_ac psi0 ||_{L^p_t([-T_j, T_j]) L^q_x} / ||psi0||_2 at
    each checkpoint T_j of t_checks, on the symmetric time grid times: one
    propagation, one norm_lp of op(state) per snapshot, and the p-th root of
    the trapezoid of their p-th powers (their max at p = inf)."""
    grid = h.grid
    snap = np.array([norm_lp(grid, op(st), q)
                     for st in propagate(h, projector_ac(h, psi0), times)])
    within = [np.abs(times) <= tc + 1e-12 for tc in t_checks]
    if math.isinf(p):
        mixed = [float(np.max(snap[sel])) for sel in within]
    else:
        powered = snap ** p
        mixed = [float(np.trapezoid(powered[sel], times[sel])) ** (1.0 / p)
                 for sel in within]
    denom = norm_lp(grid, psi0, 2)
    return [c / denom for c in mixed]


def plateau_increments(values: Sequence[float]) -> List[float]:
    """Relative increments between successive checkpoint integrals."""
    return [(b - a) / a if a > 0 else math.inf for a, b in zip(values, values[1:])]


def _sup_over_samples(report: ProbeReport, h: Hamiltonian, samples: int,
                      rng: Optional[np.random.Generator], times: np.ndarray,
                      op: Callable[[np.ndarray], np.ndarray], p: float, q: float,
                      plateau_tol: float, integral: bool = False) -> float:
    """Sup over sample states of the _space_time_ratios of op on the time
    grid times over [-T, T].

    The states are `samples` frequency_localized_samples drawn from rng
    (seed 0 without one).  Each state's ratio at the T-checkpoints t_checks
    = [T/4, T/2, T] becomes a row: the ratio itself, or with integral its
    p-th power, the time integral.  The sample with the largest final value
    is the sup, and its plateau increments are taken on the time integral
    (the ratio itself when p = inf).  Sets the plateau metrics and the
    finite / plateau flags, and returns the sup."""
    t_final = float(times[-1])
    t_checks = [t_final / 4.0, t_final / 2.0, t_final]
    power = 1 if math.isinf(p) else p
    packs = [outer_product(factors) for factors in
             frequency_localized_samples(h.grid, samples, rng or np.random.default_rng(0))]
    if not packs:
        raise ValueError("need at least one sample")
    best, best_curve = None, None
    for idx, psi0 in enumerate(packs):
        ratios = _space_time_ratios(h, times, op, p, q, psi0, t_checks)
        curve = [r ** power for r in ratios]
        values = curve if integral else ratios
        for tc, value in zip(t_checks, values):
            report.add_row(sample=idx, t_check=tc, ratio=value)
        if best is None or values[-1] > best[-1]:
            best, best_curve = values, curve
    incs = plateau_increments(best_curve)
    report.metrics.update(plateau_increments=incs, plateau_increment=incs[-1],
                          plateau_tol=plateau_tol, t_checks=t_checks)
    report.passes["finite"] = bool(np.isfinite(best[-1]))
    report.passes["plateau"] = bool(incs[-1] < plateau_tol)
    return best[-1]


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
                         plateau_tol: float = PLATEAU_TOL) -> ProbeReport:
    """Sup over inputs of the truncated smoothing integral

        integral_{-T}^{T} || W |D|^gamma e^{itH} P_ac psi0 ||^2 dt / ||psi0||^2

    with W from grid.smoothing_weight: the square of the space-time ratio
    at p = q = 2 of A = W |D|^gamma, maximized over seeded wave packets; the
    report carries the plateau curve over the T-checkpoints T/4, T/2, T.
    """
    grid = h.grid
    check_smoothing_gamma(h.m, grid.n, gamma)
    times = _symmetric_times(t_final, time_step)
    weight = smoothing_weight(grid, h.m, gamma, eps)
    dsym = abs_derivative_symbol(grid, gamma) if gamma else None

    report = _time_integral_report(
        "kato_smoothing", h, plateau_tol, gamma=gamma, eps=eps, t_final=t_final,
        samples=samples, time_step=time_step)
    best_ratio = _sup_over_samples(
        report, h, samples, rng, times, lambda st: weight * _abs_derivative(st, dsym),
        2.0, 2.0, plateau_tol, integral=True)
    # the benchmark's lab workload gates sup_ratio_refined; it is the sampled sup
    report.metrics.update(sup_ratio_samples=best_ratio,
                          sup_ratio_refined=best_ratio)
    return report


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

    def measured(st: np.ndarray) -> np.ndarray:
        nonlocal sobolev_const
        meas = _abs_derivative(st, gsym)
        if mode == "gain":
            norm_q = norm_lp(grid, meas, q)
            if norm_q > 0:
                sobolev_const = max(sobolev_const, norm_lp(grid, st, q1) / norm_q)
        return meas

    report.metrics["sup_ratio"] = _sup_over_samples(
        report, h, samples, rng, times, measured, p, q, plateau_tol)
    if mode == "gain":
        report.metrics.update(sobolev_partner_q1=q1,
                              sobolev_fitted_constant=sobolev_const)
    return report


# ---------------------------------------------------------------------------
# resolvent L^p -> L^q scaling exponents
# ---------------------------------------------------------------------------

def _check_sobolev_window(m: int, n: int, alpha: float, p: float, q: float) -> None:
    if not p > 1:  # the L^p norm and the refinement's p' = p/(p - 1)
        raise ConfigError(f"p={p:g} must exceed 1 for a finite p' = p/(p - 1)")
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
    moves rng past each row's random numbers in row order when the row may
    start, keeping a copy of the generator per shell sample, so the report
    and the state rng is left in do not depend on workers.  It also
    allocates the row's two complex buffers then: freed memory returns to
    the malloc arena of the thread that allocated it, and the calling
    thread's arena is the one the run's later probes allocate from, where a
    pool thread's would keep the freed buffers resident and unused.  It
    builds the row's scaled bumps then too, whose axis factors are
    normalized by BLAS dots: a row makes no BLAS or LAPACK call (see
    _run_rows), so its time does not depend on the BLAS thread count.
    """
    n = grid.n
    _check_sobolev_window(m, n, alpha, p, q)
    mags, decades = z_ray(z_magnitudes)
    if not 1e-9 <= z_arg <= 2 * np.pi - 1e-9:
        raise ConfigError(f"z_arg={z_arg!r} outside [1e-9, 2 pi - 1e-9]: the ray "
                          "must keep off the positive real axis")
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
    envelope = _gaussian_factors(grid, grid.half_width / 8.0, np.zeros(n),
                                 np.zeros(n))
    packs = frequency_localized_samples(grid, samples, rng)

    def row_inputs(mag: float) -> tuple:
        """A row's two complex buffers, its shell draws and its scaled
        bumps."""
        sym, work = (np.empty(grid.shape, dtype=np.complex128) for _ in range(2))
        return (sym, work, _shell_draws(grid, rng, 2),
                _scaled_bumps(grid, mag ** (1.0 / (2 * m))))

    def row(mag: float, inputs: tuple):
        """(norm, refine_steps, refine_stop) at |z| = mag.  The buffers hold
        the symbol and the work buffer that each candidate is built,
        transformed and mapped in.  The screening keeps the best candidate's
        fill and norm, not its image, and builds that image once more, with
        the same arithmetic, as the refinement's start."""
        sym, work, draws, bumps = inputs
        z = mag * complex(math.cos(z_arg), math.sin(z_arg))
        for rows in slabs(grid.shape):  # |xi|^alpha / (|xi|^{2m} - z)
            np.subtract(grid.xi_radii(rows) ** (2 * m), z, out=sym[rows])
            np.divide(abs_derivative_symbol(grid, alpha, rows), sym[rows],
                      out=sym[rows])
        rho = mag ** (1.0 / (2 * m))
        best, best_fill, best_den = 0.0, None, None
        for fill in _sobolev_candidates(grid, packs + bumps, envelope, rho, p,
                                        draws):
            spec, den = fill(work)
            if den == 0.0:
                continue
            ratio = norm_lp(grid, apply_symbol_spectrum(spec, sym), q) / den
            if ratio > best:
                best, best_fill, best_den = ratio, fill, den
        if best_fill is None:
            return best, 0, None
        image = apply_symbol_spectrum(best_fill(work)[0], sym)
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
    """[row(x, prepare(x)) for x in inputs] with up to `workers` rows
    running at once on threads; at workers == 1 the rows run in the calling
    thread, under its thread-local settings (a scipy.fft backend, say).
    prepare(x) is called in the calling thread, in input order, only when
    its row may start, so at most `workers` rows' prepared inputs are held.
    A row's exception propagates once the running rows have ended.

    A row makes no BLAS or LAPACK call (np.linalg.norm, np.dot, ...); what
    needs one goes in prepare.  A BLAS call on a large array wakes
    OpenBLAS's own worker threads, which then spin on the cores that the
    other rows need."""
    if workers == 1:
        return [row(x, prepare(x)) for x in inputs]
    futures: list = []
    running: set = set()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for x in inputs:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                for fut in done:
                    fut.result()  # a failed row stops the probe here
            fut = pool.submit(row, x, prepare(x))
            futures.append(fut)
            running.add(fut)
        return [fut.result() for fut in futures]


def _shell_draws(grid: GridSpec, rng: np.random.Generator,
                 count: int) -> List[np.random.Generator]:
    """The random numbers of count shell-localized samples, each drawn as a
    width factor in [1, 3) and one uniform phase fraction per lattice point
    (rng.uniform(1.0, 3.0), then rng.random(grid.shape)): per sample a copy
    of rng from which _shell_sample draws them.  rng is moved past them by
    drawing them slab by slab into one reused buffer, so it ends where the
    draws of the whole grids leave it."""
    draws = []
    for _ in range(count):
        draws.append(copy.deepcopy(rng))
        rng.uniform(1.0, 3.0)
        for _ in _phase_fractions(grid, rng):
            pass
    return draws


def _phase_fractions(grid: GridSpec, gen: np.random.Generator
                     ) -> Iterator[Tuple[slice, np.ndarray]]:
    """(rows, fractions) per slab (slabs) of gen.random(grid.shape), drawn
    slab by slab into one reused buffer, which each step overwrites: the
    fractions of the whole grid, bit for bit, for any slab size."""
    buf = None
    for rows in slabs(grid.shape):
        count = len(range(grid.npts)[rows])
        if buf is None:
            buf = np.empty((count,) + grid.shape[1:])
        yield rows, gen.random(out=buf[:count])


def _sobolev_candidates(grid: GridSpec, separable: Sequence[List[np.ndarray]],
                        envelope: List[np.ndarray], rho: float, p: float,
                        draws: Sequence[np.random.Generator]
                        ) -> Iterator[Callable[[np.ndarray],
                                               Tuple[np.ndarray, float]]]:
    """The screening candidates at resonant radius rho, each a function
    fill(out) that builds the candidate's spectrum scipy.fft.fftn(samples)
    in out (a complex128 grid buffer; the spectrum is out unless the
    scipy.fft backend returns new arrays) and returns (spectrum, L^p norm),
    the norm 0 for a candidate to skip, with the same bits at every call:
    the shell-localized samples of draws (_shell_draws) first, then the
    separable samples (the packs, then the scaled bumps at rho, each given
    by its axis factors), whose spectra are outer products of 1-D
    transforms."""
    for draw in draws:
        yield partial(_shell_spectrum, grid, envelope, rho, p, draw)
    for factors in separable:
        yield partial(_separable_spectrum, grid, factors, p)


def _separable_spectrum(grid: GridSpec, factors: Sequence[np.ndarray],
                        p: float, out: np.ndarray) -> Tuple[np.ndarray, float]:
    """(out, norm): scipy.fft.fftn of the outer product of the 1-D samples
    factors (one per axis), written into out as the outer product of their
    1-D transforms, and its L^p norm from the factors."""
    spec = outer_product([scipy.fft.fft(fac) for fac in factors], out=out)
    return spec, separable_norm_lp(grid, factors, p)


def _shell_spectrum(grid: GridSpec, envelope: List[np.ndarray], rho: float,
                    p: float, draw: np.random.Generator,
                    out: np.ndarray) -> Tuple[np.ndarray, float]:
    """(spectrum, norm) of the shell-localized sample of draw, built in out
    and transformed in its buffer where the backend allows: the sample's
    scipy.fft.fftn and its L^p norm, (out, 0) when the sample vanishes."""
    vals = _shell_sample(grid, envelope, rho, draw, out)
    if vals is None:
        return out, 0.0
    den = norm_lp(grid, vals, p)
    return scipy.fft.fftn(vals, overwrite_x=True), den


def _shell_sample(grid: GridSpec, envelope: List[np.ndarray], rho: float,
                  draw: np.random.Generator,
                  out: np.ndarray) -> Optional[np.ndarray]:
    """Adversarial input: frequency content concentrated in a Gaussian
    annulus around |xi| = rho (capped at 0.8 of the Nyquist radius), with
    random phases, times the physical envelope (given by its axis factors)
    for edge decay.  The width factor and the phase fractions are drawn
    from a copy of draw (a generator from _shell_draws), which is left
    unchanged, so every build of a sample has the same bits.  The spectrum
    is built in out (complex128, grid shape) slab by slab, with no
    grid-sized temporary; returns the samples (samples_from_spectrum of out)
    scaled to unit flat l2 norm, not norm_lp's L^2 (the refinement's
    underflow stops depend on the absolute scale), or None when the sample
    vanishes.  The norm is a slab-wise sum of squares, not a BLAS call (see
    _run_rows), with no temporary: a slab-sized one, larger than the rows'
    other slab temporaries, would grow the row threads' malloc arenas."""
    gen = copy.deepcopy(draw)
    factor = gen.uniform(1.0, 3.0)
    rho = min(rho, 0.8 * grid.nyquist_radius)
    for rows, fractions in _phase_fractions(grid, gen):
        part = out[rows]
        part.real = 0.0
        np.multiply(fractions, 2.0 * np.pi, out=part.imag)
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
    total = 0.0  # sum |vals|^2 by einsum's own loop: no BLAS, no temporary
    for rows in slabs(grid.shape):
        flat = vals[rows].reshape(-1).view(np.float64)
        total += float(np.einsum("i,i->", flat, flat))
    nrm = math.sqrt(total)
    if nrm == 0:
        return None
    vals /= nrm
    return vals


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
    zero or is certain to, and "cap" after 40 steps.

    "Certain to" skips the transform pair whose outcome the scale of its
    input already fixes.  The kernel ifftn(s) of a multiplier s is bounded
    by mean|s|, so no entry of ifftn(s * fftn(v)) exceeds mean|s| * sum|v|
    (flat sums).  When 4 times that bound (a margin for rounding) puts every
    entry of J_p'(A* J_q(u)) below the smallest normal double or where its
    p-th power rounds to 0, the iteration stops before A*: the pair would
    give den = 0 at this step.  When it puts every entry of the next iterate
    where its q-th power rounds to 0 and its (q-1)-th power is below the
    smallest normal, it stops before A with steps + 1: the next step's ratio
    would be 0, which leaves best and fails or skips the convergence test,
    and J_q would flush it to 0.  Either way the result, steps and stop
    included, is the one the skipped pair would give."""
    pp = p / (p - 1.0)  # conjugate exponent of p
    kernel_bound = sum(float(np.abs(sym[rows]).sum())  # mean|sym|
                       for rows in slabs(sym.shape)) / sym.size
    adjoint_limit = max(_TINY, _power_underflow(p)) / 4.0
    forward_limit = min(_power_underflow(q), _TINY ** (1.0 / (q - 1.0))) / 4.0
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
        mass = 0.0  # sum |J_q(u)|
        for rows in slabs(grid.shape):
            part = u[rows]
            powered = abs_power(part, q - 2.0)
            part *= powered  # J_q(u)
            _flush_subnormal(part)
            mass += float(np.abs(part, out=powered).sum())
            del powered  # not held while the next slab's is built
        if kernel_bound * mass < adjoint_limit:
            return best, steps, "underflow"  # A* 0 = 0, or den = 0 below
        w = apply_symbol(u, sym, adjoint=True, overwrite=True)
        peak = np.max([np.abs(w[rows]).max() for rows in slabs(grid.shape)])
        if peak == 0.0:
            return best, steps, "underflow"
        mass = 0.0  # sum |J_p'(w)|
        for rows in slabs(grid.shape):
            part = w[rows]
            aw = np.abs(part)
            aw /= peak
            aw **= pp - 2.0
            part *= aw  # J_p'(w), rescaled by peak^(2 - p')
            _flush_subnormal(part)
            mass += float(np.abs(part, out=aw).sum())
        den = norm_lp(grid, w, p)
        if den == 0.0:
            return best, steps, "underflow"
        if steps < 39 and kernel_bound * mass < forward_limit:
            return best, steps + 1, "underflow"  # ratio 0, then J_q flushes
        u = apply_symbol(w, sym, overwrite=True)
    return best, 40, "cap"


_TINY = np.finfo(np.float64).tiny  # the smallest normal double


def _power_underflow(s: float) -> float:
    """The magnitude below which an s-th power rounds to 0: 2^(-1075 / s),
    -1075 being one below the exponent of the smallest subnormal double."""
    return 2.0 ** ((math.log2(np.finfo(np.float64).smallest_subnormal) - 1.0) / s)


def _flush_subnormal(a: np.ndarray) -> np.ndarray:
    """a with every real and imaginary part below the smallest normal double
    set to zero, in place.  The duality maps raise small entries to high
    powers, and arithmetic on subnormal operands is many times slower."""
    parts = a.view(np.float64)
    small = parts < _TINY
    small &= parts > -_TINY
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
