"""Per-call wall time and traced memory peak of the spectral kernel and the
operators built on it.

    python3 scripts/bench_layers.py                      # this checkout, JSON on stdout
    python3 scripts/bench_layers.py --baseline OTHER/src --out OUT.json
                                                         # interleaved with another tree

Layers (ROADMAP "layer by layer"):

  L0  H matvec of a complex vector at 32^3 (m = 1, Gaussian well);
      multiplier round trip at 160^3 (apply_multiplier with the complex
      resolvent symbol 1 / (|xi|^2 - z), z = 0.3 e^{0.5i}, as in the sobolev
      probe at alpha = 0).
  L1  H matvec of a complex vector at 16^3, and of a real one as the
      eigensolver applies it; one assemble_M on the 1419-point support of
      the depth-20 Gaussian well on the 16^3 grid at h = 0.75 (the
      benchmark's spectral workload), z = 0.5 + 0.03i, and one on the
      4945-point support of the depth-5 Gaussian well on the 48^3 grid at
      L = 12 (h = 0.5, a 373 MiB block; ROADMAP item 9); the
      factorization of the 1419-point block as BSMatrix.factors does it, on
      a fresh copy per call (the copy is timed in both trees); one
      sigma_min from those factors, with its ARPACK applications recorded;
      one birman_schwinger_count on the 1419-point support at
      negative_spectrum's cut (tau = 2e-5); the counterexample's
      alias-summed profile (counterexample._mollified_phi, m = 2,
      sigma = 0.135) at 96^3, L = 1.1, the benchmark's scaling
      counterexample grid.
  L2  one propagate of a random unit state on the lab grid (16^3, L = 8,
      depth-5 Gaussian well, m = 1) over 65 symmetric times to T = 8, the
      time grid of the smoothing and Strichartz probes; one
      negative_spectrum of the spectral workload's Hamiltonian (16^3, L = 6,
      depth 20, m = 1) and one of the lab Hamiltonian (16^3, L = 8, depth 5,
      m = 1), the eigenset of the lab workload's smoothing, Strichartz and
      spectrum probes; one iteration of the smoothing refinement
      (_refine_quadratic_smoothing, gamma = 0, a forward propagate and its
      adjoint) on the lab Hamiltonian over the same 65 times, from the
      same random unit state; one smoothing probe and one Strichartz probe
      on the lab Hamiltonian with the lab workload's parameters (smoothing:
      gamma = 0, eps = 0.1, T = 8, three packs, step 0.25, no refinement;
      Strichartz: (p, q, alpha) = (8/3, 4, 3/2), standard mode, T = 4, three
      packs, step 0.25; each on the seed-0 stream of the CLI, the eigenset
      already cached on the Hamiltonian); the benchmark's scaling sobolev
      probe (80^3, L = 10, m = 1, alpha = 0, p = 1.2, q = 6, four |z| from
      0.3 to 10 on the imaginary axis, three packs, the seed-0 stream of the
      CLI); one
      p -> q refinement (probes._pq_norm_refine) of that probe at |z| = 0.3,
      from (a copy of) the best screened candidate, which a set-up run of
      the probe captures, and one at |z| = 3.107, the third row, whose
      iterates run down into the subnormal range before the refinement
      stops by underflow; the same sobolev probe with workers=2, its |z|
      rows on two threads; one operator_norm rung of the benchmark's scaling
      Stein-Weiss ladder at 64^3 (L = 6, |x|^{-1} |D|^{-1}, from a copy,
      timed in both trees, of the start vector the rung draws from the
      seed-0 stream of the CLI, since operator_norm consumes its start); one
      build_embedded_pair of the benchmark's scaling counterexample (96^3,
      L = 1.1, m = 2, delta = 1): the profile, the truncated potential and
      the eigen-residual's real-transform matvec; the benchmark's scaling decay
      probe, the library op high_energy_decay_probe (64^3, L = 8, m = 1,
      s = 1, four |z| from 1 to 10^1.5 on the positive half-line, seed 0).

Each measurement pass runs in a fresh process that imports polyharmlab from
the given source tree, warms every layer once, records the tracemalloc peak
of one more call (not timed; the layer's set-up and the warm call's result
are not part of it) and then times fixed batches; the matvecs, at 0.1-1.4 ms
a call, run 100 (32^3) or 1000 (16^3) calls per batch.
With --baseline (the src directory of another tree that has the same layer
functions, with the array API and the sobolev probe's workers argument),
passes alternate between the baseline tree and this one, with the order
flipped every round.  The output JSON (written to --out, or
to stdout without it) holds, per tree and layer, the median and quartiles of
the per-call time over all batches of all rounds and the sample count, and
the counts a layer records (the same in every pass, else a list), and the
median over rounds of the traced peak in MiB; with --baseline, per layer,
the median and quartiles over rounds of the paired ratio current/baseline,
each the ratio of the two trees' median batch times in that round (the
pairing cancels drift of the host between rounds), and under "peak" the
same for the traced peaks; and
the machine: cores, CPU, numpy/scipy versions and thread settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# layer -> (calls per batch, batches per pass)
BATCHES = {
    "L0.h_matvec_32": (100, 10),
    "L0.multiplier_160": (1, 4),
    "L1.h_matvec_16": (1000, 10),
    "L1.h_matvec_16_real": (1000, 10),
    "L1.assemble_M_1419": (1, 6),
    "L1.assemble_M_4945": (1, 2),
    "L1.factor_1419": (1, 6),
    "L1.sigma_min_1419": (2, 6),
    "L1.bs_count_1419": (2, 6),
    "L1.mollified_phi_96": (1, 4),
    "L2.propagate_16_T8": (1, 6),
    "L2.negative_spectrum_spectral": (1, 3),
    "L2.negative_spectrum_lab": (1, 5),
    "L2.refine_iter_16_T8": (1, 5),
    "L2.smoothing_probe_lab": (1, 5),
    "L2.strichartz_probe_lab": (1, 5),
    "L2.sobolev_80": (1, 2),
    "L2.sobolev_80_workers2": (1, 2),
    "L2.pq_refine_80": (1, 4),
    "L2.pq_refine_80_underflow": (1, 4),
    "L2.stein_weiss_64": (1, 3),
    "L2.embedded_pair_96": (1, 4),
    "L2.decay_probe_64": (1, 2),
}

# ROADMAP item 2 targets; the 160^3 one was set for scipy.fft with two
# workers, and the kernel runs at scipy.fft's default of one.
TARGETS_S = {"L0.h_matvec_32": 1.8e-3, "L0.multiplier_160": 0.2}

# layer -> counts read from the result of one call
COUNTS = {"L1.sigma_min_1419": lambda result: {"applications": result[1]}}


def _layers():
    """name -> zero-argument callable doing one call of the layer."""
    import dataclasses

    import numpy as np
    from polyharmlab import probes
    from polyharmlab.birman_schwinger import (assemble_M, birman_schwinger_count,
                                              sigma_min)
    from polyharmlab.cli import _stream_tag
    from polyharmlab.counterexample import _mollified_phi, build_embedded_pair
    from polyharmlab.grid import (GridSpec, abs_derivative_symbol,
                                  apply_multiplier, smoothing_weight,
                                  weight_abs_power)
    from polyharmlab.hamiltonian import Hamiltonian, negative_spectrum, propagate
    from polyharmlab.operators import operator_norm, weighted_multiplier
    from polyharmlab.potentials import gaussian_well
    from polyharmlab.probes import (AdmissiblePair, _refine_quadratic_smoothing,
                                    kato_smoothing_probe, sobolev_scaling_probe,
                                    strichartz_probe)
    from polyharmlab.resolvent import ResolventQuery, high_energy_decay_probe

    rng = np.random.default_rng(0)

    def matvec(npts, half_width, real=False):
        g = GridSpec(3, npts, half_width)
        h = Hamiltonian(g, 1, gaussian_well(g, 5.0))
        vec = rng.standard_normal(g.size)
        if not real:
            vec = vec + 1j * rng.standard_normal(g.size)
        return lambda: h.apply(vec)

    lab = GridSpec(3, 16, 8.0)
    lab_h = Hamiltonian(lab, 1, gaussian_well(lab, 5.0))
    psi = rng.standard_normal(lab.shape) + 1j * rng.standard_normal(lab.shape)
    psi /= np.linalg.norm(psi)
    times = np.linspace(-8.0, 8.0, 65)
    weight = smoothing_weight(lab, 1, 0.0, 0.1)
    dsym = abs_derivative_symbol(lab, 0.0)

    big = GridSpec(3, 160, 10.0)
    vals = rng.standard_normal(big.shape) + 1j * rng.standard_normal(big.shape)
    sym = 1.0 / (big.xi_radii() ** 2 - 0.3 * np.exp(0.5j))

    spectral = GridSpec(3, 16, 6.0)
    well = gaussian_well(spectral, 20.0)
    query = ResolventQuery(z=0.5 + 0.03j, m=1, n=3)
    if well.support_indices().size != 1419:
        raise RuntimeError("the spectral well no longer has a 1419-point support")
    spectral_h = Hamiltonian(spectral, 1, well)
    block = assemble_M(well, query)
    factors = assemble_M(well, query).factors
    fine = gaussian_well(GridSpec(3, 48, 12.0), 5.0)
    if fine.support_indices().size != 4945:
        raise RuntimeError("the 48^3 well no longer has a 4945-point support")

    counter = GridSpec(3, 96, 1.1)
    sobolev = GridSpec(3, 80, 10.0)
    mags = np.geomspace(0.3, 10.0, 4)

    def run_sobolev(workers=1):
        return sobolev_scaling_probe(
            sobolev, 1, 0.0, 1.2, 6.0, mags, samples=3,
            rng=np.random.default_rng([0, _stream_tag("sobolev")]), workers=workers)

    # the refinement's arguments per |z|, taken from one probe run;
    # arrays are copied, since the refinement may overwrite its start
    def copies(args):
        return [a.copy() if isinstance(a, np.ndarray) else a for a in args]

    refine_args = []
    refine = probes._pq_norm_refine
    probes._pq_norm_refine = lambda *a: refine_args.append(copies(a)) or refine(*a)
    try:
        run_sobolev()
    finally:
        probes._pq_norm_refine = refine

    ladder = np.random.default_rng([0, _stream_tag("stein-weiss")])
    for npts in (16, 32):  # the rungs before 64^3 draw their starts first
        ladder.standard_normal(npts ** 3)
    sw = GridSpec(3, 64, 6.0)
    sw_apply = weighted_multiplier(weight_abs_power(sw, -1.0),
                                   abs_derivative_symbol(sw, -1.0),
                                   weight_abs_power(sw, 0.0))
    sw_start = ladder.standard_normal(sw.size)
    decay = GridSpec(3, 64, 8.0)

    layers = {
        "L0.h_matvec_32": matvec(32, 12.0),
        "L0.multiplier_160": lambda: apply_multiplier(vals, sym),
        "L1.h_matvec_16": matvec(16, 8.0),
        "L1.h_matvec_16_real": matvec(16, 8.0, real=True),
        "L1.assemble_M_1419": lambda: assemble_M(well, query),
        "L1.assemble_M_4945": lambda: assemble_M(fine, query),
        "L1.factor_1419": lambda: dataclasses.replace(
            block, matrix=block.matrix.copy()).factors,
        "L1.sigma_min_1419": lambda: sigma_min(factors),
        "L1.bs_count_1419": lambda: birman_schwinger_count(
            well, spectral_h._symbol, 2e-5),
        "L1.mollified_phi_96": lambda: _mollified_phi(counter, 2, 0.135),
        "L2.propagate_16_T8": lambda: propagate(lab_h, psi, times),
        "L2.negative_spectrum_spectral": lambda: negative_spectrum(spectral_h),
        "L2.negative_spectrum_lab": lambda: negative_spectrum(lab_h),
        "L2.refine_iter_16_T8": lambda: _refine_quadratic_smoothing(
            lab_h, weight, dsym, times, psi, 1),
        "L2.smoothing_probe_lab": lambda: kato_smoothing_probe(
            lab_h, 0.0, eps=0.1, t_final=8.0, samples=3, time_step=0.25,
            rng=np.random.default_rng([0, _stream_tag("smoothing")]),
            refine_iters=0, plateau_tol=0.05),
        "L2.strichartz_probe_lab": lambda: strichartz_probe(
            lab_h, AdmissiblePair(8.0 / 3.0, 4.0, 1.5), mode="standard",
            t_final=4.0, samples=3, time_step=0.25,
            rng=np.random.default_rng([0, _stream_tag("strichartz")]),
            plateau_tol=0.05),
        "L2.sobolev_80": run_sobolev,
        "L2.sobolev_80_workers2": lambda: run_sobolev(workers=2),
        "L2.pq_refine_80": lambda: refine(*copies(refine_args[0])),
        "L2.pq_refine_80_underflow": lambda: refine(*copies(refine_args[2])),
        "L2.stein_weiss_64": lambda: operator_norm(
            *sw_apply, sw.size, max_iter=120, rtol=1e-8, start=sw_start.copy()),
        "L2.embedded_pair_96": lambda: build_embedded_pair(counter, 2, 1.0),
        "L2.decay_probe_64": lambda: high_energy_decay_probe(
            decay, 1, 3, 1.0, np.logspace(0.0, 1.5, 4),
            rng=np.random.default_rng(0)),
    }
    return layers


def _worker() -> None:
    """One measurement pass: per layer, the per-call time of every batch, the
    counts the layer records and the traced peak of one call in bytes."""
    layers = _layers()
    out, counts, peaks = {}, {}, {}
    for name, fn in layers.items():
        calls, batches = BATCHES[name]
        result = fn()  # warm caches, plans and lazy set-up
        if name in COUNTS:
            counts[name] = COUNTS[name](result)
        del result
        tracemalloc.start()
        try:
            fn()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        times = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - start) / calls)
        out[name] = times
    print(json.dumps({"times": out, "counts": counts, "peaks": peaks}))


def _run_pass(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, __file__, "--worker"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median_s": float(med), "q1_s": float(q1), "q3_s": float(q3),
            "samples": len(values)}


def _commit(src: Path) -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=src, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _machine() -> dict:
    import numpy
    import scipy
    import scipy.fft

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k) for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    threads["scipy.fft.workers"] = scipy.fft.get_workers()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path, default=None,
                    help="src directory of another tree, measured interleaved")
    ap.add_argument("--rounds", type=int, default=10,
                    help="passes per tree; on a 2-core host the paired ratios "
                         "of 5 rounds swing by more than 10 %%")
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON file to write (overwritten); stdout when absent")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        _worker()
        return 0

    trees = {"current": ROOT / "src"}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), **trees}
    # label -> layer -> one list of batch times per round
    passes = {label: {name: [] for name in BATCHES} for label in trees}
    # label -> layer -> count -> the distinct values seen over the rounds
    counts = {label: {} for label in trees}
    # label -> layer -> the traced peak in bytes per round
    peaks = {label: {name: [] for name in BATCHES} for label in trees}
    order = list(trees)
    for rnd in range(args.rounds):
        for label in (order if rnd % 2 == 0 else order[::-1]):
            result = _run_pass(trees[label])
            for name, times in result["times"].items():
                passes[label][name].append(times)
            for name, peak in result["peaks"].items():
                peaks[label][name].append(peak)
            for name, values in result["counts"].items():
                for key, value in values.items():
                    seen = counts[label].setdefault(name, {}).setdefault(key, [])
                    if value not in seen:
                        seen.append(value)
            print(f"round {rnd + 1}/{args.rounds}: {label} done", file=sys.stderr)

    import numpy as np

    # a layer a tree does not have is left out of that tree's numbers
    passes = {label: {name: rounds for name, rounds in layers.items() if rounds}
              for label, layers in passes.items()}
    report = {
        "machine": _machine(),
        "batches": {name: {"calls": c, "batches_per_pass": b}
                    for name, (c, b) in BATCHES.items()},
        "rounds": args.rounds,
        "targets_s": TARGETS_S,
        "trees": {label: {"commit": _commit(src.parent),
                          "layers": {name: _quartiles(sum(rounds, []))
                                     for name, rounds in passes[label].items()},
                          "counts": {name: {key: seen[0] if len(seen) == 1 else seen
                                            for key, seen in values.items()}
                                     for name, values in counts[label].items()},
                          "peak_mib": {name: float(np.median(values)) / 2 ** 20
                                       for name, values in peaks[label].items()
                                       if values}}
                  for label, src in trees.items()},
    }
    if "baseline" in trees:
        report["paired_ratio_current_over_baseline"] = {}
        for name in (n for n in BATCHES
                     if n in passes["current"] and n in passes["baseline"]):
            ratios = [np.median(cur) / np.median(base) for cur, base in
                      zip(passes["current"][name], passes["baseline"][name])]
            q1, med, q3 = np.percentile(ratios, [25, 50, 75])
            report["paired_ratio_current_over_baseline"][name] = {
                "median": float(med), "q1": float(q1), "q3": float(q3),
                "rounds": len(ratios)}
            ratios = [cur / base for cur, base in
                      zip(peaks["current"][name], peaks["baseline"][name])]
            q1, med, q3 = np.percentile(ratios, [25, 50, 75])
            report["paired_ratio_current_over_baseline"][name]["peak"] = {
                "median": float(med), "q1": float(q1), "q3": float(q3)}
    if args.out is None:
        print(json.dumps(report, indent=2))
        return 0
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report.get("paired_ratio_current_over_baseline",
                                report["trees"]), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
