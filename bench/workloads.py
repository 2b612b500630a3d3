"""Benchmark workloads: the YAML config each one runs, its ops, the values its
correctness gate reads from the reports, and the bands the gate allows.

Every workload is generated from the seed alone.  The seed becomes the
config's `seed` field, which drives every probe's random stream in the
program, and seeds the library call's generator.  Grids, operators and
potentials are fixed, so the seed-independent quantities of the gate can be
checked on every seed; the seed-dependent ones are checked only at
DEFAULT_SEED, where the committed reference values were recorded.

Two scales exist: "bench" is what the benchmark measures, "tiny" (8^3 to
16^3 grids) is what the self-test runs.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from typing import Any, Dict, List

DEFAULT_SEED = 0

PROBES = ("kernels", "bs-sweep", "spectrum", "counterexample",
          "smoothing", "strichartz", "sobolev", "stein-weiss")

# Ops are CLI subcommands run through polyharmlab.cli.run, or the library op
# "decay-probe".  The `all` subcommand counts as one op per probe.
OPS = {
    "spectral": ["spectrum", "bs-sweep"],
    "lab": ["all"],
    "scaling": ["sobolev", "stein-weiss", "counterexample", "kernels",
                "decay-probe"],
}

# The lab workload uses the probe parameters of configs/reference.yaml,
# copied here so that a change to that file does not change the benchmark.
_REFERENCE_PROBES = {
    "kernels": {"trials": 1000, "tol": 1.0e-12},
    "bs-sweep": {"lambda_min": 0.5, "lambda_max": 4.0, "lambda_count": 4,
                 "thetas": [0.03, 0.01], "nu": 0.2},
    "spectrum": {"clr_constant": 1.0, "residual_tol": 1.0e-6},
    "counterexample": {"m": 2, "n": 3, "npts": 48, "half_width": 1.1,
                       "delta": 1.0, "method": "mollified",
                       "residual_tol": 1.0e-3, "save": False},
    "smoothing": {"gamma": 0.0, "eps": 0.1, "t_final": 8.0, "samples": 3,
                  "time_step": 0.25, "refine_iters": 0, "plateau_tol": 0.05},
    "strichartz": {"p": 8.0 / 3.0, "q": 4.0, "alpha": 1.5, "mode": "standard",
                   "t_final": 4.0, "samples": 3, "time_step": 0.25,
                   "plateau_tol": 0.05},
    "sobolev": {"alpha": 0.0, "p": 1.2, "q": 6.0, "z_min": 0.3, "z_max": 10.0,
                "z_count": 7, "samples": 3, "slope_tol": 0.05, "npts": 160,
                "half_width": 10.0},
    "stein-weiss": {"lam": 2.0, "alpha": 0.0, "beta": 1.0,
                    "npts_ladder": [8, 16, 32], "half_width": 6.0,
                    "stab_tol": 0.2},
}

# Grid sizes per scale.  "bench" keeps one repetition of each workload near
# ten seconds on a 2-core machine, so a run holds several repetitions.
_SIZES = {
    "bench": {
        "spectral": {"npts": 16, "half_width": 6.0},
        "lab": {"npts": 16, "half_width": 8.0, "sobolev_npts": 64},
        "scaling": {"sobolev_npts": 80, "ladder": [16, 32, 64],
                    "ce_npts": 96, "decay_npts": 64, "decay_half_width": 8.0},
    },
    "tiny": {
        "spectral": {"npts": 8, "half_width": 3.0},
        "lab": {"npts": 8, "half_width": 4.0, "sobolev_npts": 16},
        "scaling": {"sobolev_npts": 16, "ladder": [8, 16],
                    "ce_npts": 16, "decay_npts": 16, "decay_half_width": 4.0},
    },
}


def _base(seed: int, npts: int, half_width: float, depth: float) -> Dict[str, Any]:
    return {
        "seed": int(seed),
        "threads": None,
        "grid": {"n": 3, "npts": npts, "half_width": half_width},
        "operator": {"m": 1,
                     "potential": {"family": "gaussian-well", "depth": depth,
                                   "width": 1.0, "coupling": 1.0}},
        "probes": {},
    }


def make_config(workload: str, seed: int, scale: str = "bench") -> Dict[str, Any]:
    """The program config of one workload, as a YAML-ready dict."""
    size = _SIZES[scale][workload]
    if workload == "spectral":
        # h = 0.75, the reference spacing; the depth-20 well has 5 bound
        # states (one 3-fold) and, at bench scale, a 1419-point support.
        cfg = _base(seed, size["npts"], size["half_width"], 20.0)
        cfg["probes"] = {
            "spectrum": {"clr_constant": 1.0, "residual_tol": 1.0e-6},
            "bs-sweep": {"lambda_min": 0.5, "lambda_max": 4.0,
                         "lambda_count": 1, "thetas": [0.03, 0.01],
                         "nu": 0.2},
        }
    elif workload == "lab":
        cfg = _base(seed, size["npts"], size["half_width"], 5.0)
        cfg["threads"] = 1
        cfg["probes"] = copy.deepcopy(_REFERENCE_PROBES)
        cfg["probes"]["sobolev"].update(npts=size["sobolev_npts"], z_count=4)
    elif workload == "scaling":
        cfg = _base(seed, 16, 8.0, 5.0)
        cfg["probes"] = {
            "sobolev": dict(_REFERENCE_PROBES["sobolev"],
                            npts=size["sobolev_npts"], half_width=10.0,
                            z_count=4),
            "stein-weiss": dict(_REFERENCE_PROBES["stein-weiss"],
                                npts_ladder=size["ladder"]),
            "counterexample": dict(_REFERENCE_PROBES["counterexample"],
                                   npts=size["ce_npts"]),
            "kernels": dict(_REFERENCE_PROBES["kernels"]),
        }
    else:
        raise KeyError(f"unknown workload {workload!r}; valid: {sorted(OPS)}")
    return cfg


def decay_probe_args(workload: str, scale: str = "bench") -> Dict[str, Any]:
    """Arguments of the library call polyharmlab.high_energy_decay_probe."""
    size = _SIZES[scale][workload]
    return {"npts": size["decay_npts"], "half_width": size["decay_half_width"],
            "m": 1, "n": 3, "s": 1.0,
            "log10_min": 0.0, "log10_max": 1.5, "count": 4}


def largest_grid_points(workload: str, scale: str = "bench") -> int:
    """Points of the largest grid the workload transforms."""
    size = _SIZES[scale][workload]
    per_axis = [v for k, v in size.items() if k.endswith("npts")]
    per_axis += size.get("ladder", [])
    return max(per_axis) ** 3


def op_probes(op: str) -> List[str]:
    """The probe reports an op writes."""
    return list(PROBES) if op == "all" else [op]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def csv_rows(text: str) -> List[Dict[str, str]]:
    """Rows of a probe CSV, skipping the '# generated' stamp line."""
    body = "".join(line for line in io.StringIO(text)
                   if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def gate_values(probe: str, summary: Dict[str, Any],
                rows: List[Dict[str, str]]) -> Dict[str, Any]:
    """The quantities of one probe report that the gate checks."""
    metrics = summary["metrics"]
    if probe == "spectrum":
        return {"eigenvalues": [float(r["eigenvalue"]) for r in rows],
                "count_negative": int(metrics["count_negative"])}
    if probe == "bs-sweep":
        return {"sigma_min": {f"{float(r['lam']):.6g}|{float(r['theta']):.6g}|"
                              f"{r['side']}": float(r["sigma_min"])
                              for r in rows}}
    if probe == "stein-weiss":
        return {"norms": [float(x) for x in metrics["norms"]]}
    if probe == "kernels":
        return {"max_residual": float(metrics["max_residual"])}
    if probe == "counterexample":
        return {"eigen_residual": float(metrics["eigen_residual"])}
    if probe == "smoothing":
        return {"sup_ratio_refined": float(metrics["sup_ratio_refined"])}
    if probe == "strichartz":
        return {"sup_ratio": float(metrics["sup_ratio"])}
    if probe in ("sobolev", "decay-probe"):
        return {"slope": float(metrics["slope"])}
    raise KeyError(probe)


REL_BAND = 1e-6

# (probe, quantity) -> (seed independent?, band).  A band is "exact",
# ("rel", r): |x - ref| <= r |ref|, ("tol", key): |x - ref| <= the probe's
# stated tolerance cfg.probes[probe][key], or ("tol_scaled", key): the same
# scaled by max(1, |ref|), as the spectrum probe scales its residual_tol.
BANDS = {
    ("spectrum", "eigenvalues"): (True, ("tol_scaled", "residual_tol")),
    ("spectrum", "count_negative"): (True, "exact"),
    ("bs-sweep", "sigma_min"): (True, ("rel", REL_BAND)),
    ("stein-weiss", "norms"): (True, ("rel", REL_BAND)),
    ("kernels", "max_residual"): (True, ("tol", "tol")),
    ("counterexample", "eigen_residual"): (True, ("tol", "residual_tol")),
    ("decay-probe", "slope"): (True, ("rel", REL_BAND)),
    ("smoothing", "sup_ratio_refined"): (False, ("rel", REL_BAND)),
    ("strichartz", "sup_ratio"): (False, ("rel", REL_BAND)),
    ("sobolev", "slope"): (False, ("rel", REL_BAND)),
}


def _width(band, ref: float, probe_cfg: Dict[str, Any]) -> float:
    if band == "exact":
        return 0.0
    kind, arg = band
    if kind == "rel":
        return arg * abs(ref)
    tol = float(probe_cfg[arg])
    return tol * max(1.0, abs(ref)) if kind == "tol_scaled" else tol


def _flatten(value) -> Dict[str, float]:
    if isinstance(value, dict):
        return {str(k): v for k, v in value.items()}
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    return {"": value}


def check(probe: str, values: Dict[str, Any], reference: Dict[str, Any],
          cfg: Dict[str, Any], seed: int) -> List[str]:
    """Reasons the probe's values leave their bands; empty when they pass."""
    problems = []
    probe_cfg = cfg["probes"].get(probe, {})
    for quantity, ref in reference.items():
        seed_independent, band = BANDS[(probe, quantity)]
        if not seed_independent and seed != DEFAULT_SEED:
            continue
        got, want = _flatten(values.get(quantity)), _flatten(ref)
        if set(got) != set(want):
            problems.append(f"{probe}.{quantity}: entries {sorted(got)} != "
                            f"reference {sorted(want)}")
            continue
        for key, r in want.items():
            x = got[key]
            ok = (x is not None and math.isfinite(x)
                  and abs(x - r) <= _width(band, r, probe_cfg))
            if not ok:
                where = f"[{key}]" if key else ""
                problems.append(f"{probe}.{quantity}{where} = {x!r}, "
                                f"reference {r!r}, band {band}")
    return problems
