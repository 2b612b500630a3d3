"""Command-line orchestration: YAML config parsing and validation, probe
dispatch, and CSV/JSON report emission.

`all` runs the probes in PROBE_SUBCOMMANDS order on the calling thread, each
with the whole config, and writes each probe's reports as soon as it returns.

Exit codes: 0 when every pass flag of the executed probes is true, 1 on a
numerical failure or failed pass flag (finished probes keep their reports),
2 on a ConfigError from the parser or a library argument check (the message
names the violated invariant).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import numbers
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np
import yaml

from .birman_schwinger import inv_norm_sweep
from .counterexample import build_embedded_pair, save_embedded_pair, verify_embedded
from .grid import ConfigError, GridSpec, read_field
from .hamiltonian import Hamiltonian, clr_check
from .potentials import Potential, bracket_decay, gaussian_well
from .probes import (
    AdmissiblePair,
    kato_smoothing_probe,
    sobolev_scaling_probe,
    stein_weiss_probe,
    strichartz_probe,
)
from .reporting import SCHEMA_VERSION, ProbeReport
from .resolvent import ResolventQuery

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_VALIDATION = 2

PROBE_SUBCOMMANDS = (
    "kernels", "bs-sweep", "spectrum", "counterexample",
    "smoothing", "strichartz", "sobolev", "stein-weiss",
)
SUBCOMMANDS = PROBE_SUBCOMMANDS + ("all",)

# ---------------------------------------------------------------------------
# config schemas: one table per block (list-probes prints the probe tables)
# ---------------------------------------------------------------------------

def _f(default=None, required=False, kind="number", doc="", minimum=None):
    return {"default": default, "required": required, "type": kind, "doc": doc,
            "minimum": minimum}


ROOT_SCHEMA = {
    "seed": _f(required=True, kind="int", doc="root of every probe's random stream"),
    "threads": _f(kind="int", minimum=1, doc="core budget (default: the CPU count)"),
    "output_dir": _f("reports", kind="str"),
    "grid": _f(required=True, kind="mapping"),
    "operator": _f(required=True, kind="mapping"),
    "probes": _f(kind="mapping", doc="one block per probe (default: none)"),
}

GRID_SCHEMA = {
    "n": _f(required=True, kind="int", doc="dimension"),
    "npts": _f(required=True, kind="int", doc="points per axis"),
    "half_width": _f(required=True, doc="the box is [-half_width, half_width)^n"),
}

OPERATOR_SCHEMA = {
    "m": _f(required=True, kind="int", doc="order of (-Delta)^m"),
    "potential": _f({"family": "gaussian-well"}, kind="mapping"),
}


def _potential(**keys):
    return {"family": _f(required=True, kind="str"), **keys,
            "coupling": _f(1.0, doc="factor on the family's values")}


#: The keys each potential family reads, coupling included.
POTENTIAL_SCHEMAS = {
    "gaussian-well": _potential(depth=_f(1.0), width=_f(1.0)),
    "polynomial-decay": _potential(amplitude=_f(1.0),
                                   s=_f(required=True, doc="decay exponent, > 0")),
    "embedded-counterexample": _potential(delta=_f(1.0, doc="support radius")),
    "file": _potential(path=_f(required=True, kind="str",
                               doc="a field binary on the config grid")),
}


PROBE_SCHEMAS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "kernels": {
        "trials": _f(1000, kind="int", doc="random (xi, z) identity checks",
                     minimum=1),
        "tol": _f(1e-12, doc="max allowed partial-fraction residual"),
    },
    "bs-sweep": {
        "lambda_min": _f(0.5, doc="low end of the energy sweep"),
        "lambda_max": _f(4.0, doc="high end of the energy sweep"),
        "lambda_count": _f(4, kind="int", minimum=1),
        "thetas": _f([0.03, 0.01], kind="list", doc="imaginary-offset ladder"),
        "nu": _f(0.2, doc="read, held positive and otherwise ignored: the sweep "
                 "excludes no energies; kept because the benchmark's configs set it"),
    },
    "spectrum": {
        "clr_constant": _f(1.0, doc="calibrated constant of the bound-state count bound"),
        "residual_tol": _f(1e-6, doc="max allowed eigenpair residual"),
    },
    "counterexample": {
        "m": _f(2, kind="int", doc="operator order of the constructed pair (even)"),
        "n": _f(3, kind="int", doc="dimension of the constructed pair (odd)"),
        "npts": _f(48, kind="int"),
        "half_width": _f(1.1),
        "delta": _f(1.0, doc="support radius of the potential"),
        "sigma": _f(None, doc="mollifier width (default 0.135 * delta)"),
        "method": _f("mollified", kind="str", doc="must be mollified, the only "
                     "construction; kept because the benchmark's configs set it"),
        "residual_tol": _f(1e-3, doc="max allowed eigenvalue-equation residual"),
        "save": _f(False, kind="bool", doc="write the pair into the output directory"),
    },
    "smoothing": {
        "gamma": _f(0.0, doc="derivative order of the weighted functional"),
        "eps": _f(0.1, doc="endpoint bracket-weight exponent margin"),
        "t_final": _f(8.0),
        "samples": _f(3, kind="int", minimum=1),
        "time_step": _f(0.25),
        "refine_iters": _f(0, kind="int", minimum=0, doc="must be 0: the time-domain "
                           "refinement was removed; kept because the benchmark's "
                           "configs set it"),
        "plateau_tol": _f(0.05, doc="relative increment budget per T-doubling"),
    },
    "strichartz": {
        "p": _f(None, required=True, doc="time exponent"),
        "q": _f(None, required=True, doc="space exponent"),
        "alpha": _f(None, required=True, doc="pair scaling parameter"),
        "mode": _f("standard", kind="str", doc="standard | gain"),
        "t_final": _f(8.0),
        "samples": _f(3, kind="int", minimum=1),
        "time_step": _f(0.25),
        "plateau_tol": _f(0.05),
    },
    "sobolev": {
        "alpha": _f(0.0, doc="derivative order on the output side"),
        "p": _f(1.2),
        "q": _f(6.0),
        "z_min": _f(0.3),
        "z_max": _f(10.0),
        "z_count": _f(7, kind="int", minimum=3),
        "z_arg": _f(math.pi / 2, doc="ray angle in (0, 2 pi)"),
        "samples": _f(3, kind="int", minimum=1),
        "slope_tol": _f(0.05),
        "npts": _f(None, kind="int", doc="probe-grid override (default: main grid)"),
        "half_width": _f(None, doc="probe-grid override (default: main grid)"),
    },
    "stein-weiss": {
        "lam": _f(2.0, doc="multiplier order offset (|D|^{-n+lam})"),
        "alpha": _f(0.0, doc="input weight exponent"),
        "beta": _f(1.0, doc="output weight exponent"),
        "npts_ladder": _f([8, 16, 32], kind="int_list"),
        "half_width": _f(6.0),
        "stab_tol": _f(0.05, doc="relative change budget on the last doubling"),
    },
}

_TOLERANCE_KEYS = ("tol", "residual_tol", "plateau_tol", "slope_tol",
                   "stab_tol", "nu")


def list_probes() -> Dict[str, Any]:
    """Machine-readable schema dump of every subcommand's parameters."""
    return {
        "schema_version": SCHEMA_VERSION,
        "subcommands": {name: PROBE_SCHEMAS.get(name, {})
                        for name in SUBCOMMANDS},
    }


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    grid: GridSpec
    m: int
    potential_spec: Dict[str, Any]
    seed: int
    output_dir: Path
    threads: int  # the core budget, spent by the sobolev |z| rows
    probes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)


def _require(cond: bool, invariant: str) -> None:
    if not cond:
        raise ConfigError(invariant)


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integral(value: Any) -> bool:
    return _is_number(value) and (isinstance(value, numbers.Integral)
                                  or float(value).is_integer())


def _coerce(where: str, kind: str, value: Any) -> Any:
    """A config value typed by its schema kind; None passes through.

    int must be integral, number goes through float() (so a YAML string such
    as 1e-12 is accepted), list must be a sequence of numbers and int_list one
    of integers, bool, str and mapping must already have their type."""
    if value is None:
        return None
    if kind == "int":
        _require(_is_integral(value), f"{where} must be an integer, got {value!r}")
        return int(value)
    if kind == "number":
        _require(not isinstance(value, bool), f"{where} must be a number, got {value!r}")
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{where} must be a number, got {value!r}") from None
    if kind == "list":
        _require(isinstance(value, (list, tuple)) and all(map(_is_number, value)),
                 f"{where} must be a list of numbers, got {value!r}")
        return list(value)
    if kind == "int_list":
        _require(isinstance(value, (list, tuple)) and all(map(_is_integral, value)),
                 f"{where} must be a list of integers, got {value!r}")
        return [int(x) for x in value]
    _require(isinstance(value, {"bool": bool, "str": str, "mapping": dict}[kind]),
             f"{where} must be a {kind}, got {value!r}")
    return value


def _parse_block(raw: Optional[Dict[str, Any]], schema: Dict[str, Dict[str, Any]],
                 where: str, prefix: str = "") -> Dict[str, Any]:
    """The block raw resolved against its schema: each key typed by _coerce,
    held to its minimum (a tolerance to > 0), at its default when absent.  An
    unknown key, an absent required key and a null where the key is required
    or its default is not null are ConfigErrors naming prefix + key.  raw None
    is a block left out of the config: every key takes its default, a
    required one's None included (run() checks those of the probes it runs)."""
    block = {} if raw is None else raw
    for key in block:
        _require(key in schema, f"unknown parameter {key!r} in {where}; "
                 f"valid: {list(schema)}")
    out = {}
    for key, meta in schema.items():
        name = prefix + key
        if key in block:
            value = block[key]
            _require(value is not None or meta["default"] is None
                     and not meta["required"], f"{name} must be set")
        else:
            _require(raw is None or not meta["required"],
                     f"{where} requires parameter {key!r}")
            value = meta["default"]
        value = out[key] = _coerce(name, meta["type"], value)
        if value is None:
            continue
        _require(meta["minimum"] is None or value >= meta["minimum"],
                 f"{name} must be >= {meta['minimum']}, got {value!r}")
        _require(key not in _TOLERANCE_KEYS or value > 0,
                 f"tolerance {name} must be strictly positive")
    return out


def parse_config(raw: Dict[str, Any], out_dir: Optional[str] = None,
                 threads: Optional[int] = None) -> RunConfig:
    """The config raw resolved against its block schemas; threads and
    out_dir (the CLI's --threads and --out) stand in for the config's keys."""
    _require(isinstance(raw, dict), "config root must be a mapping")
    root = _parse_block(raw if threads is None else dict(raw, threads=threads),
                        ROOT_SCHEMA, "the config root")
    gblock = _parse_block(root["grid"], GRID_SCHEMA, "the grid block", "grid.")
    oblock = _parse_block(root["operator"], OPERATOR_SCHEMA, "the operator block",
                          "operator.")
    m, n = oblock["m"], gblock["n"]
    _require(n > 2 * m, f"n > 2m: got n={n}, m={m}")
    try:
        grid = GridSpec(**gblock)
    except ConfigError as exc:
        raise ConfigError(f"grid block invalid: {exc}") from exc

    family = oblock["potential"].get("family")
    _require(family in tuple(POTENTIAL_SCHEMAS), "potential family must be one of "
             f"{tuple(POTENTIAL_SCHEMAS)}, got {family!r}")
    spec = _parse_block(oblock["potential"], POTENTIAL_SCHEMAS[family],
                        f"the {family} potential", "operator.potential.")
    warnings: List[str] = []
    if family == "polynomial-decay":
        _require(spec["s"] > 0, "polynomial-decay potential needs s > 0")
        if spec["s"] <= 2 * m:
            warnings.append(
                f"polynomial decay s={spec['s']:g} <= 2m={2 * m}: outside the "
                "hypothesis range of the smoothing estimates")

    given = _parse_block(root["probes"], {name: _f(kind="mapping")
                                          for name in PROBE_SCHEMAS},
                         "the probes block", "probes.")
    probes = {name: _parse_block(given[name], schema, f"probe block {name!r}",
                                 f"{name}.")
              for name, schema in PROBE_SCHEMAS.items()}
    _require(probes["smoothing"]["refine_iters"] == 0,
             "smoothing.refine_iters must be 0: the time-domain refinement was "
             "removed; the key stays because the benchmark's configs set it")
    _require(probes["counterexample"]["method"] == "mollified",
             "counterexample.method must be 'mollified', the only construction, "
             f"got {probes['counterexample']['method']!r}")
    return RunConfig(grid=grid, m=m, potential_spec=spec, seed=root["seed"],
                     output_dir=Path(root["output_dir"] if out_dir is None
                                     else out_dir),
                     threads=root["threads"] or os.cpu_count() or 1,
                     probes=probes, warnings=warnings)


def load_config(path, out_dir: Optional[str] = None,
                threads: Optional[int] = None) -> RunConfig:
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw, out_dir=out_dir, threads=threads)


def build_potential(cfg: RunConfig) -> Potential:
    """The potential of the resolved spec (every key set by parse_config)."""
    spec = cfg.potential_spec
    family = spec["family"]
    if family == "gaussian-well":
        pot = gaussian_well(cfg.grid, spec["depth"], spec["width"])
    elif family == "polynomial-decay":
        pot = bracket_decay(cfg.grid, spec["amplitude"], spec["s"])
    elif family == "embedded-counterexample":
        pot = build_embedded_pair(cfg.grid, cfg.m, spec["delta"]).potential
    else:  # file
        path = spec["path"]
        try:
            with open(path, "rb") as fh:
                grid, values = read_field(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read file potential {path}: {exc}") from exc
        _require(grid == cfg.grid,
                 "file potential grid does not match the config grid")
        _require(np.all(np.isfinite(values)) and not np.any(values.imag),
                 f"file potential {path} holds complex or non-finite values; "
                 "it must be real and finite")
        pot = Potential(cfg.grid, values.real, name=f"file({Path(path).name})")
    if spec["coupling"] != 1.0:
        pot = pot.scaled(spec["coupling"])
    return pot


# ---------------------------------------------------------------------------
# probe runners
# ---------------------------------------------------------------------------

def _stream_tag(name: str) -> int:
    return sum(ord(c) * 31 ** i for i, c in enumerate(name)) % (2 ** 31)


def _probe_rng(cfg: RunConfig, name: str) -> np.random.Generator:
    """Independent deterministic stream per probe, stable across subsets."""
    return np.random.default_rng([cfg.seed, _stream_tag(name)])


def _with_seed(report: ProbeReport, cfg: RunConfig, name: str) -> ProbeReport:
    """Record the seed and the stream tag of the probe's _probe_rng."""
    report.provenance.update(seed=cfg.seed, stream_tag=_stream_tag(name))
    return report


def _run_kernels(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["kernels"]
    rng = _probe_rng(cfg, "kernels")
    m, n = cfg.m, cfg.grid.n
    trials, tol = block["trials"], block["tol"]
    report = ProbeReport(
        name="kernels",
        params={"m": m, "n": n, "trials": trials, "tol": tol},
    )
    worst = 0.0
    for t in range(trials):
        xi = rng.uniform(0.0, cfg.grid.nyquist_radius)
        mag = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        ang = rng.uniform(0.05, 2.0 * np.pi - 0.05)
        z = mag * complex(math.cos(ang), math.sin(ang))
        q = ResolventQuery(z=z, m=m, n=n)
        lhs = 1.0 / (xi ** (2 * m) - z)
        rhs = sum(zl / (xi ** 2 - zl) for zl in q.roots()) / (m * z)
        resid = abs(lhs - rhs) / max(abs(lhs), 1e-300)
        worst = max(worst, resid)
        if t < 64 or resid > tol:
            report.add_row(trial=t, xi=xi, re_z=z.real, im_z=z.imag,
                           residual=resid)
    report.metrics.update(max_residual=worst)
    report.passes["identity_holds"] = bool(worst < tol)
    return _with_seed(report, cfg, "kernels")


def _run_bs_sweep(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["bs-sweep"]
    pot = build_potential(cfg)
    lambdas = np.linspace(block["lambda_min"], block["lambda_max"],
                          block["lambda_count"])
    report = inv_norm_sweep(pot, cfg.m, list(lambdas), block["thetas"])
    report.provenance.update(seed=cfg.seed, grid=cfg.grid.provenance())
    return report


def _run_spectrum(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["spectrum"]
    pot = build_potential(cfg)
    h = Hamiltonian(cfg.grid, cfg.m, pot)
    n0, bound, ok = clr_check(h, block["clr_constant"])
    es = h.eigenset()
    report = ProbeReport(
        name="spectrum",
        params={"m": cfg.m, "n": cfg.grid.n, "potential": pot.name,
                "clr_constant": block["clr_constant"]},
        provenance={"seed": cfg.seed, "grid": cfg.grid.provenance(),
                    "residual_tol": block["residual_tol"]},
    )
    for ev, res in zip(es.eigenvalues, es.residuals):
        report.add_row(eigenvalue=ev, residual=res)
    report.metrics.update(count_negative=n0, clr_bound=bound,
                          count_birman_schwinger=es.count_birman_schwinger)
    report.passes["clr_bound_holds"] = bool(ok)
    if es.count_birman_schwinger is not None:
        report.passes["counts_agree"] = es.count_birman_schwinger == n0
    report.passes["eigenpairs_converged"] = bool(
        all(r < block["residual_tol"] * max(1.0, abs(e))
            for e, r in zip(es.eigenvalues, es.residuals)))
    return report


def _run_counterexample(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["counterexample"]
    grid = GridSpec(block["n"], block["npts"], block["half_width"])
    pair = build_embedded_pair(grid, block["m"], block["delta"],
                               sigma=block["sigma"])
    report = verify_embedded(pair)
    report.provenance.update(seed=cfg.seed)
    report.passes["residual_below_tol"] = bool(
        pair.residuals["eigen_residual"] < block["residual_tol"])
    if block.get("save"):
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        save_embedded_pair(pair, cfg.output_dir / "embedded_pair")
    return report


def _run_smoothing(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["smoothing"]
    pot = build_potential(cfg)
    h = Hamiltonian(cfg.grid, cfg.m, pot)
    report = kato_smoothing_probe(
        h, block["gamma"], eps=block["eps"], t_final=block["t_final"],
        samples=block["samples"], time_step=block["time_step"],
        rng=_probe_rng(cfg, "smoothing"), plateau_tol=block["plateau_tol"])
    return _with_seed(report, cfg, "smoothing")


def _run_strichartz(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["strichartz"]
    pot = build_potential(cfg)
    h = Hamiltonian(cfg.grid, cfg.m, pot)
    pair = AdmissiblePair(block["p"], block["q"], block["alpha"])
    report = strichartz_probe(
        h, pair, mode=block["mode"], t_final=block["t_final"],
        samples=block["samples"], time_step=block["time_step"],
        rng=_probe_rng(cfg, "strichartz"), plateau_tol=block["plateau_tol"])
    return _with_seed(report, cfg, "strichartz")


# Each sobolev |z| row in flight adds two complex grid arrays to the probe's
# working set, its symbol and its work buffer (80^3: a traced peak of 23, 41
# and 58 MB at 1, 2 and 3 rows), so a lone sobolev on a many-core host holds
# at most two rows at once.
SOBOLEV_MAX_ROWS = 2


def _run_sobolev(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["sobolev"]
    npts = block["npts"] or cfg.grid.npts
    half_width = block["half_width"] or cfg.grid.half_width
    grid = GridSpec(cfg.grid.n, npts, half_width)
    mags = np.geomspace(block["z_min"], block["z_max"], block["z_count"])
    report = sobolev_scaling_probe(
        grid, cfg.m, block["alpha"], block["p"], block["q"], mags,
        z_arg=block["z_arg"], samples=block["samples"],
        rng=_probe_rng(cfg, "sobolev"), slope_tol=block["slope_tol"],
        workers=min(cfg.threads, SOBOLEV_MAX_ROWS))
    return _with_seed(report, cfg, "sobolev")


def _run_stein_weiss(cfg: RunConfig) -> ProbeReport:
    block = cfg.probes["stein-weiss"]
    report = stein_weiss_probe(
        block["lam"], block["alpha"], block["beta"], cfg.grid.n,
        npts_ladder=block["npts_ladder"],
        half_width=block["half_width"], rng=_probe_rng(cfg, "stein-weiss"),
        stab_tol=block["stab_tol"])
    return _with_seed(report, cfg, "stein-weiss")


PROBE_RUNNERS: Dict[str, Callable[[RunConfig], ProbeReport]] = {
    "kernels": _run_kernels,
    "bs-sweep": _run_bs_sweep,
    "spectrum": _run_spectrum,
    "counterexample": _run_counterexample,
    "smoothing": _run_smoothing,
    "strichartz": _run_strichartz,
    "sobolev": _run_sobolev,
    "stein-weiss": _run_stein_weiss,
}


# ---------------------------------------------------------------------------
# report emission and orchestration
# ---------------------------------------------------------------------------

def _write_reports(report: ProbeReport, out_dir: Path, name: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    report.write_csv(csv_path)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    payload = csv_path.read_text(encoding="utf-8")
    csv_path.write_text(f"# generated {stamp}\n" + payload, encoding="utf-8")
    report.write_json(out_dir / f"{name}.json")


def run(config_path, subcommand: str, out_dir: Optional[str] = None,
        threads: Optional[int] = None) -> int:
    """Execute one subcommand (or 'all') against a config file."""
    if subcommand not in SUBCOMMANDS:
        print(f"unknown subcommand {subcommand!r}; valid: {SUBCOMMANDS}",
              file=sys.stderr)
        return EXIT_VALIDATION
    names = list(PROBE_SUBCOMMANDS) if subcommand == "all" else [subcommand]
    reports: Dict[str, ProbeReport] = {}
    errors: Dict[str, Exception] = {}
    try:
        cfg = load_config(config_path, out_dir=out_dir, threads=threads)
        for name in names:  # a probe's missing pair fails before any probe runs
            for key, meta in PROBE_SCHEMAS[name].items():
                _require(not meta["required"] or cfg.probes[name][key] is not None,
                         f"probe {name!r} requires parameter {key!r}")
        if subcommand in ("smoothing", "strichartz", "all"):
            for w in cfg.warnings:  # only a polynomial-decay potential warns
                print(f"warning: {w}", file=sys.stderr)
        for name in names:
            try:
                reports[name] = PROBE_RUNNERS[name](cfg)
            except ConfigError:
                raise
            except Exception as exc:  # numerical failure: the other probes still run
                errors[name] = exc
            else:
                _write_reports(reports[name], cfg.output_dir, name)
    except ConfigError as exc:
        print(f"config validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if subcommand == "all":
        summary = {
            "schema_version": SCHEMA_VERSION,
            "seed": cfg.seed,
            "probes": {name: rep.summary() for name, rep in reports.items()},
            "passed": (not errors
                       and all(rep.passed() for rep in reports.values())),
        }
        if errors:
            summary["failures"] = {n: f"{type(e).__name__}: {e}"
                                   for n, e in errors.items()}
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        (cfg.output_dir / "all.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    for name, exc in errors.items():
        print(f"numerical failure in {name}:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)
    failed = [n for n, rep in reports.items() if not rep.passed()]
    if failed:
        print(f"pass flags false in: {', '.join(failed)}", file=sys.stderr)
    return EXIT_NUMERICAL if errors or failed else EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyharmlab",
        description="probe suites for polyharmonic Schrodinger operators")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
    sub.add_parser("list-probes")
    args = parser.parse_args(argv)
    if args.subcommand == "list-probes":
        print(json.dumps(list_probes(), indent=2))
        return EXIT_OK
    return run(args.config, args.subcommand, out_dir=args.out,
               threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
