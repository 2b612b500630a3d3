"""One benchmark repetition in a fresh process.

Imports polyharmlab from the checkout's src/, loads the workload's config
(the two together are the set-up the parent times), then runs the workload's
ops in order and writes a JSON result: op wall times, the values the
correctness gate checks, pass flags, peak RSS and, when traced, the layer
metrics.  The parent (run.py) starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def _environment(cfg, np, scipy, polyharmlab) -> dict:
    """Library versions, BLAS vendor and thread count, program threads."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads[Path(path).name] = int(getattr(lib, sym)())
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "polyharmlab": getattr(polyharmlab, "__version__", None),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": threads},
        "program_threads": cfg.threads,
    }


def _probe_result(probe: str, summary: dict, rows: list) -> dict:
    """Gate values and pass flags of a probe report; a report without the
    gated quantities is a failed op."""
    try:
        return {"values": workloads.gate_values(probe, summary, rows),
                "passes": summary["passes"]}
    except (KeyError, ValueError, TypeError) as exc:
        return {"error": f"gated quantity unreadable: {exc!r}"}


def _run_cli_op(cli, op: str, config: Path, out_dir: Path, tracer) -> dict:
    if tracer is not None and op == "all":
        tracer.all_started = time.perf_counter()
    start = time.perf_counter()
    code = cli.run(str(config), op, out_dir=str(out_dir))
    wall = time.perf_counter() - start
    probes = {}
    for probe in workloads.op_probes(op):
        report_json, report_csv = out_dir / f"{probe}.json", out_dir / f"{probe}.csv"
        if code == cli.EXIT_VALIDATION:
            probes[probe] = {"error": "config validation failed (exit 2)"}
        elif not (report_json.exists() and report_csv.exists()):
            probes[probe] = {"error": "report missing"}
        else:
            probes[probe] = _probe_result(
                probe, json.loads(report_json.read_text(encoding="utf-8")),
                workloads.csv_rows(report_csv.read_text(encoding="utf-8")))
    return {"op": op, "wall_s": wall, "exit_code": code, "probes": probes}


def _run_decay_probe(polyharmlab, np, workload: str, scale: str, seed: int) -> dict:
    a = workloads.decay_probe_args(workload, scale)
    grid = polyharmlab.GridSpec(3, a["npts"], a["half_width"])
    mags = np.logspace(a["log10_min"], a["log10_max"], a["count"])
    start = time.perf_counter()
    try:
        report = polyharmlab.high_energy_decay_probe(
            grid, a["m"], a["n"], a["s"], mags, rng=np.random.default_rng(seed))
        result = _probe_result("decay-probe", report.summary(), [])
    except Exception:  # an op that raises is a failed op, not a crash
        result = {"error": traceback.format_exc(limit=3)}
    return {"op": "decay-probe", "wall_s": time.perf_counter() - start,
            "exit_code": None, "probes": {"decay-probe": result}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scale", default="bench")
    ap.add_argument("--config", required=True, type=Path)
    ap.add_argument("--out-dir", required=True, type=Path)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy as np
    import scipy
    import polyharmlab
    from polyharmlab import cli

    src = (ROOT / "src").resolve()
    if src not in Path(polyharmlab.__file__).resolve().parents:
        print(f"polyharmlab imported from {polyharmlab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    cfg = cli.load_config(str(args.config), out_dir=str(args.out_dir))
    result = {"ready_at": time.monotonic()}
    if args.setup_only:
        args.result.write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = []
    start = time.perf_counter()
    for op in workloads.OPS[args.workload]:
        if op == "decay-probe":
            ops.append(_run_decay_probe(polyharmlab, np, args.workload,
                                        args.scale, cfg.seed))
        else:
            ops.append(_run_cli_op(cli, op, args.config, args.out_dir, tracer))
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        all_wall = sum(o["wall_s"] for o in ops if o["op"] == "all")
        result["layers"] = tracer.metrics(all_wall or None)
        result["absent"] = tracer.absent

    result.update(
        run_s=run_s,
        ops=ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment(cfg, np, scipy, polyharmlab),
    )
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
