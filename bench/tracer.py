"""Per-layer tracing of polyharmlab from outside the program.

Each traced function is replaced by a wrapper that records a span: calls,
busy time (the span's duration) and self time (the duration minus the part
covered by traced child spans).  Spans nest through a parent stack kept per
thread, so the threaded `all` subcommand attributes time to the right probe.
A function is rebound in every polyharmlab module that imported it by value;
methods are replaced on their class and probe runners in cli.PROBE_RUNNERS.
A target the program no longer has is recorded as absent and reads 0.
"""

from __future__ import annotations

import math
import sys
import threading
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from workloads import PROBES

PACKAGE = "polyharmlab"

# Spans whose traced descendants are counted, for per-call work ratios.
COUNTING_SCOPES = ("hamiltonian.negative_spectrum", "hamiltonian.propagate")


def _transform_work(args, kwargs, out, add):
    points = args[0].grid.size
    add("points", points)
    add("computed_bytes", 32 * points)
    add("computed_flops", 5 * points * math.log2(points))


def _bs_block(args, kwargs, out, add):
    add("block_n", out.size, reduce=max)


def _norm_estimate(args, kwargs, out, add):
    add("iterations", out.iterations)
    add("unconverged", 0 if out.converged else 1)


def _written_bytes(args, kwargs, out, add):
    add("bytes", Path(args[1]).stat().st_size)


# (module, attribute, hook).  "Class.method" names a method.
TARGETS = [
    ("grid", "forward_transform", _transform_work),
    ("grid", "inverse_transform", _transform_work),
    ("grid", "apply_multiplier", None),
    ("grid", "norm_lp", None),
    ("hamiltonian", "Hamiltonian.apply", None),
    ("hamiltonian", "apply_H", None),
    ("hamiltonian", "negative_spectrum", None),
    ("hamiltonian", "lanczos_extreme", None),
    ("hamiltonian", "propagate", None),
    ("hamiltonian", "projector_ac", None),
    ("birman_schwinger", "assemble_M", _bs_block),
    ("birman_schwinger", "sigma_min", None),
    ("birman_schwinger", "inv_norm_sweep", None),
    ("operators", "operator_norm", _norm_estimate),
    ("resolvent", "weighted_resolvent_norm", None),
    ("resolvent", "boundary_symbol", None),
    ("resolvent", "high_energy_decay_probe", None),
    ("probes", "kato_smoothing_probe", None),
    ("probes", "strichartz_probe", None),
    ("probes", "sobolev_scaling_probe", None),
    ("probes", "stein_weiss_probe", None),
    ("cli", "build_potential", None),
    ("counterexample", "build_embedded_pair", None),
    ("counterexample", "verify_embedded", None),
    ("reporting", "ProbeReport.write_json", _written_bytes),
    ("reporting", "ProbeReport.write_csv", _written_bytes),
]


# Directly recorded quantities reported per span key.
LAYER_QUANTITIES = {
    "grid.forward_transform": [("calls", "count")],
    "grid.inverse_transform": [("calls", "count")],
    "grid.apply_multiplier": [("calls", "count"), ("self_s", "s")],
    "grid.norm_lp": [("calls", "count"), ("self_s", "s")],
    "hamiltonian.apply": [("calls", "count"), ("self_s", "s")],
    "hamiltonian.negative_spectrum": [("calls", "count"), ("busy_s", "s")],
    "hamiltonian.lanczos_extreme": [("calls", "count"), ("self_s", "s")],
    "hamiltonian.propagate": [("calls", "count"), ("busy_s", "s")],
    "hamiltonian.projector_ac": [("calls", "count")],
    "birman_schwinger.assemble_M": [("calls", "count"), ("busy_s", "s"),
                                    ("block_n", "count")],
    "birman_schwinger.sigma_min": [("calls", "count"), ("busy_s", "s")],
    "birman_schwinger.inv_norm_sweep": [("busy_s", "s")],
    "operators.operator_norm": [("calls", "count"), ("iterations", "count"),
                                ("unconverged", "count"), ("busy_s", "s")],
    "resolvent.weighted_resolvent_norm": [("calls", "count"), ("busy_s", "s")],
    "resolvent.boundary_symbol": [("calls", "count")],
    "resolvent.high_energy_decay_probe": [("busy_s", "s")],
    "probes.kato_smoothing_probe": [("busy_s", "s"), ("self_s", "s")],
    "probes.strichartz_probe": [("busy_s", "s"), ("self_s", "s")],
    "probes.sobolev_scaling_probe": [("busy_s", "s"), ("self_s", "s")],
    "probes.stein_weiss_probe": [("busy_s", "s"), ("self_s", "s")],
    "cli.build_potential": [("calls", "count"), ("busy_s", "s")],
    "counterexample.build_embedded_pair": [("busy_s", "s")],
    "counterexample.verify_embedded": [("busy_s", "s")],
    "reporting.write_json": [("calls", "count"), ("bytes", "B"), ("busy_s", "s")],
    "reporting.write_csv": [("calls", "count"), ("bytes", "B"), ("busy_s", "s")],
}


def _span_key(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class Tracer:
    """Collects spans and counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.stats: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.absent: List[str] = []
        self.all_started: Optional[float] = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key: str, quantity: str, value: float, reduce=None) -> None:
        with self._lock:
            cur = self.stats[key]
            cur[quantity] = reduce(cur[quantity], value) if reduce else cur[quantity] + value

    def wrap(self, key: str, fn: Callable, hook=None, on_enter=None) -> Callable:
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            for scope in {frame[0] for frame in stack} & set(COUNTING_SCOPES):
                tracer._add(scope, "inner:" + key, 1)
            frame = [key, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            if on_enter is not None:
                on_enter(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                with tracer._lock:
                    cur = tracer.stats[key]
                    cur["calls"] += 1
                    cur["busy_s"] += busy
                    cur["self_s"] += busy - frame[1]
            if hook is not None:
                hook(args, kwargs, out,
                     lambda q, v, reduce=None: tracer._add(key, q, v, reduce))
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _setattr(self, owner, name: str, value) -> None:
        old = owner.__dict__[name]
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def _rebind(self, original, replacement) -> None:
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._setattr(mod, name, replacement)

    def install(self, targets=TARGETS) -> None:
        import importlib

        for module, attr, hook in targets:
            key = _span_key(module, attr)
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, name, None) if owner is not None else None
            if original is None:
                self.absent.append(key)
                continue
            wrapped = self.wrap(key, original, hook)
            if owner_name:
                self._setattr(owner, name, wrapped)
            else:
                self._rebind(original, wrapped)

        cli = importlib.import_module(f"{PACKAGE}.cli")
        for probe, runner in list(cli.PROBE_RUNNERS.items()):
            cli.PROBE_RUNNERS[probe] = self.wrap(
                f"cli.{probe}", runner,
                on_enter=lambda start, probe=probe: self._queue_wait(probe, start))
            self._undo.append(lambda p=probe, r=runner: cli.PROBE_RUNNERS.__setitem__(p, r))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _queue_wait(self, probe: str, start: float) -> None:
        """Inside `all`, the time a probe waited from the run's start until a
        worker picked it up."""
        if self.all_started is not None:
            self._add(f"cli.{probe}", "queue_wait_s", start - self.all_started)

    # -- metrics -----------------------------------------------------------

    def _get(self, key: str, quantity: str) -> float:
        return float(self.stats.get(key, {}).get(quantity, 0.0))

    def _per_call(self, scope: str, inner: str) -> float:
        calls = self._get(scope, "calls")
        return self._get(scope, "inner:" + inner) / calls if calls else 0.0

    def metrics(self, all_wall_s: Optional[float] = None) -> Dict[str, Any]:
        """Per-layer metrics by name, each {"value", "unit"}."""
        g = self._get
        out: Dict[str, Any] = {}

        def put(name, value, unit):
            out[name] = {"value": float(value), "unit": unit}

        for key, quantities in LAYER_QUANTITIES.items():
            for quantity, unit in quantities:
                put(f"{key}.{quantity}", g(key, quantity), unit)
        put("grid.transform.self_s",
            g("grid.forward_transform", "self_s") + g("grid.inverse_transform", "self_s"), "s")
        for quantity, unit in (("points", "count"), ("computed_bytes", "B"),
                               ("computed_flops", "flop")):
            put(f"grid.transform.{quantity}",
                g("grid.forward_transform", quantity) + g("grid.inverse_transform", quantity),
                unit)
        put("hamiltonian.matvecs_per_eigenset",
            self._per_call("hamiltonian.negative_spectrum", "hamiltonian.apply"), "count")
        put("hamiltonian.matvecs_per_propagate",
            self._per_call("hamiltonian.propagate", "hamiltonian.apply"), "count")
        busy = 0.0
        for probe in PROBES:
            put(f"cli.{probe}.busy_s", g(f"cli.{probe}", "busy_s"), "s")
            put(f"cli.{probe}.queue_wait_s", g(f"cli.{probe}", "queue_wait_s"), "s")
            busy += g(f"cli.{probe}", "busy_s")
        put("cli.all.overlap", busy / all_wall_s if all_wall_s else 0.0, "ratio")
        return out
