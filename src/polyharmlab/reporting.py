"""Structured probe reports with CSV / JSON emission.

Every measured number is kept in long-format rows alongside the provenance
(grid, seed, tolerances) that produced it, so sweeps are reproducible and
externally plottable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

SCHEMA_VERSION = 1


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    if isinstance(v, (complex, np.complexfloating)):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": float(v.real), "im": float(v.imag)}
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class ProbeReport:
    """Record of one sweep: long-format measurement rows plus summary metrics,
    pass flags and provenance."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    passes: Dict[str, bool] = field(default_factory=dict)
    provenance: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **kv) -> None:
        self.rows.append(kv)

    def passed(self) -> bool:
        return all(self.passes.values())

    def columns(self) -> List[str]:
        cols: List[str] = []
        for row in self.rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        return cols

    def write_csv(self, path) -> None:
        cols = self.columns()
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(_fmt(row.get(c, "")) for c in cols))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def summary(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "probe": self.name,
            "params": _jsonable(self.params),
            "metrics": _jsonable(self.metrics),
            "passes": _jsonable(self.passes),
            "passed": self.passed(),
            "provenance": _jsonable(self.provenance),
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.summary(), indent=2) + "\n", encoding="utf-8")


def fit_loglog(x, y):
    """Least-squares slope of log y vs log x (numpy.polyfit of degree 1);
    returns (slope, intercept, confidence width) with the width taken as
    twice the standard error of the slope from the fit's covariance."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    if lx.size < 3:
        raise ValueError("slope fit needs at least 3 samples")
    (slope, intercept), cov = np.polyfit(lx, ly, 1, cov=True)
    return float(slope), float(intercept), float(2.0 * np.sqrt(cov[0, 0]))
