"""Every layer that bench/tracer.py wraps exists in the package, so a rename
fails here instead of silently reading 0 in the benchmark's layer metrics.

The tracer's TARGETS list is read with ast, without importing the bench."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: Wrapped by the tracer but deleted from the package (ROADMAP item 1).
STALE = {("grid", "inverse_transform"), ("hamiltonian", "apply_H")}


def traced_targets():
    """(module, attribute) of each TARGETS entry; "Class.method" names a
    method."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)):
            return [(entry.elts[0].value, entry.elts[1].value)
                    for entry in node.value.elts]
    raise AssertionError("no TARGETS assignment in bench/tracer.py")


def test_traced_targets_resolve():
    targets = traced_targets()
    assert targets
    missing = set()
    for module, attr in targets:
        obj = importlib.import_module(f"polyharmlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.add((module, attr))
    assert missing - STALE == set()
