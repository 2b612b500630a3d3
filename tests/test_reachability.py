"""Every function and method of the package is reached from a run, or is
listed in PENDING with what keeps it.

An AST name scan, reading files only: it starts from the module-level code of
cli.py (the subcommand table and the entry point) and from every bench/*.py
driver other than its tests, and follows top-level functions and class
methods by name.  A method named like a dunder is reached with its class.
Matching by name over-approximates reachability, so a function the scan
calls reached may still be dead; one it calls unreached is not run by any
subcommand or benchmark workload."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyharmlab"

#: Unreached on purpose, each with the ROADMAP item or test role that keeps it.
PENDING = {
    # item 3: the V != 0 path of the frequency-side Kato constant
    "birman_schwinger.perturbed_resolvent_apply": "ROADMAP item 3",
    "birman_schwinger.BSMatrix.solve": "ROADMAP item 3",
    # traced by bench/tracer.py (ROADMAP item 1); the unitary-DFT oracle of the tests
    "grid.forward_transform": "ROADMAP item 1; test oracle (unitary DFT)",
    # oracles of the tests
    "grid.GridSpec.freqs": "test oracle (per-axis frequencies)",
}


def _names(nodes):
    """Every identifier and attribute name used in nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """"module.name" or "module.Class.name" -> (name, class name, node)."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node.name, None, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{path.stem}.{node.name}.{item.name}"] = (
                            item.name, node.name, item)
    return defs


def _roots():
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    roots = [node for node in cli.body if not isinstance(
        node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    roots += [ast.parse(path.read_text(encoding="utf-8"))
              for path in sorted((ROOT / "bench").glob("*.py"))
              if not path.name.startswith("test_")]
    return roots


def unreached():
    defs = _definitions()
    names = _names(_roots())
    reached = set()
    while True:
        new = {key for key, (name, cls, _) in defs.items() if key not in reached
               and (name in names
                    or (cls in names and name.startswith("__")))}
        if not new:
            return set(defs) - reached
        reached |= new
        names |= _names(defs[key][2] for key in new)


def test_unreached_is_pending():
    assert unreached() == set(PENDING)
