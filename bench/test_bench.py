"""Self-test of the benchmark on 8^3 to 16^3 grids.

    python3 -m pytest bench -q
"""

import copy
import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = ("count", "B", "flop")


def _tiny(workload, trace=1, reference=None):
    return run.measure(workload, workloads.DEFAULT_SEED, seconds=0, trace=trace,
                       scale="tiny", reference={} if reference is None else reference)


@pytest.fixture(scope="module")
def reports():
    return {w: _tiny(w) for w in workloads.OPS}


@pytest.mark.parametrize("workload", sorted(workloads.OPS))
def test_every_metric_appears_with_its_unit(reports, workload):
    report = reports[workload]
    assert report["failed"] == 0, report["failures"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line(report, SPEC, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        for m in SPEC[section]:
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)
        assert set(line["metrics"]) == {m["name"] for m in SPEC[section]}
    # every end-to-end value is measured, never a placeholder
    assert all(report["end_to_end"][m["name"]]["median"] > 0
               for m in SPEC["end_to_end"])


def test_layer_counts_match_the_workload(reports):
    lab, spectral, scaling = (reports[w]["layers"] for w in ("lab", "spectral", "scaling"))
    assert lab["hamiltonian.negative_spectrum.calls"]["value"] == 3
    assert lab["hamiltonian.propagate.calls"]["value"] > 0
    assert spectral["hamiltonian.propagate.calls"]["value"] == 0
    assert scaling["hamiltonian.propagate.calls"]["value"] == 0
    assert scaling["birman_schwinger.sigma_min.calls"]["value"] == 0
    assert lab["reporting.write_json.calls"]["value"] == 8


def test_traced_counts_repeat_exactly(reports):
    again = _tiny("lab")
    first = reports["lab"]["layers"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
    assert counts
    assert {n: first[n]["value"] for n in counts} == \
        {n: again["layers"][n]["value"] for n in counts}


def test_perturbed_eigenvalue_is_a_failed_op(reports):
    values = reports["spectral"]["values"][0]
    reference = {probe: vals for op in values.values() for probe, vals in op.items()}
    perturbed = copy.deepcopy(reference)
    perturbed["spectrum"]["eigenvalues"][0] += 1e-3
    report = _tiny("spectral", trace=0, reference=perturbed)
    assert report["attempted"] == 2
    assert report["failed"] == 1
    assert "spectrum.eigenvalues[0]" in report["failures"][0]
    assert run.result_line(report, SPEC, 0)["correct"] is False


def test_removed_function_is_recorded_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from polyharmlab import cli, hamiltonian  # noqa: F401  (loads every module)

    monkeypatch.delattr(hamiltonian, "lanczos_extreme")
    original = hamiltonian.negative_spectrum
    t = tracer.Tracer()
    t.install()
    try:
        assert "hamiltonian.lanczos_extreme" in t.absent
        assert hamiltonian.negative_spectrum is not original
    finally:
        t.uninstall()
    assert hamiltonian.negative_spectrum is original
    assert t.metrics()["hamiltonian.lanczos_extreme.calls"]["value"] == 0.0


def test_spans_from_many_threads_are_not_lost():
    t = tracer.Tracer()
    inner = t.wrap("grid.norm_lp", lambda: None)

    def scope():
        for _ in range(200):
            inner()

    outer = t.wrap("hamiltonian.negative_spectrum", scope)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(outer) for _ in range(16)]
            for f in futures:
                f.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert t.stats["grid.norm_lp"]["calls"] == 3200
    assert t.stats["hamiltonian.negative_spectrum"]["calls"] == 16
    assert t.metrics()["hamiltonian.matvecs_per_eigenset"]["value"] == 0
    assert t.stats["hamiltonian.negative_spectrum"]["inner:grid.norm_lp"] == 3200
    scope_stats = t.stats["hamiltonian.negative_spectrum"]
    assert 0 <= scope_stats["self_s"] <= scope_stats["busy_s"]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
