"""Memory bounds of the large-grid probes: one sobolev probe at one and two
workers, the embedded-pair construction and the high-energy decay probe,
each bounded in complex128 grids of its grid (64^3 for sobolev and the
decay probe, 48^3 for the pair).

Each |z| row of the sobolev probe holds two complex buffers, its symbol and
the work buffer; it builds |xi|^alpha slab by slab while it fills the
symbol, the screening keeps the best candidate's recipe, not its image, and
the shell samples' phase fractions are drawn slab by slab.  Every other
full-grid pass runs in slabs of at most grid.SLAB_POINTS points (a quarter
of a 64^3 grid).  The embedded pair inverts its two half spectra one after
the other, each consumed by real_inverse_fft, and then holds phi, V and the
kinetic symbol on the half lattice beside the half spectrum and the real
result of one real-transform matvec.  The decay probe holds the boundary
symbol and the weight, the iterate (the previous estimate's vector, which
the power iteration takes over as its first iterate) and A* A v, and one
weighted temporary that each apply transforms in place.

tracemalloc sees the arrays NumPy allocates, not the transforms' own
buffers: scipy.fft.irfftn's copy of its input into a whole-array temporary
was invisible to it.  The pair's resident-memory bound, read from
the peak resident set of a fresh process, sees those buffers too."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import polyharmlab
from polyharmlab.counterexample import build_embedded_pair
from polyharmlab.grid import GridSpec
from polyharmlab.probes import sobolev_scaling_probe
from polyharmlab.resolvent import high_energy_decay_probe

# Builds the 64^3 pair after a 16^3 one (imports and first-call set-up
# done) and prints the rise of the peak resident set over the resident set
# before the call, in complex128 grids of 64^3.  The peak is the process
# image's own high-water mark VmHWM, which ru_maxrss equals in a process
# started from a small parent: Linux carries the forking parent's peak
# (here the test runner's) over the exec into the child's ru_maxrss.
RESIDENT_RISE = """
from polyharmlab.counterexample import build_embedded_pair
from polyharmlab.grid import GridSpec

def status_kib(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key))

build_embedded_pair(GridSpec(3, 16, 1.1), 2, 1.0)
before = status_kib("VmRSS:")
grid = GridSpec(3, 64, 1.1)
build_embedded_pair(grid, 2, 1.0)
print((status_kib("VmHWM:") - before) * 1024 / (16 * grid.size))
"""


def traced_peak_in_grids(grid, call):
    """The tracemalloc peak of call() (after one warm call) in units of one
    complex128 array on grid."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * grid.size)


class TestWorkingSet:
    @pytest.mark.parametrize("workers,bound", [(1, 3.0), (2, 5.5)])
    def test_sobolev_probe(self, workers, bound):
        g = GridSpec(3, 64, 10.0)
        peak = traced_peak_in_grids(g, lambda: sobolev_scaling_probe(
            g, 1, 0.0, 1.2, 6.0, np.geomspace(0.3, 10.0, 4), samples=3,
            rng=np.random.default_rng(0), workers=workers))
        assert peak <= bound

    def test_embedded_pair(self):
        g = GridSpec(3, 48, 1.1)
        peak = traced_peak_in_grids(g, lambda: build_embedded_pair(g, 2, 1.0))
        assert peak <= 2.5

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the resident set from /proc (Linux)")
    def test_embedded_pair_resident_rise(self):
        src = str(Path(polyharmlab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", RESIDENT_RISE], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) <= 2.6

    def test_decay_probe(self):
        # the scaling workload's decay probe: 64^3, L = 8, m = 1, s = 1
        g = GridSpec(3, 64, 8.0)
        peak = traced_peak_in_grids(g, lambda: high_energy_decay_probe(
            g, 1, 3, 1.0, np.logspace(0.0, 1.5, 4),
            rng=np.random.default_rng(0)))
        assert peak <= 5.0
