"""Traced memory bounds of the large-grid probes: one sobolev probe at one
and two workers, and the embedded-pair construction, each bounded in
complex128 grids of its grid (64^3 for sobolev, 48^3 for the pair).

Each |z| row of the sobolev probe holds three complex buffers: its symbol,
the best image and the work buffer, and the phase draws of its two shell
samples (two real grids) until they are used; the shared |xi|^alpha is one
real grid, and every other full-grid pass runs in slabs of at most
grid.SLAB_POINTS points (a quarter of a 64^3 grid).  The embedded
pair holds phi, V and the kinetic symbol (real) beside phi's complex cast,
the transform buffer and the V phi product of one Hamiltonian matvec."""

import tracemalloc

import numpy as np
import pytest

from polyharmlab.counterexample import build_embedded_pair
from polyharmlab.grid import GridSpec
from polyharmlab.probes import sobolev_scaling_probe


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
    @pytest.mark.parametrize("workers,bound", [(1, 5.5), (2, 10.0)])
    def test_sobolev_probe(self, workers, bound):
        g = GridSpec(3, 64, 10.0)
        peak = traced_peak_in_grids(g, lambda: sobolev_scaling_probe(
            g, 1, 0.0, 1.2, 6.0, np.geomspace(0.3, 10.0, 4), samples=3,
            rng=np.random.default_rng(0), workers=workers))
        assert peak <= bound

    def test_embedded_pair(self):
        g = GridSpec(3, 48, 1.1)
        peak = traced_peak_in_grids(g, lambda: build_embedded_pair(g, 2, 1.0))
        assert peak <= 5.5
