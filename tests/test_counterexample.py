"""Compactly supported potentials with an eigenvalue embedded at 1."""

import json

import numpy as np
import pytest

from polyharmlab.cli import build_potential, parse_config
from polyharmlab.counterexample import (
    _mollified_phi,
    build_embedded_pair,
    save_embedded_pair,
    verify_embedded,
)
from polyharmlab.grid import GridSpec, read_field, samples_from_spectrum
from polyharmlab.hamiltonian import Hamiltonian


@pytest.fixture(scope="module")
def quick_pair():
    return build_embedded_pair(GridSpec(3, 24, 1.1), 2, delta=1.0)


def _full_grid_alias_sum(grid, m, sigma):
    """_mollified_phi with every alias term a full-grid exp: the sum it
    replaced, kept as its oracle."""
    axis = grid.axis_freqs()
    shifts = np.arange(-1, 2) * 2.0 * grid.nyquist_radius
    phi_hat = np.zeros(grid.shape)
    for kv in np.ndindex(*([3] * grid.n)):
        xi2 = np.zeros(grid.shape)
        for a in range(grid.n):
            shape = [1] * grid.n
            shape[a] = grid.npts
            xi2 = xi2 + ((axis + shifts[kv[a]]).reshape(shape)) ** 2
        phi_hat += np.exp(-sigma * sigma * xi2 / 4.0) / (1.0 + xi2)
    phi_hat *= (2.0 * np.pi) ** (-grid.n / 2.0)
    numer_hat = (1.0 - (grid.xi_radii() ** 2) ** m) * phi_hat
    return (samples_from_spectrum(grid, phi_hat.astype(np.complex128)).real,
            samples_from_spectrum(grid, numer_hat.astype(np.complex128)).real)


@pytest.mark.parametrize("n,npts,sigma", [(3, 24, 0.135), (3, 16, 0.4),
                                          (1, 32, 0.2), (5, 8, 0.3)])
def test_alias_sum_matches_full_grid_oracle(n, npts, sigma):
    # the half-spectrum real synthesis against the full symbol's complex one
    g = GridSpec(n, npts, 1.1)
    for got, want in zip(_mollified_phi(g, 2, sigma), _full_grid_alias_sum(g, 2, sigma)):
        assert got.dtype == np.float64 and got.shape == g.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


class TestBuildMollified:
    def test_eigen_identity(self, quick_pair):
        rep = verify_embedded(quick_pair)
        assert rep.metrics["eigen_residual"] < 1e-3
        # the report reads what the build measured: ||H phi - phi|| / ||phi||,
        # through the real transforms of the real samples
        h = Hamiltonian(quick_pair.grid, quick_pair.m, quick_pair.potential)
        assert quick_pair.phi.dtype == np.float64
        assert quick_pair.phi.shape == quick_pair.grid.shape
        phi = quick_pair.phi
        fresh = np.linalg.norm(h.apply(phi) - phi) / np.linalg.norm(phi)
        assert rep.metrics["eigen_residual"] == quick_pair.residuals["eigen_residual"] == fresh
        assert rep.metrics["support_leak"] == quick_pair.residuals["support_leak"]
        assert rep.passes["phi_strictly_positive"]
        assert rep.passes["exterior_truncated"]

    def test_support_confined(self, quick_pair):
        g = quick_pair.grid
        outside = g.radii() > quick_pair.delta + 2.0 * g.h
        assert np.max(np.abs(quick_pair.potential.values[outside])) == 0.0
        assert quick_pair.residuals["support_leak"] < 1e-6 * quick_pair.potential.max_abs

    def test_phi_positive(self, quick_pair):
        assert np.min(quick_pair.phi) > 0.0

    def test_residual_decreases_with_refinement(self, quick_pair):
        finer = build_embedded_pair(GridSpec(3, 48, 1.1), 2, delta=1.0)
        assert (finer.residuals["eigen_residual"]
                < 0.5 * quick_pair.residuals["eigen_residual"])

    def test_parameter_validation(self):
        g = GridSpec(3, 24, 1.1)
        with pytest.raises(ValueError):
            build_embedded_pair(g, 1, delta=1.0)  # odd m flips the sign
        with pytest.raises(ValueError):
            build_embedded_pair(g, 3, delta=1.0)
        with pytest.raises(ValueError):
            build_embedded_pair(g, 2, delta=2.0)  # support exceeds the box
        with pytest.raises(ValueError):
            build_embedded_pair(g, 2, delta=0.2)  # under-resolved support
        with pytest.raises(ValueError):
            build_embedded_pair(g, 2, delta=1.0, sigma=1.5)
        with pytest.raises(ValueError):
            build_embedded_pair(g, 2, delta=1.0, method="nope")
        with pytest.raises(ValueError, match="unknown construction"):
            build_embedded_pair(g, 2, delta=1.0, method="blend")  # removed


class TestSerialization:
    def test_round_trip(self, quick_pair, tmp_path):
        # the saved fields and manifest read back exactly
        directory = save_embedded_pair(quick_pair, tmp_path / "pair")
        with open(directory / "potential.field", "rb") as fh:
            v_grid, v = read_field(fh)
        with open(directory / "phi.field", "rb") as fh:
            phi_grid, phi = read_field(fh)
        manifest = json.loads((directory / "manifest.json").read_text())
        assert v_grid == phi_grid == quick_pair.grid
        np.testing.assert_array_equal(v, quick_pair.potential.values)
        np.testing.assert_array_equal(phi, quick_pair.phi)
        assert (manifest["m"], manifest["n"], manifest["delta"]) == (
            quick_pair.m, quick_pair.n, quick_pair.delta)
        assert manifest["residuals"] == quick_pair.residuals

    def test_saved_potential_is_a_file_potential(self, quick_pair, tmp_path):
        directory = save_embedded_pair(quick_pair, tmp_path / "pair")
        g = quick_pair.grid
        cfg = parse_config({
            "seed": 0,
            "grid": {"n": g.n, "npts": g.npts, "half_width": g.half_width},
            "operator": {"m": 1, "potential": {
                "family": "file", "path": str(directory / "potential.field")}},
        })
        np.testing.assert_array_equal(build_potential(cfg).values,
                                      quick_pair.potential.values)
