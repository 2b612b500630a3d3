"""Compactly supported potentials with an eigenvalue embedded at 1."""

import numpy as np
import pytest

from polyharmlab.counterexample import (
    build_embedded_pair,
    load_embedded_pair,
    save_embedded_pair,
    verify_embedded,
)
from polyharmlab.grid import GridSpec


@pytest.fixture(scope="module")
def quick_pair():
    return build_embedded_pair(GridSpec(3, 24, 1.1), 2, delta=1.0)


class TestBuildMollified:
    def test_eigen_identity(self, quick_pair):
        rep = verify_embedded(quick_pair)
        assert rep.metrics["eigen_residual"] < 1e-3
        assert rep.passes["phi_strictly_positive"]
        assert rep.passes["exterior_truncated"]

    def test_support_confined(self, quick_pair):
        g = quick_pair.grid
        outside = g.radii() > quick_pair.delta + 2.0 * g.h
        assert np.max(np.abs(quick_pair.potential.values[outside])) == 0.0
        assert quick_pair.residuals["support_leak"] < 1e-6 * quick_pair.potential.max_abs

    def test_phi_positive(self, quick_pair):
        assert np.min(quick_pair.phi.values.real) > 0.0

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
        save_embedded_pair(quick_pair, tmp_path / "pair")
        loaded = load_embedded_pair(tmp_path / "pair")
        np.testing.assert_allclose(loaded.potential.values,
                                   quick_pair.potential.values, atol=0)
        np.testing.assert_allclose(loaded.phi.values, quick_pair.phi.values,
                                   atol=0)
        assert loaded.m == quick_pair.m
        assert loaded.delta == quick_pair.delta
        assert loaded.residuals["eigen_residual"] == pytest.approx(
            quick_pair.residuals["eigen_residual"])

    def test_loaded_pair_verifies(self, quick_pair, tmp_path):
        save_embedded_pair(quick_pair, tmp_path / "pair")
        rep = verify_embedded(load_embedded_pair(tmp_path / "pair"))
        assert rep.metrics["eigen_residual"] == pytest.approx(
            quick_pair.residuals["eigen_residual"], rel=1e-12)
