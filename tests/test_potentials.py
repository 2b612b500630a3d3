"""Potential families, factorization V = w v, and scaling."""

import numpy as np
import pytest

from polyharmlab.grid import GridSpec
from polyharmlab.potentials import Potential, bracket_decay, gaussian_well

G = GridSpec(3, 16, 6.0)


class TestFactorization:
    def test_v_w_recompose(self):
        x, y, z = G.coords()
        pot = Potential(G, np.sin(x) * np.exp(-(x ** 2 + y ** 2 + z ** 2)))
        np.testing.assert_allclose(pot.w() * pot.v(), pot.values, atol=1e-14)

    def test_v_nonnegative(self):
        pot = gaussian_well(G, 4.0)
        assert np.all(pot.v() >= 0)
        assert np.all(pot.w() <= 0)  # attractive well: w = -v

    def test_support_threshold(self):
        pot = gaussian_well(G, 4.0, width=0.5)
        idx = pot.support_indices()
        flat = np.abs(pot.values).reshape(-1)
        assert np.all(flat[idx] > pot.tau_supp)
        mask = np.ones(flat.size, dtype=bool)
        mask[idx] = False
        assert np.all(flat[mask] <= pot.tau_supp)


class TestFamilies:
    def test_gaussian_well_shape(self):
        pot = gaussian_well(G, depth=3.0, width=2.0)
        assert pot.max_abs == pytest.approx(3.0)
        center = np.unravel_index(np.argmin(pot.values), G.shape)
        assert all(G.coords()[a][center] == pytest.approx(0.0) for a in range(3))

    def test_gaussian_well_offcenter(self):
        pot = gaussian_well(G, depth=3.0, center=(1.5, 0.0, 0.0))
        center = np.unravel_index(np.argmin(pot.values), G.shape)
        assert G.coords()[0][center] == pytest.approx(1.5)

    def test_bracket_decay_profile(self):
        pot = bracket_decay(G, amplitude=2.0, s=3.0)
        r = G.radii()
        np.testing.assert_allclose(pot.values, 2.0 * (1 + r ** 2) ** -1.5,
                                   rtol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gaussian_well(G, 1.0, width=0.0)
        with pytest.raises(ValueError):
            bracket_decay(G, 1.0, s=-2.0)
        with pytest.raises(ValueError):
            Potential(G, np.full(G.shape, np.nan))

    def test_zero_potential(self):
        pot = Potential(G, np.zeros(G.shape), "zero")
        assert pot.max_abs == 0.0
        assert pot.support_indices().size == 0


class TestDecayMetadata:
    def test_scaled(self):
        pot = gaussian_well(G, 2.0)
        double = pot.scaled(2.0)
        np.testing.assert_allclose(double.values, 2.0 * pot.values)
        assert double.grid == pot.grid
        assert double.name == f"{pot.name}*2"

    def test_values_immutable(self):
        pot = gaussian_well(G, 2.0)
        with pytest.raises(ValueError):
            pot.values[0, 0, 0] = 1.0
