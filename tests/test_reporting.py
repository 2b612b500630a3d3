"""Report serialization and the log-log slope fitter."""

import json

import numpy as np
import pytest

from polyharmlab.reporting import SCHEMA_VERSION, ProbeReport, fit_loglog


class TestProbeReport:
    def make(self):
        rep = ProbeReport(name="demo", params={"m": 1},
                          provenance={"seed": 11})
        rep.add_row(lam=0.5, norm=1.25, side="+")
        rep.add_row(lam=1.0, norm=2.5, side="-", extra=7)
        rep.metrics["sup"] = 2.5
        rep.passes["finite"] = True
        return rep

    def test_columns_union_ordered(self):
        rep = self.make()
        assert rep.columns() == ["lam", "norm", "side", "extra"]

    def test_passed(self):
        rep = self.make()
        assert rep.passed()
        rep.passes["other"] = False
        assert not rep.passed()

    def test_csv_full_precision(self, tmp_path):
        rep = self.make()
        rep.rows[0]["norm"] = 1.0 / 3.0
        path = tmp_path / "demo.csv"
        rep.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "lam,norm,side,extra"
        assert "0.33333333333333331" in lines[1]  # 17 significant digits
        assert lines[2].endswith(",7")

    def test_csv_deterministic(self, tmp_path):
        rep = self.make()
        rep.write_csv(tmp_path / "a.csv")
        rep.write_csv(tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()

    def test_json_summary(self, tmp_path):
        rep = self.make()
        rep.metrics["cplx"] = 1.0 + 2.0j
        rep.metrics["arr"] = np.array([1.0, 2.0])
        path = tmp_path / "demo.json"
        rep.write_json(path)
        data = json.loads(path.read_text())
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["probe"] == "demo"
        assert data["passed"] is True
        assert data["metrics"]["cplx"] == {"re": 1.0, "im": 2.0}
        assert data["metrics"]["arr"] == [1.0, 2.0]
        assert data["provenance"]["seed"] == 11


class TestFitLoglog:
    def test_exact_power_law(self):
        x = np.logspace(0, 2, 8)
        y = 3.0 * x ** -0.75
        slope, intercept, width = fit_loglog(x, y)
        assert slope == pytest.approx(-0.75, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert width == pytest.approx(0.0, abs=1e-10)

    def test_noise_widens_confidence(self):
        rng = np.random.default_rng(5)
        x = np.logspace(0, 2, 16)
        y = x ** -0.5 * np.exp(rng.normal(0, 0.1, 16))
        slope, _, width = fit_loglog(x, y)
        assert abs(slope + 0.5) < 3 * width
        assert width > 0

    def test_width_is_twice_the_textbook_standard_error(self):
        rng = np.random.default_rng(7)
        x = np.logspace(0, 1.5, 5)
        y = x ** -0.3 * np.exp(rng.normal(0, 0.2, 5))
        slope, intercept, width = fit_loglog(x, y)
        lx, ly = np.log(x), np.log(y)
        ss = np.sum((ly - slope * lx - intercept) ** 2)
        se = np.sqrt(ss / (lx.size - 2) / np.sum((lx - lx.mean()) ** 2))
        assert width == pytest.approx(2.0 * se, rel=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog([1.0, 2.0], [1.0, 2.0])
