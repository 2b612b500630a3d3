"""Config validation, subcommand dispatch, exit codes, and report artifacts."""

import io
import json
import threading

import numpy as np
import pytest
import yaml

from polyharmlab import cli, hamiltonian, probes
from polyharmlab.cli import (
    ConfigError,
    list_probes,
    parse_config,
    run,
)
from polyharmlab.grid import GridSpec, write_field
from polyharmlab.potentials import gaussian_well
from polyharmlab.reporting import ProbeReport


def base_config(**overrides):
    cfg = {
        "seed": 3,
        "grid": {"n": 3, "npts": 8, "half_width": 3.0},
        "operator": {"m": 1, "potential": {"family": "gaussian-well",
                                           "depth": 5.0, "width": 1.0}},
        "probes": {"kernels": {"trials": 50}},
    }
    cfg.update(overrides)
    return cfg


def small_lab_config():
    """Every probe on an 8^3 grid with one bound state, kept small."""
    cfg = base_config(grid={"n": 3, "npts": 8, "half_width": 4.0})
    cfg["probes"] = {
        "kernels": {"trials": 50},
        "bs-sweep": {"lambda_count": 1, "thetas": [0.03]},
        "counterexample": {"npts": 24},
        "smoothing": {"t_final": 2.0, "samples": 1},
        "strichartz": {"p": 8.0 / 3.0, "q": 4.0, "alpha": 1.5,
                       "t_final": 2.0, "samples": 1},
        "sobolev": {"z_count": 3, "samples": 1, "npts": 16},
        "stein-weiss": {"npts_ladder": [8, 16]},
    }
    return cfg


def field_bytes(values):
    """values written as a field binary on the 8^3 grid of base_config."""
    buf = io.BytesIO()
    write_field(GridSpec(3, 8, 3.0), values, buf)
    return buf.getvalue()


def write_config(tmp_path, cfg, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


class TestListProbes:
    def test_exact_subcommands(self):
        table = list_probes()
        assert set(table["subcommands"]) == {
            "kernels", "bs-sweep", "spectrum", "counterexample", "smoothing",
            "strichartz", "sobolev", "stein-weiss", "all",
        }

    def test_every_field_has_default_or_required(self):
        for name, schema in list_probes()["subcommands"].items():
            for key, meta in schema.items():
                assert meta["required"] or "default" in meta, (name, key)

    def test_defaults_round_trip(self):
        # every schema default passes validation unchanged; strichartz
        # requires its pair, here the m = 1, n = 3 standard pair (8/3, 4, 3/2)
        defaults = {name: {key: meta["default"] for key, meta in schema.items()
                           if not meta["required"]}
                    for name, schema in list_probes()["subcommands"].items()
                    if name != "all"}
        pair = dict(p=8.0 / 3.0, q=4.0, alpha=1.5)
        probes = {name: dict(block) for name, block in defaults.items()}
        probes["strichartz"].update(pair)
        cfg = parse_config(base_config(seed=0, probes=probes))
        assert cfg.seed == 0
        assert set(cfg.probes) == set(cli.PROBE_SCHEMAS)
        for name, block in defaults.items():
            for key, value in block.items():
                assert cfg.probes[name][key] == value, (name, key)
        assert {k: cfg.probes["strichartz"][k] for k in pair} == pair

    def test_main_list_probes_exit_zero(self, capsys):
        assert cli.main(["list-probes"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["subcommands"]


class TestValidation:
    def test_missing_seed(self):
        cfg = base_config()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(cfg)

    def test_dimension_order_invariant(self):
        cfg = base_config(operator={"m": 2, "potential": {
            "family": "gaussian-well", "depth": 1.0, "width": 1.0}})
        with pytest.raises(ConfigError, match="n > 2m"):
            parse_config(cfg)

    def test_unknown_probe_block(self):
        cfg = base_config(probes={"nonsense": {}})
        with pytest.raises(ConfigError,
                           match="unknown parameter 'nonsense' in the probes block"):
            parse_config(cfg)

    def test_unknown_parameter(self):
        cfg = base_config(probes={"kernels": {"bogus": 1}})
        with pytest.raises(ConfigError, match="unknown parameter"):
            parse_config(cfg)

    def test_tolerances_positive(self):
        cfg = base_config(probes={"kernels": {"tol": -1e-12}})
        with pytest.raises(ConfigError, match="strictly positive"):
            parse_config(cfg)

    def test_potential_family(self):
        cfg = base_config()
        cfg["operator"]["potential"]["family"] = "unknown-well"
        with pytest.raises(ConfigError, match="potential family"):
            parse_config(cfg)

    @pytest.mark.parametrize("potential, message", [
        ("gaussian", "operator.potential must be a mapping"),
        ({"family": "polynomial-decay", "s": "abc"},
         "operator.potential.s must be a number"),
        ({"family": "gaussian-well", "depth": "deep"},
         "operator.potential.depth must be a number"),
        ({"family": "gaussian-well", "depth": 1.0, "s": 4.0},
         "unknown parameter 's' in the gaussian-well potential"),
        ({"family": "file", "path": "v.field", "s": 6.0},
         "unknown parameter 's' in the file potential"),
        # the amplitude has one key, the name bracket_decay gives it
        ({"family": "polynomial-decay", "s": 6.0, "amplitude": 1.0, "g": 2.0},
         "unknown parameter 'g' in the polynomial-decay potential"),
        ({"family": ["file"], "path": "v.field"}, "potential family must be one of"),
    ])
    def test_malformed_potential_exit_two(self, tmp_path, capsys, potential,
                                          message):
        cfg = base_config(probes={"spectrum": {}})
        cfg["operator"]["potential"] = potential
        path = write_config(tmp_path, cfg)
        assert run(path, "spectrum", out_dir=str(tmp_path / "out")) == 2
        assert message in capsys.readouterr().err

    def test_potential_fields_typed(self):
        raw = base_config()
        raw["operator"]["potential"] = {"family": "polynomial-decay", "s": "5",
                                        "amplitude": 2}
        spec = parse_config(raw).potential_spec
        assert spec == {"family": "polynomial-decay", "s": 5.0, "amplitude": 2.0,
                        "coupling": 1.0}
        assert raw["operator"]["potential"]["s"] == "5"
        raw["operator"]["potential"] = {"family": "polynomial-decay", "s": 5,
                                        "amplitude": 0.5, "coupling": 2}
        assert parse_config(raw).potential_spec["amplitude"] == 0.5
        raw["operator"]["potential"] = {"family": "gaussian-well", "depth": 5,
                                        "width": 1.0, "coupling": 1.0}
        assert parse_config(raw).potential_spec["depth"] == 5.0
        # the spec is resolved: every key a family reads holds its value or
        # its schema default, and no potential block is the unit Gaussian well
        raw["operator"]["potential"] = {"family": "embedded-counterexample"}
        assert parse_config(raw).potential_spec == {
            "family": "embedded-counterexample", "delta": 1.0, "coupling": 1.0}
        del raw["operator"]["potential"]
        assert parse_config(raw).potential_spec == {
            "family": "gaussian-well", "depth": 1.0, "width": 1.0, "coupling": 1.0}

    def test_strichartz_requires_pair(self):
        cfg = base_config(probes={"strichartz": {"t_final": 1.0}})
        with pytest.raises(ConfigError, match="requires parameter"):
            parse_config(cfg)

    @pytest.mark.parametrize("probe, block, message", [
        ("kernels", {"trials": "abc"}, "kernels.trials must be an integer"),
        ("kernels", {"tol": "abc"}, "kernels.tol must be a number"),
        ("stein-weiss", {"npts_ladder": 8},
         "stein-weiss.npts_ladder must be a list of integers"),
        ("counterexample", {"save": "no"}, "counterexample.save must be a bool"),
        ("stein-weiss", {"npts_ladder": [8.5, 16]},
         "stein-weiss.npts_ladder must be a list of integers"),
        ("smoothing", {"samples": 0}, "smoothing.samples must be >= 1"),
        ("strichartz", {"p": 4, "q": 4, "alpha": float("nan")},
         "not an admissible pair"),
        # the library's own argument checks raise ConfigError as well
        ("smoothing", {"gamma": 5}, "gamma=5.0 outside the admissible window"),
        ("sobolev", {"alpha": 3}, "alpha=3.0 outside"),
        ("counterexample", {"m": 3}, "even m >= 2 required"),
        ("stein-weiss", {"npts_ladder": [8]}, "ladder needs at least two resolutions"),
        ("strichartz", {"p": 4, "q": 4, "alpha": 1},
         "standard mode needs alpha = 3/2"),
        ("strichartz", {"p": 8 / 3, "q": 4, "alpha": 1.5, "mode": "weak"},
         "mode must be 'standard' or 'gain'"),
        ("counterexample", {"npts": 8}, "support radius 1 under-resolved"),
        ("sobolev", {"z_max": 1.0}, "need >= 1.5"),
        ("strichartz", {"p": 8 / 3, "q": 4, "alpha": 1.5, "t_final": -1},
         "t_final must be positive"),
        ("strichartz", {"p": 8 / 3, "q": 4, "alpha": 1.5, "time_step": 0},
         "time_step must be positive"),
        ("smoothing", {"time_step": 0}, "time_step must be positive"),
        # an explicit null is accepted only where the default is null
        ("smoothing", {"gamma": None}, "smoothing.gamma must be set"),
        ("kernels", {"trials": None}, "kernels.trials must be set"),
        ("sobolev", {"p": None}, "sobolev.p must be set"),
        ("stein-weiss", {"half_width": None}, "stein-weiss.half_width must be set"),
        ("counterexample", {"npts": None}, "counterexample.npts must be set"),
        ("strichartz", {"p": None, "q": 4, "alpha": 1.5}, "strichartz.p must be set"),
        ("kernels", 5, "probes.kernels must be a mapping"),
    ])
    def test_mistyped_parameter_exit_two(self, tmp_path, capsys, probe, block,
                                         message):
        path = write_config(tmp_path, base_config(probes={probe: block}))
        out = tmp_path / "out"
        assert run(path, probe, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("path, value, message", [
        (("seed",), True, "seed must be an integer"),
        (("threads",), 1.5, "threads must be an integer"),
        (("threads",), "abc", "threads must be an integer"),
        (("grid", "npts"), 16.7, "grid.npts must be an integer"),
        (("grid", "n"), "three", "grid.n must be an integer"),
        (("grid", "max_points"), 2 ** 20, "unknown parameter 'max_points' in the grid block"),
        (("grid", "half_width"), "wide", "grid.half_width must be a number"),
        (("operator", "m"), "one", "operator.m must be an integer"),
        (("operator", "m"), None, "must be set"),
        (("grid", "npt"), 64, "unknown parameter 'npt' in the grid block"),
        (("thread",), 4, "unknown parameter 'thread' in the config root"),
        (("operator", "mass"), 2, "unknown parameter 'mass' in the operator block"),
        (("output_dir",), 5, "output_dir must be a str"),
        (("grid",), None, "grid must be set"),
        (("operator", "potential"), None, "operator.potential must be set"),
        # a required potential key is checked at parse time, whichever
        # probe runs (kernels builds no potential)
        (("operator", "potential"), {"family": "file"},
         "the file potential requires parameter 'path'"),
        (("operator", "potential"), {"family": "polynomial-decay"},
         "the polynomial-decay potential requires parameter 's'"),
    ])
    def test_mistyped_top_level_exit_two(self, tmp_path, capsys, path, value,
                                         message):
        cfg = base_config()
        block = cfg
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, "kernels", out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_top_level_fields_typed(self, monkeypatch):
        cfg = parse_config(base_config(
            seed=4.0, threads=2.0, grid={"n": 3.0, "npts": 8.0, "half_width": 3}))
        assert (cfg.seed, cfg.threads, cfg.grid.n, cfg.grid.npts) == (4, 2, 3, 8)
        assert all(isinstance(v, int) for v in
                   (cfg.seed, cfg.threads, cfg.grid.n, cfg.grid.npts, cfg.m))
        assert isinstance(cfg.grid.half_width, float)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
        assert parse_config(base_config(threads=None)).threads == 5
        assert parse_config(base_config(threads=None), threads=1).threads == 1
        # --threads is held to the config key's minimum
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            parse_config(base_config(), threads=0)
        # an empty or null probes block, like a null probe block, leaves the
        # probe at its defaults
        for given in ({}, None, {"kernels": None}):
            cfg = parse_config(base_config(probes=given))
            assert cfg.probes["kernels"]["trials"] == 1000

    def test_parameters_typed_by_schema(self):
        cfg = parse_config(base_config(probes={
            "kernels": {"trials": 50.0, "tol": "1e-9"},
            "bs-sweep": {"lambda_min": 1, "thetas": (0.03, 1)},
        }))
        assert cfg.probes["kernels"] == {"trials": 50, "tol": 1e-9}
        assert isinstance(cfg.probes["kernels"]["trials"], int)
        assert isinstance(cfg.probes["bs-sweep"]["lambda_min"], float)
        assert cfg.probes["bs-sweep"]["thetas"] == [0.03, 1]
        for block in ({"trials": 2.5}, {"trials": True}, {"tol": True}):
            with pytest.raises(ConfigError, match="kernels"):
                parse_config(base_config(probes={"kernels": block}))
        ladder = parse_config(base_config(probes={
            "stein-weiss": {"npts_ladder": [8.0, 16]}})).probes["stein-weiss"]
        assert ladder["npts_ladder"] == [8, 16]
        assert all(isinstance(x, int) for x in ladder["npts_ladder"])
        # counts are held to their schema minimum
        pair = {"p": 8.0 / 3.0, "q": 4.0, "alpha": 1.5}
        for probe, key, least in [
                ("kernels", "trials", 1), ("bs-sweep", "lambda_count", 1),
                ("smoothing", "samples", 1), ("strichartz", "samples", 1),
                ("sobolev", "samples", 1), ("smoothing", "refine_iters", 0),
                ("sobolev", "z_count", 3)]:
            extra = pair if probe == "strichartz" else {}
            cfg = parse_config(base_config(probes={probe: {**extra, key: least}}))
            assert cfg.probes[probe][key] == least
            with pytest.raises(ConfigError, match=f"{probe}.{key} must be >= {least}"):
                parse_config(base_config(probes={probe: {**extra, key: least - 1}}))

    def test_unquoted_exponent_tolerance_runs(self, tmp_path):
        # YAML 1.1 reads 1e-12 (no dot) as a string; float() accepts it
        path = write_config(tmp_path, base_config())
        path.write_text(path.read_text().replace("trials: 50",
                                                 "trials: 50\n    tol: 1e-12"))
        assert yaml.safe_load(path.read_text())["probes"]["kernels"]["tol"] == "1e-12"
        out = tmp_path / "out"
        assert run(path, "kernels", out_dir=str(out)) == 0
        assert json.loads((out / "kernels.json").read_text())["params"]["tol"] == 1e-12

    def test_validation_exit_code(self, tmp_path):
        cfg = base_config()
        del cfg["seed"]
        path = write_config(tmp_path, cfg)
        assert run(path, "kernels", out_dir=str(tmp_path / "out")) == 2

    def test_unknown_subcommand_exit_code(self, tmp_path):
        path = write_config(tmp_path, base_config())
        assert run(path, "frobnicate", out_dir=str(tmp_path / "out")) == 2

    def test_decay_warning_emitted(self, tmp_path, capsys):
        cfg = base_config()
        cfg["operator"]["potential"] = {"family": "polynomial-decay",
                                        "s": 1.5, "amplitude": 0.1}
        cfg["probes"] = {"smoothing": {"t_final": 1.0, "samples": 1}}
        path = write_config(tmp_path, cfg)
        run(path, "smoothing", out_dir=str(tmp_path / "out"))
        assert "warning" in capsys.readouterr().err


class TestKernelsEndToEnd:
    def test_exit_zero_and_artifacts(self, tmp_path):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert run(path, "kernels", out_dir=str(out)) == 0
        csv = (out / "kernels.csv").read_text()
        assert csv.startswith("# generated ")
        data = json.loads((out / "kernels.json").read_text())
        assert data["passed"] is True
        assert data["metrics"]["max_residual"] < 1e-12

    def test_csv_payload_deterministic(self, tmp_path):
        path = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(path, "kernels", out_dir=str(a)) == 0
        assert run(path, "kernels", out_dir=str(b)) == 0
        pa = (a / "kernels.csv").read_text().split("\n", 1)[1]
        pb = (b / "kernels.csv").read_text().split("\n", 1)[1]
        assert pa == pb

    def test_failed_pass_flag_exit_one(self, tmp_path):
        cfg = base_config(probes={"kernels": {"trials": 50, "tol": 1e-30}})
        path = write_config(tmp_path, cfg)
        assert run(path, "kernels", out_dir=str(tmp_path / "out")) == 1


class TestSpectrumSubcommand:
    def test_free_operator_no_bound_states(self, tmp_path):
        cfg = base_config()
        cfg["grid"] = {"n": 3, "npts": 8, "half_width": 4.0}
        cfg["operator"]["potential"]["coupling"] = 0.0
        cfg["probes"] = {"spectrum": {}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, "spectrum", out_dir=str(out)) == 0
        data = json.loads((out / "spectrum.json").read_text())
        assert data["metrics"]["count_negative"] == 0

    def test_attractive_well_counts(self, tmp_path):
        cfg = base_config()
        cfg["grid"] = {"n": 3, "npts": 12, "half_width": 5.0}
        cfg["operator"]["potential"]["depth"] = 15.0
        cfg["probes"] = {"spectrum": {"clr_constant": 1.0}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, "spectrum", out_dir=str(out)) == 0
        data = json.loads((out / "spectrum.json").read_text())
        assert data["metrics"]["count_negative"] >= 1
        assert (data["metrics"]["count_birman_schwinger"]
                == data["metrics"]["count_negative"])
        assert data["passes"]["counts_agree"] is True

    def test_file_potential_on_the_config_grid_runs(self, tmp_path):
        grid = GridSpec(3, 8, 4.0)
        with open(tmp_path / "v.bin", "wb") as fh:
            write_field(grid, gaussian_well(grid, 5.0).values, fh)
        cfg = base_config()
        cfg["grid"] = {"n": 3, "npts": 8, "half_width": 4.0}
        cfg["operator"]["potential"] = {"family": "file",
                                        "path": str(tmp_path / "v.bin")}
        cfg["probes"] = {"spectrum": {}}
        path = write_config(tmp_path, cfg)
        assert run(path, "spectrum", out_dir=str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("damage, message", [
        (lambda v: None, "No such file"),
        (lambda v: b"NOPE" + field_bytes(v)[4:], "bad magic"),
        (lambda v: field_bytes(v)[:-1], "shorter than the 8192 bytes"),
        (lambda v: field_bytes(v) + b"\x00", "longer than the 8192 bytes"),
        (lambda v: field_bytes(v * (1.0 + 1e-3j)), "must be real and finite"),
        (lambda v: field_bytes(np.where(v == v.min(), np.inf, v)),
         "must be real and finite"),
    ], ids=["missing", "bad magic", "truncated", "trailing bytes", "complex",
            "non-finite"])
    def test_unreadable_file_potential_exit_two(self, tmp_path, capsys, damage,
                                                message):
        raw = damage(gaussian_well(GridSpec(3, 8, 3.0), 5.0).values)
        if raw is not None:
            (tmp_path / "v.field").write_bytes(raw)
        cfg = base_config(probes={"spectrum": {}})
        cfg["operator"]["potential"] = {"family": "file",
                                        "path": str(tmp_path / "v.field")}
        path = write_config(tmp_path, cfg)
        assert run(path, "spectrum", out_dir=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert message in err and "v.field" in err

    def test_differing_counts_fail_the_flag(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hamiltonian, "birman_schwinger_count",
                            lambda pot, symbol, tau: 0)
        cfg = base_config()
        cfg["probes"] = {"spectrum": {}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, "spectrum", out_dir=str(out)) == 1
        data = json.loads((out / "spectrum.json").read_text())
        assert data["metrics"]["count_negative"] >= 1
        assert data["metrics"]["count_birman_schwinger"] == 0
        assert data["passes"]["counts_agree"] is False


class TestCounterexampleSubcommand:
    def test_end_to_end_with_save(self, tmp_path):
        cfg = base_config()
        cfg["probes"] = {"counterexample": {"npts": 24, "save": True}}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, "counterexample", out_dir=str(out)) == 0
        data = json.loads((out / "counterexample.json").read_text())
        assert data["metrics"]["eigen_residual"] < 1e-3
        assert (out / "embedded_pair" / "manifest.json").exists()
        assert (out / "embedded_pair" / "potential.field").exists()


class TestAllSubcommand:
    @staticmethod
    def _fake_runners(monkeypatch, failing, exc):
        def passing(name):
            def runner(cfg):
                rep = ProbeReport(name=name)
                rep.add_row(x=1.0)
                rep.passes["ok"] = True
                return rep
            return runner

        def raising(cfg):
            raise exc

        for name in cli.PROBE_SUBCOMMANDS:
            monkeypatch.setitem(cli.PROBE_RUNNERS, name,
                                raising if name == failing else passing(name))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_probe_keeps_other_reports(self, tmp_path, monkeypatch,
                                              threads):
        out = tmp_path / "out"
        on_disk = []

        def diverging(cfg):
            on_disk.extend(sorted(p.name for p in out.glob("*.json")))
            raise FloatingPointError("diverged")

        self._fake_runners(monkeypatch, None, None)
        monkeypatch.setitem(cli.PROBE_RUNNERS, "spectrum", diverging)
        path = write_config(tmp_path, small_lab_config())
        assert run(path, "all", out_dir=str(out), threads=threads) == 1
        # the probes before the failure wrote their reports as they returned
        assert on_disk == ["bs-sweep.json", "kernels.json"]
        summary = json.loads((out / "all.json").read_text())
        assert summary["passed"] is False
        assert summary["failures"] == {"spectrum": "FloatingPointError: diverged"}
        others = [n for n in cli.PROBE_SUBCOMMANDS if n != "spectrum"]
        assert list(summary["probes"]) == others
        # the probes after it still ran and wrote theirs
        for n in others:
            assert (out / f"{n}.json").exists() and (out / f"{n}.csv").exists()
        assert not (out / "spectrum.json").exists()

    def test_interrupted_run_keeps_finished_reports(self, tmp_path, monkeypatch):
        self._fake_runners(monkeypatch, "smoothing", KeyboardInterrupt())
        path = write_config(tmp_path, small_lab_config())
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run(path, "all", out_dir=str(out))
        assert sorted(p.stem for p in out.glob("*.json")) == [
            "bs-sweep", "counterexample", "kernels", "spectrum"]

    def test_probes_run_in_order_on_the_calling_thread(self, tmp_path,
                                                       monkeypatch):
        calls = []

        def recording(name):
            def runner(cfg):
                calls.append((name, threading.get_ident(), cfg.threads))
                return ProbeReport(name=name)
            return runner

        for name in cli.PROBE_SUBCOMMANDS:
            monkeypatch.setitem(cli.PROBE_RUNNERS, name, recording(name))
        path = write_config(tmp_path, small_lab_config())
        assert run(path, "all", out_dir=str(tmp_path / "out"), threads=4) == 0
        here = threading.get_ident()
        assert calls == [(name, here, 4) for name in cli.PROBE_SUBCOMMANDS]

    def test_missing_strichartz_pair_exits_before_any_probe(self, tmp_path,
                                                            monkeypatch, capsys):
        calls = []
        for name in cli.PROBE_SUBCOMMANDS:
            monkeypatch.setitem(cli.PROBE_RUNNERS, name,
                                lambda cfg, name=name: calls.append(name))
        cfg = small_lab_config()
        del cfg["probes"]["strichartz"]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(path, "all", out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "probe 'strichartz' requires parameter 'p'" in err
        assert "Traceback" not in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_config_error_in_probe_exit_two(self, tmp_path, monkeypatch,
                                            threads):
        self._fake_runners(monkeypatch, "strichartz", ConfigError("bad pair"))
        path = write_config(tmp_path, small_lab_config())
        assert run(path, "all", out_dir=str(tmp_path / "out"),
                   threads=threads) == 2


class TestThreadBudget:
    @staticmethod
    def _record_workers(monkeypatch):
        seen = []

        def probe(*args, workers=1, **kwargs):
            seen.append(workers)
            rep = ProbeReport(name="sobolev_scaling")
            rep.passes["slope_matches"] = True
            return rep

        monkeypatch.setattr(cli, "sobolev_scaling_probe", probe)
        return seen

    @pytest.mark.parametrize("threads,workers", [(1, 1), (2, 2), (3, 2),
                                                 (64, 2)])
    def test_lone_sobolev_gets_threads_up_to_the_row_cap(
            self, tmp_path, monkeypatch, threads, workers):
        # every row in flight adds to the memory peak: a many-core host
        # still runs at most SOBOLEV_MAX_ROWS rows at once
        assert cli.SOBOLEV_MAX_ROWS == 2
        seen = self._record_workers(monkeypatch)
        path = write_config(tmp_path, small_lab_config())
        assert run(path, "sobolev", out_dir=str(tmp_path / "out"),
                   threads=threads) == 0
        assert seen == [workers]

    @pytest.mark.parametrize("threads,workers", [(1, 1), (2, 2), (16, 2)])
    def test_all_gives_sobolev_the_lone_budget(self, tmp_path, monkeypatch,
                                               threads, workers):
        # `all` runs its probes one after another, so sobolev's rows get the
        # same workers as in a lone sobolev run
        seen = self._record_workers(monkeypatch)
        for name in cli.PROBE_SUBCOMMANDS:
            if name != "sobolev":
                monkeypatch.setitem(cli.PROBE_RUNNERS, name,
                                    lambda cfg: ProbeReport(name="stub"))
        path = write_config(tmp_path, small_lab_config())
        assert run(path, "all", out_dir=str(tmp_path / "out"),
                   threads=threads) == 0
        assert seen == [workers]

    def test_failed_row_is_a_numerical_failure(self, tmp_path, monkeypatch,
                                               capsys):
        def failing(*args):
            raise FloatingPointError("row diverged")

        monkeypatch.setattr(probes, "_pq_norm_refine", failing)
        path = write_config(tmp_path, small_lab_config())
        out = tmp_path / "out"
        assert run(path, "sobolev", out_dir=str(out), threads=2) == 1
        err = capsys.readouterr().err
        assert "numerical failure in sobolev" in err
        assert "row diverged" in err
        assert not (out / "sobolev.json").exists()


class TestSeedProvenance:
    @pytest.mark.parametrize("probe", ["kernels", "smoothing", "strichartz",
                                       "sobolev", "stein-weiss"])
    def test_report_records_seed_and_stream(self, tmp_path, probe):
        path = write_config(tmp_path, small_lab_config())
        run(path, probe, out_dir=str(tmp_path))
        provenance = json.loads((tmp_path / f"{probe}.json").read_text())["provenance"]
        assert provenance["seed"] == 3
        assert provenance["stream_tag"] == cli._stream_tag(probe)
