"""VTK export, config parsing/normalization, and the command line."""

import dataclasses
import inspect
import json
import os
import warnings

import numpy as np
import pytest

from maturesim._files import csv_row
from maturesim.cli import main
from maturesim.config import (DEFAULTS, config_to_dict, load_config,
                              parse_config, save_config)
from maturesim.errors import (ConfigError, DeformationError, MeshError,
                              SolverError)
from maturesim.fem import FemModel, StepRecord, load_mesh, solver, strip_mesh
from maturesim.vtkio import write_vtk

from conftest import deadline

MATURATION_POINTS = [(0.0, 0.0), (7.0, 0.28486), (14.0, 0.6060),
                     (21.0, 0.8357), (28.0, 1.0)]


class TestVtkWriter:
    def _sections(self, path):
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        assert text.endswith("\n")
        return text.splitlines()

    def test_single_hex_layout(self, tmp_path):
        mesh = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)
        u = 0.1 * np.arange(24, dtype=float).reshape(8, 3)
        rho = np.array([3.25])
        path = tmp_path / "one.vtk"
        write_vtk(path, mesh, point_vectors={"displacement": u},
                  cell_scalars={"rho": rho})
        lines = self._sections(path)

        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == "POINTS 8 double"
        pts = np.array([[float(v) for v in ln.split()] for ln in lines[5:13]])
        assert np.array_equal(pts, mesh.nodes)
        assert lines[13] == "CELLS 1 9"
        conn = [int(v) for v in lines[14].split()]
        assert conn[0] == 8 and conn[1:] == list(mesh.hex8[0])
        assert lines[15] == "CELL_TYPES 1"
        assert lines[16] == "12"
        assert lines[17] == "POINT_DATA 8"
        assert lines[18] == "VECTORS displacement double"
        vec = np.array([[float(v) for v in ln.split()]
                        for ln in lines[19:27]])
        assert np.allclose(vec, u, rtol=1e-8)
        assert lines[27] == "CELL_DATA 1"
        assert lines[28] == "SCALARS rho double 1"
        assert lines[29] == "LOOKUP_TABLE default"
        assert float(lines[30]) == pytest.approx(3.25)
        assert len(lines) == 31

    def test_multi_element_counts(self, tmp_path):
        mesh = strip_mesh(2.0, 1.0, 1.0, 2, 1, 1)
        path = tmp_path / "two.vtk"
        write_vtk(path, mesh,
                  cell_scalars={"a": np.zeros(2), "b": np.ones(2)})
        lines = self._sections(path)
        assert f"POINTS {mesh.n_nodes} double" in lines
        assert "CELLS 2 18" in lines
        assert lines.count("12") >= 2
        assert "CELL_DATA 2" in lines
        assert "SCALARS a double 1" in lines
        assert "SCALARS b double 1" in lines

    def test_rejects_bad_fields(self, tmp_path):
        mesh = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)
        with pytest.raises(MeshError):
            write_vtk(tmp_path / "x.vtk", mesh,
                      point_vectors={"u": np.zeros((4, 3))})
        with pytest.raises(MeshError):
            write_vtk(tmp_path / "x.vtk", mesh,
                      cell_scalars={"rho": np.zeros(3)})
        with pytest.raises(MeshError):
            write_vtk(tmp_path / "x.vtk", mesh,
                      cell_scalars={"bad name": np.zeros(1)})

    def test_failed_write_leaves_no_files(self, tmp_path, monkeypatch):
        mesh = strip_mesh(1.0, 1.0, 1.0, 1, 1, 1)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_vtk(tmp_path / "x.vtk", mesh)
        assert os.listdir(tmp_path) == []

    def test_failed_cli_write_leaves_no_files(self, tmp_path, monkeypatch):
        # every result file goes through the same temp file and rename: a
        # fit whose rename fails leaves no fit.json, truncated or not
        datafile = tmp_path / "data.json"
        _write_json(datafile, {"times": [p[0] for p in MATURATION_POINTS],
                               "values": [p[1] for p in MATURATION_POINTS]})
        out = tmp_path / "out"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            main(["-q", "fit", "--data", str(datafile), "--out", str(out)])
        assert os.listdir(out) == []


class TestConfig:
    def test_defaults_match_published_constants(self):
        cfg = parse_config({})
        m = cfg.material
        assert m.matrix.lam == 10.0 and m.matrix.mu == 0.05
        assert m.collagen.k1 == 0.825 and m.collagen.k2 == 4.0
        assert m.collagen.rho_f == 38.71
        # textile table is stated in kPa; internal unit is MPa
        assert m.textile.k1_1 == pytest.approx(0.03851, rel=1e-12)
        assert m.textile.k_coup_ani == pytest.approx(0.57183, rel=1e-12)
        assert m.textile.xi == 12
        assert m.growth.psi_crit == pytest.approx(2e-5, rel=1e-12)
        assert m.growth.tau == 14.21 and m.growth.h == 1.65
        assert cfg.simulation.t_end == 28.0
        assert cfg.strip.pressure == 0.002 and cfg.strip.follower is True

    def test_python_defaults_are_the_config_defaults(self):
        # the strip and the step controls have their defaults twice: in
        # DEFAULTS and as keyword defaults of the functions that build and
        # march the strip
        def keyword_defaults(fn, *skip):
            return {k: p.default for k, p in inspect.signature(fn).parameters.items()
                    if p.default is not p.empty and k not in skip}

        strip = dict(DEFAULTS["strip"])
        assert strip.pop("pressure_unit") == "MPa"
        assert keyword_defaults(solver.clamped_strip_model) == strip
        steps = {k: v for k, v in DEFAULTS["simulation"].items() if k != "t_end"}
        assert keyword_defaults(solver.march_steps) == steps
        assert keyword_defaults(solver.march_maturation, "on_step") == steps

    def test_stress_unit_conversion(self):
        cfg = parse_config({"material": {"matrix": {
            "lam": 10.0, "mu": 50.0, "unit": "kPa"}}})
        assert cfg.material.matrix.lam == pytest.approx(0.01, rel=1e-12)
        assert cfg.material.matrix.mu == pytest.approx(0.05, rel=1e-12)

    def test_energy_unit_conversion(self):
        cfg = parse_config({"material": {"growth": {
            "psi_crit": 2e-5, "psi_crit_unit": "J/ug"}}})
        assert cfg.material.growth.psi_crit == pytest.approx(0.02, rel=1e-12)

    def test_pressure_unit_conversion(self):
        cfg = parse_config({"strip": {"pressure": 2.0,
                                      "pressure_unit": "kPa"}})
        assert cfg.strip.pressure == pytest.approx(0.002, rel=1e-12)

    def test_unknown_key_reports_dotted_path(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"material": {"matrix": {"mu0": 1.0}}})
        assert err.value.path == "material.matrix.mu0"
        with pytest.raises(ConfigError) as err:
            parse_config({"growht": {}})
        assert err.value.path == "growht"

    def test_type_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"strip": {"nx": 2.5}})
        with pytest.raises(ConfigError):
            parse_config({"strip": {"follower": 1}})
        with pytest.raises(ConfigError):
            parse_config({"material": {"collagen": {"axis": [1.0, 0.0]}}})
        with pytest.raises(ConfigError):
            parse_config({"material": {"matrix": {"unit": "GPa"}}})
        with pytest.raises(ConfigError):
            parse_config({"material": {"matrix": {"mu": "soft"}}})
        with pytest.raises(ConfigError):
            parse_config({"material": "steel"})

    def test_round_trip_is_idempotent(self):
        cfg = parse_config({
            "material": {"matrix": {"lam": 9.0, "mu": 40.0, "unit": "kPa"},
                         "growth": {"psi_crit": 4e-5,
                                    "psi_crit_unit": "J/ug"}},
            "strip": {"nx": 10, "pressure": 1.5, "pressure_unit": "kPa"}})
        dumped = config_to_dict(cfg)
        again = config_to_dict(parse_config(dumped))
        assert again == dumped
        assert dumped["material"]["growth"]["psi_crit_unit"] == "mJ/ug"
        assert dumped["material"]["growth"]["psi_crit"] == \
            pytest.approx(0.04, rel=1e-12)

    def test_every_key_round_trips(self):
        # every leaf differs from its default, except textile.unit: its
        # default kPa is already the non-internal unit
        given = {
            "material": {
                "matrix": {"lam": 9000.0, "mu": 45.0, "unit": "kPa"},
                "collagen": {"k1": 800.0, "k2": 3.5, "kappa": 0.1,
                             "axis": [0.0, 1.0, 0.0], "rho_f": 40.0,
                             "unit": "kPa"},
                "textile": {"k1_1": 40.0, "k2_1": 1.5, "beta1": 4,
                            "beta2": 3, "k1_2": 200.0, "k2_2": 0.0002,
                            "gamma1": 5, "gamma2": 3, "k_coup1": 180.0,
                            "delta1": 3, "k_coup2": 60.0, "delta2": 4,
                            "k_coup_ani": 570.0, "xi": 10,
                            "n1": [0.0, 0.0, 1.0], "n2": [1.0, 0.0, 0.0],
                            "unit": "kPa"},
                "growth": {"a1": 4e-4, "a2": 6e-7, "psi_crit": 3e-8,
                           "psi_crit_unit": "J/ug", "rho_th": 12.0,
                           "c_cell": 14e3, "tau": 13.5, "h": 1.7},
            },
            "simulation": {"t_end": 7.0, "dt0": 0.01, "dt_max": 0.5,
                           "dt_ratio": 1.5},
            "strip": {"length": 10.0, "width": 4.0, "thickness": 0.5,
                      "nx": 8, "ny": 3, "nz": 1, "pressure": 1.5,
                      "pressure_unit": "kPa", "follower": False},
        }
        # section -> (factor to internal units, keys stated in its unit)
        stated = {
            "material.matrix": (1e-3, {"lam", "mu"}),
            "material.collagen": (1e-3, {"k1"}),
            "material.textile": (1e-3, {"k1_1", "k2_1", "k1_2", "k2_2",
                                        "k_coup1", "k_coup2",
                                        "k_coup_ani"}),
            "material.growth": (1e3, {"psi_crit"}),
            "simulation": (1.0, set()),
            "strip": (1e-3, {"pressure"}),
        }
        leaves, defaults = _leaves(given), _leaves(DEFAULTS)
        assert leaves.keys() == defaults.keys()
        for dotted, value in leaves.items():
            if dotted != "material.textile.unit":
                assert value != defaults[dotted], dotted

        cfg = parse_config(given)
        for dotted, value in leaves.items():
            section, key = dotted.rsplit(".", 1)
            if key in ("unit", "psi_crit_unit", "pressure_unit"):
                continue
            factor, scaled = stated[section]
            obj = cfg
            for name in section.split("."):
                obj = getattr(obj, name)
            got = getattr(obj, "a" if key == "axis" else key)
            want = value * factor if key in scaled else value
            if isinstance(value, list):
                assert list(got) == want, dotted
            else:
                assert got == want and type(got) is type(want), dotted

        dumped = config_to_dict(cfg)
        assert config_to_dict(parse_config(dumped)) == dumped
        assert _leaves(dumped).keys() == defaults.keys()

    def test_type_errors_name_the_key(self):
        wrong = {"material.textile.unit": 1e-3,        # unit
                 "strip.follower": 1,                  # flag
                 "material.textile.n2": [1.0, 0.0],    # vector
                 "material.textile.xi": 2.5,           # int
                 "material.growth.tau": "long"}        # float
        for dotted, value in wrong.items():
            data = value
            for name in reversed(dotted.split(".")):
                data = {name: data}
            with pytest.raises(ConfigError) as err:
                parse_config(data)
            assert err.value.path == dotted

    def test_non_finite_numbers_rejected(self):
        for dotted, value in {"strip.nx": float("inf"),
                              "simulation.t_end": float("nan"),
                              "material.matrix.mu": float("-inf")}.items():
            data = value
            for name in reversed(dotted.split(".")):
                data = {name: data}
            with pytest.raises(ConfigError, match="expected a finite number") as err:
                parse_config(data)
            assert err.value.path == dotted

    def test_march_steps_must_advance(self):
        for key, value in (("dt0", 0.0), ("dt0", -0.002), ("dt_max", 0.0),
                           ("dt_ratio", 0.8), ("t_end", 0.0), ("t_end", -1.0)):
            with pytest.raises(ConfigError) as err:
                parse_config({"simulation": {key: value}})
            assert err.value.path == f"simulation.{key}"
        parse_config({"simulation": {"dt_ratio": 1.0}})

    def test_save_and_load(self, tmp_path):
        cfg = parse_config({"simulation": {"t_end": 3.5}})
        path = tmp_path / "run.json"
        save_config(cfg, path)
        loaded = load_config(path)
        assert config_to_dict(loaded) == config_to_dict(cfg)
        assert loaded.simulation.t_end == 3.5

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


def _leaves(tree, prefix=""):
    """Every leaf of a config tree, keyed by its dotted path."""
    out = {}
    for key, value in tree.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_leaves(value, dotted))
        else:
            out[dotted] = value
    return out


# a 4x2x1 strip marched to day 0.1 in a fraction of a second
SMALL_FEM = {
    "strip": {"length": 4.0, "width": 2.0, "thickness": 0.5,
              "nx": 4, "ny": 2, "nz": 1, "pressure": 1.0,
              "pressure_unit": "kPa"},
    "simulation": {"t_end": 0.1, "dt0": 0.02, "dt_max": 0.05}}


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


class TestCli:
    def test_help_and_version_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["--version"]) == 0
        capsys.readouterr()

    def test_usage_errors_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["no-such-command"]) == 1
        assert main(["fem"]) == 1  # --out is required
        capsys.readouterr()

    def test_strip_mesh_round_trip(self, tmp_path):
        out = tmp_path / "mesh.json"
        code = main(["-q", "strip-mesh", "--length", "4", "--width", "2",
                     "--thickness", "0.5", "--nx", "4", "--ny", "2",
                     "--nz", "1", "--out", str(out)])
        assert code == 0
        mesh = load_mesh(out)
        assert mesh.n_elems == 8
        assert mesh.nodes[:, 0].max() == pytest.approx(4.0)
        assert "bottom" in mesh.face_sets

    def test_grow_writes_curve(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, {"simulation": {"t_end": 2.0}})
        out = tmp_path / "run"
        code = main(["-q", "grow", "--config", str(cfgfile),
                     "--out", str(out), "--dt", "0.5"])
        assert code == 0
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "time,alpha,rho"
        assert lines[1] == "0,0,0"
        assert len(lines) == 6
        rho = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(b > a for a, b in zip(rho, rho[1:]))
        assert (out / "config.json").exists()

    def test_matpoint_writes_records(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, {"simulation": {"t_end": 1.0}})
        out = tmp_path / "run"
        code = main(["-q", "matpoint", "--config", str(cfgfile),
                     "--out", str(out), "--stretch", "1.05",
                     "--steps", "5"])
        assert code == 0
        lines = (out / "matpoint.csv").read_text().splitlines()
        assert len(lines) == 7  # header + initial point + 5 steps
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(1.05, rel=1e-12)  # F11
        assert last[10] > 0.0  # density grew

    def test_fit_recovers_kinetics(self, tmp_path):
        datafile = tmp_path / "points.json"
        _write_json(datafile, {"times": [p[0] for p in MATURATION_POINTS],
                               "values": [p[1] for p in MATURATION_POINTS]})
        out = tmp_path / "run"
        code = main(["-q", "fit", "--data", str(datafile),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "fit.json").read_text())
        assert 13.7 <= report["tau"] <= 14.7
        assert 1.55 <= report["h"] <= 1.75
        assert report["converged"] is True

    def test_fit_rejects_bad_data(self, tmp_path, capsys):
        datafile = tmp_path / "points.json"
        _write_json(datafile, {"times": [0, 1], "vals": [0, 1]})
        assert main(["-q", "fit", "--data", str(datafile),
                     "--out", str(tmp_path / "r")]) == 1
        assert not (tmp_path / "r").exists()
        capsys.readouterr()

    def test_fem_small_run(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, SMALL_FEM)
        out = tmp_path / "run"
        code = main(["-q", "fem", "--config", str(cfgfile),
                     "--out", str(out), "--vtk-every", "4"])
        assert code == 0
        for name in ("history.csv", "final.vtk", "summary.json",
                     "config.json", "state_0000.vtk"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["t_end"] == pytest.approx(0.1, rel=1e-9)
        assert summary["deflection"] > 0.0
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "time,deflection,rho_mean,rho_max,newton_iters,cutbacks"
        assert len(lines) == 2 + summary["n_steps"]
        assert summary["cutbacks"] == sum(int(row.split(",")[-1])
                                          for row in lines[1:])

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, {"material": {"elastic": {}}})
        assert main(["-q", "fem", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("section, key, value", [
        ("simulation", "dt0", 0.0), ("strip", "nx", float("inf")),
        ("simulation", "t_end", float("nan")), ("simulation", "t_end", 0.0)])
    def test_bad_values_exit_one(self, tmp_path, capsys, section, key, value):
        # dt0 = 0 used to march forever, Infinity and NaN to end in a
        # traceback, t_end = 0 to exit 0 after the ramp alone; the deadline
        # turns a hang into a failure
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, {"strip": {"nx": 2, "ny": 1, "nz": 1},
                              section: {key: value}})
        for command in ("fem", "grow"):
            with deadline(60):
                code = main(["-q", command, "--config", str(cfgfile),
                             "--out", str(tmp_path / command)])
            assert code == 1
            assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("grow", "--dt", "nan"), ("grow", "--dt", "inf"), ("grow", "--dt", "1e-300"),
        ("matpoint", "--stretch", "nan"), ("matpoint", "--ratio", "inf"),
        ("matpoint", "--steps", "1000000000000"), ("matpoint", "--steps", "0"),
        ("strip-mesh", "--thickness", "inf"), ("strip-mesh", "--nx", "0")])
    def test_non_finite_flags_exit_one(self, tmp_path, capsys, command, flag,
                                       value):
        # usage errors, not a traceback or a "solver failure" (2), and
        # rejected before any arithmetic on them can warn; --dt 1e-300 asks
        # for 2.8e301 unloaded steps and --steps 1e12 for a 1e12-step path,
        # both past the step bound.  An infinite --thickness used to warn
        # before its MeshError, which escaped `main` as an exception.  A
        # refused run writes nothing: grow and matpoint used to leave an
        # empty --out directory behind
        with deadline(60), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["-q", command, "--out", str(tmp_path / "r"), flag, value])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("stretch", [3.0, 5.0])
    def test_extreme_matpoint_converges(self, tmp_path, stretch):
        # y and z at 5 start the free x axis at 0.04, where the step halving
        # of the free-axis Newton used to loop forever, and then one
        # iterate's overshoot took the fibers along x past the collagen
        # law's strain limit; the guess leads these knots to no root, so the
        # frozen program follows its path from the unit stretch instead
        with deadline(60), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["-q", "matpoint", "--out", str(tmp_path / "r"),
                         "--no-grow", "--axis", "y", "--stretch", str(stretch),
                         "--ratio", "1"])
        assert code == 0
        lines = (tmp_path / "r" / "matpoint.csv").read_text().splitlines()
        assert len(lines) == 102  # header + initial point + 100 steps
        last = [float(v) for v in lines[-1].split(",")]
        assert last[2] == last[3] == stretch  # F22, F33
        assert 0.0 < last[1] < 1.0  # F11 contracts
        # sigma11 vanishes to the round-off of stresses of order 1e7 MPa
        assert abs(last[7]) <= 1e-14 * max(abs(last[8]), 1e4)

    @pytest.mark.parametrize("flags, final_rho", [
        (["--stretch", "3.3", "--no-grow"], 0.0),
        (["--axis", "x", "--stretch", "3", "--ratio", "1"], 2000.0)])
    def test_matpoint_near_the_limits_converges(self, tmp_path, flags,
                                                final_rho):
        # fiber strain 9.89, where the collagen tangent squared an
        # overflowing dpsi/dE; and a growing equibiaxial program whose
        # density passes 2000, where the density update stalled on
        # round-off above its absolute tolerance
        with deadline(60), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["-q", "matpoint", "--out", str(tmp_path / "r")]
                        + flags)
        assert code == 0
        last = (tmp_path / "r" / "matpoint.csv").read_text().splitlines()[-1]
        time, *_, rho, _ = (float(v) for v in last.split(","))
        assert time == 28.0
        assert rho >= final_rho

    def test_extreme_matpoint_fails_typed(self, tmp_path, capsys):
        # x at 4 takes the fibers past the collagen law's strain limit,
        # where its exponential used to overflow into NaN iterates
        with deadline(60), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["-q", "matpoint", "--out", str(tmp_path / "r"),
                         "--no-grow", "--stretch", "4"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_solver_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # the ramp and two growth steps succeed, then every step fails: the
        # run exits 2 and keeps the history of the three accepted states
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, SMALL_FEM)
        solve_step = FemModel.solve_step
        for error in (SolverError("no equilibrium", residual=1.0),
                      DeformationError("inverted element")):
            calls = []

            def fail_after_two(self, *args, **kwargs):
                calls.append(kwargs["t"])
                if len(calls) > 2:
                    raise error
                return solve_step(self, *args, **kwargs)

            monkeypatch.setattr(FemModel, "solve_step", fail_after_two)
            out = tmp_path / type(error).__name__
            assert main(["-q", "fem", "--config", str(cfgfile),
                         "--out", str(out)]) == 2
            lines = (out / "history.csv").read_text().splitlines()
            assert lines[0] == ("time,deflection,rho_mean,rho_max,"
                                "newton_iters,cutbacks")
            assert len(lines) == 1 + 3
            assert [float(row.split(",")[0]) for row in lines[1:]] == \
                [0.0] + calls[:2]
            assert not (out / "summary.json").exists()
            assert sorted(p.name for p in out.iterdir()) == ["config.json",
                                                             "history.csv"]
        capsys.readouterr()

    def test_ramp_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        # every linear solve of the ramp fails, so its damping grows until
        # it diverges: the run exits 2 before any state is accepted, with
        # the history's header alone and no summary
        def fail(*args, **kwargs):
            raise SolverError("forced", **kwargs)

        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, SMALL_FEM)
        monkeypatch.setattr(solver, "_solve_reduced", fail)
        out = tmp_path / "r"
        assert main(["-q", "fem", "--config", str(cfgfile),
                     "--out", str(out)]) == 2
        assert "pseudo-transient damping diverged" in capsys.readouterr().err
        assert (out / "history.csv").read_text() == (
            "time,deflection,rho_mean,rho_max,newton_iters,cutbacks\n")
        assert sorted(p.name for p in out.iterdir()) == ["config.json",
                                                         "history.csv"]

    @pytest.mark.parametrize("error, report", [
        # a Newton failure at every step: the march halves the first step,
        # dt0 = 0.02, 21 times to below STEP_MIN = 1e-8 and collapses; the
        # report names where and how, down to the error that caused it
        (SolverError("no equilibrium", residual=0.5, iterations=25),
         ["solver failure: time step collapsed during maturation "
          f"(time=0.0, dt={0.02 / 2**21}, cutbacks=21)",
          "  caused by: no equilibrium (residual=0.5, iterations=25)"]),
        # no diagnostics and no cause: the message alone
        (DeformationError("inverted element"),
         ["solver failure: inverted element"])])
    def test_solver_failure_reports_its_diagnostics(self, tmp_path,
                                                     monkeypatch, capsys,
                                                     error, report):
        cfgfile = tmp_path / "cfg.json"
        _write_json(cfgfile, SMALL_FEM)

        def fail(self, *args, **kwargs):
            raise error

        monkeypatch.setattr(FemModel, "solve_step", fail)
        assert main(["-q", "fem", "--config", str(cfgfile),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines() == report

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        main(["-q", "strip-mesh", "--out", str(out)])
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_quiet_accepted_after_subcommand(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        assert main(["strip-mesh", "--out", str(out), "-q"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """One small run of each command that writes result files."""
    root = tmp_path_factory.mktemp("cli")
    data, cfg = root / "points.json", root / "fem.json"
    _write_json(data, {"times": [p[0] for p in MATURATION_POINTS],
                       "values": [p[1] for p in MATURATION_POINTS]})
    _write_json(cfg, SMALL_FEM)
    for argv in (["grow", "--dt", "0.5"],
                 ["matpoint", "--stretch", "1.05", "--steps", "5"],
                 ["fit", "--data", str(data)],
                 ["fem", "--config", str(cfg)]):
        assert main(["-q", *argv, "--out", str(root / argv[0])]) == 0
    return root


class TestResultFiles:
    """Every JSON result file in one canonical form, every CSV row exact."""

    @pytest.mark.parametrize("name", ["grow/config.json", "matpoint/config.json",
                                      "fem/config.json", "fit/fit.json",
                                      "fem/summary.json"])
    def test_json_is_canonical(self, cli_runs, name):
        text = (cli_runs / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("name, int_columns", [
        ("grow/growth.csv", ()), ("matpoint/matpoint.csv", ()),
        ("fem/history.csv", ("newton_iters", "cutbacks"))])
    def test_csv_rows_round_trip(self, cli_runs, name, int_columns):
        header, *rows = (cli_runs / name).read_text().splitlines()
        columns = header.split(",")
        assert rows
        for row in rows:
            fields = row.split(",")
            assert len(fields) == len(columns)
            for column, text in zip(columns, fields):
                if column in int_columns:
                    assert text == str(int(text))
                else:
                    # 17 significant digits: a double prints as the text
                    # that reads back as itself
                    assert f"{float(text):.17g}" == text

    def test_history_columns_are_the_step_record(self, cli_runs):
        header = (cli_runs / "fem/history.csv").read_text().splitlines()[0]
        assert header.split(",") == [f.name for f in dataclasses.fields(StepRecord)]

    def test_csv_row_is_exact(self):
        rng = np.random.default_rng(5)
        values = [*rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20),
                  5e-324, -0.0, np.float64(1.0) / 3.0, 0.1]
        line = csv_row(values)
        assert line.endswith("\n")
        assert [float(v) for v in line[:-1].split(",")] == values
        assert csv_row([0, 3, 2**53]) == f"0,3,{2**53}\n"
