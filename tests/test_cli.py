import configparser
import dataclasses
import importlib.util
import json
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from jtcqed import (
    DensityMatrix,
    DissipationParams,
    SpaceSpec,
    basis_ket,
    build_dimensionless_hamiltonian,
    build_liouvillian,
    eigen_lowest,
    number_operator,
)
from jtcqed import cli, config, dynamics
from jtcqed.cli import main
from jtcqed.config import RunConfig, config_from_mapping, load_config
from jtcqed.presets import PRESETS

from conftest import OPENBLAS_COUNTS, bundled_openblas, run_fresh


def write_config(path, body):
    path.write_text(textwrap.dedent(body))
    return str(path)


def load_config_text(body):
    parser = configparser.ConfigParser()
    parser.read_string(textwrap.dedent(body))
    return config_from_mapping({name: dict(parser[name]) for name in parser.sections()})


EIGENSCAN_CONFIG = """
    [run]
    task = eigenscan

    [model]
    k = 0.0707106781186547
    delta_grid = -0.5:0.5:11
    fock_dims = 2, 2

    [output]
    path = {out}
"""


class TestPresetListing:
    def test_inventory_size(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 9

    def test_known_rows(self, capsys):
        main(["presets"])
        out = capsys.readouterr().out
        fig2a = next(line for line in out.splitlines() if line.startswith("fig2a"))
        assert "0.05/sqrt(2)" in fig2a
        assert "{0, 0.5}" in fig2a
        fig3b = next(line for line in out.splitlines() if line.startswith("fig3b"))
        assert "0.5/sqrt(2)" in fig3b

    def test_preset_names(self):
        assert sorted(PRESETS) == [
            "fig1a", "fig1b", "fig2a", "fig2b", "fig3a",
            "fig3b", "fig4a", "fig4b", "fig4c",
        ]


class TestEigenscanRun:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        cfg = write_config(tmp_path / "run.ini", EIGENSCAN_CONFIG.format(out=out))
        assert main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "delta,E1,E2,E3,E4,E5"
        assert len(lines) == 12
        manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
        assert manifest["config"]["task"] == "eigenscan"
        assert manifest["notes"]["grid_points"] == 11
        assert "library_version" in manifest

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = write_config(tmp_path / "run.ini", EIGENSCAN_CONFIG.format(out=out))
        main(["run", cfg])
        first = out.read_bytes()
        main(["run", cfg])
        assert out.read_bytes() == first

    @pytest.mark.parametrize(
        "model",
        [
            {"include_quadratic": True},
            {"include_quadratic": False},
            {"include_quadratic": True, "j_override": 0.3},
        ],
        ids=["full", "linear", "j_override"],
    )
    def test_matches_per_point_diagonalization(self, tmp_path, model):
        out = tmp_path / "scan.csv"
        keys = "".join(f"{key} = {str(value).lower()}\n" for key, value in model.items())
        body = (
            "[run]\ntask = eigenscan\n[model]\nk = 0.12\ndelta_grid = -1:1:21\n"
            f"fock_dims = 3, 3\n{keys}[output]\npath = {out}\n"
        )
        assert main(["run", write_config(tmp_path / "run.ini", body)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        space = SpaceSpec((3, 3), 1)
        for delta, *energies in table:
            expected = eigen_lowest(build_dimensionless_hamiltonian(space, 0.12, delta, **model), 5)
            assert np.all(np.abs(energies - expected) <= 1e-11 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize(
        "task, model, expected",
        [
            ("eigenscan", "k = 0.15\ndelta_grid = -1:1:201", "43 of 201 delta points (delta in [-1, -0.92], [0.67, 1])"),
            ("imbalance", "k = 0.5\ndelta = 0.0", "1 of 1 delta points (delta in [0, 0])"),
        ],
    )
    def test_unbounded_hamiltonian_warns(self, tmp_path, task, model, expected):
        out = tmp_path / "run.csv"
        body = (
            f"[run]\ntask = {task}\n[model]\n{model}\nfock_dims = 2, 2\n"
            f"[numerics]\ntimes = 0:10:3\n[output]\npath = {out}\n"
        )
        assert main(["run", write_config(tmp_path / "run.ini", body)]) == 0
        warnings = json.loads((tmp_path / "run.manifest.json").read_text())["notes"]["warnings"]
        assert len(warnings) == 1 and expected in warnings[0]

    def test_unused_keys_noted(self, tmp_path):
        # keys the task never reads are accepted, change nothing and are named
        base = textwrap.dedent(EIGENSCAN_CONFIG).format(out=tmp_path / "scan.csv")
        assert main(["run", write_config(tmp_path / "base.ini", base)]) == 0
        first = (tmp_path / "scan.csv").read_bytes()
        manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
        assert manifest["notes"]["unused_keys"] == []
        assert manifest["notes"]["warnings"] == []
        extra = (
            "\n[numerics]\ntau_max = 5\ng2_normalization = first_order\n"
            "initial_state = 0,1,g\n"
        )
        assert main(["run", write_config(tmp_path / "extra.ini", base + extra)]) == 0
        assert (tmp_path / "scan.csv").read_bytes() == first
        manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
        assert manifest["notes"]["unused_keys"] == ["g2_normalization", "initial_state", "tau_max"]

    def test_rows_sorted_by_delta(self, tmp_path):
        out = tmp_path / "scan.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            """
            [run]
            task = eigenscan

            [model]
            k = 0.1
            delta_grid = 0.4, -0.4, 0.0
            fock_dims = 2, 2

            [output]
            path = {out}
            """.format(out=out),
        )
        assert main(["run", cfg]) == 0
        deltas = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
        assert deltas == sorted(deltas)


class TestConfigErrors:
    def test_missing_grid_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.ini",
            """
            [run]
            task = eigenscan

            [model]
            k = 0.1
            fock_dims = 2, 2

            [output]
            path = out.csv
            """,
        )
        assert main(["run", cfg]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"
        assert not (tmp_path / "out.csv").exists()

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "bad.ini",
            """
            [run]
            task = eigenscan

            [model]
            k = 0.1
            delta_grid = 0:1:0
            fock_dims = 2, 2

            [output]
            path = out.csv
            """,
        )
        assert main(["run", cfg]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.ini",
            """
            [run]
            task = eigenscan

            [model]
            k = 0.1
            delta_grid = -1:1:5
            fock_dims = 2, 2
            frobnicate = yes

            [output]
            path = out.csv
            """,
        )
        assert main(["run", cfg]) == 2

    def test_grid_and_scalar_mutually_exclusive(self, tmp_path):
        cfg = write_config(
            tmp_path / "bad.ini",
            """
            [run]
            task = eigenscan

            [model]
            k = 0.1
            delta = 0.0
            delta_grid = -1:1:5
            fock_dims = 2, 2

            [output]
            path = out.csv
            """,
        )
        assert main(["run", cfg]) == 2

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/config.ini"]) == 2

    def test_unusable_output_directory_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # A directory below a regular file cannot be made; it is reported
        # before the scan runs, not as a traceback after it.
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(cli, "eigen_scan", lambda *args, **kwargs: pytest.fail("scan ran"))
        cfg = write_config(tmp_path / "run.ini", EIGENSCAN_CONFIG.format(out=blocker / "x" / "out.csv"))
        for argv in (["preset", "fig1a", "--out", str(blocker / "x")], ["run", cfg]):
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().err)
            assert report["error"] == "config"
            assert "output directory" in report["message"]

    @pytest.mark.parametrize("name", ["outdir", "newdir/"])
    def test_output_path_naming_a_directory_is_usage_error(self, tmp_path, capsys, monkeypatch, name):
        # an existing directory, or a path ending in a separator: refused
        # before the scan runs, and nothing is written or left behind
        (tmp_path / "outdir").mkdir()
        monkeypatch.setattr(cli, "eigen_scan", lambda *args, **kwargs: pytest.fail("scan ran"))
        cfg = write_config(tmp_path / "run.ini", EIGENSCAN_CONFIG.format(out=f"{tmp_path}/{name}"))
        before = sorted(tmp_path.rglob("*"))
        assert main(["run", cfg]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"
        assert "names a directory" in report["message"]
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "body",
        [
            b"[run]\ntask = eigenscan\ntask = spectrum\n",
            b"[run]\ntask = eigenscan\n[run]\n",
            b"task = eigenscan\n",
            b"[run]\ntask = eigenscan\xff\n",
            b"[run]\ntask = eigenscan\n[output]\npath = 100%.csv\n",
        ],
        ids=["duplicate_option", "duplicate_section", "no_section_header", "not_utf8", "interpolation"],
    )
    def test_malformed_file_is_usage_error(self, tmp_path, capsys, body):
        path = tmp_path / "bad.ini"
        path.write_bytes(body)
        assert main(["run", str(path)]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"
        assert "malformed" in report["message"]
        assert list(tmp_path.iterdir()) == [path]

    def test_unknown_preset(self, capsys):
        assert main(["preset", "fig9z"]) == 2

    def test_none_value_is_unset(self):
        # a mapping's None is an unset key: the default applies, as it does
        # for a blank value in a file, and the key is not reported as unused
        cfg = config_from_mapping({
            "run": {"task": "eigenscan"},
            "model": {"k": 0.1, "delta_grid": [0.0], "fock_dims": [2, 2]},
            "numerics": {"tau_max": None, "n_samples": None},
            "output": {"path": "out.csv"},
        })
        assert (cfg.tau_max, cfg.n_samples, cfg.unused_keys) == (1000.0, 4096, ())

    @pytest.mark.parametrize(
        "task, section, key, value",
        [
            ("spectrum", "numerics", "n_samples", "1000"),
            ("imbalance", "numerics", "initial_state", "7,0,e"),
            ("imbalance", "numerics", "times", "1:10:3"),
            ("g2", "numerics", "times", "1:10:3"),
            # unknown keys; propagation has no tolerance to set, so a config
            # that sets the retired `tolerances` key, even to its old values,
            # is refused
            ("eigenscan", "model", "obrien_normalization", "true"),
            ("imbalance", "numerics", "tolerances", "abc, 1e-10"),
            ("imbalance", "numerics", "tolerances", "1e-8, 1e-10"),
            ("eigenscan", "model", "delta_grid", "0, nan"),
            ("eigenscan", "model", "j_override", "inf"),
            ("eigenscan", "model", "j_override", "nan"),
            ("imbalance", "model", "delta", "nan"),
            ("spectrum", "numerics", "tau_max", "nan"),
            ("spectrum", "numerics", "tau_max", "inf"),
            ("spectrum", "dissipation", "kappa1", "nan"),
            ("spectrum", "dissipation", "kappa2", "inf"),
            ("imbalance", "dissipation", "gamma", "nan"),
            ("imbalance", "dissipation", "gamma_phi", "inf"),
            ("spectrum", "dissipation", "n_th", "inf"),
            ("g2", "dissipation", "n_th", "nan"),
        ],
    )
    def test_unusable_value_is_usage_error(self, tmp_path, capsys, task, section, key, value):
        out = tmp_path / "out.csv"
        scalar = ("delta_grid", "-0.5:0.5:3") if task == "eigenscan" else ("delta", "0.0")
        sections = {
            "run": {"task": task},
            "model": {"k": "0.1", scalar[0]: scalar[1], "fock_dims": "2, 2"},
            "numerics": {"times": "0:10:3"},
            "output": {"path": str(out)},
        }
        sections.setdefault(section, {})[key] = value
        body = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
            for name, keys in sections.items()
        )
        cfg = write_config(tmp_path / "bad.ini", body)
        assert main(["run", cfg]) == 2
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "config"
        assert key in report["message"]
        assert not out.exists()


class TestTaskRuns:
    def test_imbalance_run(self, tmp_path):
        out = tmp_path / "imb.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = imbalance

            [model]
            k = 0.1
            delta = 0.2
            fock_dims = 2, 2

            [numerics]
            times = 0:20:6
            initial_state = 1,0,e

            [output]
            path = {out}
            """,
        )
        assert main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,n1,n2,z"
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(1.0, abs=1e-8)
        assert first[3] == pytest.approx(1.0, abs=1e-8)
        manifest = json.loads((tmp_path / "imb.manifest.json").read_text())
        assert "z_long_mean" in manifest["notes"]
        assert manifest["notes"]["method"] == "expm"
        assert manifest["notes"]["propagation_side"] == 64

    def test_one_point_imbalance_run(self, tmp_path):
        out = tmp_path / "imb.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = imbalance

            [model]
            k = 0.1
            delta = 0.2
            fock_dims = 2, 2

            [numerics]
            times = 0
            initial_state = 1,0,e

            [output]
            path = {out}
            """,
        )
        assert main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert [float(v) for v in lines[1].split(",")] == pytest.approx([0.0, 1.0, 0.0, 1.0], abs=1e-12)
        manifest = json.loads((tmp_path / "imb.manifest.json").read_text())
        assert manifest["notes"]["method"] == "taylor"

    @pytest.mark.parametrize("times", ["0, 1, 3, 7, 20", "0, 5", "0:20:5"])
    def test_taylor_imbalance_run_matches_oracle(self, tmp_path, times):
        # a non-uniform and a two-point grid, which the dense kernel does not
        # take, and a uniform grid with the first one's ends and count, which
        # it does; oracle: one-shot complex expm(L t) per row. The manifest
        # echoes each grid in full, so the first and the last echo differently.
        out = tmp_path / "imb.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = imbalance

            [model]
            k = 0.1
            delta = 0.2
            fock_dims = 2, 2

            [numerics]
            times = {times}
            initial_state = 1,0,e

            [output]
            path = {out}
            precision = 17
            """,
        )
        assert main(["run", cfg]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        uniform = ":" in times
        grid = np.linspace(0.0, 20.0, 5).tolist() if uniform else [float(t) for t in times.split(",")]
        assert table[:, 0].tolist() == grid
        space = SpaceSpec((2, 2), 1)
        h = build_dimensionless_hamiltonian(space, 0.1, 0.2)
        liou = build_liouvillian(h, DissipationParams())
        x0 = DensityMatrix.from_pure(space, basis_ket(space, [1, 0], ["e"])).matrix.ravel(order="F")
        rows = np.array([number_operator(space, j).matrix.T.ravel(order="F") for j in (0, 1)])
        n = np.array([(rows @ scipy.linalg.expm(liou.matrix * t) @ x0).real for t in table[:, 0]])
        oracle = np.column_stack([table[:, 0], n, (n[:, 0] - n[:, 1]) / n.sum(axis=1)])
        assert np.all(np.abs(table - oracle).max(axis=0) <= 1e-12 * np.abs(oracle).max(axis=0))
        manifest = json.loads((tmp_path / "imb.manifest.json").read_text())
        assert manifest["notes"]["method"] == ("expm" if uniform else "taylor")
        assert manifest["config"]["numerics"]["times"] == grid

    def test_imbalance_missing_values_are_empty_fields(self, tmp_path):
        out = tmp_path / "imb.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = imbalance

            [model]
            k = 0.0
            delta = 0.0
            fock_dims = 2, 2

            [dissipation]
            kappa1 = 0.05
            kappa2 = 0.05
            gamma = 0.0
            gamma_phi = 0.0
            n_th = 0.0

            [numerics]
            times = 0:10:3
            initial_state = 0,0,g

            [output]
            path = {out}
            """,
        )
        assert main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",")  # z column empty, not zero

    def test_g2_run(self, tmp_path):
        out = tmp_path / "g2.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = g2

            [model]
            k = 0.1
            delta = 0.2
            fock_dims = 2, 2

            [numerics]
            times = 0:50:11
            initial_state = 1,0,e

            [output]
            path = {out}
            """,
        )
        assert main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tau,g2_resonator,g2_qubit"
        first = [v for v in lines[1].split(",")]
        assert float(first[1]) == pytest.approx(0.0, abs=1e-10)
        manifest = json.loads((tmp_path / "g2.manifest.json").read_text())
        assert manifest["notes"]["t_star"] == 0.0
        assert manifest["notes"]["reference_policy"] == "initial_state"
        assert manifest["notes"]["method"] == "expm"
        assert manifest["notes"]["propagation_side_resonator"] == 64
        assert manifest["notes"]["propagation_side_qubit"] == 64

    @pytest.mark.parametrize("task", ["eigenscan", "spectrum", "g2", "imbalance"])
    def test_runner_key_table_matches_reads(self, tmp_path, task):
        # a run reads exactly the keys whose readers in the config key table
        # name its task, and its manifest lists every other key the config sets
        grid = "delta_grid = -0.5:0.5:3" if task == "eigenscan" else "delta = 0.2"
        cfg = load_config_text(
            f"""
            [run]
            task = {task}
            [model]
            k = 0.1
            {grid}
            j_override = 0.05
            include_quadratic = true
            fock_dims = 2, 2
            [dissipation]
            kappa1 = 0.01
            kappa2 = 0.01
            gamma = 0.01
            gamma_phi = 0.01
            n_th = 0.1
            [numerics]
            tau_max = 1000
            n_samples = 16
            times = 0, 1, 3
            correlation_ordering = emission
            g2_normalization = standard
            initial_state = 1,0,e
            [output]
            path = {tmp_path / "run.csv"}
            precision = 12
            """
        )
        rates = [field.name for field in dataclasses.fields(DissipationParams)]
        read = set()

        class Recorder:
            def __getattr__(self, name):
                read.update(rates if name == "dissipation" else {name} & set(config._KEYS))
                return getattr(cfg, name)

        cli.execute(Recorder())
        readers = {key for key, spec in config._KEYS.items() if task in spec.readers}
        assert read == readers
        notes = json.loads((tmp_path / "run.manifest.json").read_text())["notes"]
        assert notes.get("method", "taylor") == "taylor"
        unset = "delta" if task == "eigenscan" else "delta_grid"
        assert notes["unused_keys"] == sorted(set(config._KEYS) - readers - {unset})

    def test_run_config_fields_follow_key_table(self):
        fields = [field.name for field in dataclasses.fields(RunConfig)]
        assert fields == [*config._KEYS, "unused_keys"]

    def test_g2_undefined_coherence_is_numerical_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = g2

            [model]
            k = 0.0
            delta = 0.0
            fock_dims = 2, 2

            [dissipation]
            kappa1 = 0.01
            kappa2 = 0.01
            gamma = 0.01
            gamma_phi = 0.0
            n_th = 0.0

            [numerics]
            times = 0:10:3
            initial_state = 0,0,g

            [output]
            path = {tmp_path / "g2.csv"}
            """,
        )
        assert main(["run", cfg]) == 3
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "UndefinedCoherenceError"

    def test_spectrum_run(self, tmp_path):
        out = tmp_path / "spec.csv"
        cfg = write_config(
            tmp_path / "run.ini",
            f"""
            [run]
            task = spectrum

            [model]
            k = 0.05
            delta = 0.0
            fock_dims = 3, 3

            [dissipation]
            kappa1 = 0.05
            kappa2 = 0.05
            gamma = 0.05
            gamma_phi = 0.01
            n_th = 0.15

            [numerics]
            tau_max = 1000
            n_samples = 2048

            [output]
            path = {out}
            """,
        )
        assert main(["run", cfg]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,power"
        assert len(lines) == 2049
        manifest = json.loads((tmp_path / "spec.manifest.json").read_text())
        assert manifest["notes"]["peaks"]
        # J = delta = 0: mode 2 decouples, and L splits by its coherence
        # order n2 - n2' in -2..2, which transposition pairs into the three
        # blocks |n2 - n2'| = 0, 1, 2; the seed a rho_ss lies in order 0
        assert manifest["notes"]["steady_state_blocks"] == 3
        assert manifest["notes"]["propagation_side"] == 3 * 6**2
        omegas = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert np.all(np.diff(omegas) > 0)

    def test_preset_fig1a(self, tmp_path, capsys):
        assert main(["preset", "fig1a", "--out", str(tmp_path)]) == 0
        csv = tmp_path / "fig1a.csv"
        assert csv.exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == "delta,E1,E2,E3,E4,E5"
        assert len(lines) == 202
        manifest = json.loads((tmp_path / "fig1a.manifest.json").read_text())
        assert manifest["config"]["model"]["fock_dims"] == [2, 2]


# A fig4-shaped pair at fock_dims 3, 3: the same model, dissipation and
# initial state, both grids stepping by 5.
FIG4_MODEL = {"k": 0.1 / math.sqrt(2.0), "delta": 0.01, "fock_dims": "3, 3"}
FIG4_DISSIPATION = {"kappa1": 0.001, "kappa2": 0.001, "gamma": 0.001, "gamma_phi": 0.01, "n_th": 0.15}


def fig4_config(task, out_dir, model=FIG4_MODEL):
    return config_from_mapping({
        "run": {"task": task},
        "model": dict(model),
        "dissipation": dict(FIG4_DISSIPATION),
        "numerics": {"times": "0:100:21" if task == "imbalance" else "0:50:11", "initial_state": "1,0,e"},
        "output": {"path": str(out_dir / f"{task}.csv")},
    })


class TestSharedEngine:
    def test_g2_run_reuses_the_imbalance_engine(self, tmp_path, monkeypatch):
        calls = {"build": 0, "expm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_liouvillian", counted("build", cli.build_liouvillian))
        monkeypatch.setattr(scipy.linalg, "expm", counted("expm", scipy.linalg.expm))
        shared, cold = tmp_path / "shared", tmp_path / "cold"
        reused = []
        for task in ("imbalance", "g2"):
            csv = cli.execute(fig4_config(task, shared))
            manifest = json.loads(Path(csv).with_suffix(".manifest.json").read_text())
            reused.append(manifest["notes"]["engine_reused"])
        assert calls == {"build": 1, "expm": 1}
        assert reused == [False, True]
        for task in ("imbalance", "g2"):
            cli._engine = None
            cli.execute(fig4_config(task, cold))
            assert (shared / f"{task}.csv").read_bytes() == (cold / f"{task}.csv").read_bytes()
        assert calls == {"build": 3, "expm": 3}

    @pytest.mark.parametrize("field, value", [
        ("k", 0.05), ("delta", 0.02), ("j_override", 0.2), ("include_quadratic", False),
        ("fock_dims", (3, 2)), ("kappa1", 0.002), ("kappa2", 0.002), ("gamma", 0.002),
        ("gamma_phi", 0.02), ("n_th", 0.1),
    ])
    def test_any_key_change_rebuilds(self, tmp_path, field, value):
        cfg = fig4_config("imbalance", tmp_path, model=dict(FIG4_MODEL, fock_dims="2, 2"))
        first, reused = cli._liouvillian(cfg, cli._space(cfg))
        assert not reused
        assert cli._liouvillian(cfg, cli._space(cfg)) == (first, True)
        changed = dataclasses.replace(cfg, **{field: value})
        engine, reused = cli._liouvillian(changed, cli._space(changed))
        assert not reused and engine is not first
        assert cli._engine[1] is engine


def _fmt(value: float, precision: int) -> str:
    # the per-cell reference: NaN cells empty, every other one "%.{p-1}e"
    return "" if math.isnan(value) else f"{value:.{precision - 1}e}"


def test_readme_config_matches_key_table(tmp_path):
    # the README's config block loads, and names every key of the table
    # (delta_grid in a comment) and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert set(re.findall(r"(\w+) =", block)) == set(config._KEYS)
    path = tmp_path / "readme.ini"
    path.write_text(re.sub(r"(?m)^path = .*$", f"path = {tmp_path / 'out.csv'}", block))
    cfg = load_config(str(path))
    assert cfg.path == str(tmp_path / "out.csv")


class TestCsvWriter:
    def test_atomic_write_leaves_no_temporary_file(self, tmp_path):
        # os.replace cannot put a file over a directory
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            cli._write_atomic(str(tmp_path / "taken"), "text")
        assert [entry.name for entry in tmp_path.iterdir()] == ["taken"]

    def test_matches_cell_by_cell_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
        table[3, 1] = table[7, 0] = table[7, 3] = np.nan
        table[5] = [np.inf, -np.inf, -0.0, 0.0]
        table[9, 2] = 5e-324
        table[11, 1] = -np.nan
        rows = [tuple(row) for row in table]
        header = ["a", "b", "c", "d"]
        for precision in (1, 6, 17):
            path = tmp_path / f"p{precision}.csv"
            cli._write_csv(str(path), header, rows, precision)
            expected = [",".join(header)] + [
                ",".join(_fmt(float(v), precision) for v in row) for row in rows
            ]
            assert path.read_text() == "\n".join(expected) + "\n"
        cells = path.read_text().splitlines()[8].split(",")  # table row 7
        assert cells[0] == cells[3] == "" and all(cells[1:3])


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


class TestBenchTracer:
    def test_traced_spectrum_restores_every_patch(self, tmp_path):
        # The benchmark's tracer patches package attributes by name
        # (Liouvillian.matrix and apply among them): a renamed one fails here.
        spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        cfg = load_config_text(
            f"""
            [run]
            task = spectrum

            [model]
            k = 0.05
            delta = 0.0
            fock_dims = 2, 2

            [dissipation]
            kappa1 = 0.05
            kappa2 = 0.05
            gamma = 0.05

            [numerics]
            tau_max = 200
            n_samples = 256

            [output]
            path = {tmp_path / "spec.csv"}
            """
        )
        tracer = tracing.Tracer()
        tracer.install()
        patches = list(tracer._patches)
        try:
            cli.execute(cfg)
        finally:
            tracer.uninstall()
        assert patches and tracer._patches == []
        for owner, attr, original in patches:
            assert getattr(owner, attr) is original
        for name in ("cli.execute", "dynamics.steady_state", "dynamics.expm"):
            assert tracer.counts[name] >= 1
        assert tracer.csv_bytes == (tmp_path / "spec.csv").stat().st_size


# SciPy's submodules, none of which importing the package may load.
LAZY = (
    "scipy.linalg", "scipy.sparse", "scipy.sparse.csgraph", "scipy.signal", "scipy.integrate",
    "scipy.stats",
)

COLD_IMPORT = f"""
import json
import sys
import threading

import numpy as np

# A BLAS lookup reads /proc/self/maps and binds through ctypes.dlopen.
lookups = []
recording = True


def audit(event, args):
    if recording and (event == "ctypes.dlopen" or (event == "open" and args[0] == "/proc/self/maps")):
        lookups.append(event)


sys.addaudithook(audit)
import jtcqed.cli

recording = False


def loaded():
    return [name for name in {LAZY!r} if name in sys.modules]
"""

COLD_START = COLD_IMPORT + """
at_import = loaded()
threads = threading.active_count()

# the Taylor kernel on a non-uniform grid against the dense kernel at the
# same times
space = jtcqed.SpaceSpec((2, 2), 1)
h = jtcqed.build_dimensionless_hamiltonian(space, 0.05, 0.0)
liou = jtcqed.build_liouvillian(h, jtcqed.DissipationParams())
rho0 = jtcqed.DensityMatrix.from_pure(space, jtcqed.basis_ket(space, [1, 0], ["e"]))
stepped = jtcqed.evolve(liou, rho0, [0.0, 2.0, 6.0, 8.0])
exact = jtcqed.evolve(liou, rho0, np.linspace(0.0, 8.0, 5))
pairs = zip(stepped.states, [exact.states[k] for k in (0, 1, 3, 4)])
gap = max(np.abs(a.matrix - b.matrix).max() for a, b in pairs)
integrate = "scipy.integrate" in sys.modules

omegas = np.linspace(-1.0, 1.0, 201)
values = np.exp(-(((omegas - 0.5) / 0.05) ** 2)) + 0.5 * np.exp(-(((omegas + 0.3) / 0.05) ** 2))
peaks = jtcqed.spectrum_peaks(jtcqed.SpectrumSeries(omegas, values))
signal = "scipy.signal" in sys.modules

print(json.dumps({
    "loaded": at_import, "lookups": lookups, "threads": threads,
    "peaks": peaks, "methods": [stepped.method, exact.method], "gap": float(gap),
    "integrate": integrate, "signal": signal,
}))
"""

# argv: an eigenscan config, then "steady_state" or "evolve": the first dense
# work of the process, on a block of side 32, after the eigenscan has held and
# released NumPy's OpenBLAS alone.
COLD_DENSE = COLD_IMPORT + OPENBLAS_COUNTS + """
at_import = loaded()
before = openblas_counts()
jtcqed.cli.execute(jtcqed.config.load_config(sys.argv[1]))
after_eigenscan = loaded()
jtcqed.cli.main(["presets"])
after_listing = loaded()

seen = []


def profile(frame, event, arg):
    code = frame.f_code
    if (
        event == "call" and code.co_name in ("lu_factor", "expm")
        and frame.f_globals.get("__name__", "").startswith("scipy.linalg")
    ):
        seen.append([code.co_name, openblas_counts()])


space = jtcqed.SpaceSpec((2, 2), 1)
h = jtcqed.build_dimensionless_hamiltonian(space, 0.05, 0.0)
liou = jtcqed.build_liouvillian(h, jtcqed.DissipationParams())
rho0 = jtcqed.DensityMatrix.from_pure(space, jtcqed.basis_ket(space, [1, 0], ["e"]))
sys.setprofile(profile)
if sys.argv[2] == "steady_state":
    side = liou.invariant_block(np.eye(8).ravel()).size
    jtcqed.steady_state(liou)
else:
    side = jtcqed.evolve(liou, rho0, np.linspace(0.0, 8.0, 5)).propagation_side
sys.setprofile(None)

print(json.dumps({
    "loaded": [at_import, after_eigenscan, after_listing], "lookups": lookups,
    "side": side, "before": before, "seen": seen, "after": openblas_counts(),
}))
"""


class TestColdStart:
    def test_submodules_load_on_first_use(self):
        # A fresh interpreter: importing the package loads no SciPy submodule,
        # every one it uses still works on first use, no propagation loads
        # scipy.integrate and the peak search loads no scipy.signal.
        out = run_fresh(COLD_START)
        assert out["loaded"] == []
        # nor look up the BLAS libraries or start a thread
        assert out["lookups"] == []
        assert out["threads"] == 1
        assert [omega for omega, _ in out["peaks"]] == pytest.approx([-0.3, 0.5])
        assert [power for _, power in out["peaks"]] == pytest.approx([0.5, 1.0], rel=1e-3)
        assert out["methods"] == ["taylor", "expm"]
        assert out["gap"] <= 1e-12
        assert not out["integrate"]
        assert not out["signal"]

    @pytest.mark.skipif(not bundled_openblas(), reason="NumPy is not built on OpenBLAS on Linux")
    @pytest.mark.parametrize("first", ["steady_state", "evolve"])
    def test_first_dense_work_holds_scipy_blas(self, tmp_path, first):
        # An eigenscan and the preset listing load no SciPy submodule; the
        # first LU or expm after them runs every mapped OpenBLAS, SciPy's
        # loaded just then among them, on one thread.
        cfg = write_config(tmp_path / "run.ini", EIGENSCAN_CONFIG.format(out=tmp_path / "eig.csv"))
        out = run_fresh(COLD_DENSE, cfg, first)
        assert out["loaded"] == [[], [], []]
        assert out["lookups"] == []
        assert out["side"] <= dynamics.ONE_THREAD_MAX_SIDE
        assert len(out["before"]) == 1  # NumPy's
        kernel = "lu_factor" if first == "steady_state" else "expm"
        assert kernel in [name for name, _ in out["seen"]]
        for _, counts in out["seen"]:
            assert len(counts) == 2
            assert set(counts.values()) == {1}
        assert len(out["after"]) == 2
        assert all(out["after"][name] == count for name, count in out["before"].items())
