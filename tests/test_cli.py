import configparser
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import jtcqed
from jtcqed import SpaceSpec, build_dimensionless_hamiltonian, eigen_lowest
from jtcqed import cli
from jtcqed.cli import main
from jtcqed.config import config_from_mapping
from jtcqed.presets import PRESETS


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
            "tolerances = 1e-3, 1e-3\n"
        )
        assert main(["run", write_config(tmp_path / "extra.ini", base + extra)]) == 0
        assert (tmp_path / "scan.csv").read_bytes() == first
        manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
        assert manifest["notes"]["unused_keys"] == ["g2_normalization", "tau_max", "tolerances"]

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

    def test_unknown_preset(self, capsys):
        assert main(["preset", "fig9z"]) == 2

    @pytest.mark.parametrize(
        "task, section, key, value",
        [
            ("spectrum", "numerics", "n_samples", "1000"),
            ("imbalance", "numerics", "tolerances", "abc, 1e-10"),
            ("imbalance", "numerics", "initial_state", "7,0,e"),
            ("imbalance", "numerics", "times", "1:10:3"),
            ("g2", "numerics", "times", "1:10:3"),
            ("eigenscan", "model", "obrien_normalization", "true"),
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

    @pytest.mark.parametrize(
        "task, times, method, honoured",
        [
            ("imbalance", "0, 1, 3, 7", "adaptive", True),
            ("imbalance", "0:6:4", "expm", False),
            ("g2", "0, 1, 3, 7", "adaptive", False),  # fixed 1e-8 / 1e-10 contract
        ],
    )
    def test_tolerances_scope(self, tmp_path, task, times, method, honoured):
        # `tolerances` reaches only the imbalance task's adaptive path
        csvs = []
        for label, tolerances in (("default", ""), ("loose", "tolerances = 1e-5, 1e-7")):
            out = tmp_path / f"{label}.csv"
            cfg = write_config(
                tmp_path / f"{label}.ini",
                f"""
                [run]
                task = {task}

                [model]
                k = 0.1
                delta = 0.2
                fock_dims = 2, 2

                [numerics]
                times = {times}
                initial_state = 1,0,e
                {tolerances}

                [output]
                path = {out}
                """,
            )
            assert main(["run", cfg]) == 0
            manifest = json.loads((tmp_path / f"{label}.manifest.json").read_text())
            assert manifest["notes"]["method"] == method
            assert manifest["notes"]["unused_keys"] == (
                ["tolerances"] if tolerances and not honoured else []
            )
            csvs.append(out.read_text())
        assert (csvs[0] != csvs[1]) == honoured

    @pytest.mark.parametrize("task", ["eigenscan", "spectrum", "g2", "imbalance"])
    def test_runner_key_table_matches_reads(self, task):
        # the key table beside each runner must name exactly the [dissipation]
        # and [numerics] keys the runner reads (imbalance on its adaptive path)
        fields = {
            "dissipation": cli._DISSIPATION, "tau_max": ("tau_max",),
            "n_samples": ("n_samples",), "times": ("times",), "rtol": ("tolerances",),
            "atol": ("tolerances",), "correlation_ordering": ("correlation_ordering",),
            "g2_normalization": ("g2_normalization",), "initial_state": ("initial_state",),
        }
        grid = "delta_grid = -0.5:0.5:3" if task == "eigenscan" else "delta = 0.2"
        cfg = load_config_text(
            f"""
            [run]
            task = {task}
            [model]
            k = 0.1
            {grid}
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
            tolerances = 1e-6, 1e-8
            correlation_ordering = emission
            g2_normalization = standard
            initial_state = 1,0,e
            [output]
            path = unused.csv
            """
        )
        read = set()

        class Recorder:
            def __getattr__(self, name):
                read.update(fields.get(name, ()))
                return getattr(cfg, name)

        run, reads = cli._RUNNERS[task]
        notes = run(Recorder())[2]
        assert read == set(reads)
        assert notes.get("method", "adaptive") == "adaptive"
        assert set(cfg.given_keys) == {key for keys in fields.values() for key in keys}

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
        # order n2 - n2' in -2..2; the seed a rho_ss lies in order 0
        assert manifest["notes"]["steady_state_blocks"] == 5
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


def _fmt(value: float, precision: int) -> str:
    # the per-cell reference: NaN cells empty, every other one "%.{p-1}e"
    return "" if math.isnan(value) else f"{value:.{precision - 1}e}"


class TestCsvWriter:
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


COLD_START = """
import json
import sys
import threading

import numpy as np

import jtcqed
import jtcqed.cli

lazy = ("scipy.signal", "scipy.integrate", "scipy.stats")
loaded = [name for name in lazy if name in sys.modules]
blas_lookups = jtcqed._blas.setters.cache_info().currsize
threads = threading.active_count()

omegas = np.linspace(-1.0, 1.0, 201)
values = np.exp(-(((omegas - 0.5) / 0.05) ** 2)) + 0.5 * np.exp(-(((omegas + 0.3) / 0.05) ** 2))
peaks = jtcqed.spectrum_peaks(jtcqed.SpectrumSeries(omegas, values))

space = jtcqed.SpaceSpec((2, 2), 1)
h = jtcqed.build_dimensionless_hamiltonian(space, 0.05, 0.0)
liou = jtcqed.build_liouvillian(h, jtcqed.DissipationParams())
rho0 = jtcqed.DensityMatrix.from_pure(space, jtcqed.basis_ket(space, [1, 0], ["e"]))
times = np.linspace(0.0, 8.0, 5)
adaptive = jtcqed.evolve(liou, rho0, times, method="adaptive")
exact = jtcqed.evolve(liou, rho0, times, method="expm")
gap = max(np.abs(a.matrix - b.matrix).max() for a, b in zip(adaptive.states, exact.states))

print(json.dumps({
    "loaded": loaded, "blas_lookups": blas_lookups, "threads": threads,
    "peaks": peaks, "method": adaptive.method, "gap": float(gap),
}))
"""


class TestColdStart:
    def test_signal_and_integrate_load_on_first_use(self):
        # A fresh interpreter on the src/ under test: importing the package
        # must not load the SciPy modules only spectrum_peaks and the
        # adaptive integrator need, and both must still work afterwards.
        src = str(Path(jtcqed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["loaded"] == []
        # nor look up the BLAS libraries or start a thread
        assert out["blas_lookups"] == 0
        assert out["threads"] == 1
        assert [omega for omega, _ in out["peaks"]] == pytest.approx([-0.3, 0.5])
        assert [power for _, power in out["peaks"]] == pytest.approx([0.5, 1.0], rel=1e-3)
        assert out["method"] == "adaptive"
        assert out["gap"] < 1e-6
