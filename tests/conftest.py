import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import jtcqed
from jtcqed import DensityMatrix, QOperator, SpaceSpec, cli, dynamics
from jtcqed.config import config_from_mapping
from jtcqed.presets import PRESETS


@pytest.fixture(autouse=True)
def cold_engine():
    """Every test starts with ``cli``'s engine slot empty, so none sees an
    engine an earlier test left there, and none holds one after it ends."""
    cli._engine = None
    yield
    cli._engine = None


def run_presets(out_dir) -> dict[str, str]:
    """Run every bundled preset through ``cli.execute`` into ``out_dir``, in
    ``PRESETS`` order as ``jtcqed preset`` would, with the engine slot
    emptied before and after; returns run label -> CSV path."""
    cli._engine = None
    paths = {
        label: cli.execute(config_from_mapping(mapping), out_dir=str(out_dir))
        for preset in PRESETS.values()
        for label, mapping in preset.runs
    }
    cli._engine = None
    return paths


@pytest.fixture(scope="session")
def preset_outputs(tmp_path_factory) -> dict[str, str]:
    """The 16 preset CSVs (manifests beside them), run once per session and
    shared by the golden-output test and the acceptance criteria."""
    return run_presets(tmp_path_factory.mktemp("presets"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(space: SpaceSpec, rng, scale: float = 1.0) -> QOperator:
    n = space.total_dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return QOperator(space, scale * (m + m.conj().T) / 2.0)


def random_density(space: SpaceSpec, rng) -> DensityMatrix:
    n = space.total_dim
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(space, rho)


def coherent_ket(dim: int, alpha: complex) -> np.ndarray:
    ns = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    amps = np.exp(-0.5 * abs(alpha) ** 2 + ns * np.log(complex(alpha)) - 0.5 * log_fact)
    amps[0] = np.exp(-0.5 * abs(alpha) ** 2)
    return amps


def truncated_geometric(dim: int, nbar: float) -> np.ndarray:
    """Thermal occupation probabilities restricted to ``dim`` levels."""
    q = nbar / (1.0 + nbar)
    p = q ** np.arange(dim)
    return p / p.sum()


# The two propagation kernels, as recorded in ``method``.
KERNELS = ("expm", "taylor")


@contextmanager
def on_kernel(monkeypatch, kernel: str):
    """Inside, ``evolve`` (and so ``imbalance``) takes ``kernel`` on a uniform
    grid of at least 3 points: "taylor" lowers ``dynamics.DENSE_MAX_SIDE``
    below every side, "expm" leaves it. Delay scans do not consult it."""
    with monkeypatch.context() as patch:
        if kernel == "taylor":
            patch.setattr(dynamics, "DENSE_MAX_SIDE", 0)
        yield


def bundled_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return sys.platform == "linux" and "openblas" in blas["name"]


# Source of ``openblas_counts()`` for scripts run by :func:`run_fresh`: the
# thread count of every OpenBLAS library mapped into the process, by file
# name, found and read without jtcqed._blas. openblas_set_num_threads_local
# returns the count it replaces, which is set back at once.
OPENBLAS_COUNTS = """
import ctypes
import os


def openblas_counts():
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    counts = {}
    for path in sorted(paths):
        fn = ctypes.CDLL(path, mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        fn.argtypes, fn.restype = [ctypes.c_int], ctypes.c_int
        counts[os.path.basename(path)] = fn(1)
        fn(counts[os.path.basename(path)])
    return counts
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run ``script`` in a fresh interpreter on the src/ under test, with
    ``args`` as its argv[1:]; returns its last line of stdout, parsed as
    JSON. OpenBLAS is asked for two threads there, so a count left at the
    default reads as one only on a host with one CPU."""
    src = str(Path(jtcqed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
