"""Workload generator: run configurations drawn from a seed.

Each workload is a list of runs, one config mapping per run, in the nested
form ``jtcqed.config.config_from_mapping`` reads from an INI file. The
configs are written here rather than taken from the package presets, so a
change to a preset cannot change the benchmark. The seed draws every
coupling uniformly from a band of +-BAND around its figure value; all other
parameters are fixed. Every draw keeps the full model's Hamiltonian bounded
below (sqrt(2) k < 1/4).
"""

from __future__ import annotations

import math
import random

SQRT2 = math.sqrt(2.0)

# Relative half-width of the band each coupling is drawn from.
BAND = 0.05

DISSIPATION = {"kappa1": 0.001, "kappa2": 0.001, "gamma": 0.001, "gamma_phi": 0.01, "n_th": 0.15}

SPECTRUM_NUMERICS = {"tau_max": 10000.0, "n_samples": 16384, "correlation_ordering": "emission"}

# Truncation ladder of the eigenscan workload: small rungs are dominated by
# the Hamiltonian build, large ones by the eigensolve.
EIGEN_LADDER = (2, 3, 4, 6, 8, 10)

# Truncation and time grids of the Lindblad workloads: 4,4 (superoperator
# side 1024) instead of the presets' 5,5 (2500), and the fig4a step of 5 on
# shorter horizons than the presets' 0:3000:601 and 0:2000:401. A round then
# takes seconds, so a run holds several rounds and reports their median,
# which rides out slow spells of the host shorter than a run, and a full
# evaluation fits its time budget even at a third of full host speed. The
# g2 run still builds expm(L * 5) once per column.
LINDBLAD_DIMS = "4, 4"
IMBALANCE_TIMES = "0:600:121"
G2_TIMES = "0:600:121"

WORKLOADS = ("spectrum", "transient", "eigenscan")


def _draw(rng: random.Random, centre: float) -> float:
    return centre * (1.0 + BAND * rng.uniform(-1.0, 1.0))


def _bounded(k: float) -> float:
    if not math.sqrt(2.0) * k < 0.25:
        raise ValueError(f"k={k} leaves the bounded-below regime")
    return k


def _spectrum(rng):
    runs = []
    for name, k, j, quadratic in (
        ("fig2a_J0p5_linear", 0.05 / SQRT2, 0.5, False),
        ("fig3a_J0_full", 0.1 / SQRT2, 0.0, True),
    ):
        runs.append((name, {
            "run": {"task": "spectrum"},
            "model": {
                "k": _bounded(_draw(rng, k)),
                "delta": 0.0,
                "j_override": _draw(rng, j),
                "include_quadratic": quadratic,
                "fock_dims": LINDBLAD_DIMS,
            },
            "dissipation": dict(DISSIPATION),
            "numerics": dict(SPECTRUM_NUMERICS),
        }))
    return runs


def _transient(rng):
    model = {"k": _bounded(_draw(rng, 0.01 / SQRT2)), "delta": 0.01, "fock_dims": LINDBLAD_DIMS}
    return [
        (f"fig4a_{task}", {
            "run": {"task": task},
            "model": dict(model),
            "dissipation": dict(DISSIPATION),
            "numerics": {"times": times, "initial_state": "1,0,e"},
        })
        for task, times in (("imbalance", IMBALANCE_TIMES), ("g2", G2_TIMES))
    ]


def _eigenscan(rng):
    runs = []
    for label, centre in (("fig1a", 0.1 / SQRT2), ("k0p15", 0.15)):
        k = _bounded(_draw(rng, centre))
        for n in EIGEN_LADDER:
            runs.append((f"{label}_{n}x{n}", {
                "run": {"task": "eigenscan"},
                "model": {"k": k, "delta_grid": "-1:1:201", "fock_dims": f"{n}, {n}"},
                "dissipation": dict(DISSIPATION),
            }))
    return runs


_GENERATORS = {"spectrum": _spectrum, "transient": _transient, "eigenscan": _eigenscan}


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(run name, config mapping) pairs; the output path is the run name."""
    runs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    for name, mapping in runs:
        mapping["output"] = {"path": f"{name}.csv", "precision": 12}
    return runs


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def to_ini(mapping: dict) -> str:
    """INI text of a config mapping; floats keep every digit."""
    lines = []
    for section, values in mapping.items():
        lines.append(f"[{section}]")
        for key, value in values.items():
            lines.append(f"{key} = {_ini_value(value)}")
        lines.append("")
    return "\n".join(lines)
