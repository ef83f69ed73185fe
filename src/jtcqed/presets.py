"""Bundled parameter presets, one per production figure pipeline.

Each preset expands to one or more fully resolved run configurations
(coupled/uncoupled hopping variants, or the imbalance + coherence pair), so a
figure's data is reproduced with a single command. Parameters not pinned by
the source material (the mismatch used by the imbalance runs, the time grids)
are fixed here and echoed in every manifest. The dissipation rates are
``DissipationParams``' defaults; only the imbalance pairs set one, the
dephasing rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Preset", "PRESETS", "preset_table"]

SQRT2 = math.sqrt(2.0)

# Frequency mismatch used by the population-imbalance presets: the captions
# pin only k (and the dephasing rate for the last one). The mismatch must be
# small: the quadratic mode-2 drive it switches on parametrically heats the
# disadvantaged mode, and already at delta ~ 0.05 that heating destroys the
# ultrastrong trapped regime within the run horizon.
IMBALANCE_DELTA = 0.01

_SPECTRUM_NUMERICS = {
    "tau_max": 10000.0,
    "n_samples": 16384,
    "correlation_ordering": "emission",
}

_IMBALANCE_TIMES = "0:3000:601"
# The ultrastrong trapped-regime window ends when thermal photons fill the
# disadvantaged mode (timescale 1/kappa); its horizon stays short of that.
_TRAPPED_TIMES = "0:600:121"
_G2_TIMES = "0:2000:401"


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    runs: tuple[tuple[str, dict], ...]  # (label, config mapping)


def _eigenscan(name: str, k: float, k_label: str) -> Preset:
    mapping = {
        "run": {"task": "eigenscan"},
        "model": {
            "k": k,
            "delta_grid": "-1:1:201",
            "fock_dims": "2, 2",
        },
        "output": {"path": f"{name}.csv"},
    }
    return Preset(
        name=name,
        description=(
            f"eigenscan  k={k_label}, delta in [-1, 1] (201 pts), "
            "fock_dims=[2,2], 5 levels"
        ),
        runs=((name, mapping),),
    )


def _spectrum(name: str, k: float, k_label: str, include_quadratic: bool = True) -> Preset:
    runs = []
    for j_value, j_label in ((0.0, "J0"), (0.5, "J0p5")):
        mapping = {
            "run": {"task": "spectrum"},
            "model": {
                "k": k,
                "delta": 0.0,
                "j_override": j_value,
                "include_quadratic": include_quadratic,
                "fock_dims": "5, 5",
            },
            "numerics": dict(_SPECTRUM_NUMERICS),
            "output": {"path": f"{name}_{j_label}.csv"},
        }
        runs.append((f"{name}_{j_label}", mapping))
    variant = "" if include_quadratic else ", linear model"
    return Preset(
        name=name,
        description=(
            f"spectrum   k={k_label}, J in {{0, 0.5}}, delta=0, fock_dims=[5,5], "
            f"tau_max=10000, 16384 samples{variant}"
        ),
        runs=tuple(runs),
    )


def _imbalance_pair(
    name: str, k: float, k_label: str, gamma_phi: float, times: str = _IMBALANCE_TIMES
) -> Preset:
    model = {
        "k": k,
        "delta": IMBALANCE_DELTA,
        "fock_dims": "5, 5",
    }
    imbalance_map = {
        "run": {"task": "imbalance"},
        "model": dict(model),
        "dissipation": {"gamma_phi": gamma_phi},
        "numerics": {"times": times, "initial_state": "1,0,e"},
        "output": {"path": f"{name}_imbalance.csv"},
    }
    g2_map = {
        "run": {"task": "g2"},
        "model": dict(model),
        "dissipation": {"gamma_phi": gamma_phi},
        "numerics": {"times": _G2_TIMES, "initial_state": "1,0,e"},
        "output": {"path": f"{name}_g2.csv"},
    }
    return Preset(
        name=name,
        description=(
            f"imbalance+g2  k={k_label}, delta={IMBALANCE_DELTA}, "
            f"gamma_phi={gamma_phi}, fock_dims=[5,5], initial |1,0,e>"
        ),
        runs=((f"{name}_imbalance", imbalance_map), (f"{name}_g2", g2_map)),
    )


# The Rabi-splitting / supersplitting spectra use the linear reference model:
# with the quadratic block on, the sector frequency splitting it induces
# (4 sqrt(2) k) exceeds the Rabi splitting (2 sqrt(2) k) at every k, so the
# clean doublet -> supersplit-doublet progression only exists in the linear
# model. The multi-peak entrainment spectra keep the full model.
PRESETS: dict[str, Preset] = {
    p.name: p
    for p in (
        _eigenscan("fig1a", 0.1 / SQRT2, "0.1/sqrt(2)"),
        _eigenscan("fig1b", 1.0 / SQRT2, "1.0/sqrt(2)"),
        _spectrum("fig2a", 0.05 / SQRT2, "0.05/sqrt(2)", include_quadratic=False),
        _spectrum("fig2b", 0.05, "0.05", include_quadratic=False),
        _spectrum("fig3a", 0.1 / SQRT2, "0.1/sqrt(2)"),
        _spectrum("fig3b", 0.5 / SQRT2, "0.5/sqrt(2)"),
        _imbalance_pair("fig4a", 0.01 / SQRT2, "0.01/sqrt(2)", 0.01),
        _imbalance_pair("fig4b", 0.1 / SQRT2, "0.1/sqrt(2)", 0.01),
        _imbalance_pair("fig4c", 1.0 / SQRT2, "1.0/sqrt(2)", 0.1, times=_TRAPPED_TIMES),
    )
}


def preset_table() -> str:
    """One row per bundled preset."""
    width = max(len(name) for name in PRESETS)
    lines = [f"{name:<{width}}  {p.description}" for name, p in PRESETS.items()]
    return "\n".join(lines)
