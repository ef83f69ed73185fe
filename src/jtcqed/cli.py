"""Command-line front end.

Subcommands::

    jtcqed run <config.ini>          run a single configured task
    jtcqed preset <name> [--out DIR] run a bundled preset
    jtcqed presets                   list bundled presets

Every run writes its CSV plus a manifest echoing the resolved configuration,
the library version, wall-clock time and per-task provenance notes, among
them a warning where the Hamiltonian is unbounded below and the config keys
the task never reads. CSV bodies are byte-identical across repeated runs of
the same configuration; manifests differ only in their timing fields.

Exit codes: 0 success, 2 usage/config error (an unusable output directory
included, reported before any computation), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import (
    eigen_scan,
    g2,
    imbalance,
    power_spectrum,
    spectrum_peaks,
)
from .config import (
    ConfigError,
    RunConfig,
    config_from_mapping,
    load_config,
    parse_initial_state,
)
from .dynamics import build_liouvillian, steady_state
from .errors import JTCQEDError
from .hilbert import DensityMatrix, SpaceSpec, basis_ket
from .model import build_dimensionless_hamiltonian, unbounded_below
from .presets import PRESETS, preset_table

USAGE_EXIT = 2
NUMERICAL_EXIT = 3

EIGEN_COUNT = 5  # fixed by the eigenscan CSV schema: delta,E1..E5


def _output_directory(csv_path: str):
    """Create the CSV's directory, or raise ConfigError if it cannot be used,
    so an unusable path is reported before the run computes anything."""
    directory = os.path.dirname(os.path.abspath(csv_path))
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {directory!r} is unusable: {exc}") from exc
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {directory!r} is not writable")


def _write_atomic(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_csv(path: str, header: list[str], rows, precision: int):
    # One %-format per row; Python writes every NaN as "nan", which no other
    # cell contains, and a NaN cell is left empty.
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    line = ",".join([f"%.{precision - 1}e"] * len(header))
    lines = [",".join(header)]
    lines.extend((line % tuple(row)).replace("nan", "") for row in table.tolist())
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_manifest(csv_path: str, cfg: RunConfig, notes: dict, elapsed: float):
    manifest = {
        "config": cfg.resolved(),
        "library_version": __version__,
        "wall_clock_seconds": elapsed,
        "notes": notes,
        "output": os.path.basename(csv_path),
    }
    root, _ = os.path.splitext(csv_path)
    _write_atomic(root + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _space(cfg: RunConfig) -> SpaceSpec:
    return SpaceSpec(fock_dims=cfg.fock_dims, qubit_count=1)


def _initial_state(cfg: RunConfig, space: SpaceSpec) -> DensityMatrix:
    n1, n2, qubit = parse_initial_state(cfg.initial_state, cfg.fock_dims)
    ket = basis_ket(space, [n1, n2], [qubit])
    return DensityMatrix.from_pure(space, ket)


def _liouvillian(cfg: RunConfig, space: SpaceSpec):
    h = build_dimensionless_hamiltonian(
        space, cfg.k, cfg.delta,
        include_quadratic=cfg.include_quadratic,
        j_override=cfg.j_override,
    )
    return build_liouvillian(h, cfg.dissipation)


def _run_eigenscan(cfg: RunConfig) -> tuple[list[str], list, dict]:
    table = eigen_scan(
        cfg.k,
        np.sort(cfg.delta_grid),
        EIGEN_COUNT,
        _space(cfg),
        include_quadratic=cfg.include_quadratic,
        j_override=cfg.j_override,
    )
    rows = [[d, *e] for d, e in zip(table.deltas, table.energies)]
    header = ["delta"] + [f"E{i + 1}" for i in range(EIGEN_COUNT)]
    return header, rows, {"grid_points": int(table.deltas.size)}


def _run_spectrum(cfg: RunConfig) -> tuple[list[str], list, dict]:
    space = _space(cfg)
    liouvillian = _liouvillian(cfg, space)
    rho_ss = steady_state(liouvillian)
    series = power_spectrum(
        liouvillian,
        rho_ss,
        mode="privileged",
        tau_max=cfg.tau_max,
        n_samples=cfg.n_samples,
        ordering=cfg.correlation_ordering,
    )
    rows = list(zip(series.omegas, series.values))
    peaks = spectrum_peaks(series, min_relative_prominence=0.01)
    notes = {
        "warnings": list(series.warnings),
        "steady_state_purity": rho_ss.purity(),
        "steady_state_blocks": len(liouvillian.blocks),
        "propagation_side": series.metadata["propagation_side"],
        "frequency_resolution": series.metadata["frequency_resolution"],
        "peaks": [{"omega": w, "power": p} for w, p in peaks],
    }
    return ["omega", "power"], rows, notes


def _run_g2(cfg: RunConfig) -> tuple[list[str], list, dict]:
    # The coherence pipelines are transient: the reference time is the
    # configured initial state (t* = 0), so g2(0) reflects its statistics
    # (a one-photon start reads exactly zero). The settle-search reference
    # remains available through the library API for stationary analyses.
    space = _space(cfg)
    liouvillian = _liouvillian(cfg, space)
    rho0 = _initial_state(cfg, space)
    taus = np.asarray(cfg.times, dtype=float)
    series_r, series_q = (
        g2(liouvillian, rho0, target=target, taus=taus,
           normalization=cfg.g2_normalization, reference=(0.0, rho0))
        for target in ("resonator", "qubit")
    )
    rows = list(zip(taus, series_r.values, series_q.values))
    notes = {
        "t_star": 0.0,
        "reference_policy": "initial_state",
        "method": series_r.metadata["method"],
        "normalization": cfg.g2_normalization,
        "reference_occupation_resonator": series_r.metadata["reference_occupation"],
        "reference_occupation_qubit": series_q.metadata["reference_occupation"],
        "propagation_side_resonator": series_r.metadata["propagation_side"],
        "propagation_side_qubit": series_q.metadata["propagation_side"],
    }
    return ["tau", "g2_resonator", "g2_qubit"], rows, notes


def _run_imbalance(cfg: RunConfig) -> tuple[list[str], list, dict]:
    space = _space(cfg)
    liouvillian = _liouvillian(cfg, space)
    rho0 = _initial_state(cfg, space)
    times = np.asarray(cfg.times, dtype=float)
    series = imbalance(liouvillian, rho0, times, rtol=cfg.rtol, atol=cfg.atol)
    rows = list(zip(series.times, series.n1, series.n2, series.z))
    tail = series.z[int(0.8 * series.z.size):]
    tail = tail[np.isfinite(tail)]
    notes = {
        "method": series.metadata["method"],
        "propagation_side": series.metadata["propagation_side"],
        "trace_drift": series.metadata["trace_drift"],
        "long_window_fraction": 0.2,
        "z_long_mean": float(tail.mean()) if tail.size else None,
        "z_long_min": float(tail.min()) if tail.size else None,
        "z_long_max": float(tail.max()) if tail.size else None,
    }
    return ["t", "n1", "n2", "z"], rows, notes


def _unbounded_warnings(cfg: RunConfig) -> list[str]:
    deltas = np.sort(cfg.delta_grid) if cfg.task == "eigenscan" else np.array([cfg.delta])
    flagged = unbounded_below(cfg.k, deltas, cfg.include_quadratic, cfg.j_override)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], flagged, [0])))).reshape(-1, 2)
    ranges = ", ".join(f"[{deltas[a]:g}, {deltas[b - 1]:g}]" for a, b in edges)
    return [
        f"Hamiltonian unbounded below at {flagged.sum()} of {deltas.size} delta points "
        f"(delta in {ranges}); there its lowest levels fall without limit as "
        "fock_dims grows, so the output depends on the truncation"
    ] if flagged.any() else []


# Each runner and the [dissipation]/[numerics] keys it reads (all read [model];
# imbalance reads tolerances only on its adaptive path). Other keys set are
# listed as unused in the manifest, not rejected: presets set them on eigenscans.
_DISSIPATION = ("kappa1", "kappa2", "gamma", "gamma_phi", "n_th")
_RUNNERS = {
    "eigenscan": (_run_eigenscan, ()),
    "spectrum": (_run_spectrum, (*_DISSIPATION, "tau_max", "n_samples", "correlation_ordering")),
    "g2": (_run_g2, (*_DISSIPATION, "times", "g2_normalization", "initial_state")),
    "imbalance": (_run_imbalance, (*_DISSIPATION, "times", "tolerances", "initial_state")),
}


def execute(cfg: RunConfig, out_dir: str | None = None) -> str:
    """Run one configured task; returns the CSV path."""
    start = time.perf_counter()
    csv_path = cfg.output_path
    if out_dir is not None and not os.path.isabs(csv_path):
        csv_path = os.path.join(out_dir, csv_path)
    _output_directory(csv_path)
    run, reads = _RUNNERS[cfg.task]
    header, rows, notes = run(cfg)
    notes.setdefault("warnings", []).extend(_unbounded_warnings(cfg))
    if notes.get("method") == "expm":
        reads = set(reads) - {"tolerances"}
    notes["unused_keys"] = [key for key in cfg.given_keys if key not in reads]
    _write_csv(csv_path, header, rows, cfg.precision)
    _write_manifest(csv_path, cfg, notes, time.perf_counter() - start)
    return csv_path


def _cmd_run(args) -> int:
    print(execute(load_config(args.config)))
    return 0


def _cmd_preset(args) -> int:
    preset = PRESETS.get(args.name)
    if preset is None:
        raise ConfigError(
            f"unknown preset {args.name!r}; run 'jtcqed presets' for the inventory"
        )
    out_dir = args.out or "."
    for _, mapping in preset.runs:
        print(execute(config_from_mapping(mapping), out_dir=out_dir))
    return 0


def _cmd_presets(_args) -> int:
    print(preset_table())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jtcqed",
        description="Two-resonator Jahn-Teller circuit-QED simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a task from a config file")
    run.add_argument("config", help="path to an INI-style run configuration")
    run.set_defaults(handler=_cmd_run)

    preset = sub.add_parser("preset", help="run a bundled preset")
    preset.add_argument("name", help="preset name (see 'jtcqed presets')")
    preset.add_argument("--out", help="output directory (default: current)", default=None)
    preset.set_defaults(handler=_cmd_preset)

    listing = sub.add_parser("presets", help="list bundled presets")
    listing.set_defaults(handler=_cmd_presets)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except (JTCQEDError, ValueError, np.linalg.LinAlgError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report), file=sys.stderr)
        return NUMERICAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
