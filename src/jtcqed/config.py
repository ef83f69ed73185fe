"""Run configuration: INI-style parsing, validation and resolution.

A config file has four nested sections mirroring the run layout::

    [run]
    task = eigenscan            ; eigenscan | spectrum | g2 | imbalance

    [model]
    k = 0.0707
    delta = 0.0                 ; scalar, or delta_grid = -1:1:201 (exclusive)
    j_override =                ; optional, blank means "tied to delta/2"
    include_quadratic = true
    fock_dims = 2, 2

    [dissipation]
    kappa1 = 0.001
    kappa2 = 0.001
    gamma = 0.001
    gamma_phi = 0.01
    n_th = 0.15

    [numerics]
    tau_max = 10000
    n_samples = 16384
    times = 0:3000:601          ; grid shorthand start:stop:count, or a list
    tolerances = 1e-8, 1e-10    ; rtol, atol of imbalance's adaptive path only
    correlation_ordering = emission
    g2_normalization = standard
    initial_state = 1,0,e       ; n1,n2,q with q one of e/g, inside fock_dims

    [output]
    path = out/run.csv
    precision = 12

Unknown sections or keys are usage errors, as are missing required fields and
values the run could not use (a non-finite ``delta``, ``delta_grid``,
``j_override``, ``tau_max`` or dissipation rate, a non-power-of-two
``n_samples``, a ``times`` grid that does
not start at 0 and increase strictly, an initial state outside the
truncation). Known keys that the configured run never reads are accepted and
listed as ``unused_keys`` in the run's manifest.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DissipationParams, check_time_grid

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "config_from_mapping",
    "parse_initial_state",
]

TASKS = ("eigenscan", "spectrum", "g2", "imbalance")

_MODEL_KEYS = {
    "k", "delta", "delta_grid", "j_override", "include_quadratic", "fock_dims",
}
_DISSIPATION_KEYS = {"kappa1", "kappa2", "gamma", "gamma_phi", "n_th"}
_NUMERICS_KEYS = {
    "tau_max", "n_samples", "times", "tolerances",
    "correlation_ordering", "g2_normalization", "initial_state",
}
_OUTPUT_KEYS = {"path", "precision"}


class ConfigError(ValueError):
    """The configuration is malformed; maps to the usage exit code."""


@dataclass
class RunConfig:
    task: str
    k: float
    delta: float | None
    delta_grid: np.ndarray | None
    j_override: float | None
    include_quadratic: bool
    fock_dims: tuple[int, ...]
    dissipation: DissipationParams
    tau_max: float
    n_samples: int
    times: np.ndarray | None
    rtol: float
    atol: float
    correlation_ordering: str
    g2_normalization: str
    initial_state: str
    output_path: str
    precision: int
    # the [dissipation] and [numerics] keys the config sets; every task reads
    # all of [model], and cli.execute reports the rest its task never reads
    given_keys: tuple[str, ...] = ()

    def resolved(self) -> dict:
        """JSON-ready echo of every resolved parameter (for the manifest)."""
        return {
            "task": self.task,
            "model": {
                "k": self.k,
                "delta": self.delta,
                "delta_grid": None if self.delta_grid is None else self.delta_grid.tolist(),
                "j_override": self.j_override,
                "include_quadratic": self.include_quadratic,
                "fock_dims": list(self.fock_dims),
            },
            "dissipation": {
                "kappa1": self.dissipation.kappa1,
                "kappa2": self.dissipation.kappa2,
                "gamma": self.dissipation.gamma,
                "gamma_phi": self.dissipation.gamma_phi,
                "n_th": self.dissipation.n_th,
            },
            "numerics": {
                "tau_max": self.tau_max,
                "n_samples": self.n_samples,
                "times": None if self.times is None else [float(self.times[0]), float(self.times[-1]), int(self.times.size)],
                "tolerances": [self.rtol, self.atol],
                "correlation_ordering": self.correlation_ordering,
                "g2_normalization": self.g2_normalization,
                "initial_state": self.initial_state,
            },
            "output": {"path": self.output_path, "precision": self.precision},
        }


def _parse_grid(text: str, name: str) -> np.ndarray:
    """Either 'start:stop:count' (inclusive linspace) or a comma list."""
    text = text.strip()
    if not text:
        raise ConfigError(f"{name} must not be empty")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{name} grid shorthand must be start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad {name} grid: {exc}") from exc
        if count < 1:
            raise ConfigError(f"{name} grid must contain at least one point")
        return np.linspace(start, stop, count)
    try:
        values = np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad {name} list: {exc}") from exc
    if values.size == 0:
        raise ConfigError(f"{name} must not be empty")
    return values


def _get(section: dict, key: str, default=None):
    value = section.get(key, default)
    if isinstance(value, str) and value.strip() == "":
        return default
    return value


def _as_float(section, key, default=None, required=False):
    value = _get(section, key, default)
    if value is None:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return None
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


def _as_int(section, key, default=None):
    value = _get(section, key, default)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _as_bool(section, key, default):
    value = _get(section, key, default)
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def parse_initial_state(text: str, fock_dims: tuple[int, ...]) -> tuple[int, int, str]:
    """'n1,n2,q' -> (n1, n2, q): occupations inside the truncation, q one of e/g."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3 or parts[2] not in ("e", "g"):
        raise ConfigError("initial_state must be 'n1,n2,q' with q one of e/g")
    try:
        n1, n2 = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad initial_state occupations: {exc}") from exc
    for n, dim in zip((n1, n2), fock_dims):
        if not 0 <= n < dim:
            raise ConfigError(f"initial_state occupation {n} outside truncation {dim}")
    return n1, n2, parts[2]


def config_from_mapping(mapping: dict) -> RunConfig:
    """Build and validate a RunConfig from a nested dict (sections -> keys)."""
    known_sections = {"run", "model", "dissipation", "numerics", "output"}
    unknown = set(mapping) - known_sections
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    run = dict(mapping.get("run") or {})
    model = dict(mapping.get("model") or {})
    dissipation = dict(mapping.get("dissipation") or {})
    numerics = dict(mapping.get("numerics") or {})
    output = dict(mapping.get("output") or {})

    for section, keys, allowed in (
        ("run", run, {"task"}),
        ("model", model, _MODEL_KEYS),
        ("dissipation", dissipation, _DISSIPATION_KEYS),
        ("numerics", numerics, _NUMERICS_KEYS),
        ("output", output, _OUTPUT_KEYS),
    ):
        bad = set(keys) - allowed
        if bad:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(bad)}")

    task = _get(run, "task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

    k = _as_float(model, "k", required=True)
    delta_raw = _get(model, "delta")
    grid_raw = _get(model, "delta_grid")
    if delta_raw is not None and grid_raw is not None:
        raise ConfigError("delta and delta_grid are mutually exclusive")
    delta = None
    delta_grid = None
    if grid_raw is not None:
        delta_grid = (
            np.asarray(grid_raw, dtype=float)
            if not isinstance(grid_raw, str)
            else _parse_grid(grid_raw, "delta_grid")
        )
        if delta_grid.size == 0:
            raise ConfigError("delta_grid must not be empty")
        if not np.all(np.isfinite(delta_grid)):
            raise ConfigError("delta_grid must be finite")
    elif delta_raw is not None:
        delta = _as_float(model, "delta")
        if not math.isfinite(delta):
            raise ConfigError("delta must be finite")
    if task == "eigenscan":
        if delta_grid is None:
            raise ConfigError("eigenscan requires delta_grid")
    else:
        if delta is None:
            raise ConfigError(f"{task} requires a scalar delta")

    fock_raw = _get(model, "fock_dims")
    if fock_raw is None:
        raise ConfigError("missing required key 'fock_dims'")
    if isinstance(fock_raw, str):
        try:
            fock_dims = tuple(int(v) for v in fock_raw.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad fock_dims: {exc}") from exc
    else:
        fock_dims = tuple(int(v) for v in fock_raw)
    if len(fock_dims) != 2 or any(d < 2 for d in fock_dims):
        raise ConfigError("fock_dims must hold two truncations, each >= 2")

    j_override = _as_float(model, "j_override")
    if j_override is not None and not math.isfinite(j_override):
        raise ConfigError("j_override must be finite")
    include_quadratic = _as_bool(model, "include_quadratic", True)

    try:
        diss = DissipationParams(
            kappa1=_as_float(dissipation, "kappa1", 0.001),
            kappa2=_as_float(dissipation, "kappa2", 0.001),
            gamma=_as_float(dissipation, "gamma", 0.001),
            gamma_phi=_as_float(dissipation, "gamma_phi", 0.01),
            n_th=_as_float(dissipation, "n_th", 0.15),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    tau_max = _as_float(numerics, "tau_max", 1000.0)
    n_samples = _as_int(numerics, "n_samples", 4096)
    if n_samples < 4 or n_samples & (n_samples - 1):
        raise ConfigError("n_samples must be a power of two (>= 4)")
    times_raw = _get(numerics, "times")
    times = None
    if times_raw is not None:
        times = (
            np.asarray(times_raw, dtype=float)
            if not isinstance(times_raw, str)
            else _parse_grid(times_raw, "times")
        )
        try:
            times = check_time_grid(times)
        except ValueError as exc:
            raise ConfigError(f"times: {exc}") from exc
    if task in ("imbalance", "g2") and times is None:
        raise ConfigError(f"{task} requires a times grid")

    tol_raw = _get(numerics, "tolerances")
    rtol, atol = 1e-8, 1e-10
    if tol_raw is not None:
        if isinstance(tol_raw, str):
            parts = [p for p in tol_raw.split(",") if p.strip()]
        else:
            parts = list(tol_raw)
        if len(parts) != 2:
            raise ConfigError("tolerances must be 'rtol, atol'")
        try:
            rtol, atol = float(parts[0]), float(parts[1])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"tolerances must be numbers: {exc}") from exc
        if not (rtol > 0 and atol > 0 and math.isfinite(rtol) and math.isfinite(atol)):
            raise ConfigError("tolerances must be positive and finite")

    ordering = _get(numerics, "correlation_ordering", "emission")
    if ordering not in ("emission", "as_printed"):
        raise ConfigError("correlation_ordering must be emission or as_printed")
    g2_norm = _get(numerics, "g2_normalization", "standard")
    if g2_norm not in ("standard", "first_order"):
        raise ConfigError("g2_normalization must be standard or first_order")
    initial_state = _get(numerics, "initial_state", "1,0,e")
    parse_initial_state(initial_state, fock_dims)

    path = _get(output, "path")
    if not path:
        raise ConfigError("missing required key 'path' in [output]")
    precision = _as_int(output, "precision", 12)
    if precision < 1 or precision > 17:
        raise ConfigError("precision must be between 1 and 17 significant digits")

    if tau_max is not None and not (math.isfinite(tau_max) and tau_max > 0):
        raise ConfigError("tau_max must be positive and finite")
    if k is None or not math.isfinite(k):
        raise ConfigError("k must be finite")

    return RunConfig(
        task=task,
        k=k,
        delta=delta,
        delta_grid=delta_grid,
        j_override=j_override,
        include_quadratic=include_quadratic,
        fock_dims=fock_dims,
        dissipation=diss,
        tau_max=tau_max,
        n_samples=n_samples,
        times=times,
        rtol=rtol,
        atol=atol,
        correlation_ordering=ordering,
        g2_normalization=g2_norm,
        initial_state=initial_state,
        output_path=str(path),
        precision=precision,
        given_keys=tuple(sorted(
            key
            for section in (dissipation, numerics)
            for key in section
            if _get(section, key) is not None
        )),
    )


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI-style config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    mapping = {section: dict(parser.items(section)) for section in parser.sections()}
    return config_from_mapping(mapping)
