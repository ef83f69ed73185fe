"""Run configuration: INI-style parsing, validation and resolution.

A config file has five sections mirroring the run layout::

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
    correlation_ordering = emission
    g2_normalization = standard
    initial_state = 1,0,e       ; n1,n2,q with q one of e/g, inside fock_dims

    [output]
    path = out/run.csv
    precision = 12

``_KEYS`` is the one list of config keys: for each key its section, its
parser, its default and the tasks that read it. Unknown sections or keys are
usage errors, as are missing required keys and values a parser refuses (a
non-finite ``delta``, ``delta_grid``, ``j_override`` or ``tau_max``, a
non-power-of-two ``n_samples``, a ``times`` grid that does not start at 0
and increase strictly), and the cross-field faults checked after the table:
``delta`` beside ``delta_grid``, a task without the grid or the ``times`` it
needs, an initial state outside the truncation, a non-finite or negative
dissipation rate. Known keys that the configured task never reads are
accepted and listed as ``unused_keys`` in the run's manifest.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from typing import Any, Callable, NamedTuple

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
_LINDBLAD = ("spectrum", "g2", "imbalance")
_TRANSIENT = ("g2", "imbalance")
_REQUIRED = object()  # the default of a key a config must set


class ConfigError(ValueError):
    """The configuration is malformed; maps to the usage exit code."""


def _checked(parse: Callable, ok: Callable, message: str) -> Callable:
    """``parse`` followed by the test ``ok``; a value failing it is a ValueError."""
    def checked(value):
        parsed = parse(value)
        if not ok(parsed):
            raise ValueError(f"{message}, got {value!r}")
        return parsed
    return checked


def _one_of(*options: str) -> Callable:
    return _checked(str, options.__contains__, f"must be one of {options}")


def _parse_grid(value) -> np.ndarray:
    """Either 'start:stop:count' (inclusive linspace), a comma list or a sequence."""
    if not isinstance(value, str):
        return np.asarray(value, dtype=float)
    if ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError("grid shorthand must be start:stop:count")
        return np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    return np.array([float(v) for v in value.split(",") if v.strip()])


def _int_tuple(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    return tuple(int(v) for v in value)


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.strip().lower()]
    except (AttributeError, KeyError):
        raise ValueError(f"must be a boolean, got {value!r}") from None


_finite = _checked(float, math.isfinite, "must be finite")
_grid = _checked(
    _parse_grid,
    lambda grid: grid.ndim == 1 and grid.size > 0 and bool(np.isfinite(grid).all()),
    "must be a nonempty list of finite numbers",
)


class _Key(NamedTuple):
    section: str
    parse: Callable[[Any], Any]
    default: Any  # the resolved value of an unset key, or _REQUIRED
    readers: tuple[str, ...]  # the tasks whose runs read the key


_KEYS: dict[str, _Key] = {
    "task": _Key("run", _one_of(*TASKS), _REQUIRED, TASKS),
    "k": _Key("model", _finite, _REQUIRED, TASKS),
    "delta": _Key("model", _finite, None, _LINDBLAD),
    "delta_grid": _Key("model", _grid, None, ("eigenscan",)),
    "j_override": _Key("model", _finite, None, TASKS),
    "include_quadratic": _Key("model", _bool, True, TASKS),
    "fock_dims": _Key(
        "model",
        _checked(_int_tuple, lambda dims: len(dims) == 2 and min(dims) >= 2,
                 "must hold two truncations, each >= 2"),
        _REQUIRED, TASKS,
    ),
    # DissipationParams validates the rates and holds their defaults
    **{
        field.name: _Key("dissipation", float, field.default, _LINDBLAD)
        for field in dataclasses.fields(DissipationParams)
    },
    "tau_max": _Key(
        "numerics",
        _checked(float, lambda t: math.isfinite(t) and t > 0, "must be positive and finite"),
        1000.0, ("spectrum",),
    ),
    "n_samples": _Key(
        "numerics",
        _checked(int, lambda n: n >= 4 and not n & (n - 1), "must be a power of two (>= 4)"),
        4096, ("spectrum",),
    ),
    "times": _Key("numerics", lambda value: check_time_grid(_grid(value)), None, _TRANSIENT),
    "correlation_ordering": _Key("numerics", _one_of("emission", "as_printed"), "emission", ("spectrum",)),
    "g2_normalization": _Key("numerics", _one_of("standard", "first_order"), "standard", ("g2",)),
    "initial_state": _Key("numerics", str, "1,0,e", _TRANSIENT),
    "path": _Key("output", str, _REQUIRED, TASKS),
    "precision": _Key(
        "output",
        _checked(int, lambda p: 1 <= p <= 17, "must be between 1 and 17 significant digits"),
        12, TASKS,
    ),
}
_RATES = tuple(key for key, spec in _KEYS.items() if spec.section == "dissipation")


@dataclasses.dataclass
class RunConfig:
    """A resolved run: one field per ``_KEYS`` key, in the table's order."""

    task: str
    k: float
    delta: float | None
    delta_grid: np.ndarray | None
    j_override: float | None
    include_quadratic: bool
    fock_dims: tuple[int, ...]
    kappa1: float
    kappa2: float
    gamma: float
    gamma_phi: float
    n_th: float
    tau_max: float
    n_samples: int
    times: np.ndarray | None
    correlation_ordering: str
    g2_normalization: str
    initial_state: str
    path: str
    precision: int
    # the keys the config sets that its task never reads, sorted
    unused_keys: tuple[str, ...] = ()

    @property
    def dissipation(self) -> DissipationParams:
        return DissipationParams(**{name: getattr(self, name) for name in _RATES})

    def resolved(self) -> dict:
        """JSON-ready echo of every resolved parameter (for the manifest)."""
        echo = {}
        for key, spec in _KEYS.items():
            value = getattr(self, key)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, tuple):
                value = list(value)
            if spec.section == "run":
                echo[key] = value
            else:
                echo.setdefault(spec.section, {})[key] = value
        return echo


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
    """Build and validate a RunConfig from a nested dict (sections -> keys).

    A key set to None or to a blank string is unset: its default applies.
    """
    unknown = set(mapping) - {spec.section for spec in _KEYS.values()}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    given = {}
    for section, keys in mapping.items():
        keys = keys or {}
        bad = [key for key in keys if key not in _KEYS or _KEYS[key].section != section]
        if bad:
            raise ConfigError(f"unknown keys in [{section}]: {sorted(bad)}")
        given.update(
            (key, value) for key, value in keys.items()
            if value is not None and not (isinstance(value, str) and not value.strip())
        )

    values = {}
    for key, spec in _KEYS.items():
        if key in given:
            try:
                values[key] = spec.parse(given[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from exc
        elif spec.default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{spec.section}]")
        else:
            values[key] = spec.default

    task = values["task"]
    if values["delta"] is not None and values["delta_grid"] is not None:
        raise ConfigError("delta and delta_grid are mutually exclusive")
    if task == "eigenscan" and values["delta_grid"] is None:
        raise ConfigError("eigenscan requires delta_grid")
    if task != "eigenscan" and values["delta"] is None:
        raise ConfigError(f"{task} requires a scalar delta")
    if task in _TRANSIENT and values["times"] is None:
        raise ConfigError(f"{task} requires a times grid")
    parse_initial_state(values["initial_state"], values["fock_dims"])

    cfg = RunConfig(
        **values,
        unused_keys=tuple(sorted(key for key in given if task not in _KEYS[key].readers)),
    )
    try:
        cfg.dissipation  # DissipationParams validates the rates
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path: str) -> RunConfig:
    """Parse and validate an INI-style config file.

    A file that is not valid INI or not UTF-8 text is a ConfigError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file not found: {path}")
        mapping = {section: dict(parser.items(section)) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is malformed: {exc}") from exc
    return config_from_mapping(mapping)
