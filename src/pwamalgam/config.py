"""Experiment configuration: a single strict JSON document.

Every section is optional and falls back to documented defaults, but unknown
or repeated keys anywhere are hard errors rather than warnings, so a typo in
a key name cannot silently run with the default, nor a second copy of a key
silently override the first. Validation messages name the violated rule
(the node perturbation check names the Kadec 1/4 bound).

``alpha_sweep`` is one explicit list ``{values: [...]}``, strictly
ascending, since the convergence claim reads ``J_alpha f`` along increasing
``alpha``. A family's ``alpha`` domain, the reconstructed bands
(``M_max`` = 4) and the points per band (``K`` = 256), the error-accounting
band cap (``metrics.J_MARGIN`` bands beyond ``M_max``) and the output tables
(CSV and JSON) are fixed, not settings.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ClassVar

from .errors import ConfigError
from .kernels import InterpolatorFamily, get_family
from .nodes import NodeSet, perturbed_nodes
from .signals import TestSignal, builtin_signals, get_signal
from .spectral import FrequencyGrid, SpatialGrid, frequency_grid, spatial_grid


def _check_keys(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {section!r}; allowed: {sorted(allowed)}"
        )


def _as_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    # Python compares ints with floats exactly, so this also rejects an integer
    # literal too large for `float`, which would raise OverflowError there.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite")
    return float(value)


def _as_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def _as_bool(name: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean")
    return value


def _as_string(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{name} must be a nonempty string")
    return value


def _one_of(*options: str) -> Callable[[str, Any], str]:
    def parse(name: str, value: Any) -> str:
        if value not in options:
            raise ConfigError(f"{name} must be one of {list(options)}, got {value!r}")
        return value

    return parse


def _list_of(item: Callable[[str, Any], Any]) -> Callable[[str, Any], tuple]:
    def parse(name: str, value: Any) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a nonempty list")
        return tuple(item(f"{name}[{i}]", v) for i, v in enumerate(value))

    return parse


_POSITIVE = (lambda v, c: v > 0, "{name} must be positive")


def _at_least(low: int) -> tuple:
    return (lambda v, c: v >= low, f"{{name}} must be >= {low}")


# The manifest echoes the config through orjson, which writes integers of the
# 64-bit range only; nodes.N has a tighter bound of its own.
_BELOW_2_64 = (lambda v, c: v < 2**64, "{name} must be < 2**64")


_SIGNAL_IDS = tuple(s.signal_id for s in builtin_signals())

# One row per key: (section, key, ExperimentConfig attribute, parser, default,
# *rules), from which parsing, the unknown-key checks and the echo derive. A
# default is a value or a function of the attributes parsed so far. A rule is
# (predicate(value, parsed), message); the message may name the key {name} and
# the value {v}.
_KEYS: tuple[tuple, ...] = (
    ("family", "id", "family_id", _one_of("gaussian", "poisson"), "gaussian"),
    (
        "alpha_sweep", "values", "sweep_values", _list_of(_as_number),
        (0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25, 2.5),
        (
            lambda v, c: all(a < b for a, b in zip(v, v[1:])),
            "{name} must be strictly ascending",
        ),
    ),
    (
        "nodes", "N", "nodes_N", _as_int, 32, _at_least(1),
        # Beyond 2**53 the integer nodes are no longer exact floats (and from
        # about 2**1024 the default T_int of N / 2 overflows).
        (lambda v, c: v <= 2**53, "{name} must be <= 2**53"),
    ),
    (
        "nodes", "d", "nodes_d", _as_number, 0.0,
        (
            lambda v, c: 0 <= v < 0.25,
            "{name}={v} violates the Kadec 1/4 bound (need 0 <= d < 0.25)",
        ),
    ),
    ("nodes", "seed", "nodes_seed", _as_int, 0, _at_least(0), _BELOW_2_64),
    ("nodes", "symmetric", "nodes_symmetric", _as_bool, True),
    ("signal", "id", "signal_id", _one_of(*_SIGNAL_IDS), "gauss_pair"),
    (
        "spatial", "T_int", "t_int", _as_number, lambda c: c["nodes_N"] / 2.0, _POSITIVE,
        (lambda v, c: v <= c["nodes_N"] / 2.0, "{name} must not exceed N/2 (interior window)"),
    ),
    (
        "spatial", "density", "density", _as_int, 20, _at_least(1),
        # The grid's 2*T_int*density + 1 floats must fit numpy's array size
        # limit of 2**63 - 1 bytes; from 10**400 the product overflows a float.
        (lambda v, c: v < 2**59 / c["t_int"], "{name} must keep 2*T_int*density < 2**60"),
        _BELOW_2_64,
    ),
    ("output", "directory", "out_directory", _as_string, "."),
)
_SECTIONS = tuple(dict.fromkeys(row[0] for row in _KEYS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully defaulted experiment description."""

    family_id: str
    sweep_values: tuple[float, ...]
    nodes_N: int
    nodes_d: float
    nodes_seed: int
    nodes_symmetric: bool
    signal_id: str
    t_int: float
    density: int
    out_directory: str

    # Every study reconstructs the bands |m| <= M_max on a K-point grid per
    # band and books the rest as `tail_slack_f`: discretization constants,
    # not settings. The library's functions take other values.
    m_max: ClassVar[int] = 4
    points_per_band: ClassVar[int] = 256

    def alpha_values(self) -> list[float]:
        """The sweep, strictly ascending."""
        return list(self.sweep_values)

    def make_family(self) -> InterpolatorFamily:
        return get_family(self.family_id)

    def make_nodes(self) -> NodeSet:
        """The node set; at ``d = 0`` these are exactly the integer nodes."""
        return perturbed_nodes(
            self.nodes_N, self.nodes_d, self.nodes_seed, symmetric=self.nodes_symmetric
        )

    def make_grid(self) -> FrequencyGrid:
        return frequency_grid(self.points_per_band)

    def make_spatial_grid(self) -> SpatialGrid:
        return spatial_grid(self.t_int, self.density)

    def make_signal(self) -> TestSignal:
        return get_signal(self.signal_id)

    def echo(self) -> dict:
        """Normalized configuration dict; parsing it reproduces this config."""
        out: dict[str, dict[str, Any]] = {section: {} for section in _SECTIONS}
        for section, key, attr, *_ in _KEYS:
            value = getattr(self, attr)
            out[section][key] = list(value) if isinstance(value, tuple) else value
        return out


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a configuration dict and materialize all defaults.

    Raises
    ------
    ConfigError
        On unknown keys, type violations, out-of-range values, or alpha
        values outside the family domain.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_keys("config", data, _SECTIONS)
    sections = {section: data.get(section, {}) for section in _SECTIONS}
    for section, given in sections.items():
        if not isinstance(given, dict):
            raise ConfigError(f"{section!r} must be an object")
        _check_keys(section, given, tuple(row[1] for row in _KEYS if row[0] == section))

    parsed: dict[str, Any] = {}
    for section, key, attr, parse, default, *rules in _KEYS:
        given, name = sections[section], f"{section}.{key}"
        if key in given:
            value = parse(name, given[key])
        else:
            value = default(parsed) if callable(default) else default
        for rule, message in rules:
            if not rule(value, parsed):
                raise ConfigError(message.format(name=name, v=value))
        parsed[attr] = value
    config = ExperimentConfig(**parsed)

    lo, hi = config.make_family().alpha_domain
    bad = [a for a in config.alpha_values() if not (lo <= a <= hi)]
    if bad:
        raise ConfigError(
            f"alpha value(s) {bad} outside the {config.family_id} domain [{lo}, {hi}]"
        )
    return config


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"repeated key {key!r} in the config file")
        data[key] = value
    return data


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a configuration JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(data)
