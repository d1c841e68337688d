"""Experiment configuration: a single strict JSON document.

Every section is optional and falls back to documented defaults, but unknown
keys anywhere are hard errors rather than warnings, so a typo in a key name
cannot silently run with the default. Validation messages name the
violated rule (the node perturbation check names the Kadec 1/4 bound).

``alpha_sweep`` takes one of two exclusive forms: a spaced generator
``{start, stop, count, spacing}`` with linear or log spacing, or an explicit
ascending list ``{values: [...]}`` for sweeps that are not uniformly spaced.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import ConfigError
from .kernels import InterpolatorFamily, get_family
from .nodes import NodeSet, perturbed_nodes, uniform_nodes
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
    if not math.isfinite(float(value)):
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


def _spaced(default: Any) -> Callable[[dict], Any]:
    """Default of a spaced-sweep key: none when the sweep lists its values."""
    return lambda c: default if c["sweep_values"] is None else None


_ONE_FORM = (
    lambda v, c: c["sweep_values"] is None,
    "alpha_sweep takes either 'values' or start/stop/count/spacing, not both",
)
_SIGNAL_IDS = tuple(s.signal_id for s in builtin_signals())

# One row per key: (section, key, ExperimentConfig attribute, parser, default,
# *rules), from which parsing, the unknown-key checks and the echo derive. A
# default is a value or a function of the attributes parsed so far; None means
# "absent in this form" (no rules, not echoed). A rule is (predicate(value,
# parsed), message); the message may name the key {name} and the value {v}.
_KEYS: tuple[tuple, ...] = (
    ("family", "id", "family_id", _one_of("gaussian", "poisson"), "gaussian"),
    (
        "family", "alpha_domain", "alpha_domain", _list_of(_as_number), None,
        (lambda v, c: len(v) == 2, "{name} must be [lo, hi]"),
        (lambda v, c: 0 < v[0] < v[1], "{name} must satisfy 0 < lo < hi"),
    ),
    (
        "alpha_sweep", "values", "sweep_values", _list_of(_as_number), None,
        (lambda v, c: list(v) == sorted(v), "{name} must be ascending"),
    ),
    ("alpha_sweep", "start", "sweep_start", _as_number, _spaced(0.75), _ONE_FORM),
    (
        "alpha_sweep", "stop", "sweep_stop", _as_number, _spaced(2.5), _ONE_FORM,
        (lambda v, c: c["sweep_start"] <= v, "alpha_sweep.start must not exceed stop"),
    ),
    ("alpha_sweep", "count", "sweep_count", _as_int, _spaced(8), _ONE_FORM, _at_least(1)),
    (
        "alpha_sweep", "spacing", "sweep_spacing", _one_of("linear", "log"),
        _spaced("linear"), _ONE_FORM,
        (lambda v, c: v == "linear" or c["sweep_start"] > 0, "log spacing requires start > 0"),
    ),
    ("nodes", "N", "nodes_N", _as_int, 32, _at_least(1)),
    (
        "nodes", "d", "nodes_d", _as_number, 0.0,
        (
            lambda v, c: 0 <= v < 0.25,
            "{name}={v} violates the Kadec 1/4 bound (need 0 <= d < 0.25)",
        ),
    ),
    ("nodes", "seed", "nodes_seed", _as_int, 0, _at_least(0)),
    ("nodes", "symmetric", "nodes_symmetric", _as_bool, True),
    ("bands", "M_max", "m_max", _as_int, 4, _at_least(0)),
    (
        "bands", "J_cap", "j_cap", _as_int, lambda c: c["m_max"] + 2,
        (lambda v, c: v > c["m_max"], "{name} must exceed M_max"),
    ),
    (
        "bands", "points_per_band", "points_per_band", _as_int, 256, _at_least(32),
        (lambda v, c: v % 2 == 0, "{name} must be even (two quadrature panels)"),
    ),
    ("signal", "id", "signal_id", _one_of(*_SIGNAL_IDS), "gauss_pair"),
    (
        "spatial", "T_int", "t_int", _as_number, lambda c: c["nodes_N"] / 2.0, _POSITIVE,
        (lambda v, c: v <= c["nodes_N"] / 2.0, "{name} must not exceed N/2 (interior window)"),
    ),
    ("spatial", "density", "density", _as_int, 20, _at_least(1)),
    ("output", "directory", "out_directory", _as_string, "."),
    ("output", "formats", "out_formats", _list_of(_one_of("csv", "json")), ("csv", "json")),
)
_SECTIONS = tuple(dict.fromkeys(row[0] for row in _KEYS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully defaulted experiment description."""

    family_id: str
    alpha_domain: tuple[float, float] | None
    sweep_values: tuple[float, ...] | None
    sweep_start: float | None
    sweep_stop: float | None
    sweep_count: int | None
    sweep_spacing: str | None
    nodes_N: int
    nodes_d: float
    nodes_seed: int
    nodes_symmetric: bool
    m_max: int
    j_cap: int
    points_per_band: int
    signal_id: str
    t_int: float
    density: int
    out_directory: str
    out_formats: tuple[str, ...]

    def alpha_values(self) -> list[float]:
        """The resolved sweep, ascending."""
        if self.sweep_values is not None:
            return list(self.sweep_values)
        space = np.geomspace if self.sweep_spacing == "log" else np.linspace
        vals = space(self.sweep_start, self.sweep_stop, self.sweep_count)
        return [float(v) for v in vals]

    def make_family(self) -> InterpolatorFamily:
        return get_family(self.family_id, self.alpha_domain)

    def make_nodes(self) -> NodeSet:
        if self.nodes_d == 0.0:
            return uniform_nodes(self.nodes_N)
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
            if value is not None:
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
        if value is not None:
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


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a configuration JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(data)
