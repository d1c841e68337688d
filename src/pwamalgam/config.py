"""Experiment configuration: a single strict JSON document.

Every section is optional and falls back to documented defaults, but unknown
keys anywhere are hard errors rather than warnings, so a typo in a tolerance
name cannot silently run with the default. Validation messages name the
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
from typing import Any

import numpy as np

from .errors import ConfigError
from .kernels import InterpolatorFamily, get_family
from .nodes import NodeSet, perturbed_nodes, uniform_nodes
from .signals import TestSignal, builtin_signals, get_signal
from .spectral import FrequencyGrid, SpatialGrid, frequency_grid, spatial_grid

_VALID_FORMATS = ("csv", "json")


def _check_keys(section: str, data: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown key(s) {unknown} in {section!r}; allowed: {sorted(allowed)}"
        )


def _as_number(section: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number")
    if not math.isfinite(float(value)):
        raise ConfigError(f"{section}.{key} must be finite")
    return float(value)


def _as_int(section: str, key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer")
    return value


def _as_bool(section: str, key: str, value: Any) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be a boolean")
    return value


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
    solver_tol: float
    quadrature_refinement: int
    out_directory: str
    out_formats: tuple[str, ...]
    workers: int  # parsed and echoed only; execution does not depend on it

    def alpha_values(self) -> list[float]:
        """The resolved sweep, ascending."""
        if self.sweep_values is not None:
            return list(self.sweep_values)
        if self.sweep_spacing == "log":
            vals = np.geomspace(self.sweep_start, self.sweep_stop, self.sweep_count)
        else:
            vals = np.linspace(self.sweep_start, self.sweep_stop, self.sweep_count)
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
        sweep: dict[str, Any]
        if self.sweep_values is not None:
            sweep = {"values": list(self.sweep_values)}
        else:
            sweep = {
                "start": self.sweep_start,
                "stop": self.sweep_stop,
                "count": self.sweep_count,
                "spacing": self.sweep_spacing,
            }
        family: dict[str, Any] = {"id": self.family_id}
        if self.alpha_domain is not None:
            family["alpha_domain"] = list(self.alpha_domain)
        return {
            "family": family,
            "alpha_sweep": sweep,
            "nodes": {
                "N": self.nodes_N,
                "d": self.nodes_d,
                "seed": self.nodes_seed,
                "symmetric": self.nodes_symmetric,
            },
            "bands": {
                "M_max": self.m_max,
                "J_cap": self.j_cap,
                "points_per_band": self.points_per_band,
            },
            "signal": {"id": self.signal_id},
            "spatial": {"T_int": self.t_int, "density": self.density},
            "tolerances": {
                "solver": self.solver_tol,
                "quadrature_refinement": self.quadrature_refinement,
            },
            "output": {
                "directory": self.out_directory,
                "formats": list(self.out_formats),
            },
            "parallel": {"workers": self.workers},
        }


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
    _check_keys(
        "config",
        data,
        (
            "family",
            "alpha_sweep",
            "nodes",
            "bands",
            "signal",
            "spatial",
            "tolerances",
            "output",
            "parallel",
        ),
    )

    fam = data.get("family", {})
    if not isinstance(fam, dict):
        raise ConfigError("'family' must be an object")
    _check_keys("family", fam, ("id", "alpha_domain"))
    family_id = fam.get("id", "gaussian")
    if family_id not in ("gaussian", "poisson"):
        raise ConfigError(f"family.id must be 'gaussian' or 'poisson', got {family_id!r}")
    alpha_domain = None
    if "alpha_domain" in fam:
        raw = fam["alpha_domain"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError("family.alpha_domain must be [lo, hi]")
        lo = _as_number("family.alpha_domain", "lo", raw[0])
        hi = _as_number("family.alpha_domain", "hi", raw[1])
        if not (0 < lo < hi):
            raise ConfigError("family.alpha_domain must satisfy 0 < lo < hi")
        alpha_domain = (lo, hi)

    sweep = data.get("alpha_sweep", {})
    if not isinstance(sweep, dict):
        raise ConfigError("'alpha_sweep' must be an object")
    _check_keys("alpha_sweep", sweep, ("start", "stop", "count", "spacing", "values"))
    sweep_values = None
    sweep_start = sweep_stop = None
    sweep_count = None
    sweep_spacing = None
    if "values" in sweep:
        if set(sweep) != {"values"}:
            raise ConfigError(
                "alpha_sweep takes either 'values' or start/stop/count/spacing, not both"
            )
        raw_values = sweep["values"]
        if not isinstance(raw_values, list) or not raw_values:
            raise ConfigError("alpha_sweep.values must be a nonempty list")
        vals = [_as_number("alpha_sweep.values", str(i), v) for i, v in enumerate(raw_values)]
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ConfigError("alpha_sweep.values must be ascending")
        sweep_values = tuple(vals)
    else:
        sweep_start = _as_number("alpha_sweep", "start", sweep.get("start", 0.75))
        sweep_stop = _as_number("alpha_sweep", "stop", sweep.get("stop", 2.5))
        sweep_count = _as_int("alpha_sweep", "count", sweep.get("count", 8))
        sweep_spacing = sweep.get("spacing", "linear")
        if sweep_spacing not in ("linear", "log"):
            raise ConfigError("alpha_sweep.spacing must be 'linear' or 'log'")
        if sweep_count < 1:
            raise ConfigError("alpha_sweep.count must be >= 1")
        if sweep_start > sweep_stop:
            raise ConfigError("alpha_sweep.start must not exceed stop")
        if sweep_spacing == "log" and sweep_start <= 0:
            raise ConfigError("log spacing requires start > 0")

    nodes_sec = data.get("nodes", {})
    if not isinstance(nodes_sec, dict):
        raise ConfigError("'nodes' must be an object")
    _check_keys("nodes", nodes_sec, ("N", "d", "seed", "symmetric"))
    nodes_N = _as_int("nodes", "N", nodes_sec.get("N", 32))
    if nodes_N < 0:
        raise ConfigError("nodes.N must be nonnegative")
    nodes_d = _as_number("nodes", "d", nodes_sec.get("d", 0.0))
    if not (0 <= nodes_d < 0.25):
        raise ConfigError(
            f"nodes.d={nodes_d} violates the Kadec 1/4 bound (need 0 <= d < 0.25)"
        )
    nodes_seed = _as_int("nodes", "seed", nodes_sec.get("seed", 0))
    nodes_symmetric = _as_bool("nodes", "symmetric", nodes_sec.get("symmetric", True))

    bands = data.get("bands", {})
    if not isinstance(bands, dict):
        raise ConfigError("'bands' must be an object")
    _check_keys("bands", bands, ("M_max", "J_cap", "points_per_band"))
    m_max = _as_int("bands", "M_max", bands.get("M_max", 4))
    if m_max < 0:
        raise ConfigError("bands.M_max must be nonnegative")
    j_cap = _as_int("bands", "J_cap", bands.get("J_cap", m_max + 2))
    if j_cap <= m_max:
        raise ConfigError("bands.J_cap must exceed M_max")
    points = _as_int("bands", "points_per_band", bands.get("points_per_band", 256))
    if points < 32:
        raise ConfigError("bands.points_per_band must be >= 32")
    if points % 2 != 0:
        raise ConfigError("bands.points_per_band must be even (two quadrature panels)")

    signal_sec = data.get("signal", {})
    if not isinstance(signal_sec, dict):
        raise ConfigError("'signal' must be an object")
    _check_keys("signal", signal_sec, ("id",))
    signal_id = signal_sec.get("id", "gauss_pair")
    known = [s.signal_id for s in builtin_signals()]
    if signal_id not in known:
        raise ConfigError(f"signal.id must be one of {known}, got {signal_id!r}")

    spatial_sec = data.get("spatial", {})
    if not isinstance(spatial_sec, dict):
        raise ConfigError("'spatial' must be an object")
    _check_keys("spatial", spatial_sec, ("T_int", "density"))
    t_int = _as_number("spatial", "T_int", spatial_sec.get("T_int", nodes_N / 2.0))
    if t_int <= 0:
        raise ConfigError("spatial.T_int must be positive")
    if t_int > nodes_N / 2.0:
        raise ConfigError("spatial.T_int must not exceed N/2 (interior window)")
    density = _as_int("spatial", "density", spatial_sec.get("density", 20))
    if density < 1:
        raise ConfigError("spatial.density must be >= 1")

    tol_sec = data.get("tolerances", {})
    if not isinstance(tol_sec, dict):
        raise ConfigError("'tolerances' must be an object")
    _check_keys("tolerances", tol_sec, ("solver", "quadrature_refinement"))
    solver_tol = _as_number("tolerances", "solver", tol_sec.get("solver", 1e-8))
    if solver_tol <= 0:
        raise ConfigError("tolerances.solver must be positive")
    refinement = _as_int(
        "tolerances", "quadrature_refinement", tol_sec.get("quadrature_refinement", 2)
    )
    if refinement < 1:
        raise ConfigError("tolerances.quadrature_refinement must be >= 1")

    out_sec = data.get("output", {})
    if not isinstance(out_sec, dict):
        raise ConfigError("'output' must be an object")
    _check_keys("output", out_sec, ("directory", "formats"))
    directory = out_sec.get("directory", ".")
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory must be a nonempty string")
    formats = out_sec.get("formats", ["csv", "json"])
    if (
        not isinstance(formats, list)
        or not formats
        or any(f not in _VALID_FORMATS for f in formats)
    ):
        raise ConfigError(f"output.formats must be a nonempty subset of {_VALID_FORMATS}")

    par_sec = data.get("parallel", {})
    if not isinstance(par_sec, dict):
        raise ConfigError("'parallel' must be an object")
    _check_keys("parallel", par_sec, ("workers",))
    workers = _as_int("parallel", "workers", par_sec.get("workers", 1))
    if workers < 1:
        raise ConfigError("parallel.workers must be >= 1")

    config = ExperimentConfig(
        family_id=family_id,
        alpha_domain=alpha_domain,
        sweep_values=sweep_values,
        sweep_start=sweep_start,
        sweep_stop=sweep_stop,
        sweep_count=sweep_count,
        sweep_spacing=sweep_spacing,
        nodes_N=nodes_N,
        nodes_d=nodes_d,
        nodes_seed=nodes_seed,
        nodes_symmetric=nodes_symmetric,
        m_max=m_max,
        j_cap=j_cap,
        points_per_band=points,
        signal_id=signal_id,
        t_int=t_int,
        density=density,
        solver_tol=solver_tol,
        quadrature_refinement=refinement,
        out_directory=directory,
        out_formats=tuple(formats),
        workers=workers,
    )

    lo, hi = config.make_family().alpha_domain
    bad = [a for a in config.alpha_values() if not (lo <= a <= hi)]
    if bad:
        raise ConfigError(
            f"alpha value(s) {bad} outside the {family_id} domain [{lo}, {hi}]"
        )
    return config


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a configuration JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return parse_config(data)
