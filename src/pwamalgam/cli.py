"""Configuration-driven experiment runner.

Subcommands
-----------
verify-family
    Regularity certificates over an alpha sweep; writes ``regularity.csv``
    and ``regularity.json``.
sweep
    Reconstruction error sweep; writes ``convergence.csv`` and
    ``convergence.json``.
reconstruct
    Pointwise values of the approximant at chosen points; writes
    ``reconstruction.json`` (a JSON array ordered by x).
list-signals
    Print the builtin signal catalog.

Exit codes: 0 on success (rows flagged precision-limited still count as
success), 1 on numeric failure (a solve broke down or a sweep row failed),
2 on configuration or contract errors and on an output file that cannot be
written (files written before it stay).

Output conventions: CSV files carry a mandatory header row, UTF-8 bytes, LF
line endings, and shortest round-trip float formatting (``repr``), so two
runs with the same config produce byte-identical tables. The JSON data files
(``regularity.json``, ``convergence.json``, ``reconstruction.json``) hold a
JSON array with one object per line, keys sorted. ``manifest.json`` is
indented; it records the normalized config echo, library version,
timestamp, environment (Python, numpy and scipy versions, and the BLAS
libraries of numpy and of scipy), file listing, run-level checks and the
wall seconds of three stages under ``timings``: ``build`` (config and
inputs), ``compute`` (the certificates, the sweep, or the reconstruction and
its evaluation, plus the run checks) and ``write`` (the data files; the
manifest itself is not timed). It is written exactly when the run
completes, whether clean or with flagged rows.

The checks are decided beside their numbers: those of ``verify-family`` by
`kernels.regularity_checks` (``precision_boundary_alpha`` is the ``alpha``
where the Toeplitz condition bound crosses the precision cap, null if it
never does), those of ``sweep`` and ``reconstruct``, and which sweep rows
they trust, by `metrics.sweep_checks` and `metrics.quadrature_checks`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import (
    AccuracyError,
    ConditioningError,
    ConfigError,
    ContractError,
    DomainError,
)
from .kernels import regularity_checks, verify_regularity
from .metrics import pointwise_values, quadrature_checks, sweep_checks
from .metrics import sweep as run_sweep
from .signals import builtin_signals
from .spectral import row_blocks


def _cell(value: object) -> str:
    # bool first: bool is an int subclass and must print True/False.
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    raise ContractError(f"unsupported CSV cell type {type(value).__name__}")


@contextmanager
def _output(path: Path) -> Iterator[TextIO]:
    """`path` opened for UTF-8 text with LF line endings; a failure to open
    or write it raises `ConfigError`."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: Path, text: str) -> None:
    with _output(path) as handle:
        handle.write(text)


def _jsonable(value: object) -> object:
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _write_json(path: Path, payload: object) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# One encoder for every table row: `json.dumps` with `indent` falls back to
# the pure-Python encoder, and with keyword arguments builds a new encoder per
# call.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def _write_rows(path: Path, count: int, block_texts: Callable[[slice], list[str]]) -> None:
    """Write a data table of `count` rows as a JSON array with one object per
    line. `block_texts` gives the encoded rows of one `row_blocks` block, and
    each block is written before the next is asked for: the text of the whole
    table never exists at once."""
    with _output(path) as handle:
        separator = "[\n"
        for rows in row_blocks(count):
            handle.write(separator)
            handle.write(",\n".join(block_texts(rows)))
            separator = ",\n"
        handle.write("[]\n" if separator == "[\n" else "\n]\n")


def _float_text(value: float) -> str:
    """`value` as `json` spells it: ``repr``, or NaN, Infinity or -Infinity."""
    if math.isfinite(value):
        return float.__repr__(value)
    if math.isnan(value):
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _float_texts(column: np.ndarray) -> list[str]:
    """`_float_text` of each value of a float array, in one pass."""
    spell = float.__repr__ if np.isfinite(column).all() else _float_text
    return list(map(spell, column.tolist()))


# A point of ``reconstruction.json``, keys sorted as `_ROW_ENCODER` sorts them.
_POINT = '{{"J": [{}, {}], "error": {}, "f": [{}, {}], "x": {}}}'.format


def _write_points(
    path: Path, xs: np.ndarray, f_vals: np.ndarray, j_vals: np.ndarray, errors: np.ndarray
) -> None:
    """Write ``reconstruction.json``: one `_POINT` per x, spelled from one
    pass of `_float_texts` per column and block, with no row dict."""
    columns = (j_vals.real, j_vals.imag, errors, f_vals.real, f_vals.imag, xs)

    def block_texts(rows: slice) -> list[str]:
        return list(map(_POINT, *(_float_texts(column[rows]) for column in columns)))

    _write_rows(path, len(xs), block_texts)


def _columns(report: object) -> dict[str, object]:
    """A report's table columns, in field order; a dict-valued field gives
    one column per key, named ``<field>_<key!r>``."""
    columns: dict[str, object] = {}
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, dict):
            columns.update((f"{field.name}_{key!r}", v) for key, v in value.items())
        else:
            columns[field.name] = value
    return columns


def _write_table(outdir: Path, stem: str, reports: list) -> list[str]:
    """Write `reports` as ``<stem>.csv`` and its JSON mirror, one row each,
    and return the two file names. ``flags`` is in the JSON only."""
    rows = [_columns(report) for report in reports]
    header = [name for name in rows[0] if name != "flags"]
    lines = [",".join(header)] + [",".join(_cell(row[h]) for h in header) for row in rows]
    _write_text(outdir / f"{stem}.csv", "\n".join(lines) + "\n")
    texts = [
        _ROW_ENCODER.encode({name: _jsonable(v) for name, v in row.items()}) for row in rows
    ]
    _write_rows(outdir / f"{stem}.json", len(texts), texts.__getitem__)
    return [f"{stem}.csv", f"{stem}.json"]


def _blas_name(show_config: Callable[..., object]) -> str:
    """``"<name> <version>"`` of the BLAS a library's `show_config` names."""
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


def _environment() -> dict:
    """Interpreter and library versions, the BLAS numpy was built against, and
    the one scipy bundles, in which the Cholesky factorizations and solves run."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(np.show_config),
        "scipy_blas": _blas_name(scipy.show_config),
    }


class _StageTimer:
    """Wall seconds of consecutive stages, by `time.perf_counter`."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


def _write_manifest(
    outdir: Path,
    command: str,
    config: ExperimentConfig,
    files: list[str],
    checks: dict,
    timings: dict[str, float],
) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": _environment(),
        "config": config.echo(),
        "files": files,
        "checks": checks,
        "timings": timings,
    }
    _write_json(outdir / "manifest.json", manifest)


def _outdir(args: argparse.Namespace, config: ExperimentConfig) -> Path:
    outdir = Path(args.out) if args.out else Path(config.out_directory)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {outdir}: {exc.strerror}") from exc
    return outdir


def cmd_verify_family(args: argparse.Namespace) -> int:
    timer = _StageTimer()
    config = load_config(args.config)
    outdir = _outdir(args, config)
    family = config.make_family()
    alphas = config.alpha_values()
    timer.lap("build")
    reports = verify_regularity(family, alphas)
    checks = regularity_checks(family, reports)
    timer.lap("compute")
    files = [*_write_table(outdir, "regularity", reports), "manifest.json"]
    timer.lap("write")
    _write_manifest(outdir, "verify-family", config, files, checks, timer.seconds)
    return 0 if checks["all_pass"] else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    timer = _StageTimer()
    config = load_config(args.config)
    outdir = _outdir(args, config)
    signal = config.make_signal()
    grid = config.make_grid()
    inputs = (
        signal,
        config.make_family(),
        config.alpha_values(),
        config.make_nodes(),
        grid,
        config.make_spatial_grid(),
    )
    timer.lap("build")
    reports = run_sweep(*inputs, config.m_max)
    checks = {**sweep_checks(reports), **quadrature_checks(signal, grid, config.m_max)}
    timer.lap("compute")
    files = [*_write_table(outdir, "convergence", reports), "manifest.json"]
    timer.lap("write")
    _write_manifest(outdir, "sweep", config, files, checks, timer.seconds)
    return 1 if checks["failed_rows"] else 0


def _parse_eval_points(text: str) -> list[float]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    try:
        points = [float(t) for t in items]
    except ValueError as exc:
        raise ConfigError(f"--eval-points must be comma-separated reals: {exc}") from exc
    if not all(map(math.isfinite, points)):
        raise ConfigError(f"--eval-points must be finite, got {text!r}")
    return points


def cmd_reconstruct(args: argparse.Namespace) -> int:
    timer = _StageTimer()
    config = load_config(args.config)
    alphas = config.alpha_values()
    if len(alphas) != 1:
        raise ConfigError(
            f"reconstruct needs a single alpha; the sweep resolves to {len(alphas)} values"
        )
    if args.eval_points is None:
        xs = config.make_spatial_grid().points
    else:
        xs = np.array(_parse_eval_points(args.eval_points), dtype=float)
    # Stable, as `list.sort` is: equal points such as 0.0 and -0.0 keep their order.
    xs = np.sort(xs, kind="stable")
    outdir = _outdir(args, config)

    signal = config.make_signal()
    family = config.make_family()
    nodes = config.make_nodes()
    grid = config.make_grid()
    timer.lap("build")
    f_vals, j_vals = pointwise_values(signal, family, alphas[0], nodes, grid, config.m_max, xs)
    errors = np.abs(f_vals - j_vals)
    checks = {
        "alpha": alphas[0],
        "points": len(xs),
        "max_pointwise_error": float(errors.max(initial=0.0)),
        **quadrature_checks(signal, grid, config.m_max),
    }
    timer.lap("compute")
    _write_points(outdir / "reconstruction.json", xs, f_vals, j_vals, errors)
    files = ["reconstruction.json", "manifest.json"]
    timer.lap("write")
    _write_manifest(outdir, "reconstruct", config, files, checks, timer.seconds)
    return 0


def cmd_list_signals(args: argparse.Namespace) -> int:
    for signal in builtin_signals():
        tags = ",".join(sorted(signal.class_tags)) or "-"
        real = "yes" if signal.is_real else "no"
        closed = "yes" if signal.f is not None else "no"
        print(
            f"{signal.signal_id:<12} classes={tags:<32} real={real:<4} closed_form={closed}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwamalgam",
        description="Band-decomposition reconstruction experiments with regular interpolators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("verify-family", cmd_verify_family, "certify interpolator regularity over an alpha sweep"),
        ("sweep", cmd_sweep, "run a reconstruction error sweep"),
        ("reconstruct", cmd_reconstruct, "evaluate the approximant pointwise"),
        ("list-signals", cmd_list_signals, "print the builtin signal catalog"),
    ]
    for name, func, help_text in specs:
        cmd = sub.add_parser(name, help=help_text)
        if name != "list-signals":
            cmd.add_argument("--config", required=True, help="path to the JSON config")
            cmd.add_argument(
                "--out", default=None, help="output directory (overrides output.directory)"
            )
        if name == "reconstruct":
            cmd.add_argument(
                "--eval-points",
                default=None,
                help="comma-separated x values; defaults to the interior spatial grid",
            )
        cmd.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, AccuracyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
