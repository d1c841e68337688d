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
2 on configuration or contract errors.

Output conventions: CSV files carry a mandatory header row, UTF-8 bytes, LF
line endings, and shortest round-trip float formatting (``repr``), so two
runs with the same config produce byte-identical tables. The JSON data files
(``regularity.json``, ``convergence.json``, ``reconstruction.json``) hold a
JSON array with one object per line, keys sorted. ``manifest.json`` is
indented; it records the normalized config echo, library version,
timestamp, environment (Python, numpy and scipy versions and the BLAS
library), file listing, run-level checks and the wall seconds of three
stages under ``timings``: ``build`` (config and inputs), ``compute`` (the
certificates, the sweep, or the reconstruction and its evaluation, plus the
run checks) and ``write`` (the data files; the manifest itself is not
timed). It is written exactly when the run completes, whether clean or with
flagged rows.

Among the checks, ``verify-family`` records ``precision_boundary_alpha``, the
``alpha`` in the family's domain where the Toeplitz condition bound crosses
the precision cap (null if it never does), and ``sweep`` and ``reconstruct``
record ``condition_source``, where the condition estimates came from
(``"toeplitz_symbol"`` on integer nodes, ``"eigvalsh"`` otherwise), and
``quadrature_drift``, the signal's amalgam-norm change on a frequency grid
refined by the fixed ``quadrature_refinement_factor`` (2).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import ExperimentConfig, load_config
from .engine import PRECISION_CAP, condition_source, evaluate_J, reconstruct
from .errors import (
    AccuracyError,
    ConditioningError,
    ConfigError,
    ContractError,
    DomainError,
)
from .kernels import precision_boundary, regularity_verdict, verify_regularity
from .metrics import sweep as run_sweep
from .metrics import truncated_signal_values
from .signals import TestSignal, builtin_signals, signal_spectrum
from .spectral import FrequencyGrid, amalgam_norm, frequency_grid


def _cell(value: object) -> str:
    # bool first: bool is an int subclass and must print True/False.
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    raise ContractError(f"unsupported CSV cell type {type(value).__name__}")


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _write_csv(path: Path, header: list[str], rows: list[list[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


def _jsonable(value: object) -> object:
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _write_json(path: Path, payload: object) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# One encoder for every row: `json.dumps` with `indent` falls back to the
# pure-Python encoder, and with keyword arguments builds a new encoder per call.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def _write_rows(path: Path, rows: list[dict]) -> None:
    """Write a data table as a JSON array with one object per line."""
    body = ",\n".join(map(_ROW_ENCODER.encode, rows))
    _write_text(path, f"[\n{body}\n]\n" if rows else "[]\n")


def _environment() -> dict:
    """Interpreter and library versions, and the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
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


QUADRATURE_REFINEMENT = 2


def _quadrature_drift(
    config: ExperimentConfig, signal: TestSignal, coarse: FrequencyGrid
) -> float:
    """One-shot self-check: amalgam norm drift from the run's `coarse` grid
    to one refined by `QUADRATURE_REFINEMENT`."""
    fine = frequency_grid(config.points_per_band * QUADRATURE_REFINEMENT)
    a = amalgam_norm(signal_spectrum(signal, coarse, config.m_max), coarse)
    b = amalgam_norm(signal_spectrum(signal, fine, config.m_max), fine)
    return abs(a - b) / (abs(b) or 1.0)


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
    verdict = regularity_verdict(reports)
    checks = {
        **verdict,
        "all_pass": all(verdict.values()),
        "precision_boundary_alpha": precision_boundary(family, PRECISION_CAP),
    }
    timer.lap("compute")

    xi_grid = list(reports[0].h3_profile)
    header = (
        ["alpha", "delta_estimate", "m_alpha", "h2_ratio", "condition_bound", "mj_tail"]
        + [f"h3_ratio_at_{xi!r}" for xi in xi_grid]
        + ["pass_A2", "pass_A3", "pass_H2", "pass_H3"]
    )
    rows: list[list[object]] = [
        [
            report.alpha,
            report.delta_estimate,
            report.m_alpha,
            report.h2_ratio,
            report.condition_bound,
            report.mj_tail,
            *[report.h3_profile[xi] for xi in xi_grid],
            report.pass_a2,
            report.pass_a3,
            report.pass_h2,
            report.pass_h3,
        ]
        for report in reports
    ]
    _write_csv(outdir / "regularity.csv", header, rows)
    payload = [dict(zip(header, map(_jsonable, row))) for row in rows]
    _write_rows(outdir / "regularity.json", payload)
    files = ["regularity.csv", "regularity.json", "manifest.json"]
    timer.lap("write")
    _write_manifest(outdir, "verify-family", config, files, checks, timer.seconds)
    return 0 if checks["all_pass"] else 1


_SWEEP_HEADER = [
    "alpha",
    "l2_error",
    "amalgam_error",
    "sup_error",
    "rhs_bound",
    "bound_ratio",
    "condition_estimate",
    "tail_slack_f",
    "tail_slack_J",
    "precision_limited",
]


def cmd_sweep(args: argparse.Namespace) -> int:
    timer = _StageTimer()
    config = load_config(args.config)
    outdir = _outdir(args, config)
    signal = config.make_signal()
    nodes = config.make_nodes()
    grid = config.make_grid()
    inputs = (
        signal,
        config.make_family(),
        config.alpha_values(),
        nodes,
        grid,
        config.make_spatial_grid(),
    )
    timer.lap("build")
    reports = run_sweep(*inputs, config.m_max, config.j_cap)
    # The monotone checks read only trustworthy rows: failed rows carry no
    # errors, and precision-limited rows carry rounding noise.
    trusted = [r for r in reports if not r.flags and not r.precision_limited]
    decreasing = all(
        all(b < a for a, b in zip(col, col[1:]))
        for col in (
            [r.l2_error for r in trusted],
            [r.amalgam_error for r in trusted],
            [r.sup_error for r in trusted],
        )
    )
    checks = {
        "rows": len(reports),
        "failed_rows": sum(1 for r in reports if r.flags),
        "precision_limited_rows": sum(1 for r in reports if r.precision_limited),
        "excluded_rows": len(reports) - len(trusted),
        "condition_source": condition_source(nodes),
        "embedding_l2_le_amalgam": all(
            r.l2_error <= r.amalgam_error + 1e-10 for r in trusted
        ),
        "errors_strictly_decreasing": decreasing,
        "quadrature_refinement_factor": QUADRATURE_REFINEMENT,
        "quadrature_drift": _quadrature_drift(config, signal, grid),
    }
    timer.lap("compute")
    rows: list[list[object]] = [
        [
            r.alpha,
            r.l2_error,
            r.amalgam_error,
            r.sup_error,
            r.rhs_bound,
            r.bound_ratio,
            r.condition_estimate,
            r.tail_slack_f,
            r.tail_slack_J,
            r.precision_limited,
        ]
        for r in reports
    ]
    _write_csv(outdir / "convergence.csv", _SWEEP_HEADER, rows)
    payload = [
        {**dict(zip(_SWEEP_HEADER, map(_jsonable, row))), "flags": list(r.flags)}
        for row, r in zip(rows, reports)
    ]
    _write_rows(outdir / "convergence.json", payload)
    files = ["convergence.csv", "convergence.json", "manifest.json"]
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
        xs = config.make_spatial_grid().points.tolist()
    else:
        xs = _parse_eval_points(args.eval_points)
    xs.sort()
    outdir = _outdir(args, config)

    signal = config.make_signal()
    family = config.make_family()
    nodes = config.make_nodes()
    grid = config.make_grid()
    timer.lap("build")
    approx = reconstruct(signal, family, alphas[0], nodes, grid, config.m_max)
    xs_arr = np.asarray(xs, dtype=float)
    f_vals = j_vals = np.zeros(0, dtype=complex)
    if xs:
        j_vals = np.atleast_1d(evaluate_J(approx, xs_arr))
        # Reference values: the closed spatial form when the signal has one,
        # otherwise the band-truncated quadrature inversion (the same target
        # the approximant is built against).
        if signal.f is not None:
            f_vals = np.asarray(signal.f(xs_arr), dtype=complex)
        else:
            f_vals = truncated_signal_values(signal, grid, config.m_max, xs_arr)
    errors = np.abs(f_vals - j_vals)
    checks = {
        "alpha": alphas[0],
        "points": len(xs),
        "max_pointwise_error": float(errors.max(initial=0.0)),
        "condition_source": condition_source(nodes),
        "quadrature_refinement_factor": QUADRATURE_REFINEMENT,
        "quadrature_drift": _quadrature_drift(config, signal, grid),
    }
    timer.lap("compute")
    columns = zip(
        xs,
        f_vals.real.tolist(),
        f_vals.imag.tolist(),
        j_vals.real.tolist(),
        j_vals.imag.tolist(),
        errors.tolist(),
    )
    points = [
        {"x": x, "f": [f_re, f_im], "J": [j_re, j_im], "error": error}
        for x, f_re, f_im, j_re, j_im, error in columns
    ]
    _write_rows(outdir / "reconstruction.json", points)
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
