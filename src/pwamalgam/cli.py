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

Exit codes: 0 when the run completes and ``checks.all_pass`` holds (rows
flagged precision-limited still pass), 1 when it completes with a failed
check (every file is still written) or when a reconstruct's solve breaks
down (no file is written), 2 on configuration or contract errors and on an
output file that cannot be written (files written before it stay).

Output conventions: CSV files carry a mandatory header row, UTF-8 bytes, LF
line endings, and shortest round-trip float formatting (``repr``); a
``flags`` cell joins its items by ``"; "``. Two runs of a config at one BLAS
thread count write byte-identical data files (at N = 32 across counts too;
from N = 128 up the Cholesky factor depends on the count). Every JSON file is
written by orjson, through `_json` or, for ``reconstruction.json``, its bytes
row template `_POINT`: keys sorted, no whitespace inside a line, and each
number in the shortest digits that round-trip, those of ``repr``, with
exponents unpadded and unsigned (``1e-8``, ``1e16``) and ``1e-5 <= |v| <
1e-4`` positional (``0.00001``). The JSON data files (``regularity.json``,
``convergence.json``, ``reconstruction.json``) hold a JSON array with one
object per line; a table's NaN or inf is null there. ``manifest.json`` has
one top-level key per line, nested objects inline. No JSON file holds a
``NaN`` or ``Infinity`` token: a NaN or inf in the manifest's checks or in
``reconstruction.json`` is a contract error that leaves no file.
The manifest records the normalized config echo, library version,
timestamp, environment (Python, numpy and scipy versions, the BLAS
libraries of numpy and of scipy, and ``git_revision``, the commit of the
source checkout or null outside one), file listing, run-level checks and the
wall seconds of three stages under ``timings``: ``build`` (config and
inputs), ``compute`` (the certificates, the sweep, or the reconstruction and
its evaluation, plus the run checks) and ``write`` (the data files; the
manifest itself is not timed). It is written exactly when the run
completes, whether its checks pass or not.

`main` may be called any number of times in one process. One parser,
built by the first call, serves every call, and each call runs the
``cmd_<command>`` function that the module holds when it runs; a call leaves
nothing behind for the cyclic collector.

The checks are decided beside their numbers: those of ``verify-family`` by
`kernels.regularity_checks` (``precision_boundary_alpha`` is the ``alpha``
where the Toeplitz condition bound crosses the precision cap, null if it
never does), those of ``sweep`` and ``reconstruct``, and which sweep rows
they trust, by `metrics.sweep_checks` and `metrics.quadrature_checks`; every
command's ``all_pass`` by `metrics.run_verdict`, in `_write_manifest`.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import platform
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO

import numpy as np
import orjson
import scipy

from . import __version__
from .config import ExperimentConfig, load_config
from .errors import AccuracyError, ConditioningError, ConfigError, ContractError
from .kernels import regularity_checks, verify_regularity
from .metrics import pointwise_values, quadrature_checks, run_verdict, sweep_checks
from .metrics import sweep as run_sweep
from .signals import builtin_signals
from .spectral import row_blocks


def _cell(value: object) -> str:
    """``repr`` of a bool or float as Python spells it (a numpy bool or
    float64 too), or a tuple's items joined by ``"; "`` (empty for none); no
    item may hold a comma, quote or line break."""
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, tuple):
        if any(mark in item for item in value for mark in ',"\r\n'):
            raise ContractError(f"CSV cell items hold a comma, quote or line break: {value!r}")
        return "; ".join(value)
    raise ContractError(f"unsupported CSV cell type {type(value).__name__}")


@contextmanager
def _output(path: Path) -> Iterator[BinaryIO]:
    """`path` opened for bytes; a failure to open or write it raises
    `ConfigError`."""
    try:
        with open(path, "wb") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _write(path: Path, data: bytes) -> None:
    """Write `data` to `path` through `_output`."""
    with _output(path) as handle:
        handle.write(data)


def _json(value: object) -> bytes:
    """`value` as orjson writes it: keys sorted, no whitespace, numpy arrays
    and scalars as their Python values, NaN and ±inf as null."""
    return orjson.dumps(value, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)


# A point of ``reconstruction.json`` as `_json` writes it; each ``%b`` takes
# one number as orjson spells it.
_POINT = b'{"J":[%b,%b],"error":%b,"f":[%b,%b],"x":%b}'


def _write_points(
    path: Path, xs: np.ndarray, f_vals: np.ndarray, j_vals: np.ndarray, errors: np.ndarray
) -> None:
    """Write ``reconstruction.json`` a `row_blocks` block at a time, each one
    ``%`` of `_POINT` repeated per x: the text of the whole file never exists
    at once. One `_json` call spells a block's numbers. A NaN or an infinity
    raises `ContractError` before the file is opened."""
    columns = (j_vals.real, j_vals.imag, errors, f_vals.real, f_vals.imag, xs)
    if not all(np.isfinite(column).all() for column in columns):
        raise ContractError("reconstruction.json holds finite numbers only, not NaN or inf")
    with _output(path) as handle:
        separator = b"[\n"
        for rows in row_blocks(len(xs)):
            values = np.stack([column[rows] for column in columns], axis=1)
            numbers = _json(values.ravel())
            handle.write(separator)
            handle.write(b",\n".join([_POINT] * len(values)) % tuple(numbers[1:-1].split(b",")))
            separator = b",\n"
        handle.write(b"[]\n" if separator == b"[\n" else b"\n]\n")


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
    """Write `reports` as ``<stem>.csv`` and its JSON mirror, one row each
    and the same columns in both, and return the two file names."""
    rows = [_columns(report) for report in reports]
    header = list(rows[0])
    lines = [",".join(header)] + [",".join(_cell(row[h]) for h in header) for row in rows]
    _write(outdir / f"{stem}.csv", ("\n".join(lines) + "\n").encode("utf-8"))
    _write(outdir / f"{stem}.json", b"[\n" + b",\n".join(map(_json, rows)) + b"\n]\n")
    return [f"{stem}.csv", f"{stem}.json"]


def _blas_name(show_config: Callable[..., object]) -> str:
    """``"<name> <version>"`` of the BLAS a library's `show_config` names."""
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


# The checkout that holds this package's source: ``<root>/src/pwamalgam``.
_SOURCE_ROOT = Path(__file__).resolve().parents[2]


def _git_revision(root: Path) -> str | None:
    """The commit that ``HEAD`` of the repository at `root` names, read from
    its files, or None where there is no such repository or the ref has no
    commit. In a worktree or submodule checkout ``<root>/.git`` is a file
    whose ``gitdir:`` line, absolute or relative to `root`, names the git
    directory; refs are read from the directory its ``commondir`` file
    names, or from the git directory itself when there is none. A ``ref:``
    is followed into its ref file or ``packed-refs``; a detached ``HEAD``
    holds the sha itself. No ``git`` process runs: it would cost
    milliseconds per call."""
    git = root / ".git"
    try:
        if git.is_file():
            git = root / git.read_text(encoding="utf-8").strip().removeprefix("gitdir: ")
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        common = git
        if (git / "commondir").is_file():
            common = git / (git / "commondir").read_text(encoding="utf-8").strip()
        ref = head.removeprefix("ref: ")
        if (common / ref).is_file():
            return (common / ref).read_text(encoding="utf-8").strip()
        for line in (common / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _environment() -> dict:
    """Interpreter and library versions, the BLAS numpy was built against, the
    one scipy bundles, in which the Cholesky factorizations and solves run, and
    the git revision of the source checkout (null outside one)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(np.show_config),
        "scipy_blas": _blas_name(scipy.show_config),
        "git_revision": _git_revision(_SOURCE_ROOT),
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
    timer: _StageTimer,
) -> int:
    """End a run: lap ``write``, write ``manifest.json`` with the `run_verdict`
    of `checks` as ``all_pass``, and return the exit code, 0 if it holds. A
    NaN or inf in `checks`, the only member computed from numbers (the config
    echo was validated at load time), raises `ContractError` before the file
    is opened."""
    timer.lap("write")
    for key, value in checks.items():
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ContractError(f"manifest.json holds finite numbers only, not {key}={value}")
    all_pass = run_verdict(checks)
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "environment": _environment(),
        "config": config.echo(),
        "files": [*files, "manifest.json"],
        "checks": {**checks, "all_pass": all_pass},
        "timings": timer.seconds,
    }
    lines = [_json({key: manifest[key]})[1:-1] for key in sorted(manifest)]
    _write(outdir / "manifest.json", b"{\n  " + b",\n  ".join(lines) + b"\n}\n")
    return 0 if all_pass else 1


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
    files = _write_table(outdir, "regularity", reports)
    return _write_manifest(outdir, "verify-family", config, files, checks, timer)


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
    files = _write_table(outdir, "convergence", reports)
    return _write_manifest(outdir, "sweep", config, files, checks, timer)


def _parse_eval_points(text: str) -> list[float]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    try:
        points = [float(t) for t in items]
    except ValueError as exc:
        raise ConfigError(f"--eval-points must be comma-separated reals: {exc}") from exc
    # Within 2**53, the bound on nodes.N, every quantity the run forms (x**2,
    # 2*pi*m*x, pi*x/2) is finite; the comparison also fails for NaN.
    if not all(abs(x) <= 2**53 for x in points):
        raise ConfigError(f"--eval-points must be finite and within 2**53 of 0, got {text!r}")
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
    return _write_manifest(outdir, "reconstruct", config, ["reconstruction.json"], checks, timer)


def cmd_list_signals(args: argparse.Namespace) -> int:
    for signal in builtin_signals():
        tags = ",".join(sorted(signal.class_tags)) or "-"
        real = "yes" if signal.is_real else "no"
        closed = "yes" if signal.f is not None else "no"
        print(
            f"{signal.signal_id:<12} classes={tags:<32} real={real:<4} closed_form={closed}"
        )
    return 0


# The parser, built by the first `build_parser` call and shared by every later
# one: a parser is 161 objects in reference cycles (32 KB) that only the cyclic
# collector frees, so one per call would leave them behind on every call.
_PARSER: argparse.ArgumentParser | None = None

_COMMANDS = (
    ("verify-family", "certify interpolator regularity over an alpha sweep"),
    ("sweep", "run a reconstruction error sweep"),
    ("reconstruct", "evaluate the approximant pointwise"),
    ("list-signals", "print the builtin signal catalog"),
)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and returned by every
    later one. It holds no command function: `main` looks up ``cmd_<command>``
    when the call runs."""
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    parser = argparse.ArgumentParser(
        prog="pwamalgam",
        description="Band-decomposition reconstruction experiments with regular interpolators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
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
                help=(
                    "comma-separated x values; defaults to the interior spatial grid."
                    " Write a list that starts with a negative value as"
                    " --eval-points=-0.5,0.5"
                ),
            )
    _PARSER = parser
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConditioningError, AccuracyError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
