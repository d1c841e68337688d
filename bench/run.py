"""Benchmark of the pwamalgam command line: convergence sweeps and reconstruction.

Run from the repository root:

    python3 bench/run.py --workload sweep-n256 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5 --trace 1

Each workload calls ``pwamalgam.cli.main`` in this process, one invocation at
a time (a closed loop with one client), with ``parallel.workers`` = 1 and BLAS
on one thread. Every invocation's output is checked against reference values.
With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it adds a traced loop and reports the
per-layer metrics. Lines starting with ``#`` are for people; the last line
of standard output is the JSON result. NOTES.md describes the workloads and
the metrics.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

# Pinned before numpy loads. On two cores OpenBLAS's default of two threads
# made the N=256 sweep 60% slower, spinning while it waited.
BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from oracle import reference_values  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HEADLINE_CONFIG = ROOT / "configs" / "sweep_gauss_pair.json"
REFERENCE = BENCH_DIR / "reference.json"
OUT = ROOT / ".bench_out"

# sweep-n32, the headline experiment, runs on request; BENCHMARK.json leaves
# it out because its wall time is bimodal on a contended machine (NOTES.md).
WORKLOADS = ("sweep-n32", "sweep-n256", "reconstruct-n128")
RECONSTRUCT_ALPHAS = (0.75, 1.5, 2.5)
SWEEP_COLUMNS = ("l2_error", "amalgam_error", "sup_error", "rhs_bound", "bound_ratio")
# Relative tolerance of every output check: far above the ~1e-11 drift that
# reordering the sums of a solve causes, far below any change of method.
RTOL = 1e-6
# Set-up is probed this many times before the timed loop and again after
# it, so that its median spans the run rather than one moment of it.
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_cli():
    """Import ``pwamalgam.cli`` from this checkout's ``src/`` and nowhere else."""
    package = SRC / "pwamalgam"
    if not (package / "__init__.py").is_file() or not HEADLINE_CONFIG.is_file():
        raise BenchError(f"no pwamalgam source and configs under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pwamalgam.cli

    if Path(pwamalgam.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"pwamalgam was imported from {pwamalgam.cli.__file__}")
    return pwamalgam.cli


@dataclass
class Outcome:
    """Operations one invocation attempted and failed, its headline error, bytes out."""

    attempted: int
    failed: int
    headline: float
    bytes_written: int


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _close(value, reference: float) -> bool:
    return value is not None and abs(value - reference) <= RTOL * abs(reference)


def _drain(out: Path) -> int:
    """Remove an invocation's output directory; return the bytes it held."""
    size = sum(p.stat().st_size for p in out.glob("*")) if out.is_dir() else 0
    shutil.rmtree(out, ignore_errors=True)
    return size


class SweepCall:
    """One ``pwamalgam sweep``; each alpha row is one operation.

    A row fails if it is flagged, if a checked column leaves the reference by
    more than `RTOL`, or if its precision flag differs. Without a reference
    only flags and the exit code are checked.
    """

    def __init__(self, workdir: Path, label: str, config: dict, reference: list | None):
        if config.get("parallel", {}).get("workers", 1) != 1:
            raise BenchError("the sweep workloads run with parallel.workers = 1")
        self.config_path = workdir / f"{label}.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out = workdir / label
        self.argv = ["sweep", "--config", str(self.config_path), "--out", str(self.out)]
        self.alphas = config["alpha_sweep"]["values"]
        self.reference = reference
        self.reference_error = reference[-1]["amalgam_error"] if reference else math.nan

    def _row_ok(self, index: int, row: dict) -> bool:
        if row["flags"]:
            return False
        if self.reference is None:
            return True
        ref = self.reference[index]
        return row["precision_limited"] == ref["precision_limited"] and all(
            _close(row[c], ref[c]) for c in SWEEP_COLUMNS
        )

    def check(self, code: int) -> Outcome:
        rows = _read_json(self.out / "convergence.json") or []
        written = _drain(self.out)
        attempted = len(self.alphas)
        if code not in (0, 1) or [r["alpha"] for r in rows] != self.alphas:
            return Outcome(attempted, attempted, math.nan, written)
        failed = sum(not self._row_ok(i, row) for i, row in enumerate(rows))
        if code and not failed:
            failed = attempted
        headline = rows[-1]["amalgam_error"]
        return Outcome(attempted, failed, math.nan if headline is None else headline, written)


class ReconstructCall:
    """One ``pwamalgam reconstruct`` at one alpha; the call is one operation.

    The call fails on a non-zero exit, on other evaluation points than the
    interior grid, or if a ``J`` value leaves the `oracle` reference by more
    than `RTOL` times the largest ``|J|``.
    """

    def __init__(self, workdir: Path, config: dict, cli):
        label = f"reconstruct-a{config['alpha_sweep']['values'][0]}"
        self.config_path = workdir / f"{label}.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out = workdir / label
        self.argv = ["reconstruct", "--config", str(self.config_path), "--out", str(self.out)]
        parsed = cli.load_config(self.config_path)
        self.xs = parsed.make_spatial_grid().points
        f, self.reference_J = reference_values(parsed, self.xs)
        self.reference_error = float(np.max(np.abs(f - self.reference_J)))

    def check(self, code: int) -> Outcome:
        points = _read_json(self.out / "reconstruction.json") or []
        manifest = _read_json(self.out / "manifest.json") or {}
        written = _drain(self.out)
        xs = np.array([p["x"] for p in points])
        if code != 0 or not np.array_equal(xs, self.xs) or "checks" not in manifest:
            return Outcome(1, 1, math.nan, written)
        J = np.array([complex(*p["J"]) for p in points])
        scale = np.max(np.abs(self.reference_J))
        ok = np.max(np.abs(J - self.reference_J)) <= RTOL * scale
        return Outcome(1, int(not ok), manifest["checks"]["max_pointwise_error"], written)


def sweep_config(name: str) -> dict:
    """The committed headline config, with ``nodes.N`` taken from the workload name."""
    config = json.loads(HEADLINE_CONFIG.read_text(encoding="utf-8"))
    config["nodes"]["N"] = int(name.rsplit("-n", 1)[1])
    return config


def reconstruct_config(alpha: float, seed: int) -> dict:
    return {
        "family": {"id": "gaussian"},
        "alpha_sweep": {"values": [alpha]},
        "nodes": {"N": 128, "d": 0.2, "seed": seed, "symmetric": False},
        "signal": {"id": "two_band"},
    }


def build_calls(name: str, seed: int, workdir: Path, cli) -> list:
    if name.startswith("sweep-"):
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["sweeps"][name]
        return [SweepCall(workdir, name, sweep_config(name), reference)]
    return [ReconstructCall(workdir, reconstruct_config(a, seed), cli) for a in RECONSTRUCT_ALPHAS]


@dataclass
class Loop:
    """Wall time of each iteration and the summed outcomes of its invocations."""

    walls: list[float]
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    headline: float = math.nan

    def add(self, outcomes: list[Outcome]) -> None:
        self.attempted += sum(o.attempted for o in outcomes)
        self.failed += sum(o.failed for o in outcomes)
        self.bytes_written += sum(o.bytes_written for o in outcomes)
        headlines = [o.headline for o in outcomes]
        self.headline = max(headlines) if all(map(math.isfinite, headlines)) else math.nan


def run_loop(calls: list, seconds: float, main, tracer: Tracer | None = None) -> Loop:
    """Repeat the workload's invocations until `seconds` have passed (at least once)."""
    loop = Loop(walls=[])
    start = time.perf_counter()
    while not loop.walls or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.iteration = len(loop.walls)
        t0 = time.perf_counter()
        codes = [main(call.argv) for call in calls]
        loop.walls.append(time.perf_counter() - t0)
        loop.add([call.check(code) for call, code in zip(calls, codes)])
    return loop


def memory_pass(calls: list, main) -> tuple[float, Loop]:
    """Peak traced allocation in MiB over one untimed iteration, which also warms up."""
    tracemalloc.start()
    try:
        codes = [main(call.argv) for call in calls]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    loop = Loop(walls=[])
    loop.add([call.check(code) for call, code in zip(calls, codes)])
    return peak / 2**20, loop


def setup_seconds(config_path: Path) -> list[float]:
    """Fresh-process set-up times from `SETUP_REPEATS` runs of setup_probe.py."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), str(config_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_library = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_library,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "revision": revision(),
        "seed": seed,
    }


def tail_percentile(walls: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples above it, and its value."""
    n = len(walls)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, spec: dict
) -> tuple[dict, list[str]]:
    """Run one workload; return the JSON result and the human-readable lines."""
    cli = load_cli()
    workdir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        calls = build_calls(name, seed, workdir, cli)
        env = environment(seed)
        setup = [] if trace else setup_seconds(calls[0].config_path)
        peak_mb, total = memory_pass(calls, cli.main)
        plain = run_loop(calls, seconds, cli.main)
        if not trace:
            setup += setup_seconds(calls[0].config_path)
        loops = [total, plain]
        if trace:
            with Tracer() as tracer:
                traced = run_loop(calls, seconds, cli.main, tracer)
            loops.append(traced)
            header = {"workload": name, "environment": env}
            tracer.dump(OUT / f"spans-{name}-seed{seed}.json", header)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    reference_error = max(call.reference_error for call in calls)
    wall = statistics.median(plain.walls)
    lines = [
        f"environment {json.dumps(env)}",
        f"{name} seed {seed}: output check {'PASS' if failed == 0 else 'FAIL'}, "
        f"{failed} of {attempted} operations failed (failed_ratio {failed / attempted:.4g})",
        f"headline error {plain.headline:.6g} against reference {reference_error:.6g}",
        f"wall_s median of {len(plain.walls)} iterations: {wall:.4f} s "
        f"(min {min(plain.walls):.4f}, max {max(plain.walls):.4f})",
    ]
    tail = tail_percentile(plain.walls)
    if tail:
        lines.append(f"wall_s p{tail[0]:.0f} (10 or more samples above it): {tail[1]:.4f} s")

    if not trace:
        metrics = spec["end_to_end"]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_mem_mb": peak_mb,
            "success_ratio": 1.0 - failed / attempted,
            "accuracy_err": plain.headline / reference_error,
        }
        lines.append(f"setup_s median of {len(setup)} fresh processes: {values['setup_s']:.4f} s")
    else:
        metrics = spec["per_layer"]
        iterations = len(traced.walls)
        traced_wall = statistics.median(traced.walls)
        own = {
            "cli.bytes_written": traced.bytes_written / iterations,
            "tracing_overhead_s": traced_wall - wall,
        }
        names = [m["name"] for m in metrics]
        values, absent = tracer.metrics([n for n in names if n not in own], iterations)
        values.update(own)
        layers, _ = tracer.metrics([f"{layer}.self_ms" for layer in LAYERS], iterations)
        traced_ms = sum(layers.values())
        lines.append(f"traced: {iterations} iterations, median {traced_wall:.4f} s")
        lines += [f"{k:<17} {v:10.2f} ms  share {v / traced_ms:6.1%}" for k, v in layers.items()]
        if absent:
            lines.append(f"absent functions read 0: {', '.join(absent)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]} for m in metrics
        },
    }
    lines += [f"{m['name']} = {_number(values[m['name']])} {m['unit']}" for m in metrics]
    return result, lines


def _number(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.seed < 0 or args.seconds < 0:
            raise BenchError("--seed and --seconds must be nonnegative")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            for line in lines:
                print(f"# {line}")
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
