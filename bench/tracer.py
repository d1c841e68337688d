"""In-memory span tracer for the layers of the pwamalgam package.

`Tracer` wraps every public module-level function of each layer module and
patches the wrapper into every ``pwamalgam`` module that holds the original,
so the ``from .engine import reconstruct`` bindings are traced too and no
source file changes. Each call records a span ``(id, parent, name, start,
end, iteration)``. A span's self time is its duration minus the time its
child spans cover; a layer's self time is the sum over its functions.

Spans stay in memory until `Tracer.dump`. The tracer keeps one call stack,
so it assumes one thread; the benchmark runs with ``parallel.workers`` = 1.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PACKAGE = "pwamalgam"
LAYERS = ("cli", "config", "signals", "spectral", "kernels", "nodes", "engine", "metrics")

# Per-call counts of work, taken from the size of the returned array.
SIZE_COUNTERS = {"kernels.phi_spatial": "elements", "engine.evaluate_J": "points"}

# Numeric failures, counted per function; those of solve_coefficients are failed solves.
SOLVE_FAILURES = ("ConditioningError", "AccuracyError")


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    size: int = 0
    failures: int = 0


class Tracer:
    """Wraps the layers' public functions while installed (use as a context)."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.iteration = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(obj, f"{layer}.{attr}")
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, name, wrapper)
                            self._patched.append((holder, name, obj))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def _wrap(self, func, name: str):
        stats = self.stats.setdefault(name, FunctionStats())
        count_size = name in SIZE_COUNTERS
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if count_size:
                    stats.size += int(np.size(result))
                return result
            except Exception as exc:
                stats.failures += type(exc).__name__ in SOLVE_FAILURES
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, parent, name, start, end, self.iteration))

        return wrapper

    def metrics(self, names: list[str], iterations: int) -> tuple[dict[str, float], list[str]]:
        """Per-iteration values of the named layer metrics, and the names absent.

        A name is ``<layer>.<metric>`` or ``<layer>.<function>.<metric>``,
        with metric ``self_ms``, ``calls`` or the function's size counter;
        ``engine.failed_solves`` counts `SOLVE_FAILURES`. A function that no
        longer exists reads 0 and is listed as absent, so layer totals stay
        comparable when functions are folded or removed.
        """
        values: dict[str, float] = {}
        for layer in LAYERS:
            members = [s for n, s in self.stats.items() if n.split(".")[0] == layer]
            values[f"{layer}.self_ms"] = 1e3 * sum(s.self_s for s in members) / iterations
            values[f"{layer}.calls"] = sum(s.calls for s in members) / iterations
        for name, s in self.stats.items():
            values[f"{name}.self_ms"] = 1e3 * s.self_s / iterations
            values[f"{name}.calls"] = s.calls / iterations
            if name in SIZE_COUNTERS:
                values[f"{name}.{SIZE_COUNTERS[name]}"] = s.size / iterations
        solve = self.stats.get("engine.solve_coefficients", FunctionStats())
        values["engine.failed_solves"] = solve.failures / iterations
        absent = [n for n in names if n not in values]
        return {n: values.get(n, 0.0) for n in names}, absent

    def dump(self, path: Path, header: dict) -> None:
        """Write the recorded spans, after `header`, as one JSON document."""
        keys = ("id", "parent", "name", "start", "end", "iteration")
        payload = {**header, "spans": [dict(zip(keys, span)) for span in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
