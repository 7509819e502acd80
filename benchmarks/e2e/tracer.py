"""Outside-in layer tracer for the end-to-end benchmark.

The tracer records spans around the public function of each layer by
wrapping it from the benchmark's own files; nothing in ``src/`` knows it
exists. A function is wrapped by patching every ``repro.*`` module
attribute that *is* it, so bindings made with ``from x import f`` are
wrapped too; a method is wrapped on its class. The per-layer self-check
(:func:`missing_layers`) turns a binding the patch missed into a loud
failure instead of a silent 0.

Spans carry a name, start, end, parent and op id, are kept in memory,
and are written at exit as Chrome-trace ``"X"`` events (the format
``repro.sim.trace`` writes). Each thread keeps its own span stack, so a
span's self time is its duration minus the time its child spans cover.

Run as a script, it launches the repro CLI with the tracer installed and
writes the spans when the CLI returns (used for the traced
``repro serve`` child)::

    python benchmarks/e2e/tracer.py SPANS.json serve --port 0
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: (layer name, module, attribute path). Several targets may share one
#: layer name; their calls and self times add up.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("perf.planner.plan_many", "repro.perf.planner", "plan_many"),
    ("schedules.registry.build_schedule", "repro.schedules.registry", "build_schedule"),
    ("schedules.passes.run", "repro.schedules.passes.base", "PassPipeline.run"),
    ("schedules.lowering.lower_schedule", "repro.schedules.lowering", "lower_schedule"),
    (
        "schedules.dependencies.build_dependency_graph",
        "repro.schedules.dependencies",
        "build_dependency_graph",
    ),
    ("schedules.cache.artifacts", "repro.schedules.cache", "ScheduleCache.artifacts"),
    ("schedules.diskcache.load", "repro.schedules.diskcache", "DiskScheduleCache.load"),
    ("schedules.diskcache.store", "repro.schedules.diskcache", "DiskScheduleCache.store"),
    ("sim.kernel.kernel_of", "repro.sim.kernel", "kernel_of"),
    ("sim.kernel.simulate_batch_many", "repro.sim.kernel", "simulate_batch_many"),
    ("sim.kernel.simulate_fast", "repro.sim.kernel", "simulate_fast"),
    ("sim.memory.analyze_memory", "repro.sim.memory", "analyze_memory"),
    ("perf.calibration", "repro.perf.calibration", "calibrate_cost_model"),
    ("perf.calibration", "repro.perf.calibration", "calibrate_memory_model"),
    ("bench.harness.run_configuration", "repro.bench.harness", "run_configuration"),
    ("serve.service.plan", "repro.serve.service", "PlannerService.plan"),
    (
        "runtime.executor.run_iteration",
        "repro.runtime.executor",
        "PipelineExecutor.run_iteration",
    ),
    ("runtime.stage_module.forward", "repro.runtime.stage_module", "StageModule.forward"),
    (
        "runtime.stage_module.backward",
        "repro.runtime.stage_module",
        "StageModule.backward",
    ),
    ("runtime.optimizers.step", "repro.runtime.optimizers", "Optimizer.step"),
    ("runtime.backend.send", "repro.runtime.backend", "InProcessBackend.send"),
    (
        "runtime.backend.allreduce_contribute",
        "repro.runtime.backend",
        "InProcessBackend.allreduce_contribute",
    ),
)

#: Layers whose wrapper opens a new op: the server-side root of a request.
ROOT_LAYERS = frozenset({"serve.service.plan"})

#: Prefix of the spans that each cover one whole op (the op-root spans).
OP_PREFIX = "op."


@dataclass
class Span:
    """One finished span (times from ``time.perf_counter``, seconds)."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    tid: int
    self_s: float
    #: Layer-specific datum set by the layer's hook (rows, bytes, ...).
    value: float | str | None = None


class _Open:
    __slots__ = ("sid", "name", "start", "parent", "op", "child_s")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0


class Tracer:
    """In-memory span recorder plus the layer patches."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = True
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op: int | None = None) -> _Open:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent.op if parent is not None else None
        span = _Open(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.sid if parent is not None else None,
            op,
        )
        stack.append(span)
        return span

    def _close(self, span: _Open) -> Span:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - span.start
        if stack:
            stack[-1].child_s += dur
        done = Span(
            span.sid,
            span.name,
            span.start,
            end,
            span.parent,
            span.op,
            threading.get_ident(),
            dur - span.child_s,
        )
        self.spans.append(done)
        return done

    @contextmanager
    def span(self, name: str, *, new_op: bool = False):
        """Record a span around the block; ``new_op`` starts an op id."""
        if not self.active:
            yield
            return
        span = self._open(name, next(self._ops) if new_op else None)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def paused(self):
        """Run the block untraced (correctness checks between ops)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # ----------------------------------------------------------- patching
    def _wrapper(self, layer: str, fn: Callable, after: Callable | None):
        tracer = self
        root = layer in ROOT_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(layer, next(tracer._ops) if root else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                done = tracer._close(span)
            if after is not None:
                done.value = after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; imports the target modules first.

        All modules are imported before any patching, so the scan for
        ``from x import f`` bindings sees every module that binds a target.
        """
        modules = {name: importlib.import_module(name) for _, name, _ in TARGETS}
        for layer, module_name, path in TARGETS:
            module = modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            hook = _AFTER.get(layer)
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrapper(layer, original, hook))
                continue
            original = getattr(module, attr)
            wrapped = self._wrapper(layer, original, hook)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        """Spans as JSON-ready data (crosses processes)."""
        return [vars(s) for s in self.spans]


# ------------------------------------------------------------------ hooks
# A hook maps (args, kwargs, result) of one call to the span's value.
def _artifact_key(args, kwargs, result) -> str | None:
    cache, scheme, depth, n = args[:4]
    key = cache.key(scheme, depth, n, dict(kwargs))
    return None if key is None else repr(key)


def _load_hit(args, kwargs, result) -> float:
    return float(result is not None)


def _stored_bytes(args, kwargs, result) -> float:
    if not result:
        return 0.0
    disk, key = args[:2]
    try:
        return float(disk.entry_path(key).stat().st_size)
    except OSError:
        return 0.0


def _batch_rows(args, kwargs, result) -> float:
    return float(len(args[0]))


_AFTER = {
    "schedules.cache.artifacts": _artifact_key,
    "schedules.diskcache.load": _load_hit,
    "schedules.diskcache.store": _stored_bytes,
    "sim.kernel.simulate_batch_many": _batch_rows,
}


# ------------------------------------------------------------- analysis
def layer_names() -> list[str]:
    """Every traced layer, in target order."""
    return list(dict.fromkeys(layer for layer, _, _ in TARGETS))


def layer_table(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``total_s`` and ``self_s`` over ``spans``."""
    table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in layer_names()}
    for span in spans:
        row = table.get(span["name"])
        if row is None:
            continue
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += span["self_s"]
    return table


def covered_s(spans: list[dict], window: tuple[float, float]) -> float:
    """Seconds of ``window`` covered by the union of op-root spans."""
    start, end = window
    intervals = sorted(
        (max(s["start"], start), min(s["end"], end))
        for s in spans
        if s["name"].startswith(OP_PREFIX)
    )
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def missing_layers(table: dict[str, dict[str, float]], expected) -> list[str]:
    """Expected layers that recorded no call (a stale binding)."""
    return [name for name in expected if table[name]["calls"] == 0]


def chrome_trace(processes: list[tuple[int, list[dict]]], origin: float) -> dict:
    """Chrome-trace JSON with one ``"X"`` event per span."""
    events = []
    for pid, spans in processes:
        for s in spans:
            events.append(
                {
                    "name": s["name"],
                    "ph": "X",
                    "ts": (s["start"] - origin) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "pid": pid,
                    "tid": s["tid"],
                    "args": {"op": s["op"], "parent": s["parent"], "id": s["sid"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def main(argv: list[str]) -> int:
    """Run ``repro.cli.main(argv[1:])`` traced; write spans to ``argv[0]``."""
    out, cli_args = argv[0], argv[1:]
    from repro import cli

    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
