"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` starts this module as a child process per workload (and per
set-up repeat), so every measured process starts cold: interpreter,
imports and private caches. The child reads nothing but the inputs
:mod:`streams` makes, drives the repo's public entry points from
outside, and writes one JSON result file. The timed window holds
nothing but ops; every output is checked after it. Workloads:

``plan_cold``
    The plan stream, one ``repro plan`` per op: each request goes
    through ``repro.perf.planner.plan_many([req], max_workers=1)``, the
    exact call ``repro plan`` makes. The process starts with an empty
    memory tier and an empty private disk tier, and the requests share
    both, as consecutive ``repro plan`` calls do. Fixed work: the stream
    is planned once, whatever ``--seconds`` says.
``plan_warm``
    The same stream, planned once, in a fresh process whose memory tier
    is empty and whose private disk tier holds what ``plan_cold`` stores
    (a separate population process plans the stream first).
``serve_hot``
    ``python -m repro serve`` with default flags as a child process, two
    closed-loop client threads posting the warmed-up hot set to ``/plan``
    in seeded orders over keep-alive connections for ``--seconds``.
``train``
    ``PipelineTrainer`` steps for ``--seconds``, chimera and dapple
    alternating on the same seeded token batches; afterwards one
    ``SequentialTrainer`` replays the batches as the reference for both.

Times are reported in reference-host seconds (see :mod:`hostspeed`).
Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
import streams
import tracer as tracing

HERE = Path(__file__).resolve().parent

#: Layers each workload must exercise in a traced run (the self-check).
EXPECTED_LAYERS: dict[str, tuple[str, ...]] = {
    "plan_cold": (
        "perf.planner.plan_many",
        "schedules.registry.build_schedule",
        "schedules.passes.run",
        "schedules.lowering.lower_schedule",
        "schedules.dependencies.build_dependency_graph",
        "schedules.cache.artifacts",
        "schedules.diskcache.load",
        "schedules.diskcache.store",
        "sim.kernel.kernel_of",
        "sim.kernel.simulate_batch_many",
        "sim.kernel.simulate_fast",
        "sim.memory.analyze_memory",
        "perf.calibration",
        "bench.harness.run_configuration",
    ),
    "plan_warm": (
        "perf.planner.plan_many",
        "schedules.cache.artifacts",
        "schedules.diskcache.load",
        "sim.kernel.kernel_of",
        "sim.kernel.simulate_batch_many",
        "sim.kernel.simulate_fast",
        "sim.memory.analyze_memory",
        "perf.calibration",
        "bench.harness.run_configuration",
    ),
    "serve_hot": (
        "serve.service.plan",
        "perf.planner.plan_many",
        "schedules.cache.artifacts",
        "sim.kernel.kernel_of",
        "sim.kernel.simulate_batch_many",
        "sim.memory.analyze_memory",
        "perf.calibration",
    ),
    "train": (
        "runtime.executor.run_iteration",
        "runtime.stage_module.forward",
        "runtime.stage_module.backward",
        "runtime.optimizers.step",
        "runtime.backend.send",
        "runtime.backend.allreduce_contribute",
    ),
}

#: Ops of a traced run when ``--ops`` is not given. Traced runs are
#: fixed-length so that every ``.calls`` count repeats exactly.
TRACE_TRAIN_STEPS_PER_S = 6
TRACE_SERVE_BLOCKS_PER_S = 1

#: ``train`` digests the losses of this many leading steps: a run's step
#: count depends on the host, the first steps do not.
TRAIN_DIGEST_STEPS = 20

LOSS_ATOL = 1e-12
WEIGHT_ATOL = 1e-9
ENTRY_TOL = 1e-9
MAX_MESSAGES = 10


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks (numpy's default)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` in MB (Linux reports KiB) of ``RUSAGE_SELF``/``CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def canonical_outcome(outcome) -> str:
    """Entry labels and ``%.9e`` floats, or the exact error message."""
    if outcome.error is not None:
        return f"error: {outcome.error}"
    rows = []
    for e in outcome.entries:
        floats = (
            e.iteration_time,
            e.throughput,
            e.bubble_ratio,
            e.peak_memory_bytes,
            e.host_peak_memory_bytes,
        )
        rows.append(
            f"{e.label()} {','.join(e.pipeline)} N={e.num_micro_batches} "
            + " ".join(f"{x:.9e}" for x in floats)
        )
    return "\n".join(rows)


def digest(parts: list[str]) -> str:
    """sha256 over an ordered list of canonical strings."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= ENTRY_TOL * max(1.0, abs(a), abs(b))


class Workload:
    """Shared op accounting; subclasses define set-up and ops."""

    #: Ops per round: a time-bounded window ends on a whole round.
    round_len = 1
    #: The :mod:`hostspeed` kernel whose slowdowns this workload follows.
    speed_kind = "python"

    def __init__(self, args: argparse.Namespace, tracer: tracing.Tracer, sampler):
        self.args = args
        self.tracer = tracer
        self.sampler: hostspeed.Sampler = sampler
        #: Per op: reference-host seconds and raw seconds.
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.failed_ops = 0
        self.messages: list[str] = []
        self.window: tuple[float, float] = (0.0, 0.0)
        self.peak_rss_mb = 0.0
        self.extra: dict[str, float] = {}

    def fail(self, message: str, *, ops: int = 1) -> None:
        """Count failed ops (``ops=0``: a failed run-level check)."""
        self.failed_ops += ops
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def record(self, timing: dict[str, float]) -> None:
        """Keep one op's time from :meth:`hostspeed.Sampler.timing`."""
        self.latencies.append(timing["ref_s"])
        self.raw_latencies.append(timing["raw_s"])

    # The hooks below are overridden per workload.
    def setup(self) -> float:  # pragma: no cover - abstract
        """Prepare the first op; returns raw set-up seconds."""
        raise NotImplementedError

    def own_setup_s(self) -> float:
        """Seconds since spawn, less the sampler's slices in this process."""
        return time.monotonic() - self.args.spawned_at - self.sampler.seconds

    def op(self, index: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def trace_ops(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(self) -> None:
        """Untimed correctness checks after the window."""

    def close(self) -> None:
        """Stop whatever the workload started."""

    def outputs(self) -> list[str]:
        """Canonical outputs hashed into the run's digest."""
        return []

    def op_limit(self) -> int | None:
        """Exact op count (``--ops``, or fixed when traced), else None."""
        if self.args.ops is None and self.args.trace:
            return self.trace_ops()
        return self.args.ops

    def run_window(self) -> None:
        """Run exactly :meth:`op_limit` ops, or whole rounds for ``--seconds``.

        A time-bounded window ends on the round boundary nearest to the
        deadline, so it neither cuts a round short nor overshoots by more
        than half a round.
        """
        limit = self.op_limit()
        start = round_start = time.perf_counter()
        index = 0
        while True:
            self.op(index)
            index += 1
            if limit is not None:
                if index >= limit:
                    break
                continue
            if index % self.round_len == 0:
                now = time.perf_counter()
                last_round, round_start = now - round_start, now
                if now - start + last_round / 2 > self.args.seconds:
                    break
        self.window = (start, time.perf_counter())
        self.peak_rss_mb = peak_rss_mb(resource.RUSAGE_SELF)

    def timed_wall(self) -> tuple[float, float]:
        """(reference, raw) seconds of the ops."""
        return sum(self.latencies), sum(self.raw_latencies)


# --------------------------------------------------------------- planning
class Plan(Workload):
    """``plan_cold`` / ``plan_warm``: one ``repro plan`` per op."""

    def __init__(self, args, tracer, sampler, *, warm: bool):
        super().__init__(args, tracer, sampler)
        self.warm = warm
        #: One outcome per request, checked after the window.
        self.outcomes: list = []
        self.canon: list[str] = []

    def setup(self) -> float:
        from repro.perf import planner  # noqa: F401  (the import users pay)
        from repro.schedules.cache import disk_cache_stats
        from repro.serve.service import parse_plan_request

        payloads = streams.plan_payloads()[: self.args.ops]
        self.requests = [parse_plan_request(p) for p in payloads]
        ready = self.own_setup_s()
        stored = disk_cache_stats().entries
        if self.warm and not self.args.populate:
            path = Path(self.args.work) / "cold_canon.json"
            self.cold_canon = json.loads(path.read_text())
            if not stored:
                raise RuntimeError("plan_warm: the disk tier was not populated")
        elif stored:
            raise RuntimeError(f"cold planning: the disk tier holds {stored} entries")
        return ready

    def op_limit(self) -> int:
        """Every request once: a second pass would plan over a different
        cache state, and how many passes fit would depend on the host."""
        return len(self.requests)

    def plan(self, index: int):
        """Plan one request through the public planner entry point."""
        from repro.perf import planner

        return planner.plan_many([self.requests[index]], max_workers=1)[0]

    def populate(self) -> None:
        """Plan the stream once, as ``plan_cold`` does, storing the disk tier."""
        canon = [canonical_outcome(self.plan(i)) for i in range(len(self.requests))]
        (Path(self.args.work) / "cold_canon.json").write_text(json.dumps(canon))

    def op(self, index: int) -> None:
        with self.sampler.timing() as timing:
            with self.tracer.span("op.plan", new_op=True):
                outcome = self.plan(index)
        self.record(timing)
        self.outcomes.append(outcome)

    def check(self) -> None:
        for index, outcome in enumerate(self.outcomes):
            self.canon.append(canonical_outcome(outcome))
            if self.warm and self.canon[-1] != self.cold_canon[index]:
                problem = "warm outcome differs from cold"
            else:
                problem = self._rerun_top_entry(self.requests[index], outcome)
            if problem:
                self.fail(f"request {index}: {problem}")

    @staticmethod
    def _rerun_top_entry(request, outcome) -> str | None:
        """Re-run the top entry through the harness; None when it agrees.

        A ``ConfigurationError`` outcome is an answer, not a failure.
        """
        from repro.bench import harness

        if outcome.error is not None:
            return None
        top = outcome.entries[0]
        cfg = harness.ExperimentConfig(
            scheme=top.scheme,
            machine=request.machine,
            workload=request.workload,
            width=top.width,
            depth=top.depth,
            micro_batch=top.micro_batch,
            mini_batch=request.mini_batch,
            recompute=top.recompute,
            pipeline=top.pipeline,
            memory_budget_bytes=request.memory_budget_bytes,
            host_memory_budget_bytes=request.host_memory_budget_bytes,
        )
        result = harness.run_configuration(cfg)
        pairs = (
            ("iteration_time", result.iteration_time, top.iteration_time),
            ("throughput", result.throughput, top.throughput),
            ("bubble_ratio", result.bubble_ratio, top.bubble_ratio),
            ("peak_memory_bytes", result.peak_memory_bytes, top.peak_memory_bytes),
        )
        for name, got, want in pairs:
            if not _agree(got, want):
                return f"top entry {top.label()} {name} {got!r} != {want!r}"
        if result.oom or result.num_micro_batches != top.num_micro_batches:
            return f"top entry {top.label()} does not re-run as planned"
        return None

    def outputs(self) -> list[str]:
        return self.canon


# ---------------------------------------------------------------- serving
class Serve(Workload):
    """``serve_hot``: two closed-loop clients against ``repro serve``.

    The clients are threads; the sampler keeps ticking in the main thread
    while it waits for them, so it samples the host during the window.
    """

    clients = 2

    def __init__(self, args, tracer, sampler):
        super().__init__(args, tracer, sampler)
        self.server: subprocess.Popen | None = None
        self.spans_path = Path(args.work) / "server_spans.json"
        self.results: list[tuple[int, int, bytes, float]] = []
        self.lock = threading.Lock()
        self.reference: list[dict] = []

    def setup(self) -> float:
        self.payloads = streams.hot_payloads()
        if self.args.trace:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(self.spans_path)]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--port", "0"]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        spawned = time.monotonic()
        with open(Path(self.args.work) / "server.log", "ab") as log:
            self.server = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, env=env, text=True
            )
        line = self.server.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        host_port = line.rsplit("http://", 1)[1].strip()
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        status, _ = self.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        ready = time.monotonic() - spawned
        if not self.args.setup_only:
            for payload in self.payloads:  # warm-up: fill the memory tier
                status, body = self.request("POST", "/plan", json.dumps(payload))
                if status != 200:
                    raise RuntimeError(f"warm-up /plan answered {status}: {body!r}")
        return ready

    def request(self, method: str, path: str, body: str | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body, {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def trace_ops(self) -> int:
        return self.clients * len(self.payloads) * max(
            1, TRACE_SERVE_BLOCKS_PER_S * self.args.seconds
        )

    def _client(self, client: int, deadline: float, count: int | None) -> None:
        """One closed-loop client until ``deadline`` or ``count`` requests."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        stream = streams.client_stream(self.args.seed, client)
        bodies = [json.dumps(p) for p in self.payloads]
        headers = {"Content-Type": "application/json"}
        sent = 0
        try:
            while (count is None and time.perf_counter() < deadline) or (
                count is not None and sent < count
            ):
                index = next(stream)
                start = time.perf_counter()
                try:
                    with self.tracer.span("op.request", new_op=True):
                        conn.request("POST", "/plan", bodies[index], headers)
                        response = conn.getresponse()
                        status, body = response.status, response.read()
                except (OSError, http.client.HTTPException) as err:
                    conn.close()  # reconnects on the next request
                    status, body = 0, repr(err).encode()
                latency = time.perf_counter() - start
                with self.lock:
                    self.results.append((index, status, body, latency))
                sent += 1
        finally:
            conn.close()

    def run_window(self) -> None:
        limit = self.op_limit()
        counts: list[int | None] = [None] * self.clients
        if limit is not None:
            counts = [
                limit // self.clients + (c < limit % self.clients)
                for c in range(self.clients)
            ]
        start = time.perf_counter()
        deadline = start + self.args.seconds
        threads = [
            threading.Thread(target=self._client, args=(c, deadline, counts[c]))
            for c in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.window = (start, time.perf_counter())
        self.raw_latencies = [r[3] for r in self.results]
        self.scale = self.sampler.scale()
        self.latencies = [x * self.scale for x in self.raw_latencies]

    def timed_wall(self) -> tuple[float, float]:
        wall = self.window[1] - self.window[0]
        return wall * self.scale, wall

    def check(self) -> None:
        from repro.perf import planner
        from repro.serve.service import outcome_to_json, parse_plan_request

        status, body = self.request("GET", "/stats")
        stats = json.loads(body)
        for key in ("requests", "batches", "rejected_overload", "inflight"):
            self.extra[f"serve.stats.{key}"] = float(stats[key])
        if stats["inflight"] != 0:
            self.fail(f"/stats inflight is {stats['inflight']} after the window", ops=0)
        self.stop_server()
        self.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
        # The reference plans in this process, from the disk tier the
        # server filled, and must equal every response exactly.
        self.reference = [
            json.loads(
                json.dumps(
                    outcome_to_json(
                        planner.plan_many([parse_plan_request(p)], max_workers=1)[0]
                    )
                )
            )
            for p in self.payloads
        ]
        transport = []
        for index, status, body, latency in self.results:
            if status != 200:
                self.fail(f"/plan answered {status}: {body[:200]!r}")
                continue
            response = json.loads(body)
            elapsed = response.pop("elapsed_s")
            transport.append(latency - elapsed)
            if response != self.reference[index]:
                self.fail(f"hot payload {index}: response differs from plan_many")
        self.extra["serve.transport_s"] = statistics.median(transport) if transport else 0.0

    def outputs(self) -> list[str]:
        return [json.dumps(ref, sort_keys=True) for ref in self.reference]

    def stop_server(self) -> None:
        """SIGTERM the server (graceful drain) and wait for it."""
        if self.server is None or self.server.poll() is not None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.communicate()

    def close(self) -> None:
        self.stop_server()

    def server_trace(self) -> list[dict] | None:
        """The server's spans inside the window (warm-up excluded)."""
        if not self.args.trace or not self.spans_path.exists():
            return None
        start, end = self.window
        spans = json.loads(self.spans_path.read_text())
        return [s for s in spans if start <= s["start"] <= end]


# --------------------------------------------------------------- training
class Train(Workload):
    """``train``: pipeline steps, then the sequential replay.

    Each round is one chimera and one dapple step on the same batch. Both
    schemes are synchronous, so both must match one ``SequentialTrainer``
    on the same batches; it replays them after the window.
    """

    round_len = len(streams.TRAIN_SCHEMES)
    speed_kind = "numpy"

    def setup(self) -> float:
        from repro.models.transformer import TransformerLMConfig
        from repro.runtime.optimizers import SGD
        from repro.runtime.trainer import PipelineTrainer

        self.config = TransformerLMConfig(**streams.TRAIN_MODEL)
        self.trainers = {
            scheme: PipelineTrainer(
                self.config,
                scheme=scheme,
                depth=streams.TRAIN_DEPTH,
                num_micro_batches=streams.TRAIN_MICRO_BATCHES,
                optimizer_factory=lambda: SGD(streams.TRAIN_LR),
            )
            for scheme in streams.TRAIN_SCHEMES
        }
        ready = self.own_setup_s()
        self.stream = streams.train_batches(self.args.seed)
        self.batches: list = []
        #: (scheme, round, loss) per step, in step order.
        self.losses: list[tuple[str, int, float]] = []
        return ready

    def op_limit(self) -> int | None:
        limit = super().op_limit()
        return None if limit is None else limit + limit % self.round_len

    def trace_ops(self) -> int:
        return self.round_len * max(
            1, TRACE_TRAIN_STEPS_PER_S * self.args.seconds // self.round_len
        )

    def op(self, index: int) -> None:
        scheme = streams.TRAIN_SCHEMES[index % self.round_len]
        if index % self.round_len == 0:
            self.batches.append(next(self.stream))
        with self.sampler.timing() as timing:
            with self.tracer.span("op.step", new_op=True):
                loss = self.trainers[scheme].train_step(self.batches[-1])
        self.record(timing)
        self.losses.append((scheme, len(self.batches) - 1, loss))

    def check(self) -> None:
        import numpy as np
        from repro.models.reference import SequentialTrainer
        from repro.models.transformer import build_transformer_layers
        from repro.runtime.optimizers import SGD

        reference = SequentialTrainer(
            build_transformer_layers(self.config), SGD(streams.TRAIN_LR)
        )
        want, walls = [], []
        for batch in self.batches:
            with self.sampler.timing() as timing:
                want.append(reference.train_step(batch))
            walls.append(timing["ref_s"])
        for scheme, k, loss in self.losses:
            if abs(loss - want[k]) > LOSS_ATOL:
                self.fail(f"{scheme} step {k}: loss {loss!r} != {want[k]!r}")
        for scheme, trainer in self.trainers.items():
            pairs = zip(trainer.full_model_layers(), reference.layers)
            worst = max(
                float(np.abs(a.params[key] - b.params[key]).max())
                for a, b in pairs
                for key in a.params
            )
            if worst > WEIGHT_ATOL:
                self.fail(f"{scheme}: final weights differ by {worst:.3e}", ops=0)
        self.extra["models.reference.train_step.p50_s"] = statistics.median(walls)

    def outputs(self) -> list[str]:
        return [
            f"{scheme} {k} {loss:.17e}"
            for scheme, k, loss in self.losses[:TRAIN_DIGEST_STEPS]
        ]


WORKLOADS = {
    "plan_cold": lambda *a: Plan(*a, warm=False),
    "plan_warm": lambda *a: Plan(*a, warm=True),
    "serve_hot": Serve,
    "train": Train,
}


# ------------------------------------------------------------- trace data
def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced process."""
    table = tracing.layer_table(spans)
    out: dict[str, float] = {}
    for name, row in table.items():
        out[f"{name}.calls"] = float(row["calls"])
        out[f"{name}.self_s"] = row["self_s"]

    def values(layer: str) -> list:
        return [s["value"] for s in spans if s["name"] == layer]

    # A memory-tier miss is an artifacts span with a disk-load child.
    lookups = {s["sid"] for s in spans if s["name"] == "schedules.cache.artifacts"}
    misses = {
        s["parent"]
        for s in spans
        if s["name"] == "schedules.diskcache.load" and s["parent"] in lookups
    }
    out["schedules.cache.artifacts.hit_rate"] = (
        1.0 - len(misses) / len(lookups) if lookups else 0.0
    )
    keys = {v for v in values("schedules.cache.artifacts") if v is not None}
    out["schedules.cache.artifacts.working_set"] = float(len(keys))
    loads = values("schedules.diskcache.load")
    out["schedules.diskcache.load.hit_rate"] = sum(loads) / len(loads) if loads else 0.0
    out["schedules.diskcache.store.bytes"] = float(sum(values("schedules.diskcache.store")))
    out["sim.kernel.simulate_batch_many.rows"] = float(
        sum(values("sim.kernel.simulate_batch_many"))
    )
    return out


def run(args: argparse.Namespace) -> dict:
    """Set up, run the window, check; returns the child's result."""
    sampler = hostspeed.Sampler("python")
    sampler.start()
    tracer = tracing.Tracer()
    tracer.active = bool(args.trace)
    workload = WORKLOADS[args.workload](args, tracer, sampler)
    try:
        raw_setup = workload.setup()
        result: dict = {
            "setup_s": raw_setup * sampler.scale(),
            "raw": {"setup_s": raw_setup},
        }
        if args.setup_only:
            return result
        if args.populate:
            workload.populate()
            return result
        sampler.use(workload.speed_kind)
        if args.trace:
            tracer.install()
        try:
            workload.run_window()
        finally:
            tracer.uninstall()
            tracer.active = False
        workload.check()
    finally:
        sampler.stop()
        workload.close()
    (ref_wall, raw_wall), ops = workload.timed_wall(), len(workload.latencies)
    result["raw"].update(
        ops_per_s=ops / raw_wall,
        p50_s=percentile(workload.raw_latencies, 0.5),
        p90_s=percentile(workload.raw_latencies, 0.9),
    )
    result.update(
        attempted=ops,
        failed=workload.failed_ops,
        messages=workload.messages,
        digest=digest(workload.outputs()),
        window_s=workload.window[1] - workload.window[0],
        latencies=workload.latencies,
        steps_per_s=sampler.scale() * sampler.reference,
        metrics={
            "ops_per_s": ops / ref_wall,
            "p50_s": percentile(workload.latencies, 0.5),
            "p90_s": percentile(workload.latencies, 0.9),
            "ok_frac": (ops - workload.failed_ops) / ops,
            "peak_rss_mb": workload.peak_rss_mb,
        },
        extra=workload.extra,
    )
    if args.trace:
        result["trace"] = trace_report(args, workload, tracer)
        result["trace"]["metrics"]["trace.ops_per_s"] = ops / ref_wall
    return result


def trace_report(args, workload: Workload, tracer: tracing.Tracer) -> dict:
    """Layer metrics, the self-check and the Chrome trace file."""
    own = tracer.dump()
    processes = [(1, own)]
    spans = list(own)
    server = workload.server_trace() if isinstance(workload, Serve) else None
    if server is not None:
        processes.append((2, server))
        spans += server
    metrics = layer_metrics(spans)
    table = tracing.layer_table(spans)
    start, end = workload.window
    metrics["trace.coverage"] = tracing.covered_s(own, workload.window) / (end - start)
    metrics["trace.ops"] = float(len(workload.latencies))
    window = dict(
        sid=0, name="window", start=start, end=end,
        parent=None, op=None, tid=0, self_s=0.0, value=None,
    )
    processes[0] = (1, [window] + own)
    trace = tracing.chrome_trace(processes, start)
    Path(args.chrome_trace).write_text(json.dumps(trace))
    return {
        "metrics": metrics,
        "table": table,
        "missing": tracing.missing_layers(table, EXPECTED_LAYERS[args.workload]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--chrome-trace")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--populate", action="store_true")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
