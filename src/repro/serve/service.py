"""Transport-free core of the planner service.

Validates untrusted JSON payloads into
:class:`~repro.perf.planner.PlanRequest` objects (every rejection is a
distinguished :class:`~repro.common.errors.ConfigurationError` naming the
offending field and the accepted values), admits at most a bounded number
of in-flight plan computations (shedding load with
:class:`~repro.common.errors.ServiceOverloadError` beyond that), and
returns JSON-ready response dictionaries with per-request wall-clock
timing. The HTTP layer (:mod:`repro.serve.http`) is a thin adapter over
this class; tests drive it directly without sockets.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.bench.machines import MACHINES
from repro.bench.workloads import WORKLOADS
from repro.common.errors import ConfigurationError, ServiceOverloadError
from repro.perf.planner import (
    DEFAULT_PLAN_WORKERS,
    PlanEntry,
    PlanOutcome,
    PlanRequest,
    plan_many,
)
from repro.perf.workers import PlannerWorkerPool
from repro.schedules.passes.pipeline import normalize_pipeline
from repro.schedules.registry import available_schemes
from repro.serve.coalesce import (
    LATENCY_WINDOW,
    RequestCoalescer,
    _check_window,
    percentile,
)

#: Default bound on concurrently admitted plan computations.
DEFAULT_MAX_INFLIGHT = 8

#: Upper bound on the number of requests in one ``plan_many`` payload —
#: a single batch is one admission slot, so this caps per-call work.
MAX_BATCH = 4096

_REQUEST_FIELDS = {
    "machine",
    "workload",
    "num_workers",
    "mini_batch",
    "memory_budget_bytes",
    "schemes",
    "min_depth",
    "max_micro_batch",
    "recompute",
    "top_k",
    "pipeline",
    "offload",
    "host_memory_budget_bytes",
}


def _require_int(payload: dict, key: str) -> object:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"field '{key}' must be an integer, got {value!r}"
        )
    return value


def parse_plan_request(payload: object) -> PlanRequest:
    """Validate one JSON request object into a :class:`PlanRequest`.

    Raises
    ------
    ConfigurationError
        Naming the missing/unknown field, the bad type, or the unknown
        machine/workload together with the accepted names — the message
        is the HTTP 400 body, so it has to be actionable on its own.
    """
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - _REQUEST_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown request field(s) {unknown}; accepted fields are "
            f"{sorted(_REQUEST_FIELDS)}"
        )
    for required in ("machine", "workload", "num_workers", "mini_batch"):
        if required not in payload:
            raise ConfigurationError(f"missing required field '{required}'")

    machine_name = payload["machine"]
    machine = MACHINES.get(machine_name)
    if machine is None:
        raise ConfigurationError(
            f"unknown machine {machine_name!r}; available machines: "
            f"{sorted(MACHINES)}"
        )
    workload_name = payload["workload"]
    workload = WORKLOADS.get(workload_name)
    if workload is None:
        raise ConfigurationError(
            f"unknown workload {workload_name!r}; available workloads: "
            f"{sorted(WORKLOADS)}"
        )

    num_workers = _require_int(payload, "num_workers")
    mini_batch = _require_int(payload, "mini_batch")

    budgets = {}
    for key in ("memory_budget_bytes", "host_memory_budget_bytes"):
        budgets[key] = payload.get(key)
        if budgets[key] is not None and (
            not isinstance(budgets[key], (int, float))
            or isinstance(budgets[key], bool)
        ):
            raise ConfigurationError(
                f"field '{key}' must be a number or null, got {budgets[key]!r}"
            )
        # json.loads accepts a NaN literal, and NaN fails every comparison.
        if budgets[key] is not None and not (budgets[key] > 0):
            raise ConfigurationError(
                f"field '{key}' must be a positive byte count or null, "
                f"got {budgets[key]!r}"
            )

    schemes = payload.get("schemes")
    if schemes is not None:
        if not isinstance(schemes, (list, tuple)) or not all(
            isinstance(s, str) for s in schemes
        ):
            raise ConfigurationError(
                f"field 'schemes' must be a list of scheme names, got "
                f"{schemes!r}; registered schemes: {list(available_schemes())}"
            )
        schemes = tuple(schemes)

    for axis in ("recompute", "offload"):
        if payload.get(axis) is not None and not isinstance(
            payload[axis], bool
        ):
            raise ConfigurationError(
                f"field '{axis}' must be a boolean or null, "
                f"got {payload[axis]!r}"
            )
    top_k = payload.get("top_k")
    if top_k is not None:
        top_k = _require_int(payload, "top_k")

    pipeline = payload.get("pipeline")
    if pipeline is not None:
        if not isinstance(pipeline, str) and not (
            isinstance(pipeline, (list, tuple))
            and all(isinstance(s, str) for s in pipeline)
        ):
            raise ConfigurationError(
                f"field 'pipeline' must be a comma-separated string or a "
                f"list of pass names, got {pipeline!r}"
            )
        try:
            pipeline = normalize_pipeline(pipeline)
        except ConfigurationError as err:
            # The pass-registry error already enumerates the registered
            # pass names; prefix the offending field for the 400 body.
            raise ConfigurationError(f"field 'pipeline': {err}") from None

    # Absent search bounds take PlanRequest's own defaults.
    bounds = {
        key: _require_int(payload, key)
        for key in ("min_depth", "max_micro_batch")
        if key in payload
    }
    return PlanRequest(
        machine=machine,
        workload=workload,
        num_workers=num_workers,
        mini_batch=mini_batch,
        memory_budget_bytes=budgets["memory_budget_bytes"],
        schemes=schemes,
        **bounds,
        recompute=payload.get("recompute"),
        top_k=top_k,
        pipeline=pipeline,
        offload=payload.get("offload"),
        host_memory_budget_bytes=budgets["host_memory_budget_bytes"],
    )


def entry_to_json(entry: PlanEntry) -> dict:
    """One ranked configuration as a JSON-ready dictionary."""
    return {
        "label": entry.label(),
        "scheme": entry.scheme,
        "width": entry.width,
        "depth": entry.depth,
        "micro_batch": entry.micro_batch,
        "num_micro_batches": entry.num_micro_batches,
        "recompute": entry.recompute,
        "pipeline": list(entry.pipeline),
        "iteration_time": entry.iteration_time,
        "throughput": entry.throughput,
        "bubble_ratio": entry.bubble_ratio,
        "peak_memory_bytes": entry.peak_memory_bytes,
        "host_peak_memory_bytes": entry.host_peak_memory_bytes,
    }


def outcome_to_json(outcome: PlanOutcome) -> dict:
    """One per-request outcome: a ranking or a structured error."""
    if outcome.error is not None:
        return {"ok": False, "error": str(outcome.error)}
    return {
        "ok": True,
        "entries": [entry_to_json(e) for e in outcome.entries],
    }


@dataclass(frozen=True)
class ServiceStats:
    """Cumulative counters (and one gauge) of one :class:`PlannerService`.

    ``inflight`` is the number of admission slots held at the instant of
    the snapshot; it must return to zero when no request is executing —
    the regression signal for admission-slot leaks on error paths.

    ``busy_seconds`` sums the wall-clock of every planning batch — and
    batches overlap (``max_inflight`` admission slots, plus coalesced
    dispatches running beside direct ``/plan_many`` calls), so it can
    exceed real elapsed time. It measures *demand*, not duty cycle.
    ``uptime_s`` is the monotonic age of the service at the snapshot;
    ``busy_seconds / uptime_s`` is the average number of concurrently
    executing batches (a utilization > 1.0 means real overlap, not a
    bug). ``batch_p50_ms``/``batch_p99_ms`` are per-batch wall-clock
    percentiles over the last :data:`~repro.serve.coalesce.LATENCY_WINDOW`
    batches.
    """

    requests: int
    batches: int
    rejected_overload: int
    rejected_invalid: int
    plan_errors: int
    busy_seconds: float
    inflight: int
    uptime_s: float
    batch_p50_ms: float
    batch_p99_ms: float


class PlannerService:
    """Bounded-concurrency planning core shared by every transport.

    ``max_inflight`` admission slots are taken per *call* (a batch counts
    once — its internal parallelism is :func:`plan_many`'s worker pool).
    When every slot is busy the service sheds load immediately instead of
    queueing unboundedly: the caller gets
    :class:`~repro.common.errors.ServiceOverloadError` (HTTP 503) and is
    expected to retry with backoff.

    Two optional tiers lift the single-process ceiling:

    * ``workers > 0`` starts a
      :class:`~repro.perf.workers.PlannerWorkerPool` of that many
      long-lived planner processes and routes every batch through
      ``plan_many(pool=...)`` — CPU-bound planning escapes the GIL while
      handler threads stay cheap.
    * ``coalesce_ms > 0`` routes single ``/plan`` calls through a
      :class:`~repro.serve.coalesce.RequestCoalescer`: a burst of K
      concurrent clients merges into far fewer than K batched
      ``plan_many`` dispatches. Coalesced dispatches are issued by one
      dispatcher thread, which bounds their concurrency by construction,
      so they bypass the admission semaphore (the bounded queue sheds
      load instead); explicit ``/plan_many`` batches still take a slot.

    :meth:`close` drains gracefully: the coalescer finishes everything
    queued (resolving every caller's future), then the worker pool stops.
    """

    def __init__(
        self,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        workers: int = 0,
        coalesce_ms: float = 0.0,
    ):
        if max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        _check_window(coalesce_ms)
        self.max_inflight = max_inflight
        self._slots = threading.Semaphore(max_inflight)
        self._lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._rejected_overload = 0
        self._rejected_invalid = 0
        self._plan_errors = 0
        self._busy_seconds = 0.0
        self._inflight = 0
        self._batch_walls: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._started = time.monotonic()
        self._closed = False
        self._pool = (
            PlannerWorkerPool(workers, name="serve") if workers > 0 else None
        )
        self._coalescer = (
            RequestCoalescer(self._dispatch_coalesced, coalesce_ms=coalesce_ms)
            if coalesce_ms > 0
            else None
        )

    # ----------------------------------------------------------- endpoints
    def plan(self, payload: object) -> dict:
        """Plan one request; the response embeds per-request timing.

        With coalescing enabled the call enqueues and blocks on its
        future — concurrent callers share one batched ``plan_many``
        dispatch and ``elapsed_s`` reports that shared batch wall.
        """
        if self._coalescer is None:
            response = self.plan_batch([payload])
            (result,) = response["results"]
            result["elapsed_s"] = response["elapsed_s"]
            return result
        try:
            request = parse_plan_request(payload)
        except ConfigurationError:
            with self._lock:
                self._rejected_invalid += 1
            raise
        try:
            future = self._coalescer.submit(request)
        except ServiceOverloadError:
            with self._lock:
                self._rejected_overload += 1
            raise
        return future.result()

    def _dispatch_coalesced(self, requests: list) -> list:
        """Plan one drained coalescer batch; called by its dispatcher
        thread only, so concurrency is bounded without taking a slot."""
        outcomes, elapsed = self._run_batch(requests)
        results = []
        for outcome in outcomes:
            result = outcome_to_json(outcome)
            result["elapsed_s"] = elapsed
            results.append(result)
        return results

    def plan_batch(self, payloads: object) -> dict:
        """Plan a batch of requests as one :func:`plan_many` call."""
        if not isinstance(payloads, (list, tuple)):
            with self._lock:
                self._rejected_invalid += 1
            raise ConfigurationError(
                f"batch body must be a JSON array of request objects, got "
                f"{type(payloads).__name__}"
            )
        if len(payloads) > MAX_BATCH:
            with self._lock:
                self._rejected_invalid += 1
            raise ConfigurationError(
                f"batch of {len(payloads)} exceeds max_batch="
                f"{MAX_BATCH}; split the batch"
            )
        try:
            requests = [parse_plan_request(p) for p in payloads]
        except ConfigurationError:
            with self._lock:
                self._rejected_invalid += 1
            raise
        if self._closed or not self._slots.acquire(blocking=False):
            with self._lock:
                self._rejected_overload += 1
            raise ServiceOverloadError(
                "service is draining for shutdown; no new requests"
                if self._closed
                else f"planner at capacity ({self.max_inflight} in-flight "
                f"requests); retry with backoff"
            )
        # Everything after a successful acquire sits inside one try/finally:
        # the slot (and the in-flight gauge) must be returned no matter
        # where planning — or even the timing bookkeeping — raises. The old
        # shape started the timer *between* acquire and try, a window where
        # an exception leaked the slot permanently.
        try:
            outcomes, elapsed = self._run_batch(requests)
        finally:
            self._slots.release()
        return {
            "results": [outcome_to_json(o) for o in outcomes],
            "elapsed_s": elapsed,
        }

    def _run_batch(self, requests: list) -> tuple[list, float]:
        """Execute one ``plan_many`` batch with full stats bookkeeping.

        Shared by the admission-gated :meth:`plan_batch` path and the
        coalescer dispatch; the in-flight gauge must return to zero on
        every exit, including when planning itself raises.
        """
        try:
            with self._lock:
                self._inflight += 1
            start = time.perf_counter()
            try:
                outcomes = plan_many(
                    requests, max_workers=DEFAULT_PLAN_WORKERS, pool=self._pool
                )
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self._requests += len(requests)
                    self._batches += 1
                    self._busy_seconds += elapsed
                    self._batch_walls.append(elapsed)
        finally:
            with self._lock:
                self._inflight -= 1
        with self._lock:
            self._plan_errors += sum(1 for o in outcomes if not o.ok)
        return outcomes, elapsed

    # ------------------------------------------------------------ lifecycle
    def close(self, timeout: float | None = 60.0) -> None:
        """Graceful drain: the coalescer dispatches everything already
        queued (every blocked caller's future resolves), then the worker
        pool finishes in-flight shards and its processes join. From the
        start of the drain on, new :meth:`plan` and :meth:`plan_batch`
        calls are shed (HTTP 503, counted in ``rejected_overload``).
        Idempotent."""
        self._closed = True
        if self._coalescer is not None:
            self._coalescer.close(timeout)
        if self._pool is not None:
            self._pool.stop(timeout if timeout is not None else 60.0)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- stats
    def stats(self) -> ServiceStats:
        with self._lock:
            walls = sorted(self._batch_walls)
            return ServiceStats(
                requests=self._requests,
                batches=self._batches,
                rejected_overload=self._rejected_overload,
                rejected_invalid=self._rejected_invalid,
                plan_errors=self._plan_errors,
                busy_seconds=self._busy_seconds,
                inflight=self._inflight,
                uptime_s=time.monotonic() - self._started,
                batch_p50_ms=percentile(walls, 0.50) * 1e3,
                batch_p99_ms=percentile(walls, 0.99) * 1e3,
            )

    def stats_json(self) -> dict:
        stats = self.stats()
        from repro.schedules.cache import disk_cache_stats, schedule_cache_stats

        mem = schedule_cache_stats()
        disk = disk_cache_stats()
        payload = {
            "requests": stats.requests,
            "batches": stats.batches,
            "rejected_overload": stats.rejected_overload,
            "rejected_invalid": stats.rejected_invalid,
            "plan_errors": stats.plan_errors,
            "busy_seconds": stats.busy_seconds,
            "inflight": stats.inflight,
            "uptime_s": stats.uptime_s,
            "batch_p50_ms": stats.batch_p50_ms,
            "batch_p99_ms": stats.batch_p99_ms,
            "schedule_cache": {
                "hits": mem.hits,
                "misses": mem.misses,
                "entries": mem.entries,
                "hit_rate": mem.hit_rate,
            },
        }
        if self._coalescer is not None:
            co = self._coalescer.stats()
            payload["coalesce"] = {
                "enqueued": co.enqueued,
                "dispatched": co.dispatched,
                "batches": co.batches,
                "coalesced_requests": co.coalesced,
                "queue_depth": co.queue_depth,
                "p50_ms": co.p50_ms,
                "p99_ms": co.p99_ms,
            }
        if self._pool is not None:
            wp = self._pool.stats()
            payload["workers"] = {
                "configured": wp.workers,
                "alive": wp.alive,
                "pids": list(wp.pids),
                "pending": wp.pending,
                "completed": wp.completed,
                "failed": wp.failed,
            }
        if disk is not None:
            payload["disk_cache"] = {
                "hits": disk.hits,
                "misses": disk.misses,
                "stores": disk.stores,
                "evictions": disk.evictions,
                "entries": disk.entries,
                "total_bytes": disk.total_bytes,
                "hit_rate": disk.hit_rate,
            }
        return payload
