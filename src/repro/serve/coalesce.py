"""Dynamic request coalescing: the micro-batching front-end of ``/plan``.

A burst of K independent single-request clients used to cost K separate
planner invocations, each paying admission and a one-request
:func:`~repro.perf.planner.plan_many` — while one ``plan_many`` call
over the burst pays admission once and collapses identical requests
outright (distinct ones are planned one after another and share the
process-wide memos, as consecutive calls do).
:class:`RequestCoalescer` closes the gap the way
production inference servers do (dynamic batching): concurrent callers
enqueue and block on a per-call future, a single dispatcher thread
drains up to :data:`DEFAULT_COALESCE_BATCH` requests once the **oldest**
has waited ``coalesce_ms`` (or the batch is full, or the queue is
closing), issues one batched dispatch, and fans the per-request results
back out.

The window bounds added latency: a lone request waits at most
``coalesce_ms`` beyond its own planning time, and a full batch departs
immediately. The queue is bounded — beyond :data:`DEFAULT_MAX_QUEUE`
waiting requests, :meth:`RequestCoalescer.submit` sheds load with
:class:`~repro.common.errors.ServiceOverloadError` exactly like the
admission semaphore, so memory cannot grow without bound under overload.

:meth:`RequestCoalescer.close` is a graceful drain: no new submissions
are accepted, everything already queued is dispatched (drain means
finish, not cancel), every future resolves, and the dispatcher thread
joins. :class:`~repro.serve.service.PlannerService` wires this into
SIGTERM handling ahead of stopping the worker pool.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.common.errors import ConfigurationError, ServiceOverloadError

if TYPE_CHECKING:  # a service without coalescing never loads it
    from concurrent.futures import Future

#: Cap on one coalesced dispatch.
DEFAULT_COALESCE_BATCH = 64

#: Bound on waiting requests before load shedding.
DEFAULT_MAX_QUEUE = 1024

#: Per-request latency samples retained for the p50/p99 gauges.
LATENCY_WINDOW = 4096


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0.0 empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


@dataclass(frozen=True)
class CoalesceStats:
    """Counters and gauges of one :class:`RequestCoalescer`.

    ``coalesced`` counts requests that shared a dispatch with at least
    one other (``dispatched - batches``) — the headline gauge: a burst
    of K clients lands in far fewer than K dispatches exactly when this
    is positive. ``p50_ms``/``p99_ms`` are end-to-end batch latency per
    request (enqueue to result fan-out) over the last
    :data:`LATENCY_WINDOW` requests.
    """

    enqueued: int
    dispatched: int
    batches: int
    coalesced: int
    queue_depth: int
    p50_ms: float
    p99_ms: float


def _check_window(coalesce_ms: float) -> None:
    """Reject a coalescing window the dispatcher cannot wait on: negative,
    NaN, or longer than ``threading.TIMEOUT_MAX`` (``Condition.wait``
    raises ``OverflowError`` above it)."""
    limit_ms = threading.TIMEOUT_MAX * 1e3
    if not (0 <= coalesce_ms <= limit_ms):
        raise ConfigurationError(
            f"coalesce_ms must be in [0, {limit_ms:g}], got {coalesce_ms}"
        )


class RequestCoalescer:
    """Bounded micro-batching queue in front of a batched dispatch.

    ``dispatch`` receives a list of queued items and must return one
    result per item, in order; an exception fails every future of that
    batch. The dispatcher thread is the only caller of ``dispatch``, so
    a coalescer adds no concurrency of its own — it *removes* redundant
    concurrency by merging callers into one batched call.
    """

    def __init__(self, dispatch: Callable[[list], list], *, coalesce_ms: float):
        _check_window(coalesce_ms)
        self._dispatch = dispatch
        self._window_s = coalesce_ms / 1e3
        self._cond = threading.Condition()
        self._queue: deque[tuple[object, Future, float]] = deque()
        self._closed = False
        self._enqueued = 0
        self._dispatched = 0
        self._batches = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._thread = threading.Thread(
            target=self._run, name="repro-coalescer", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------ submission
    def submit(self, item: object) -> Future:
        """Enqueue one item; the future resolves to its dispatch result.

        Raises
        ------
        ServiceOverloadError
            When the queue is at :data:`DEFAULT_MAX_QUEUE` (retry with
            backoff) or the coalescer is draining for shutdown.
        """
        from concurrent.futures import Future

        future: Future = Future()
        with self._cond:
            if self._closed:
                raise ServiceOverloadError(
                    "service is draining for shutdown; no new requests"
                )
            if len(self._queue) >= DEFAULT_MAX_QUEUE:
                raise ServiceOverloadError(
                    f"coalescing queue full ({DEFAULT_MAX_QUEUE} waiting "
                    f"requests); retry with backoff"
                )
            self._queue.append((item, future, time.monotonic()))
            self._enqueued += 1
            self._cond.notify()
        return future

    # ------------------------------------------------------------ dispatcher
    def _run(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._queue:
                        full = len(self._queue) >= DEFAULT_COALESCE_BATCH
                        if self._closed or full:
                            break
                        remaining = (
                            self._queue[0][2] + self._window_s - time.monotonic()
                        )
                        if remaining <= 0:
                            break
                        self._cond.wait(remaining)
                    else:
                        if self._closed:
                            return
                        self._cond.wait()
                batch = [
                    self._queue.popleft()
                    for _ in range(min(DEFAULT_COALESCE_BATCH, len(self._queue)))
                ]
            self._dispatch_batch(batch)

    def _dispatch_batch(self, batch: list[tuple[object, Future, float]]) -> None:
        items = [item for item, _, _ in batch]
        try:
            results = self._dispatch(items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"coalesced dispatch returned {len(results)} results "
                    f"for {len(items)} requests"
                )
        except BaseException as err:  # noqa: BLE001 - fanned out to callers
            done = time.monotonic()
            with self._cond:
                self._batches += 1
                self._dispatched += len(batch)
                for _, _, enqueued_at in batch:
                    self._latencies.append(done - enqueued_at)
            for _, future, _ in batch:
                future.set_exception(err)
            return
        done = time.monotonic()
        with self._cond:
            self._batches += 1
            self._dispatched += len(batch)
            for _, _, enqueued_at in batch:
                self._latencies.append(done - enqueued_at)
        for (_, future, _), result in zip(batch, results):
            future.set_result(result)

    # ------------------------------------------------------------- lifecycle
    def close(self, timeout: float | None = None) -> None:
        """Drain and stop: queued requests dispatch, futures resolve,
        the dispatcher thread joins. Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    # ----------------------------------------------------------------- stats
    def stats(self) -> CoalesceStats:
        with self._cond:
            latencies = sorted(self._latencies)
            return CoalesceStats(
                enqueued=self._enqueued,
                dispatched=self._dispatched,
                batches=self._batches,
                coalesced=self._dispatched - self._batches,
                queue_depth=len(self._queue),
                p50_ms=percentile(latencies, 0.50) * 1e3,
                p99_ms=percentile(latencies, 0.99) * 1e3,
            )
