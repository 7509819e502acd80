"""Multiprocess execution tier of the planner: the worker pool.

Without a pool the serving stack runs in ONE Python process: the
``ThreadingHTTPServer`` handler threads and every in-process
:func:`~repro.perf.planner.plan_many` call are serialized by the GIL, so
planner throughput is capped at about one core no matter how many
clients arrive. :class:`PlannerWorkerPool` is the fix production
inference servers use: a small pool of long-lived **worker processes**,
each with its own warm in-process
:class:`~repro.schedules.cache.ScheduleCache`, all sharing the
content-addressed disk tier (whose atomic tmp + ``os.replace`` stores
are multi-process safe — workers inherit ``REPRO_CACHE_DIR`` /
``REPRO_CACHE_DISABLE`` explicitly at start). The planner's own
async-scheme steady-state measurements fan out over the shared default
pool (:func:`get_default_pool`) too.

Design notes
------------
* **Spawn, not fork.** Workers are created with the ``spawn`` start
  method on every platform: the parent runs handler threads, locks, and
  (under ``repro serve``) a listening socket, none of which survive a
  fork safely. Spawned workers import the planner stack fresh and
  signal readiness before taking tasks.
* **Whole-shard tasks.** The unit of work is a list of
  :class:`~repro.perf.planner.PlanRequest` objects executed by the
  worker's own in-process :func:`~repro.perf.planner.plan_many`
  (``max_workers=1`` — a worker never nests a pool), which plans the
  shard's distinct requests one at a time. Per-request outcomes are
  independent of their batchmates (a shard shares only the worker's
  process-wide memos, as consecutive calls do), so sharding preserves
  bit-identical results, including exact ``ConfigurationError``
  messages; the bench harness asserts this parity per entry at 1e-9.
* **Crash containment.** Every task is tagged before execution; when a
  worker dies mid-task (or the whole pool is down with tasks queued),
  the affected futures fail with :class:`WorkerCrashError` instead of
  hanging their clients forever.
* **Graceful drain.** :meth:`PlannerWorkerPool.stop` enqueues one stop
  sentinel per worker *behind* any queued tasks, so a draining pool
  finishes accepted work, then joins every process — ``repro serve``
  hooks this into SIGTERM handling so no orphan processes outlive a
  shutdown.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass

from repro.common.errors import ConfigurationError

#: Environment propagated explicitly to spawned workers, so a pool
#: created after a test (or service) redirected the disk tier still
#: shares the intended cache root.
_ENV_KEYS = ("REPRO_CACHE_DIR", "REPRO_CACHE_DISABLE")

class WorkerCrashError(RuntimeError):
    """A pool worker died before completing the task."""


def _picklable_error(err: BaseException) -> BaseException:
    """``err`` if it survives pickling, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")


def run_steady(cfg) -> object | None:
    """One async-scheme steady-state measurement, in a worker or in process.

    :func:`~repro.bench.harness.run_configuration`, except that a
    structurally invalid corner returns ``None`` (the planner drops the
    candidate); anything else propagates.
    """
    from repro.bench.harness import run_configuration
    from repro.common.errors import ConfigurationError, ScheduleError

    try:
        return run_configuration(cfg)
    except (ConfigurationError, ScheduleError):
        return None


def _worker_main(worker_id: int, tasks, results, env: dict) -> None:
    """Worker process entry point: warm up, then execute tasks until the
    stop sentinel arrives."""
    for key, value in env.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    # Warm import: the full planner stack (schedule builders, kernel,
    # calibration) loads before the worker reports ready, so the first
    # task pays planning cost, not import cost.
    from repro.perf.planner import plan_many

    results.put(("ready", worker_id, os.getpid()))
    while True:
        item = tasks.get()
        if item is None:
            results.put(("exit", worker_id, os.getpid()))
            return
        kind, task_id, payload = item
        results.put(("start", task_id, os.getpid()))
        try:
            if kind == "plan":
                out = plan_many(payload, max_workers=1)
            elif kind == "steady":
                out = run_steady(payload)
            else:
                raise RuntimeError(f"unknown pool task kind {kind!r}")
        except BaseException as err:  # noqa: BLE001 - shipped to the caller
            results.put(("err", task_id, _picklable_error(err)))
        else:
            results.put(("ok", task_id, out))


@dataclass(frozen=True)
class WorkerPoolStats:
    """One snapshot of a pool: configuration, liveness, and load gauges.

    ``pending`` counts submitted-but-unresolved tasks (queued plus
    executing); it must return to zero when the pool is idle.
    """

    workers: int
    alive: int
    pids: tuple[int, ...]
    pending: int
    completed: int
    failed: int


class PlannerWorkerPool:
    """A fixed-size pool of long-lived spawn-started planner processes.

    Tasks are submitted as futures (:meth:`submit_plan` for whole
    request shards, :meth:`submit_steady` for one async-scheme
    steady-state measurement) and resolve on a collector thread as
    workers report results. The pool is safe to share across threads —
    ``repro serve`` submits from many handler threads at once.
    """

    def __init__(self, workers: int, *, name: str = "planner"):
        if workers < 1:
            raise ConfigurationError(
                f"worker pool size must be >= 1, got {workers}"
            )
        self.workers = workers
        ctx = multiprocessing.get_context("spawn")
        self._tasks = ctx.Queue()
        self._results = ctx.Queue()
        self._lock = threading.Lock()
        self._futures: dict[int, Future] = {}
        self._running: dict[int, int] = {}  # task id -> worker pid
        self._next_id = 0
        self._completed = 0
        self._failed = 0
        self._stopped = False
        self._drained = threading.Event()
        env = {key: os.environ.get(key) for key in _ENV_KEYS}
        self._procs = [
            ctx.Process(
                target=_worker_main,
                args=(i, self._tasks, self._results, env),
                name=f"repro-{name}-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for proc in self._procs:
            proc.start()
        self._collector = threading.Thread(
            target=self._collect, name=f"repro-{name}-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------ submission
    def submit_plan(self, requests) -> Future:
        """Plan a whole request shard in one worker.

        Resolves to ``list[PlanOutcome]``, bit-identical to the parent
        running :func:`~repro.perf.planner.plan_many` on the shard.
        """
        return self._submit("plan", list(requests))

    def submit_steady(self, cfg) -> Future:
        """Run one async-scheme steady-state measurement in a worker.

        Resolves to the :class:`~repro.bench.harness.ExperimentResult`,
        or ``None`` for structurally invalid corners — exactly the
        in-process fan-out's contract.
        """
        return self._submit("steady", cfg)

    def _submit(self, kind: str, payload) -> Future:
        with self._lock:
            if self._stopped:
                raise WorkerCrashError("worker pool is stopped")
            task_id = self._next_id
            self._next_id += 1
            fut: Future = Future()
            self._futures[task_id] = fut
        self._tasks.put((kind, task_id, payload))
        return fut

    # ------------------------------------------------------------- collector
    def _collect(self) -> None:
        while True:
            try:
                msg = self._results.get(timeout=0.1)
            except queue.Empty:
                if self._drained.is_set():
                    break
                self._fail_crashed()
                continue
            tag, ident, payload = msg
            if tag == "start":
                with self._lock:
                    if ident in self._futures:
                        self._running[ident] = payload
            elif tag in ("ok", "err"):
                with self._lock:
                    fut = self._futures.pop(ident, None)
                    self._running.pop(ident, None)
                    if fut is not None:
                        if tag == "ok":
                            self._completed += 1
                        else:
                            self._failed += 1
                if fut is not None:
                    if tag == "ok":
                        fut.set_result(payload)
                    else:
                        fut.set_exception(payload)
            # "ready"/"exit" messages carry liveness only; the gauges
            # read process state directly.
        self._fail_pending(WorkerCrashError("worker pool stopped"))

    def _fail_crashed(self) -> None:
        """Fail futures whose worker died, and everything if all did."""
        with self._lock:
            if not self._futures:
                return
            dead = {
                proc.pid
                for proc in self._procs
                if proc.exitcode is not None
            }
            doomed: list[tuple[int, Future, str]] = []
            for task_id, pid in list(self._running.items()):
                if pid in dead:
                    fut = self._futures.pop(task_id, None)
                    self._running.pop(task_id, None)
                    if fut is not None:
                        doomed.append(
                            (task_id, fut, f"worker pid {pid} died mid-task")
                        )
            if len(dead) == len(self._procs):
                for task_id, fut in list(self._futures.items()):
                    del self._futures[task_id]
                    doomed.append(
                        (task_id, fut, "every pool worker has died")
                    )
            self._failed += len(doomed)
        for _, fut, why in doomed:
            fut.set_exception(WorkerCrashError(why))

    def _fail_pending(self, err: BaseException) -> None:
        with self._lock:
            stranded = list(self._futures.values())
            self._futures.clear()
            self._running.clear()
            self._failed += len(stranded)
        for fut in stranded:
            fut.set_exception(err)

    # ------------------------------------------------------------- lifecycle
    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self, timeout: float = 60.0) -> None:
        """Drain queued tasks, stop every worker, join, resolve leftovers.

        The stop sentinels queue *behind* accepted tasks, so everything
        already submitted completes (drain means finish, not cancel);
        only tasks stranded by a crashed or timed-out worker fail, with
        :class:`WorkerCrashError`.
        """
        with self._lock:
            if self._stopped:
                self._collector.join(timeout=timeout)
                return
            self._stopped = True
        for _ in self._procs:
            self._tasks.put(None)
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
                proc.join(timeout=5.0)
        self._drained.set()
        self._collector.join(timeout=timeout)
        # Feeder threads of multiprocessing queues block interpreter exit
        # when items linger; there is nothing left worth flushing.
        self._tasks.cancel_join_thread()
        self._results.cancel_join_thread()

    def __enter__(self) -> "PlannerWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ----------------------------------------------------------------- stats
    def pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc in self._procs if proc.pid is not None)

    def stats(self) -> WorkerPoolStats:
        with self._lock:
            pending = len(self._futures)
            completed = self._completed
            failed = self._failed
        return WorkerPoolStats(
            workers=self.workers,
            alive=sum(1 for proc in self._procs if proc.is_alive()),
            pids=self.pids(),
            pending=pending,
            completed=completed,
            failed=failed,
        )


# ---------------------------------------------------------------------------
# The lazily created process-wide default pool: where in-process
# `plan_many` fans out the asynchronous schemes' steady-state
# measurements.
# ---------------------------------------------------------------------------

_default_pool: PlannerWorkerPool | None = None
_default_pool_lock = threading.Lock()


def get_default_pool(workers: int) -> PlannerWorkerPool:
    """The shared pool, created on first use with ``workers`` processes.

    Subsequent calls reuse the existing pool regardless of ``workers``
    (one warm pool beats perfectly sized cold ones); a stopped pool is
    replaced. A worker never reaches it: it plans its shard with
    ``max_workers=1`` or runs one steady-state measurement.
    """
    global _default_pool
    with _default_pool_lock:
        if _default_pool is None or _default_pool.stopped:
            _default_pool = PlannerWorkerPool(workers, name="default")
        return _default_pool


def stop_default_pool() -> None:
    """Stop and forget the shared pool (idempotent; used by atexit)."""
    global _default_pool
    with _default_pool_lock:
        pool, _default_pool = _default_pool, None
    if pool is not None and not pool.stopped:
        pool.stop()


atexit.register(stop_default_pool)
