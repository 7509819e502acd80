"""The multiprocess planner worker pool (``repro.perf.workers``).

The contract mirrors ``plan_many``'s own: sharding across a pool is a
performance feature, so pooled outcomes must match the in-process path
outcome for outcome — entries field for field, errors message for
message. On top of that sit the lifecycle guarantees the serving layer
leans on: graceful drain (queued work finishes, futures resolve, worker
processes join — no orphans), crash containment (a dead worker fails its
own future with :class:`WorkerCrashError` instead of hanging the
caller), and refusal of new work after ``stop()``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.bench.machines import PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48, GPT2_32
from repro.common.errors import ConfigurationError
from repro.perf.planner import PlanRequest, plan_many
from repro.perf.workers import PlannerWorkerPool, WorkerCrashError

GIB = 2**30

SYNC = ("chimera", "dapple", "zb_h1")


def request(**overrides) -> PlanRequest:
    base = dict(
        machine=PIZ_DAINT,
        workload=BERT48,
        num_workers=4,
        mini_batch=16,
        schemes=SYNC,
    )
    base.update(overrides)
    return PlanRequest(**base)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@pytest.fixture(scope="module")
def pool():
    """One 2-worker pool for the whole module — spawn is the expensive
    part, and pool reuse across submissions is itself part of the
    contract under test."""
    with PlannerWorkerPool(2, name="test") as p:
        yield p


class TestParity:
    def test_shard_outcomes_match_in_process(self, pool):
        requests = [
            request(),
            request(mini_batch=32),
            request(machine=V100_CLUSTER, workload=GPT2_32, num_workers=8),
            request(memory_budget_bytes=6 * GIB),
            request(pipeline="lower_p2p,fuse_comm"),
            request(recompute=True),
            request(top_k=2),
        ]
        reference = plan_many(requests)
        pooled = plan_many(requests, pool=pool)
        assert [o.request for o in pooled] == requests
        for got, want in zip(pooled, reference):
            assert got.ok == want.ok
            assert got.entries == want.entries

    def test_equal_requests_collapse_across_processes(self, pool, monkeypatch):
        """Requests reach the workers pickled, and the machine and workload
        specs in them cache their hashes; the cache stays behind, so a
        worker's memo lookups see its own hashes. Equal requests (equal,
        not identical, objects) still collapse to one planned request."""
        submitted = []
        submit = pool.submit_plan

        def spy(shard):
            submitted.extend(shard)
            return submit(shard)

        monkeypatch.setattr(pool, "submit_plan", spy)
        requests = [request(), request(mini_batch=32), request(), request()]
        for req in requests:
            hash(req.machine), hash(req.workload)
        pooled = plan_many(requests, pool=pool)
        assert submitted == [request(), request(mini_batch=32)]
        assert pooled[0] is pooled[2] is pooled[3]
        reference = plan_many(requests, max_workers=1)
        assert [o.entries for o in pooled] == [o.entries for o in reference]

    def test_error_messages_match_exactly(self, pool):
        requests = [
            request(num_workers=1),
            request(mini_batch=0),
            request(schemes=()),
            request(min_depth=5),
            request(memory_budget_bytes=0.05 * GIB),
            request(),  # one good request mixed in
        ]
        reference = plan_many(requests)
        pooled = plan_many(requests, pool=pool)
        assert [o.ok for o in pooled] == [o.ok for o in reference]
        for got, want in zip(pooled, reference):
            if want.error is None:
                continue
            assert type(got.error) is type(want.error)
            assert str(got.error) == str(want.error)

    def test_duplicates_collapse_and_fan_back_out(self, pool):
        req = request()
        pooled = plan_many([req, req, request(top_k=1), req], pool=pool)
        assert len(pooled) == 4
        assert pooled[0].entries == pooled[1].entries == pooled[3].entries
        assert pooled[2].entries == pooled[0].entries[:1]

    def test_async_scheme_parity_through_pool(self, pool):
        """The steady-state fan-out inside a worker stays sequential
        (no nested pools) and still matches the in-process result."""
        req = request(schemes=("pipedream", "chimera"), mini_batch=8)
        [want] = plan_many([req], max_workers=1)
        [got] = plan_many([req], pool=pool)
        assert got.ok and want.ok
        assert got.entries == want.entries

    def test_submit_steady_matches_in_process(self, pool):
        """The raw steady-state task kind the async fan-out uses: a
        pooled ``run_configuration`` equals the local call."""
        from repro.bench.harness import run_configuration
        from repro.perf.planner import _prune_request
        from repro.schedules.registry import scheme_traits

        req = request(schemes=("pipedream", "chimera"), mini_batch=8)
        pruned = _prune_request(req)
        cfgs = [
            s.cfg
            for s in pruned.survivors
            if not scheme_traits(s.cfg.scheme).synchronous
        ]
        assert cfgs, "expected at least one async survivor"
        for cfg in cfgs[:2]:
            want = run_configuration(cfg)
            got = pool.submit_steady(cfg).result()
            assert got.iteration_time == want.iteration_time
            assert got.throughput == want.throughput
            assert got.peak_memory_bytes == want.peak_memory_bytes
            assert got.pipeline == want.pipeline


class TestBackendRouting:
    def test_default_process_pool_is_created_and_reused(self):
        from repro.perf import workers

        workers.stop_default_pool()
        first = workers.get_default_pool(1)
        assert workers.get_default_pool(1) is first
        outcomes = plan_many([request()], pool=workers.get_default_pool(1))
        assert outcomes[0].ok
        workers.stop_default_pool()
        assert first.stopped


class TestLifecycle:
    def test_stats_and_pids(self, pool):
        stats = pool.stats()
        assert stats.workers == 2
        assert stats.alive == 2
        assert len(stats.pids) == 2
        assert stats.pending == 0
        for pid in stats.pids:
            assert _alive(pid)

    def test_stop_drains_queued_work_then_joins(self):
        """Everything submitted before stop() completes — drain means
        finish, not cancel — and no worker process survives."""
        pool = PlannerWorkerPool(1, name="drain")
        futures = [
            pool.submit_plan([request(top_k=k + 1)]) for k in range(3)
        ]
        pids = pool.pids()
        pool.stop()
        for k, future in enumerate(futures):
            [outcome] = future.result(timeout=1)
            assert outcome.ok
            assert len(outcome.entries) <= k + 1
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in pids):
            assert time.monotonic() < deadline, f"orphan workers: {pids}"
            time.sleep(0.05)
        assert pool.stats().alive == 0
        assert pool.stats().pending == 0

    def test_stopped_pool_refuses_new_work(self):
        pool = PlannerWorkerPool(1, name="refuse")
        pool.stop()
        assert pool.stopped
        with pytest.raises(WorkerCrashError, match="stopped"):
            pool.submit_plan([request()])
        pool.stop()  # idempotent

    def test_worker_count_validated(self):
        with pytest.raises(ConfigurationError, match="worker pool size"):
            PlannerWorkerPool(0)


class TestCrashContainment:
    def test_killed_worker_fails_future_not_hangs(self):
        """SIGKILL the only worker mid-task: the future must resolve
        with WorkerCrashError (never hang), and the pool must report the
        death instead of pretending to be healthy."""
        pool = PlannerWorkerPool(1, name="crash")
        try:
            # A cold worker warms caches first, so this runs for a while.
            future = pool.submit_plan(
                [request(num_workers=8, mini_batch=32, schemes=("zb_v",))]
            )
            (pid,) = pool.pids()
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                future.result(timeout=60)
            assert pool.stats().alive == 0
        finally:
            pool.stop()
