"""Write-back scopes of the schedule cache's disk tier.

Inside :func:`repro.schedules.cache.write_back`, an entry's disk writes
are recorded under its key and stored once, when the outermost scope
exits; the planner plans each request in one. Every test here runs over
a private disk tier under ``tmp_path``.
"""

from __future__ import annotations

import gc
import threading

import pytest

from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.perf import planner
from repro.perf.planner import PlanRequest, plan_many
from repro.schedules import cache as cache_module
from repro.schedules.cache import ScheduleCache, write_back
from repro.schedules.diskcache import DiskScheduleCache
from repro.sim import memory

LOWERED = ("lower_p2p",)

#: Two small requests: one over synchronous schemes, one with an
#: asynchronous scheme and a budget that prunes candidates.
REQUESTS = [
    PlanRequest(
        machine=PIZ_DAINT,
        workload=BERT48,
        num_workers=4,
        mini_batch=16,
        schemes=("chimera", "dapple", "zb_h1"),
    ),
    PlanRequest(
        machine=PIZ_DAINT,
        workload=BERT48,
        num_workers=4,
        mini_batch=32,
        schemes=("gpipe", "pipedream_2bw"),
        memory_budget_bytes=6 * 2**30,
    ),
]


def fresh_cache(root, max_entries: int = 128) -> ScheduleCache:
    return ScheduleCache(max_entries, disk=DiskScheduleCache(root))


def key(scheme: str, **options) -> tuple:
    return ScheduleCache.key(scheme, 4, 8, options)


def tier(root) -> dict[str, bytes]:
    """Every entry file under ``root``: its relative path -> its bytes."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*.pkl"))
    }


@pytest.fixture
def stores(monkeypatch):
    """The key of every ``DiskScheduleCache.store`` call, in order."""
    made: list[tuple] = []
    store = DiskScheduleCache.store

    def counted(disk, key, artifacts):
        made.append(key)
        return store(disk, key, artifacts)

    monkeypatch.setattr(DiskScheduleCache, "store", counted)
    return made


@pytest.fixture
def use_cache(monkeypatch):
    """Make a fresh cache over ``root`` the process-wide one, with the
    planner's memos emptied."""

    def use(root) -> ScheduleCache:
        cache = fresh_cache(root)
        monkeypatch.setattr(cache_module, "SCHEDULE_CACHE", cache)
        planner._ROW_MEMO.clear()
        memory._REPORTS.clear()
        return cache

    return use


def test_cold_plan_stores_each_key_once_per_request(tmp_path, use_cache, stores):
    use_cache(tmp_path)
    for request in REQUESTS:
        del stores[:]
        plan_many([request], max_workers=1)
        assert stores
        assert len(stores) == len(set(stores)), request


def test_plan_files_equal_the_write_through_files(tmp_path, use_cache, stores):
    """The files a scoped plan leaves are those its artifact calls leave
    writing through, in fewer stores."""
    use_cache(tmp_path / "scoped")
    plan_many(REQUESTS, max_workers=1)
    scoped = len(stores)
    del stores[:]
    use_cache(tmp_path / "through")
    for request in REQUESTS:  # _plan_one without its scope
        pruned = planner._prune_request(request)
        planner._finalize(pruned, planner._rank(pruned.survivors, max_workers=1))
    assert scoped < len(stores)
    files = tier(tmp_path / "scoped")
    assert files and files == tier(tmp_path / "through")


def test_an_exception_still_stores_every_pending_entry(tmp_path, stores):
    cache = fresh_cache(tmp_path)
    with pytest.raises(RuntimeError, match="mid-request"):
        with write_back():
            cache.artifacts("dapple", 4, 8).kernel_for(LOWERED)
            cache.artifacts("gpipe", 4, 8)
            assert stores == []
            raise RuntimeError("mid-request")
    assert sorted(stores) == sorted([key("dapple"), key("gpipe")])
    # The stored entry is the one at the exit: its kernel came along.
    warm = fresh_cache(tmp_path).artifacts("dapple", 4, 8)
    assert "lowered" in warm._kernels


def test_nested_scopes_store_once_at_the_outermost_exit(tmp_path, stores):
    cache = fresh_cache(tmp_path)
    with write_back():
        with write_back():
            arts = cache.artifacts("chimera", 4, 8)
            arts.kernel_for(LOWERED)
        assert stores == []
        arts.kernel_for(())
        assert stores == []
    assert stores == [key("chimera")]
    warm = fresh_cache(tmp_path).artifacts("chimera", 4, 8)
    assert sorted(warm._kernels) == ["lowered", "schedule"]


def test_an_entry_evicted_mid_scope_is_still_stored(tmp_path, stores):
    cache = fresh_cache(tmp_path, max_entries=1)
    with write_back():
        cache.artifacts("dapple", 4, 8).kernel_for(LOWERED)
        cache.artifacts("gpipe", 4, 8)  # evicts dapple from the memory tier
        assert cache.stats().entries == 1
        gc.collect()
    assert sorted(stores) == sorted([key("dapple"), key("gpipe")])
    assert len(tier(tmp_path)) == 2
    assert "lowered" in fresh_cache(tmp_path).artifacts("dapple", 4, 8)._kernels


def test_scopes_are_per_thread(tmp_path, stores):
    """Another thread's scope stores only its own entries, and a thread
    outside any scope writes through."""
    cache = fresh_cache(tmp_path)

    def scoped():
        with write_back():
            cache.artifacts("gpipe", 4, 8)

    def unscoped():
        cache.artifacts("gems", 4, 8)

    with write_back():
        cache.artifacts("dapple", 4, 8)
        for target in (scoped, unscoped):
            thread = threading.Thread(target=target)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert stores == [key("gpipe"), key("gems")]
    assert stores == [key("gpipe"), key("gems"), key("dapple")]
