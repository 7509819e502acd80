"""The persistent disk tier of the schedule-artifact cache.

Covers the serialization round-trip (frozen metadata, kernels stored
instead of dependency graphs and restored without a rebuild), corruption
tolerance (bad entries are evicted, never raised), a concurrent hammer
(threads × mixed hits/misses/LRU evictions over a shared disk tier), a
multi-*process* hammer (N processes store/load/vandalize one cache
directory — the tier multiprocess planner workers share), eviction
accounting under racing removals, and the cold-start acceptance: a fresh
process with a warm disk cache plans without a single ``build_schedule``
call and at least 2x faster end to end.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading

import pytest

from repro.schedules.cache import ScheduleArtifacts, ScheduleCache
from repro.schedules.diskcache import (
    ENV_DIR,
    ENV_DISABLE,
    FORMAT_VERSION,
    MAGIC,
    DiskScheduleCache,
    _ArtifactPickler,
    default_cache_dir,
)
from repro.schedules.registry import build_schedule
from repro.sim.cost import CostModel
from repro.sim.kernel import ScheduleKernel, simulate_fast
from repro.sim.network import FlatTopology, LinkSpec

REPO = pathlib.Path(__file__).resolve().parent.parent


def fresh_cache(tmp_path, max_entries: int = 128) -> ScheduleCache:
    return ScheduleCache(max_entries, disk=DiskScheduleCache(tmp_path / "disk"))


class TestDiskRoundTrip:
    def test_snapshot_restores_all_forms_and_kernel(self, tmp_path):
        """Every materialized schedule form and kernel round-trips, the
        payload holds no dependency graph, and the restored kernel
        simulates identically."""
        disk = DiskScheduleCache(tmp_path)
        arts = ScheduleArtifacts(build_schedule("chimera", 4, 8))
        fused = ("lower_p2p", "fuse_comm")
        arts.kernel_for(("lower_p2p",))
        kernel = arts.kernel_for(fused)
        cost = CostModel.practical()
        a = simulate_fast(arts.schedule_for(fused), cost, kernel=kernel)
        key = ScheduleCache.key("chimera", 4, 8, {})
        payload = arts.snapshot()
        assert set(payload) == {"schedule", "lowered", "fused", "kernels"}
        assert set(payload["kernels"]) == {"lowered", "fused"}
        assert disk.store(key, payload)
        # No graph (nor its OpKey -> Edge dicts) is pickled.
        assert b"repro.schedules.dependencies" not in (
            disk.entry_path(key).read_bytes()
        )

        restored = ScheduleArtifacts.from_snapshot(disk.load(key))
        assert restored.schedule.worker_ops == arts.schedule.worker_ops
        assert restored.lowered().worker_ops == arts.lowered().worker_ops
        assert restored.fused().worker_ops == arts.fused().worker_ops
        assert restored._graph is restored._lowered_graph is None
        assert restored._fused_graph is None
        # Frozen metadata survives the custom pickling.
        assert dict(restored.schedule.metadata) == dict(arts.schedule.metadata)
        with pytest.raises(TypeError):
            restored.schedule.metadata["x"] = 1
        # The kernel comes back restored, not rebuilt, and simulates
        # identically.
        rk = restored.kernel_for(fused)
        assert rk is not kernel and rk.total == kernel.total
        assert restored._fused_graph is None
        b = simulate_fast(restored.schedule_for(fused), cost, kernel=rk)
        assert a.compute_makespan == b.compute_makespan
        assert a.iteration_time == b.iteration_time

    def test_second_cache_instance_hits_same_entry(self, tmp_path):
        first = fresh_cache(tmp_path)
        first.artifacts("dapple", 4, 8)
        second = fresh_cache(tmp_path)
        second.artifacts("dapple", 4, 8)
        stats = second.disk.stats()
        assert stats.hits == 1 and stats.misses == 0

    def test_disable_env_turns_tier_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DISABLE, "1")
        disk = DiskScheduleCache(tmp_path)
        key = ScheduleCache.key("gpipe", 2, 4, {})
        assert not disk.store(key, {"schedule": build_schedule("gpipe", 2, 4)})
        assert disk.load(key) is None
        assert disk.stats().entries == 0

    def test_default_dir_resolves_env_lazily(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "a"))
        assert default_cache_dir() == tmp_path / "a"
        monkeypatch.setenv(ENV_DIR, str(tmp_path / "b"))
        assert DiskScheduleCache().root == tmp_path / "b"


#: A lowered pipeline (its kernel carries the SEND/RECV tables) under a
#: contended half-duplex link, so restored kernels are checked on the
#: FIFO relaxation as well as the plain sweep.
PIPELINE = ("lower_p2p",)
CONTENDED = CostModel(
    forward_time=1.0,
    topology=FlatTopology(LinkSpec(0.05, 0.4), duplex="half"),
    activation_message_bytes=2.0,
    stage_grad_bytes=3.0,
    data_parallel_width=2,
)


def assert_same_result(a, b):
    """Bitwise-equal simulation results: timed ops, transfers, collectives."""
    assert a.timed == b.timed
    assert a.transfers == b.transfers
    assert a.collectives == b.collectives
    assert a.compute_makespan == b.compute_makespan
    assert a.iteration_time == b.iteration_time


class TestKernelPersistence:
    """The disk tier stores array kernels, so a restarted process
    restores them instead of building them."""

    @pytest.fixture
    def cold(self, tmp_path):
        """A populated disk tier: the cold entry and its built kernel."""
        arts = fresh_cache(tmp_path).artifacts("chimera", 4, 8)
        return arts, arts.kernel_for(PIPELINE)

    @pytest.fixture
    def count_kernel_builds(self, monkeypatch):
        built: list[object] = []
        init = ScheduleKernel.__init__

        def counting(self, graph):
            built.append(graph)
            init(self, graph)

        monkeypatch.setattr(ScheduleKernel, "__init__", counting)
        return built

    def test_warm_entry_builds_no_kernel(self, tmp_path, cold, count_kernel_builds):
        warm = fresh_cache(tmp_path).artifacts("chimera", 4, 8)
        kernel = warm.kernel_for(PIPELINE)
        assert isinstance(kernel, ScheduleKernel)
        assert kernel is warm.kernel_for(PIPELINE)
        assert count_kernel_builds == []
        assert warm._graph is warm._lowered_graph is None

    @pytest.mark.parametrize("blocking_sync", [False, True])
    @pytest.mark.parametrize(
        "cost", [CostModel.practical(), CONTENDED], ids=["practical", "contended"]
    )
    def test_restored_kernel_simulates_identically(
        self, tmp_path, cold, cost, blocking_sync
    ):
        arts, kernel = cold
        warm = fresh_cache(tmp_path).artifacts("chimera", 4, 8)
        a = simulate_fast(
            arts.lowered(), cost, kernel=kernel, blocking_sync=blocking_sync
        )
        b = simulate_fast(
            warm.lowered(),
            cost,
            kernel=warm.kernel_for(PIPELINE),
            blocking_sync=blocking_sync,
        )
        assert_same_result(a, b)
        if cost is CONTENDED:
            assert a.transfers and any(t.occupancy > 0 for t in a.transfers)

    def test_restored_kernel_shares_the_schedules_ops(self, tmp_path, cold):
        """The payload stores each op once: the kernel's ops are the
        restored schedule form's own objects."""
        warm = fresh_cache(tmp_path).artifacts("chimera", 4, 8)
        kernel = warm.kernel_for(PIPELINE)
        rows = warm.lowered().worker_ops
        assert len(kernel.ops_flat) == sum(len(row) for row in rows)
        for i, op in enumerate(kernel.ops_flat):
            assert op is rows[kernel.op_worker[i]][kernel.row_pos[i]]

    def test_kernel_layout_is_pinned_to_the_format_version(self, cold):
        """Tripwire: a stored kernel unpickles into whatever the class
        now is, so any edit to its attributes must bump FORMAT_VERSION
        (and then this pin)."""
        _, kernel = cold
        assert (FORMAT_VERSION, sorted(vars(kernel))) == (
            4,
            [
                "_blocking", "_edge_src_list", "_esrc_fifo_list", "_inc_ptr",
                "_indeg_list", "_order_list", "_pos_of", "_send_chan_list",
                "_send_of_op", "compute_by_worker", "compute_ids",
                "delay_classes", "edge_cls", "edge_dst", "edge_src",
                "has_host_sends", "num_channels", "num_waves", "num_workers",
                "op_worker", "ops", "ops_flat", "order", "red_dst",
                "red_off", "row_pos", "send_by_wave", "send_chan_idx",
                "send_dst_w", "send_host_dir",
                "send_oid", "send_row_pos", "send_units", "send_worker",
                "shape_reps", "sync_groups", "total", "tr_edge_pos",
                "tr_edge_send", "wave_edge_ptr", "wave_op_ptr",
                "wave_red_ptr", "wave_send_ptr", "wave_sweep_profitable",
                "wave_tr_ptr", "worker_ptr",
            ],
        )

    @pytest.mark.parametrize(
        "kernels",
        [{"lowered": "not a kernel"}, {"lowered": {"total": 1}}, ["lowered"]],
        ids=["str", "dict", "not-a-map"],
    )
    def test_malformed_stored_kernel_is_rebuilt(
        self, tmp_path, cold, count_kernel_builds, kernels
    ):
        arts, kernel = cold
        key = ScheduleCache.key("chimera", 4, 8, {})
        disk = DiskScheduleCache(tmp_path / "disk")
        assert disk.store(key, {**arts.snapshot(), "kernels": kernels})

        warm = fresh_cache(tmp_path).artifacts("chimera", 4, 8)
        rebuilt = warm.kernel_for(PIPELINE)
        assert isinstance(rebuilt, ScheduleKernel)
        assert len(count_kernel_builds) == 1
        assert_same_result(
            simulate_fast(arts.lowered(), CONTENDED, kernel=kernel),
            simulate_fast(warm.lowered(), CONTENDED, kernel=rebuilt),
        )
        # The rebuild wrote a well-formed kernel back.
        assert isinstance(disk.load(key)["kernels"]["lowered"], ScheduleKernel)

    def test_payload_bytes_ignore_the_blocking_aux(self, tmp_path, cold):
        """A blocking simulation between two writes of one entry leaves
        the stored bytes unchanged: the lazily built aux is not pickled."""
        arts, kernel = cold
        key = ScheduleCache.key("chimera", 4, 8, {})
        disk = DiskScheduleCache(tmp_path / "other")
        assert disk.store(key, arts.snapshot())
        before = disk.entry_path(key).read_bytes()
        simulate_fast(arts.lowered(), CONTENDED, kernel=kernel, blocking_sync=True)
        assert kernel._blocking is not None
        assert disk.store(key, arts.snapshot())
        assert disk.entry_path(key).read_bytes() == before


class TestCorruptionTolerance:
    """A bad disk entry may cost a rebuild, never a crash or a wrong plan."""

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda blob: b"not even close",
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: MAGIC + b"\x80\x04garbage.",
            lambda blob: blob[:-7] + bytes(7),  # bit rot in the tail
        ],
        ids=["foreign", "truncated", "bad-pickle", "tail-rot"],
    )
    def test_corrupt_entry_evicted_and_rebuilt(self, tmp_path, mangle):
        cache = fresh_cache(tmp_path)
        arts = cache.artifacts("chimera", 4, 8)
        path = cache.disk.entry_path(ScheduleCache.key("chimera", 4, 8, {}))
        path.write_bytes(mangle(path.read_bytes()))

        rebuilt = fresh_cache(tmp_path)
        again = rebuilt.artifacts("chimera", 4, 8)
        assert again.schedule.worker_ops == arts.schedule.worker_ops
        stats = rebuilt.disk.stats()
        assert stats.evictions == 1 and stats.hits == 0
        # The rebuild wrote a good entry back over the evicted one.
        assert rebuilt.disk.load(ScheduleCache.key("chimera", 4, 8, {}))

    def test_key_collision_is_rejected(self, tmp_path):
        """An entry whose embedded key disagrees (hash collision, copied
        file) is evicted instead of served."""
        disk = DiskScheduleCache(tmp_path)
        key_a = ScheduleCache.key("chimera", 4, 8, {})
        key_b = ScheduleCache.key("dapple", 4, 8, {})
        arts = ScheduleArtifacts(build_schedule("chimera", 4, 8))
        disk.store(key_a, arts.snapshot())
        disk.entry_path(key_b).parent.mkdir(parents=True, exist_ok=True)
        disk.entry_path(key_b).write_bytes(
            disk.entry_path(key_a).read_bytes()
        )
        assert disk.load(key_b) is None
        assert disk.stats().evictions == 1

    def test_stale_format_version_misses(self, tmp_path, monkeypatch):
        disk = DiskScheduleCache(tmp_path)
        key = ScheduleCache.key("gpipe", 2, 4, {})
        disk.store(key, ScheduleArtifacts(build_schedule("gpipe", 2, 4)).snapshot())
        blob = disk.entry_path(key).read_bytes()
        wrapper = pickle.loads(blob[len(MAGIC):])
        wrapper["format"] += 1
        buf = io.BytesIO()
        buf.write(MAGIC)
        _ArtifactPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(wrapper)
        disk.entry_path(key).write_bytes(buf.getvalue())
        assert disk.load(key) is None


class TestConcurrentHammer:
    def test_threads_mixed_hits_misses_evictions_and_corruption(self, tmp_path):
        """Many threads over a tiny LRU + shared disk tier: every lookup
        must return a structurally correct schedule while entries bounce
        between memory, disk, and a concurrent corrupter."""
        cache = fresh_cache(tmp_path, max_entries=4)  # forces LRU churn
        cells = [
            ("chimera", 4, 8),
            ("chimera", 2, 4),
            ("dapple", 4, 8),
            ("gpipe", 4, 8),
            ("zb_h1", 4, 8),
            ("dapple", 2, 8),
        ]
        errors: list[BaseException] = []
        stop = threading.Event()

        def worker(seed: int) -> None:
            try:
                for i in range(40):
                    scheme, depth, n = cells[(seed + i) % len(cells)]
                    arts = cache.artifacts(scheme, depth, n)
                    assert arts.schedule.num_stages == depth
                    assert arts.schedule.num_micro_batches == n
                    # Build a kernel so persist callbacks fire
                    # concurrently with loads.
                    arts.kernel_for()
            except BaseException as err:  # noqa: BLE001 - collected for the assert
                errors.append(err)

        def corrupter() -> None:
            try:
                while not stop.is_set():
                    for path in list(tmp_path.rglob("*.pkl"))[:2]:
                        try:
                            path.write_bytes(b"garbage")
                        except OSError:
                            pass
            except BaseException as err:  # noqa: BLE001
                errors.append(err)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        vandal = threading.Thread(target=corrupter)
        vandal.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        vandal.join()
        assert errors == []
        stats = cache.stats()
        assert stats.lookups == 8 * 40
        # The tiny LRU guarantees both outcomes actually occurred.
        assert stats.hits > 0 and stats.misses > 0
        disk = cache.disk.stats()
        assert disk.stores > 0

    def test_concurrent_same_key_retains_one_entry(self, tmp_path):
        """Racing threads on one cold key all get equivalent artifacts and
        the cache retains exactly one entry (first insert wins)."""
        cache = fresh_cache(tmp_path)
        results: list[ScheduleArtifacts] = []
        lock = threading.Lock()

        def worker() -> None:
            arts = cache.artifacts("chimera", 4, 8)
            with lock:
                results.append(arts)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.stats().entries == 1
        retained = cache.artifacts("chimera", 4, 8)
        assert retained in results
        for arts in results:
            assert arts.schedule.worker_ops == retained.schedule.worker_ops


class TestEvictionAccounting:
    def test_racing_evictions_count_once(self, tmp_path):
        """Two cache instances (stand-ins for two processes sharing one
        cache dir) race to evict the same corrupt entry: only the unlink
        that actually removed the file may count. The old missing_ok
        unlink credited every racer with the single removal."""
        disk = DiskScheduleCache(tmp_path)
        other = DiskScheduleCache(tmp_path)
        key = ScheduleCache.key("gpipe", 2, 4, {})
        disk.store(key, ScheduleArtifacts(build_schedule("gpipe", 2, 4)).snapshot())
        path = disk.entry_path(key)
        path.write_bytes(b"garbage")

        # Both sides have read the corrupt blob and decided to evict;
        # the second unlink finds the file already gone.
        disk._evict(path)
        other._evict(path)
        assert disk.stats().evictions == 1
        assert other.stats().evictions == 0


MP_HAMMER_SCRIPT = """
import json, pathlib, random, sys
from repro.schedules.cache import ScheduleArtifacts, ScheduleCache
from repro.schedules.diskcache import DiskScheduleCache
from repro.schedules.registry import build_schedule

seed = int(sys.argv[1])
rng = random.Random(seed)
disk = DiskScheduleCache(pathlib.Path(sys.argv[2]))
cells = [("gpipe", 2, 4), ("dapple", 2, 4), ("chimera", 2, 4), ("gpipe", 2, 8)]
snapshots = {c: ScheduleArtifacts(build_schedule(*c)).snapshot() for c in cells}
loaded = 0
for i in range(60):
    cell = cells[(seed + i) % len(cells)]
    key = ScheduleCache.key(cell[0], cell[1], cell[2], {})
    roll = rng.random()
    if roll < 0.4:
        disk.store(key, snapshots[cell])
    elif roll < 0.8:
        payload = disk.load(key)
        if payload is not None:
            assert "schedule" in payload, "structurally wrong payload served"
            loaded += 1
    else:
        try:
            disk.entry_path(key).write_bytes(b"garbage")
        except OSError:
            pass
s = disk.stats()
print(json.dumps({
    "hits": s.hits, "misses": s.misses, "stores": s.stores,
    "evictions": s.evictions, "loaded": loaded,
}))
"""


class TestMultiProcessHammer:
    def test_processes_store_load_evict_one_cache_dir(self, tmp_path):
        """N concurrent *processes* hammer one cache directory with mixed
        stores, loads, and vandalism: no crash, no wrong payload, and the
        directory still round-trips cleanly afterwards (the thread hammer
        above cannot see cross-process races in the atomic-rename store
        or the eviction path — this one does)."""
        shared = tmp_path / "shared"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env.pop(ENV_DISABLE, None)

        procs = [
            subprocess.Popen(
                [sys.executable, "-c", MP_HAMMER_SCRIPT, str(seed), str(shared)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
                cwd=REPO,
            )
            for seed in range(4)
        ]
        stats = []
        for proc in procs:
            out, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err
            stats.append(json.loads(out.strip().splitlines()[-1]))

        assert sum(s["stores"] for s in stats) > 0
        assert sum(s["loaded"] for s in stats) > 0
        # Whatever the hammer left behind, the tier still works: every
        # cell stores and loads back structurally intact.
        disk = DiskScheduleCache(shared)
        for cell in [("gpipe", 2, 4), ("dapple", 2, 4), ("chimera", 2, 4)]:
            key = ScheduleCache.key(cell[0], cell[1], cell[2], {})
            arts = ScheduleArtifacts(build_schedule(*cell))
            assert disk.store(key, arts.snapshot())
            restored = ScheduleArtifacts.from_snapshot(disk.load(key))
            assert restored.schedule.worker_ops == arts.schedule.worker_ops


COLD_START_SCRIPT = """
import json, sys, time
import repro.schedules.registry as registry

calls = {"build": 0}
orig = registry.build_schedule

def counting(*args, **kwargs):
    calls["build"] += 1
    return orig(*args, **kwargs)

registry.build_schedule = counting
import repro.schedules.cache as cache_mod
cache_mod.build_schedule = counting

from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.perf.planner import plan_configurations

t0 = time.perf_counter()
entries = plan_configurations(
    PIZ_DAINT, BERT48, num_workers=8, mini_batch=32,
    schemes=("chimera", "dapple"),
)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall": wall,
    "builds": calls["build"],
    "top": entries[0].label(),
    "throughput": entries[0].throughput,
}))
"""


class TestColdStartAcceptance:
    def test_warm_disk_cache_skips_builds_and_halves_wall(self, tmp_path):
        """Acceptance: a fresh process with a warm disk cache ranks the
        planner_table workload with ZERO build_schedule calls and >= 2x
        faster end to end than the truly cold process."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env[ENV_DIR] = str(tmp_path / "warmdir")

        def run() -> dict:
            out = subprocess.run(
                [sys.executable, "-c", COLD_START_SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                timeout=600,
                cwd=REPO,
            )
            assert out.returncode == 0, out.stderr
            return json.loads(out.stdout.strip().splitlines()[-1])

        cold = run()
        warm = run()
        assert cold["builds"] > 0
        assert warm["builds"] == 0, (
            f"warm cold-start still built {warm['builds']} schedules"
        )
        # Identical plan either way.
        assert warm["top"] == cold["top"]
        assert warm["throughput"] == pytest.approx(cold["throughput"], abs=1e-9)
        speedup = cold["wall"] / warm["wall"]
        assert speedup >= 2.0, (
            f"warm disk cache only {speedup:.2f}x faster "
            f"(cold {cold['wall']:.2f}s, warm {warm['wall']:.2f}s)"
        )
