"""The cyclic-collector pause around artifact builds and disk loads.

Covers the helper's contract (re-enable on return and on raise, nesting,
a caller's own disable, overlapping threads) and the structural claim:
a disk load, a derived-graph build and a kernel build each run with the
collector off, and every public call hands it back on.
"""

from __future__ import annotations

import gc
import pickle
import threading

import pytest

import repro.schedules.cache as cache_mod
import repro.sim.kernel as kernel_mod
from repro.common.gcpause import collector_paused
from repro.schedules.cache import ScheduleCache
from repro.schedules.diskcache import DiskScheduleCache
from repro.sim.kernel import kernel_of


@pytest.fixture(autouse=True)
def _collector_enabled():
    assert gc.isenabled()
    yield
    gc.enable()


class TestHelper:
    def test_reenabled_after_normal_exit(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_reenabled_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_nested_pause_reenables_only_at_outermost_exit(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_collector_stays_disabled(self):
        gc.disable()
        with collector_paused():
            with collector_paused():
                pass
        assert not gc.isenabled()

    def test_overlapping_threads_reenable_once_both_exit(self):
        entered = threading.Barrier(2, timeout=10)
        first_left = threading.Event()
        states: dict[str, bool] = {}

        def first() -> None:
            with collector_paused():
                entered.wait()
            first_left.set()

        def second() -> None:
            with collector_paused():
                entered.wait()
                assert first_left.wait(timeout=10)
                states["after_first_exit"] = gc.isenabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert states == {"after_first_exit": False}
        assert gc.isenabled()


def test_loads_and_builds_run_with_the_collector_paused(tmp_path, monkeypatch):
    """Probes over the disk tier's unpickling, graph construction and the
    kernel build see the collector off; each public call returns with it
    back on."""
    seen: list[tuple[str, bool]] = []

    def probe(name, fn):
        def wrapped(*args, **kwargs):
            seen.append((name, gc.isenabled()))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(pickle, "loads", probe("load", pickle.loads))
    monkeypatch.setattr(
        cache_mod,
        "build_dependency_graph",
        probe("graph", cache_mod.build_dependency_graph),
    )
    # Probe the constructor, not the module name: the disk tier pickles
    # kernels, and pickle resolves their class through that name.
    kernel_cls = kernel_mod.ScheduleKernel
    monkeypatch.setattr(kernel_cls, "__init__", probe("kernel", kernel_cls.__init__))

    disk = DiskScheduleCache(tmp_path)
    ScheduleCache(disk=disk).artifacts("dapple", 2, 4).kernel_for(["lower_p2p"])
    assert gc.isenabled()
    seen.clear()

    arts = ScheduleCache(disk=disk).artifacts("dapple", 2, 4)  # disk load
    assert gc.isenabled()
    assert kernel_of(arts.kernel_for(["lower_p2p"]))  # restored, not built
    assert gc.isenabled()
    arts.fused_graph()  # not in the stored payload: built here
    assert gc.isenabled()
    arts.kernel_for(["lower_p2p", "fuse_comm"])  # built and written through
    assert gc.isenabled()

    # The second load is the forms blob, unpickled when fused_graph first
    # needs a schedule form.
    assert [name for name, _ in seen] == ["load", "load", "graph", "kernel"]
    assert [enabled for _, enabled in seen] == [False, False, False, False]
