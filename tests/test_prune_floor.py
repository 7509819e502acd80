"""The planner's analytic pre-pruning and its kernel-resident cache entries.

``repro.sim.memory.device_floor`` bounds a grid point's device peak from
its placement alone; the planner skips points whose floor already fails
the budget, and builds them only to name the closest candidate of a
request nothing fits. Ranked entries keep their array kernels resident
and release their dict dependency graphs to the disk tier.
"""

import gc
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench.machines import MACHINES, PIZ_DAINT
from repro.bench.workloads import GPT2_64, WORKLOADS
from repro.common.errors import ScheduleError
from repro.common.units import GIB
from repro.perf import planner
from repro.perf.calibration import calibrate_memory_model
from repro.perf.planner import PlanRequest, plan_many
from repro.schedules.cache import (
    ScheduleCache,
    clear_schedule_cache,
    schedule_artifacts,
    schedule_cache_stats,
)
from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.diskcache import DiskScheduleCache
from repro.schedules.gpipe import build_gpipe_schedule
from repro.schedules.passes.pipeline import attempt_pipelines, split_pipeline
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import (
    available_schemes,
    build_schedule,
    register_scheme,
    scheme_traits,
    unregister_scheme,
)
from repro.sim.engine import _DenseSchedule
from repro.sim.memory import MemoryModel, analyze_memory, device_floor

PLACED = tuple(s for s in available_schemes() if scheme_traits(s).placement)

#: The e2e plan stream's request that nothing fits: every grid point's
#: floor overshoots 6 GiB.
NO_FIT = dict(
    machine=PIZ_DAINT,
    workload=GPT2_64,
    num_workers=4,
    mini_batch=64,
    memory_budget_bytes=6 * GIB,
    schemes=("gpipe", "gems", "dapple", "chimera", "pipedream", "pipedream_2bw"),
)

#: Its error, captured before the floor existed; the skip must not change
#: a byte of it.
NO_FIT_ERROR = (
    "no micro-batch size fits the 6.00 GiB memory budget for P=4, B̂=64 on "
    "piz-daint-p100; closest candidate gpipe(W=1, D=4, B=1, R, O) overshoots "
    "by 1.54 GiB — raise the budget, add workers, or allow deeper pipelines"
)


@pytest.mark.parametrize("scheme", PLACED)
@pytest.mark.parametrize("depth", [2, 4, 6])
def test_placement_trait_is_what_the_builder_builds(scheme, depth):
    traits = scheme_traits(scheme)
    if traits.requires_even_depth and depth % 2:
        pytest.skip("odd depth")
    assert build_schedule(scheme, depth, 5).placement == traits.placement(depth)


def test_synthesize_has_no_placement_trait():
    assert scheme_traits("synthesize").placement is None


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(PLACED),
    depth=st.sampled_from([2, 4, 8]),
    n=st.integers(1, 9),
    machine=st.sampled_from(sorted(MACHINES)),
    workload=st.sampled_from(sorted(WORKLOADS)),
    micro_batch=st.sampled_from([1, 4, 16]),
    tail=st.sampled_from(["lower_p2p", "lower_p2p,fuse_comm"]),
)
def test_floor_never_exceeds_the_analyzed_peak(
    scheme, depth, n, machine, workload, micro_batch, tail
):
    """floor <= analyze_memory peak under every attempt pipeline."""
    traits = scheme_traits(scheme)
    spec = WORKLOADS[workload]
    assume(not (traits.requires_even_depth and depth % 2))
    assume(spec.num_layers % traits.stage_count(depth) == 0)
    placement = traits.placement(depth)
    model = calibrate_memory_model(
        MACHINES[machine],
        spec,
        depth=placement.num_stages,
        micro_batch=micro_batch,
    )
    floor = device_floor(scheme, placement, model, n)
    for attempt in attempt_pipelines(tail, recompute=None, offload=None):
        parts = split_pipeline(attempt)
        try:
            arts = schedule_artifacts(scheme, depth, n, **parts.build_options())
            schedule = arts.schedule_for(attempt)
        except ScheduleError:
            continue
        assert floor <= analyze_memory(schedule, model).peak_bytes, attempt


def test_floor_counts_only_stashes_that_surely_happen():
    """Below one micro-batch per replica, a worker may host its largest
    stash only in an idle replica: then only its smallest is certain."""
    placement = StagePlacement(3, ((0, 1, 2), (1, 2, 0)))
    model = MemoryModel(
        activation_bytes=(1.0, 1.0, 100.0), weight_bytes=(10.0, 0.0, 0.0)
    )
    # Worker 0 holds stage 0 (replica 0) and stage 2 (replica 1). With
    # N=1 only replica 0 runs, so it stashes act(0) = 1 beside its 10
    # bytes of weights; worker 2 stashes the 100-byte act(2).
    assert device_floor("dapple", placement, model, 1) == 11.0
    assert device_floor("dapple", placement, model, 2) == 110.0


def test_no_fit_request_keeps_its_exact_error_and_builds_little():
    clear_schedule_cache()
    (outcome,) = plan_many([PlanRequest(**NO_FIT)], max_workers=1)
    assert str(outcome.error) == NO_FIT_ERROR
    # Every one of the 78 points is skipped; naming the closest builds a
    # few points' attempts (312 artifacts before the floor).
    assert schedule_cache_stats().misses <= 16


@pytest.fixture
def gpipe_twin():
    """``gpipe`` registered again under a second name: same schedules,
    same floors, same overshoots."""
    register_scheme("gpipe_twin", build_gpipe_schedule, scheme_traits("gpipe"))
    try:
        yield "gpipe_twin"
    finally:
        unregister_scheme("gpipe_twin")


@pytest.mark.parametrize("first", ["gpipe", "gpipe_twin"])
def test_equal_overshoots_name_the_earlier_grid_point(gpipe_twin, first):
    second = "gpipe" if first == gpipe_twin else gpipe_twin
    request = PlanRequest(**{**NO_FIT, "schemes": (first, second)})
    pruned = planner._prune_request(request, planner._PlanContext())
    assert not pruned.survivors and pruned.closest is None
    assert {cfg.scheme for _, _, cfg in pruned.skipped} == {first, second}
    (outcome,) = plan_many([request], max_workers=1)
    assert str(outcome.error) == NO_FIT_ERROR.replace(
        "gpipe(", f"{first}("
    )


class TestResidency:
    """Ranked cache entries hold kernels and no dict graphs; the disk tier
    stores the kernels."""

    @pytest.fixture
    def ranked(self, tmp_path, monkeypatch):
        cache = ScheduleCache(disk=DiskScheduleCache(tmp_path / "disk"))
        monkeypatch.setattr("repro.schedules.cache.SCHEDULE_CACHE", cache)
        request = PlanRequest(
            machine=PIZ_DAINT,
            workload=WORKLOADS["bert-48"],
            num_workers=4,
            mini_batch=16,
            schemes=("dapple", "chimera"),
        )
        (outcome,) = plan_many([request], max_workers=1)
        entry = outcome.entries[0]
        parts = split_pipeline(entry.pipeline)
        key = ScheduleCache.key(
            entry.scheme, entry.depth, entry.num_micro_batches,
            parts.build_options(),
        )
        arts = schedule_artifacts(
            entry.scheme, entry.depth, entry.num_micro_batches,
            **parts.build_options(),
        )
        return cache, key, arts, entry.pipeline

    def test_entry_holds_its_kernel_and_no_dict_graph(self, ranked):
        _, _, arts, pipeline = ranked
        assert arts.kernel_for(pipeline) is arts.kernel_for(pipeline)
        assert not arts._graphs

    def test_kernel_references_no_dense_schedule(self, ranked):
        _, _, arts, pipeline = ranked
        kernel = arts.kernel_for(pipeline)
        referents = gc.get_referents(kernel)
        for held in list(referents):
            referents += gc.get_referents(held)
        assert not any(isinstance(r, _DenseSchedule) for r in referents)

    def test_graph_for_rebuilds_an_equal_graph(self, ranked):
        _, _, arts, pipeline = ranked
        graph = arts.graph_for(pipeline)
        assert graph == build_dependency_graph(arts.schedule_for(pipeline))

    def test_disk_keeps_every_graph_slot(self, ranked):
        cache, key, arts, _ = ranked
        stored = cache.disk.load(key)
        assert set(stored) == {"forms", "kernels", "memory_profile"}
        assert list(pickle.loads(stored["forms"])) == ["schedule", "lowered"]
        assert set(stored["kernels"]) == {"lowered"}
        # A form derived later writes its kernel through without
        # dropping the earlier ones.
        arts.kernel_for(("lower_p2p", "fuse_comm"))
        stored = cache.disk.load(key)
        assert set(stored) == {"forms", "kernels", "memory_profile"}
        assert list(pickle.loads(stored["forms"])) == ["schedule", "lowered", "fused"]
        assert set(stored["kernels"]) == {"lowered", "fused"}
