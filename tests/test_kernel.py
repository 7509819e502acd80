"""Differential coverage for the array-backed simulation kernel.

The kernel (:mod:`repro.sim.kernel`) is a faster evaluator of the event
engine's model, never a second model — so every test here is a comparison:
``simulate_fast`` and ``simulate_batch_many`` must reproduce ``simulate`` to
1e-9 for all registered schemes, implicit and lowered, under arbitrary
f/b/w cost ratios. The schedule cache (:mod:`repro.schedules.cache`) is
covered alongside: shared artifacts must be immune to caller mutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.schedules.cache import (
    ScheduleCache,
    clear_schedule_cache,
    schedule_artifacts,
    schedule_cache_stats,
)
from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.kernel import (
    BatchResult,
    kernel_of,
    simulate_batch_many,
    simulate_fast,
)
from repro.sim.metrics import bubble_ratio, throughput_samples_per_sec
from repro.sim.network import FlatTopology, HierarchicalTopology, LinkSpec

SETTINGS = settings(max_examples=30, deadline=None)

ATOL = 1e-9

even_depths = st.sampled_from([2, 4, 6])
micro_batches = st.integers(min_value=1, max_value=10)
cost_units = st.floats(
    min_value=0.1, max_value=4.0, allow_nan=False, allow_infinity=False
)
#: Implicit and lowered communication.
pipelines = st.sampled_from([(), ("lower_p2p",)])


def contention_free_model(f, b, w, alpha) -> CostModel:
    """Random-ratio cost model with beta=0 links (kernel-eligible)."""
    return CostModel(
        forward_time=f,
        backward_input_ratio=b,
        backward_weight_ratio=w,
        topology=FlatTopology(LinkSpec(alpha=alpha, beta=0.0)),
        activation_message_bytes=1.0,
        stage_grad_bytes=7.0,
        data_parallel_width=2,
        sync_launch_overhead=0.01,
    )


def assert_results_match(ref, got):
    """Full SimulationResult equivalence to ATOL."""
    assert got.compute_makespan == pytest.approx(ref.compute_makespan, abs=ATOL)
    assert got.iteration_time == pytest.approx(ref.iteration_time, abs=ATOL)
    assert set(got.timed) == set(ref.timed)
    for key, t_ref in ref.timed.items():
        t_got = got.timed[key]
        assert t_got.worker == t_ref.worker
        assert t_got.start == pytest.approx(t_ref.start, abs=ATOL)
        assert t_got.end == pytest.approx(t_ref.end, abs=ATOL)
    assert len(got.collectives) == len(ref.collectives)
    for c_ref, c_got in zip(ref.collectives, got.collectives):
        assert c_got.workers == c_ref.workers
        assert c_got.start == pytest.approx(c_ref.start, abs=ATOL)
        assert c_got.end == pytest.approx(c_ref.end, abs=ATOL)
    assert len(got.transfers) == len(ref.transfers)
    for t_ref, t_got in zip(ref.transfers, got.transfers):
        assert (t_got.src_worker, t_got.dst_worker) == (
            t_ref.src_worker,
            t_ref.dst_worker,
        )
        assert t_got.start == pytest.approx(t_ref.start, abs=ATOL)
        assert t_got.end == pytest.approx(t_ref.end, abs=ATOL)


# --------------------------------------------------------------- fast path
@SETTINGS
@given(
    scheme=st.sampled_from(available_schemes()),
    depth=even_depths,
    n=micro_batches,
    f=cost_units,
    b=cost_units,
    w=cost_units,
    alpha=st.floats(min_value=0.0, max_value=0.5),
    pipeline=pipelines,
)
def test_fast_path_matches_event_engine(scheme, depth, n, f, b, w, alpha, pipeline):
    arts = schedule_artifacts(scheme, depth, n)
    schedule = arts.schedule_for(pipeline)
    graph = arts.graph_for(pipeline)
    cm = contention_free_model(f, b, w, alpha)
    assert simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0]
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )


@SETTINGS
@given(
    scheme=st.sampled_from(available_schemes()),
    depth=even_depths,
    n=micro_batches,
    f=cost_units,
    b=cost_units,
    w=cost_units,
    pipeline=pipelines,
)
def test_batch_matches_event_engine(scheme, depth, n, f, b, w, pipeline):
    arts = schedule_artifacts(scheme, depth, n)
    schedule = arts.schedule_for(pipeline)
    graph = arts.graph_for(pipeline)
    models = [
        contention_free_model(f, b, w, 0.05),
        contention_free_model(2.0 * f, 0.5 * b + 0.1, w, 0.0),
        contention_free_model(f, b, 2.0 * w, 0.2).with_(
            sync_overlap_slowdown=0.25
        ),
    ]
    batch = simulate_batch_many(
        [(kernel_of(graph), cm) for cm in models]
    )
    assert isinstance(batch, BatchResult)
    assert len(batch) == len(models)
    for k, cm in enumerate(models):
        ref = simulate(schedule, cm, graph=graph)
        assert batch.used_fast_path[k]
        assert batch.compute_makespan[k] == pytest.approx(
            ref.compute_makespan, abs=ATOL
        )
        assert batch.iteration_time[k] == pytest.approx(ref.iteration_time, abs=ATOL)
        busy = [ref.busy_time(worker) for worker in range(schedule.num_workers)]
        assert np.allclose(batch.worker_busy[k], busy, atol=1e-6)
        if schedule.synchronous:
            assert batch.bubble_ratio(k) == pytest.approx(bubble_ratio(ref), abs=1e-6)
        assert batch.throughput(k, micro_batch=3, width=2) == pytest.approx(
            throughput_samples_per_sec(
                ref, micro_batch_size=3, data_parallel_width=2
            ),
            rel=1e-9,
        )


def test_single_model_batch_uses_scalar_pass():
    arts = schedule_artifacts("chimera", 4, 8)
    cm = contention_free_model(1.0, 1.1, 0.9, 0.05)
    batch = simulate_batch_many(
        [(kernel_of(arts.graph()), cm)]
    )
    ref = simulate(arts.schedule, cm, graph=arts.graph())
    assert batch.used_fast_path == (True,)
    assert batch.iteration_time[0] == pytest.approx(ref.iteration_time, abs=ATOL)


def test_hierarchical_topology_matches():
    arts = schedule_artifacts("zb_v", 4, 6)
    cm = CostModel(
        forward_time=1.0,
        topology=HierarchicalTopology(
            LinkSpec(0.01, 0.0), LinkSpec(0.3, 0.0), 2
        ),
        activation_message_bytes=2.0,
        stage_grad_bytes=11.0,
        data_parallel_width=2,
    )
    for pipeline in ((), ("lower_p2p",)):
        schedule = arts.schedule_for(pipeline)
        graph = arts.graph_for(pipeline)
        assert_results_match(
            simulate(schedule, cm, graph=graph),
            simulate_fast(schedule, cm, kernel=kernel_of(graph)),
        )


# ----------------------------------------------------- contended routing
# A batch row's used_fast_path records whether its occupancy is zero on
# every channel (not which sweep ran); it gates nothing: every regime
# runs on the kernel.
def test_lowered_contention_runs_contended_kernel_path():
    """beta > 0 on a lowered schedule: contended routing, results exact."""
    arts = schedule_artifacts("dapple", 4, 6)
    schedule = arts.lowered()
    graph = arts.lowered_graph()
    cm = CostModel(
        forward_time=1.0,
        topology=FlatTopology(LinkSpec(alpha=0.05, beta=0.1)),
        activation_message_bytes=1.0,
    )
    assert not simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0]
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )
    # The implicit form routes single-sweep under the same model:
    # contention is a lowered-schedule concept.
    assert simulate_batch_many(
        [(kernel_of(arts.graph()), cm)]
    ).used_fast_path[0]


def test_blocking_sync_runs_contended_kernel_path():
    arts = schedule_artifacts("pipedream", 4, 8)
    cm = contention_free_model(1.0, 1.0, 1.0, 0.05)
    ref = simulate(arts.schedule, cm, graph=arts.graph(), blocking_sync=True)
    got = simulate_fast(
        arts.schedule, cm, kernel=kernel_of(arts.graph()), blocking_sync=True
    )
    assert got.iteration_time == pytest.approx(ref.iteration_time, abs=ATOL)


def test_batch_mixed_routing():
    """Contended rows take the FIFO path; the hint reports the routing."""
    arts = schedule_artifacts("gpipe", 4, 6)
    schedule = arts.lowered()
    graph = arts.lowered_graph()
    free = contention_free_model(1.0, 1.2, 0.8, 0.05)
    congested = free.with_(topology=FlatTopology(LinkSpec(alpha=0.05, beta=0.2)))
    models = [free, congested, free]
    batch = simulate_batch_many(
        [(kernel_of(graph), cm) for cm in models]
    )
    assert batch.used_fast_path == (True, False, True)
    for k, cm in enumerate(models):
        ref = simulate(schedule, cm, graph=graph)
        assert batch.iteration_time[k] == pytest.approx(ref.iteration_time, abs=ATOL)
    # The congested row really is slower: occupancy queues transfers.
    assert batch.iteration_time[1] > batch.iteration_time[0]


def test_batch_rejects_empty_model_list():
    with pytest.raises(ValueError):
        simulate_batch_many([])


def test_kernel_cached_on_graph():
    arts = schedule_artifacts("dapple", 2, 4)
    graph = arts.graph()
    assert kernel_of(graph) is kernel_of(graph)


# ------------------------------------------------------------ cache layer
def test_cache_hits_return_same_artifacts():
    cache = ScheduleCache(max_entries=4)
    first = cache.artifacts("gpipe", 2, 4)
    again = cache.artifacts("gpipe", 2, 4)
    assert first is again
    assert first.graph() is again.graph()
    assert first.lowered() is again.lowered()
    stats = cache.stats()
    assert stats.hits == 1 and stats.misses == 1 and stats.entries == 1


def test_cache_distinguishes_options():
    cache = ScheduleCache()
    plain = cache.artifacts("gpipe", 2, 4)
    recompute = cache.artifacts("gpipe", 2, 4, recompute=True)
    assert plain is not recompute
    assert not any(op.is_recompute for _, op in plain.schedule.all_ops())
    assert any(op.is_recompute for _, op in recompute.schedule.all_ops())


def test_cache_lru_eviction():
    cache = ScheduleCache(max_entries=2)
    a = cache.artifacts("gpipe", 2, 2)
    cache.artifacts("gpipe", 2, 3)
    cache.artifacts("gpipe", 2, 4)  # evicts the (2, 2) entry
    assert cache.stats().entries == 2
    assert cache.artifacts("gpipe", 2, 2) is not a


def test_mutating_returned_schedule_cannot_poison_cache():
    """The satellite contract: shared schedules are mutation-proof."""
    cache = ScheduleCache()
    schedule = cache.artifacts("dapple", 2, 4).schedule
    with pytest.raises(TypeError):
        schedule.metadata["poison"] = True  # type: ignore[index]
    # The sanctioned copy-on-write path leaves the cached instance alone.
    derived = schedule.with_metadata(poison=True)
    assert derived.metadata["poison"] is True
    fresh = cache.artifacts("dapple", 2, 4).schedule
    assert "poison" not in fresh.metadata
    # Equal to an uncached build: the proxy wrapper changes nothing else.
    pristine = build_schedule("dapple", 2, 4)
    assert fresh.worker_ops == pristine.worker_ops
    assert dict(fresh.metadata) == dict(pristine.metadata)


def test_lowered_artifact_is_mutation_proof_too():
    cache = ScheduleCache()
    lowered = cache.artifacts("chimera", 2, 4).lowered()
    with pytest.raises(TypeError):
        lowered.metadata["poison"] = True  # type: ignore[index]
    assert lowered.lowered  # the proxy preserves the lowering marker


def test_unhashable_options_bypass_cache():
    assert ScheduleCache.key("gpipe", 2, 4, {"bad": ["not", "hashable"]}) is None
    key = ScheduleCache.key("gpipe", 2, 4, {"recompute": True})
    assert key == ("gpipe", 2, 4, (("recompute", True),))


def test_cache_key_normalizes_default_recompute():
    """Explicit recompute=False and no-options callers share one entry."""
    assert ScheduleCache.key("gpipe", 2, 4, {"recompute": False}) == ScheduleCache.key(
        "gpipe", 2, 4, {}
    )
    cache = ScheduleCache()
    assert cache.artifacts("gpipe", 2, 4, recompute=False) is cache.artifacts(
        "gpipe", 2, 4
    )


def test_process_wide_cache_roundtrip():
    clear_schedule_cache()
    schedule_artifacts("gpipe", 2, 4)
    schedule_artifacts("gpipe", 2, 4)
    stats = schedule_cache_stats()
    assert stats.hits >= 1 and stats.misses >= 1
    clear_schedule_cache()
    assert schedule_cache_stats().lookups == 0
