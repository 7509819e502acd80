"""Differential battery for the kernel's contended regimes.

The array kernel has no event-engine fallback: lowered schedules with
nonzero channel occupancy run an inline per-channel FIFO serialization
(full-duplex links) or a fixed-point relaxation (half-duplex links,
blocking collectives) and must still reproduce :func:`repro.sim.engine.
simulate` to 1e-9. This battery drives every registered scheme through
random ``(alpha, beta, f, b, w)`` cost models, flat and hierarchical
topologies in both duplex modes, and the {lowered, fused, recompute}
pipelines — plus the structural properties that make the contended paths
trustworthy: per-channel FIFO ordering, a distinguished error on
non-convergence, and the precomputed SEND table behind
``send_tables``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import KernelConvergenceError, ScheduleError
from repro.schedules.cache import schedule_artifacts
from repro.schedules.registry import available_schemes
from repro.sim import kernel as kernel_mod
from repro.sim.cost import CostModel
from repro.sim.engine import _dense_of, simulate
from repro.sim.kernel import (
    _serialize_channels,
    kernel_of,
    simulate_batch_many,
    simulate_fast,
)
from repro.sim.network import (
    FlatTopology,
    HierarchicalTopology,
    HostChannel,
    LinkSpec,
)

ATOL = 1e-9

# Explicit profile for the battery (don't inherit defaults): each example
# runs the event engine as the reference, which takes tens of
# milliseconds on a lowered D=4 schedule, so the per-example deadline is
# disabled and the example count pinned where the grid — schemes ×
# topologies × duplex × pipelines — still gets dense coverage across runs.
BATTERY = settings(max_examples=30, deadline=None)

cost_units = st.floats(
    min_value=0.1, max_value=4.0, allow_nan=False, allow_infinity=False
)
alphas = st.floats(min_value=0.0, max_value=0.5)
betas = st.floats(min_value=0.01, max_value=0.5)

#: The lowered pipeline behind each named battery pipeline.
PIPELINE_SPECS = {
    "lowered": ("lower_p2p",),
    "fused": ("lower_p2p", "fuse_comm"),
    "recompute": ("recompute", "lower_p2p"),
}
PIPELINES = tuple(PIPELINE_SPECS)


def make_topology(kind: str, duplex: str, alpha: float, beta: float):
    if kind == "flat":
        return FlatTopology(LinkSpec(alpha, beta), duplex=duplex)
    return HierarchicalTopology(
        LinkSpec(alpha * 0.5, beta * 0.5),
        LinkSpec(alpha, beta),
        2,
        duplex=duplex,
    )


def contended_model(f, b, w, topology) -> CostModel:
    return CostModel(
        forward_time=f,
        backward_input_ratio=b,
        backward_weight_ratio=w,
        topology=topology,
        activation_message_bytes=4.0,
        stage_grad_bytes=7.0,
        data_parallel_width=2,
        sync_launch_overhead=0.01,
    )


def pipeline_artifacts(scheme: str, depth: int, n: int, pipeline: str):
    """(schedule, graph) for one named pipeline — always lowered."""
    spec = PIPELINE_SPECS[pipeline]
    arts = schedule_artifacts(
        scheme, depth, n, recompute=(pipeline == "recompute")
    )
    return arts.schedule_for(spec), arts.graph_for(spec)


def assert_results_match(ref, got):
    """Full SimulationResult equivalence to ATOL, transfers included."""
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
        assert t_got.channel == t_ref.channel
        assert t_got.start == pytest.approx(t_ref.start, abs=ATOL)
        assert t_got.end == pytest.approx(t_ref.end, abs=ATOL)
        assert t_got.occupancy == pytest.approx(t_ref.occupancy, abs=ATOL)


# ------------------------------------------------------ differential battery
@BATTERY
@given(
    scheme=st.sampled_from(available_schemes()),
    n=st.integers(min_value=2, max_value=6),
    f=cost_units,
    b=cost_units,
    w=cost_units,
    alpha=alphas,
    beta=betas,
    topo_kind=st.sampled_from(["flat", "hier"]),
    duplex=st.sampled_from(["full", "half"]),
    pipeline=st.sampled_from(PIPELINES),
)
def test_contended_matches_event_engine(
    scheme, n, f, b, w, alpha, beta, topo_kind, duplex, pipeline
):
    schedule, graph = pipeline_artifacts(scheme, 4, n, pipeline)
    cm = contended_model(f, b, w, make_topology(topo_kind, duplex, alpha, beta))
    # beta > 0 on a lowered schedule: the batch row must report contended
    # routing, and the kernel must still be engine-exact.
    assert not simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0]
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )


@BATTERY
@given(
    scheme=st.sampled_from(["gpipe", "dapple", "chimera", "zb_h1"]),
    n=st.integers(min_value=2, max_value=5),
    f=cost_units,
    b=cost_units,
    beta=betas,
    duplex=st.sampled_from(["full", "half"]),
)
def test_contended_blocking_matches_event_engine(scheme, n, f, b, beta, duplex):
    """Blocking collectives + channel queueing: the full fixed point.

    Some scheme × blocking combinations are structurally impossible (a
    blocking collective barriers ops that feed its own members — e.g.
    Chimera's eager sync on a lowered schedule) and deadlock the event
    engine; the kernel must refuse those identically instead of
    inventing times for them.
    """
    schedule, graph = pipeline_artifacts(scheme, 4, n, "lowered")
    cm = contended_model(f, b, 1.0, make_topology("flat", duplex, 0.05, beta))
    assert not simulate_batch_many(
        [(kernel_of(graph), cm)]
    ).used_fast_path[0]
    try:
        ref = simulate(schedule, cm, graph=graph, blocking_sync=True)
    except ScheduleError:
        with pytest.raises(ScheduleError):
            simulate_fast(schedule, cm, kernel=kernel_of(graph), blocking_sync=True)
        return
    assert_results_match(
        ref, simulate_fast(schedule, cm, kernel=kernel_of(graph), blocking_sync=True)
    )


def test_contended_batch_matches_event_engine():
    """simulate_batch_many mixes contended and free rows, all engine-exact."""
    arts = schedule_artifacts("chimera", 4, 6)
    schedule = arts.lowered()
    graph = arts.lowered_graph()
    models = [
        contended_model(1.0, 1.2, 0.8, make_topology("flat", "full", 0.05, 0.2)),
        contended_model(1.3, 0.9, 1.1, make_topology("hier", "half", 0.1, 0.3)),
        contended_model(0.8, 1.0, 1.0, make_topology("flat", "full", 0.05, 0.0)),
        contended_model(1.0, 1.0, 1.0, make_topology("flat", "half", 0.0, 0.4)),
    ]
    batch = simulate_batch_many(
        [(kernel_of(graph), cm) for cm in models]
    )
    assert batch.used_fast_path == (False, False, True, False)
    for k, cm in enumerate(models):
        ref = simulate(schedule, cm, graph=graph)
        assert batch.compute_makespan[k] == pytest.approx(
            ref.compute_makespan, abs=ATOL
        )
        assert batch.iteration_time[k] == pytest.approx(
            ref.iteration_time, abs=ATOL
        )


def test_batch_many_heterogeneous_shapes():
    """simulate_batch_many: one call across (scheme, D, N, pipeline) shapes."""
    rows = [
        ("gpipe", 4, 4, "lowered", make_topology("flat", "full", 0.05, 0.25)),
        ("gpipe", 4, 4, "lowered", make_topology("flat", "full", 0.05, 0.0)),
        ("chimera", 2, 6, "fused", make_topology("hier", "full", 0.1, 0.2)),
        ("dapple", 4, 3, "recompute", make_topology("flat", "half", 0.05, 0.3)),
        ("zb_v", 2, 4, "lowered", make_topology("flat", "full", 0.02, 0.1)),
        ("gpipe", 4, 4, "lowered", make_topology("flat", "full", 0.05, 0.25)),
    ]
    items, graphs = [], []
    for scheme, depth, n, pipeline, topo in rows:
        schedule, graph = pipeline_artifacts(scheme, depth, n, pipeline)
        items.append((schedule, contended_model(1.0, 1.1, 0.9, topo)))
        graphs.append(graph)
    batch = simulate_batch_many(
        [(kernel_of(g), cm) for g, (_, cm) in zip(graphs, items)]
    )
    assert len(batch) == len(rows)
    assert batch.used_fast_path == (False, True, False, False, False, False)
    for k, (schedule, cm) in enumerate(items):
        ref = simulate(schedule, cm, graph=graphs[k])
        assert batch.num_micro_batches[k] == schedule.num_micro_batches
        assert batch.compute_makespan[k] == pytest.approx(
            ref.compute_makespan, abs=ATOL
        )
        assert batch.iteration_time[k] == pytest.approx(
            ref.iteration_time, abs=ATOL
        )
        busy = [ref.busy_time(worker) for worker in range(schedule.num_workers)]
        assert np.allclose(batch.worker_busy[k], busy, atol=1e-6)


# ------------------------------------------------------------ FIFO property
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_channel_fifo_ordering_property(data):
    """Wire starts are FIFO per channel: monotone in enqueue order, with
    no occupancy overlap, and never before the payload is ready."""
    kernel = kernel_of(schedule_artifacts("dapple", 4, 5).lowered_graph())
    n = len(kernel.send_oid)
    assert n > 0
    send_end = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=50.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    occupancy = np.array(
        data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=5.0),
                min_size=n,
                max_size=n,
            )
        )
    )
    chan = kernel.send_worker * kernel.num_workers + kernel.send_dst_w
    wire_start = _serialize_channels(kernel, send_end, occupancy, chan)
    assert (wire_start >= send_end - ATOL).all()
    # Enqueue order = the engine's event-pop order.
    order = np.lexsort((kernel.send_row_pos, kernel.send_worker, send_end))
    last_start: dict[int, float] = {}
    last_free: dict[int, float] = {}
    for i in order.tolist():
        c = int(chan[i])
        if c in last_start:
            assert wire_start[i] >= last_start[c] - ATOL
            assert wire_start[i] >= last_free[c] - ATOL
        last_start[c] = float(wire_start[i])
        last_free[c] = float(wire_start[i] + occupancy[i])


def test_simulated_transfers_never_overlap_a_channel():
    """End-to-end FIFO: per channel, occupancy intervals are disjoint."""
    arts = schedule_artifacts("gpipe", 4, 8)
    cm = contended_model(1.0, 1.0, 1.0, make_topology("flat", "half", 0.05, 0.4))
    result = simulate_fast(arts.lowered(), cm, kernel=kernel_of(arts.lowered_graph()))
    by_channel: dict[tuple, list] = {}
    for t in result.transfers:
        assert t.channel is not None
        by_channel.setdefault(t.channel, []).append(t)
    assert by_channel
    for transfers in by_channel.values():
        transfers.sort(key=lambda t: t.start)
        for prev, nxt in zip(transfers, transfers[1:]):
            assert nxt.start >= prev.start + prev.occupancy - ATOL


# -------------------------------------------------------- non-convergence
def test_sweep_cap_raises_distinguished_error(monkeypatch):
    """Hitting the relaxation cap raises KernelConvergenceError — the
    kernel never returns non-converged times."""
    arts = schedule_artifacts("gpipe", 4, 6)
    schedule = arts.lowered()
    graph = arts.lowered_graph()
    cm = contended_model(1.0, 1.0, 1.0, make_topology("flat", "half", 0.05, 0.4))
    # Sanity: the real cap converges and matches the engine.
    assert_results_match(
        simulate(schedule, cm, graph=graph),
        simulate_fast(schedule, cm, kernel=kernel_of(graph)),
    )
    monkeypatch.setattr(kernel_mod, "MAX_RELAXATION_SWEEPS", 1)
    with pytest.raises(KernelConvergenceError) as err:
        simulate_fast(schedule, cm, kernel=kernel_of(graph))
    assert "1 sweep" in str(err.value)


def test_sweep_cap_raises_in_batch_path(monkeypatch):
    arts = schedule_artifacts("gpipe", 4, 6)
    cm = contended_model(1.0, 1.0, 1.0, make_topology("flat", "half", 0.05, 0.4))
    monkeypatch.setattr(kernel_mod, "MAX_RELAXATION_SWEEPS", 1)
    with pytest.raises(KernelConvergenceError):
        kernel = kernel_of(arts.lowered_graph())
        simulate_batch_many([(kernel, cm), (kernel, cm.with_(forward_time=1.5))])


# ----------------------------------------------------- SEND-table telemetry
def test_max_send_occupancy_reads_precomputed_table():
    """The occupancy check is O(sends) over the kernel's static SEND
    table — no per-call rescan of the dense op list."""
    arts = schedule_artifacts("dapple", 4, 6)
    graph = arts.lowered_graph()
    kernel = kernel_of(graph)
    cm = contended_model(1.0, 1.0, 1.0, make_topology("flat", "full", 0.05, 0.2))
    expected = kernel.send_tables(cm)[1].copy()
    assert expected.max() > 0.0
    # Poison the per-op scan sources after the kernel is built: a
    # rescanning implementation would crash or change its answer.
    dense = _dense_of(graph)
    saved_send_info, saved_ops_flat = dense.send_info, dense.ops_flat
    try:
        dense.send_info = None
        dense.ops_flat = None
        assert np.array_equal(kernel.send_tables(cm)[1], expected)
        assert not simulate_batch_many(
            [(kernel_of(graph), cm)]
        ).used_fast_path[0]
    finally:
        dense.send_info = saved_send_info
        dense.ops_flat = saved_ops_flat
    # Zero-beta links report zero occupancy (single-sweep routing).
    free = contended_model(
        1.0, 1.0, 1.0, make_topology("flat", "full", 0.05, 0.0)
    )
    assert not kernel.send_tables(free)[1].any()


# ------------------------------------------------ batch == simulate_fast
#: (f, b, w, alpha, beta) of the three rows sharing one kernel.
BITWISE_ROWS = (
    (1.0, 1.2, 0.8, 0.05, 0.2),
    (1.3, 0.9, 1.1, 0.1, 0.3),
    (0.8, 1.0, 1.0, 0.02, 0.4),
)


def bitwise_model(regime: str, f, b, w, alpha, beta) -> CostModel:
    if regime == "free":
        return contended_model(f, b, w, make_topology("flat", "full", alpha, 0.0))
    if regime == "full":
        return contended_model(f, b, w, make_topology("hier", "full", alpha, beta))
    if regime == "half":
        return contended_model(f, b, w, make_topology("flat", "half", alpha, beta))
    return contended_model(
        f, b, w, make_topology("flat", "full", alpha, beta)
    ).with_(
        host_channel=HostChannel(LinkSpec(alpha, beta), duplex="half"),
        offload_message_bytes=2.0,
    )


@pytest.mark.parametrize(
    "regime, form",
    [
        ("free", "lowered"),
        ("full", "lowered"),
        ("half", "lowered"),
        ("offload", "lowered"),
        ("offload", "implicit"),
    ],
)
@pytest.mark.parametrize(
    "scheme, depth, n, profitable",
    [("chimera", 8, 32, True), ("gems", 4, 8, False)],
)
def test_batch_rows_equal_simulate_fast_bitwise(
    scheme, depth, n, profitable, regime, form
):
    """Every batch row reproduces simulate_fast's iteration time and
    compute makespan exactly (``==``), whichever regime the rows share
    and whether or not the kernel's wave sweep is profitable."""
    passes = ("offload",) if regime == "offload" else ()
    arts = schedule_artifacts(scheme, depth, n, passes=passes)
    spec = ("lower_p2p",) if form == "lowered" else ()
    schedule, kernel = arts.schedule_for(spec), kernel_of(arts.graph_for(spec))
    assert kernel.wave_sweep_profitable is profitable
    models = [bitwise_model(regime, *row) for row in BITWISE_ROWS]
    batch = simulate_batch_many(
        [(kernel, cm) for cm in models]
    )
    for k, cm in enumerate(models):
        fast = simulate_fast(schedule, cm, kernel=kernel)
        assert batch.iteration_time[k] == fast.iteration_time
        assert batch.compute_makespan[k] == fast.compute_makespan
        contended = bool(kernel.send_tables(cm)[1].any())
        assert batch.used_fast_path[k] == (not contended)
