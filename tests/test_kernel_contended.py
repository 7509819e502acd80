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

import gc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.bench.machines import MACHINES
from repro.bench.workloads import WORKLOADS
from repro.common.errors import KernelConvergenceError, ScheduleError
from repro.common.memo import WeakMemo
from repro.perf.calibration import calibrate_cost_model
from repro.schedules.cache import schedule_artifacts
from repro.schedules.registry import available_schemes
from repro.sim import kernel as kernel_mod
from repro.sim.cost import CostModel
from repro.sim.engine import _clear_of_transfers, _dense_of, simulate
from repro.sim.epilogue import _add_busy, _busy_runs
from repro.sim.kernel import (
    _blocking_floors,
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
from tests.reference_collectives import reference_collectives

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
LOWERED = PIPELINE_SPECS["lowered"]


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
        scheme, depth, n, passes="recompute" if pipeline == "recompute" else ()
    )
    return arts.schedule_for(spec), arts.graph_for(spec)


def assert_results_match(ref, got, *, blocking_sync=False):
    """Full SimulationResult equivalence to ATOL, transfers included.

    ``ref`` is the event engine's result. Its collectives and scalars
    must also equal, bitwise, the reference finalizer's run over its
    own records: both simulators share one collective epilogue, so the
    comparison with ``got`` alone would not check those rules.
    """
    assert reference_collectives(ref, blocking_sync=blocking_sync) == (
        ref.collectives,
        ref.compute_makespan,
        ref.iteration_time,
    )
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
# A 1-ulp tie: an arrival spelled send_end + (wire + queueing delay)
# instead of the engine's wire_start + wire ended worker 2's next forward
# 1 ulp late and flipped the FIFO order on the half-duplex channel (2, 3).
@example(
    scheme="zb_h1",
    n=2,
    f=0.43872637112527796,
    b=1.0,
    w=4.0,
    alpha=0.0,
    beta=0.43872637112527796,
    topo_kind="hier",
    duplex="half",
    pipeline="lowered",
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
    scheme=st.sampled_from(
        ["gpipe", "dapple", "chimera", "zb_h1", "pipedream", "pipedream_2bw"]
    ),
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
        ref,
        simulate_fast(schedule, cm, kernel=kernel_of(graph), blocking_sync=True),
        blocking_sync=True,
    )


def test_contended_batch_matches_event_engine():
    """simulate_batch_many mixes contended and free rows, all engine-exact."""
    arts = schedule_artifacts("chimera", 4, 6)
    schedule = arts.schedule_for(LOWERED)
    graph = arts.graph_for(LOWERED)
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
    kernel = kernel_of(schedule_artifacts("dapple", 4, 5).graph_for(LOWERED))
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
    kernel = kernel_of(arts.graph_for(LOWERED))
    result = simulate_fast(arts.schedule_for(LOWERED), cm, kernel=kernel)
    by_channel: dict[tuple, list] = {}
    for t in result.transfers:
        assert t.channel is not None
        by_channel.setdefault(t.channel, []).append(t)
    assert by_channel
    for transfers in by_channel.values():
        transfers.sort(key=lambda t: t.start)
        for prev, nxt in zip(transfers, transfers[1:]):
            assert nxt.start >= prev.start + prev.occupancy - ATOL


# --------------------------------------------- blocking-collective floors
def reference_blocking_floors(
    kernel, aux, start, end, send_end, wire_start, occupancy
):
    """The O(groups x transfers) floor scan, kept as the reference.

    Per group: mask every NIC-busy transfer whose engine pop key
    ``(send_end, worker, row position)`` sorts strictly before the
    resolving member's own, then push ``max(member launch starts)`` past
    those transfers' occupancy on the members' interfaces with the
    engine's linear rescan.
    """
    floors = np.zeros(len(aux.group_keys))
    for g, mids in enumerate(aux.member_ids):
        ce, cw, cp = max(
            (end[m], kernel.op_worker[m], kernel.row_pos[m]) for m in mids
        )
        s_w = kernel.send_worker
        visible = (
            (occupancy > 0.0)
            & (kernel.send_host_dir < 0)
            & (
                (send_end < ce)
                | ((send_end == ce) & (s_w < cw))
                | ((send_end == ce) & (s_w == cw) & (kernel.send_row_pos < cp))
            )
        )
        raw = max(start[m] for m in mids)
        members = set(aux.group_workers[g])
        nic: dict[int, list[tuple[float, float]]] = {}
        for i in np.flatnonzero(visible).tolist():
            interval = (wire_start[i], wire_start[i] + occupancy[i])
            for w in (int(s_w[i]), int(kernel.send_dst_w[i])):
                if w in members:
                    nic.setdefault(w, []).append(interval)
        floors[g] = _clear_of_transfers(raw, aux.group_workers[g], nic)
    return floors


#: Lowered kernels with blocking groups: single-worker groups
#: (pipedream), multi-worker groups (chimera's replicated stages) and
#: host transfers that must never block a collective (offload).
FLOOR_KERNELS = {
    "pipedream": lambda: schedule_artifacts("pipedream", 4, 6),
    "chimera": lambda: schedule_artifacts("chimera", 4, 4),
    "dapple_offload": lambda: schedule_artifacts(
        "dapple", 4, 4, passes=("offload",)
    ),
}

#: A coarse time grid: equal send ends, equal cutoffs and intervals that
#: touch exactly are drawn often, so pop-key ties are exercised.
grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(FLOOR_KERNELS)), data=st.data())
def test_blocking_floors_match_reference_scan(name, data):
    """The kernel's collective start floors equal the O(G x S) scan
    bitwise, under drawn times, queueing delays and occupancies."""
    arts = FLOOR_KERNELS[name]()
    kernel = kernel_of(arts.graph_for(LOWERED))
    aux = kernel.blocking_aux()
    total, n_send = kernel.total, len(kernel.send_oid)
    assert aux.group_keys and n_send
    ticks = st.lists(
        st.integers(min_value=0, max_value=8), min_size=total, max_size=total
    )
    # Few distinct end times make ties in send_end and in the members'
    # cutoffs common; equal workers then fall through to row positions.
    end = [float(t) for t in data.draw(ticks)]
    durations = st.lists(
        st.sampled_from([0.0, 0.5, 1.0]), min_size=total, max_size=total
    )
    start = [e - d for e, d in zip(end, data.draw(durations))]
    send_end = np.asarray(end)[kernel.send_oid]
    delay = np.array(data.draw(st.lists(grid, min_size=n_send, max_size=n_send)))
    wire_start = send_end + delay
    occupancy = np.array(
        data.draw(
            st.lists(
                st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
                min_size=n_send,
                max_size=n_send,
            )
        )
    )
    got = _blocking_floors(kernel, aux, start, end, send_end, wire_start, occupancy)
    ref = reference_blocking_floors(
        kernel, aux, start, end, send_end, wire_start, occupancy
    )
    assert np.array_equal(got, ref)


# ------------------------------------------------------------ busy runs
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_busy_runs_equal_folded_add_busy(data):
    """``_busy_runs`` builds each worker's merged runs exactly as folding
    ``_add_busy`` over the same live intervals: host sends and idle
    sends excluded, intervals ending at or before ``after`` cut,
    touching, nested and equal-start intervals merged."""
    n_send = data.draw(st.integers(min_value=0, max_value=24))
    workers = st.integers(min_value=0, max_value=4)

    def column(strategy):
        return np.array(
            data.draw(st.lists(strategy, min_size=n_send, max_size=n_send))
        )

    src = column(workers).astype(np.int64)
    dst = column(workers).astype(np.int64)
    kernel = SimpleNamespace(
        send_worker=src,
        send_dst_w=dst,
        send_host_dir=column(st.sampled_from([-1, -1, -1, 0, 1])).astype(np.int64),
    )
    # A coarse grid makes equal starts, touching ends and nesting common.
    wire_start = column(grid).astype(float)
    occupancy = column(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])).astype(float)
    after = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]))

    folded: dict = {}
    for i in range(n_send):
        s, e = float(wire_start[i]), float(wire_start[i] + occupancy[i])
        if occupancy[i] > 0.0 and kernel.send_host_dir[i] < 0 and e > after:
            _add_busy(folded, int(src[i]), s, e)
            _add_busy(folded, int(dst[i]), s, e)
    assert _busy_runs(kernel, wire_start, occupancy, after) == folded


# -------------------------------------------------------- non-convergence
def test_sweep_cap_raises_distinguished_error(monkeypatch):
    """Hitting the relaxation cap raises KernelConvergenceError — the
    kernel never returns non-converged times."""
    arts = schedule_artifacts("gpipe", 4, 6)
    schedule = arts.schedule_for(LOWERED)
    graph = arts.graph_for(LOWERED)
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
    assert "the last sweep still changed" in str(err.value)


def test_sweep_cap_raises_in_batch_path(monkeypatch):
    arts = schedule_artifacts("gpipe", 4, 6)
    cm = contended_model(1.0, 1.0, 1.0, make_topology("flat", "half", 0.05, 0.4))
    monkeypatch.setattr(kernel_mod, "MAX_RELAXATION_SWEEPS", 1)
    with pytest.raises(KernelConvergenceError):
        kernel = kernel_of(arts.graph_for(LOWERED))
        simulate_batch_many([(kernel, cm), (kernel, cm.with_(forward_time=1.5))])


def test_chained_blocking_collectives_converge(monkeypatch):
    """pipedream(W=2, D=2, B=1) at N=256 on piz-daint/bert-48, the
    candidate ``repro plan -P 4`` ranks at default flags: 512 blocking
    collectives, each pushed by the gradient send just before it and
    pushing the next. Resolving each group against the transfers its own
    sweep put on the wire settles the chain in a few sweeps (it took 257
    when floors came only from the previous sweep), and the result is
    the event engine's, bitwise."""
    cm = calibrate_cost_model(
        MACHINES["piz-daint"],
        WORKLOADS["bert-48"],
        depth=2,
        micro_batch=1,
        data_parallel_width=2,
    )
    arts = schedule_artifacts("pipedream", 2, 256)
    spec = ("lower_p2p",)
    schedule, graph = arts.schedule_for(spec), arts.graph_for(spec)
    assert len(kernel_of(graph).sync_groups) == 512
    ref = simulate(schedule, cm, graph=graph, blocking_sync=True)
    monkeypatch.setattr(kernel_mod, "MAX_RELAXATION_SWEEPS", 4)
    got = simulate_fast(schedule, cm, kernel=kernel_of(graph), blocking_sync=True)
    assert got.iteration_time == ref.iteration_time
    assert [(c.start, c.end) for c in got.collectives] == [
        (c.start, c.end) for c in ref.collectives
    ]
    assert_results_match(ref, got, blocking_sync=True)


# ----------------------------------------------------- SEND-table telemetry
def test_max_send_occupancy_reads_precomputed_table():
    """The occupancy check is O(sends) over the kernel's static SEND
    table — no per-call rescan of the dense op list."""
    arts = schedule_artifacts("dapple", 4, 6)
    graph = arts.graph_for(LOWERED)
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


# ------------------------------------------------------------- row memo
def memo_rows() -> list:
    """Free, contended lowered and offload host-channel rows (two kernels)."""
    lowered = schedule_artifacts("chimera", 8, 32).kernel_for(LOWERED)
    offload = schedule_artifacts(
        "chimera", 8, 32, passes=("offload",)
    ).kernel_for(LOWERED)
    rows = [
        (lowered, bitwise_model(regime, *row))
        for regime in ("free", "full")
        for row in BITWISE_ROWS
    ]
    return rows + [
        (offload, bitwise_model("offload", *row)) for row in BITWISE_ROWS
    ]


def assert_batches_identical(got, ref) -> None:
    assert got.num_micro_batches == ref.num_micro_batches
    assert got.cost_models == ref.cost_models
    assert got.compute_makespan.tobytes() == ref.compute_makespan.tobytes()
    assert got.iteration_time.tobytes() == ref.iteration_time.tobytes()
    assert [b.tobytes() for b in got.worker_busy] == [
        b.tobytes() for b in ref.worker_busy
    ]
    assert got.used_fast_path == ref.used_fast_path


@pytest.fixture
def solved_rows(monkeypatch):
    """Spy on ``_batch_rows``: the number of rows each call solves."""
    calls: list[int] = []
    solve = kernel_mod._batch_rows

    def spy(kernel, models):
        calls.append(len(models))
        return solve(kernel, models)

    monkeypatch.setattr(kernel_mod, "_batch_rows", spy)
    return calls


def test_row_memo_is_bitwise_equal_and_solves_once(solved_rows):
    rows = memo_rows()
    ref = simulate_batch_many(rows)
    assert sum(solved_rows) == len(rows)
    memo = WeakMemo()
    for solved in (len(rows), 0):
        solved_rows.clear()
        assert_batches_identical(simulate_batch_many(rows, memo=memo), ref)
        assert sum(solved_rows) == solved
    # A partly warm memo solves only the misses, still bitwise equal.
    memo = WeakMemo()
    simulate_batch_many(rows[::2], memo=memo)
    solved_rows.clear()
    assert_batches_identical(simulate_batch_many(rows, memo=memo), ref)
    assert sum(solved_rows) == len(rows[1::2])


def test_row_memo_skips_unhashable_models(solved_rows):
    kernel, model = memo_rows()[3]
    listed = model.with_(stage_scale=[1.0] * kernel.num_stages)
    memo = WeakMemo()
    ref = simulate_batch_many([(kernel, listed)])
    for _ in range(2):
        solved_rows.clear()
        batch = simulate_batch_many([(kernel, listed)], memo=memo)
        assert_batches_identical(batch, ref)
        assert solved_rows == [1]
    assert len(memo) == 0


def test_row_memo_busy_arrays_are_read_only():
    rows = memo_rows()[:2]
    memo = WeakMemo()
    for _ in range(2):  # the solving call and the hit
        batch = simulate_batch_many(rows, memo=memo)
        for busy in batch.worker_busy:
            with pytest.raises(ValueError):
                busy[0] = 0.0


def test_row_memo_caps_models_per_kernel(solved_rows):
    kernel = schedule_artifacts("gpipe", 2, 2).kernel_for(())
    cap = WeakMemo.MAX_KEYS_PER_OWNER
    rows = [(kernel, CostModel(forward_time=1.0 + i / 64)) for i in range(cap + 1)]
    memo = WeakMemo()
    simulate_batch_many(rows, memo=memo)
    assert memo.get(kernel, rows[0][1]) is None  # the oldest is dropped
    assert all(memo.get(kernel, model) is not None for _, model in rows[1:])
    solved_rows.clear()
    simulate_batch_many(rows, memo=memo)
    assert sum(solved_rows) == 1


def test_row_memo_forgets_a_collected_kernel():
    arts = schedule_artifacts("gpipe", 2, 2)
    kernel = kernel_mod.ScheduleKernel(arts.graph_for(()))
    memo = WeakMemo()
    simulate_batch_many([(kernel, CostModel())], memo=memo)
    assert len(memo) == 1
    del kernel
    gc.collect()
    assert len(memo) == 0
