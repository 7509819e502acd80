"""Discrete-event execution of a schedule under a cost model.

Semantics
---------
* Each worker executes its operation list strictly **in order** (this is how
  a static pipeline schedule runs in practice); an operation starts as soon
  as the worker is free and all of its data dependencies are satisfied.
* A cross-worker dependency (activation or input-gradient transfer) delays
  the consumer by the alpha-beta p2p time — matching the paper's model where
  ``Comm_p2p`` sits on the critical path between stages. Split-backward
  schedules need no special casing: a ``BACKWARD_INPUT`` produces the
  gradient message, and its deferred ``BACKWARD_WEIGHT`` is held back only
  by the local ``DEFERRAL`` edge plus worker order, which is what lets the
  zero-bubble schedules park ``W`` ops inside bubbles.
* **Lowered schedules** (:mod:`repro.schedules.lowering`) carry explicit
  ``SEND``/``RECV`` ops. A ``SEND`` blocks its worker only for
  ``comm_launch_overhead``, then launches a transfer that occupies the
  link's contention channel for the bandwidth term (``beta * L``, the
  latency ``alpha`` pipelines) — transfers on one channel are serviced
  FIFO, contend with each other, and overlap with compute. The matching
  ``RECV`` completes when the transfer arrives. With ``beta = 0`` the
  occupancy vanishes and lowered timing equals the implicit model exactly.
* ``ALLREDUCE`` operations are non-blocking by default: reaching one in the
  list *launches* it (consuming ``sync_launch_overhead`` of worker time);
  the collective itself starts once every group member has launched and
  completes ``allreduce_time`` later, in the background. In a lowered
  simulation a collective additionally waits for the p2p transfers still
  in flight on its members' interfaces — point-to-point traffic and
  collectives contend for the same links. The iteration ends when all
  compute **and** all collectives are done — exactly the
  ``max(Comm_unoverlapped)`` term of Equation (1). ``blocking_sync=True``
  turns them into synchronous collectives for ablation.

Engine
------
``simulate`` is a heap-based event-queue simulator: every operation
completion (and collective resolution) is one event, and each event does
O(out-degree) work plus a heap push/pop — O(E log E) overall for a
schedule with E dependency edges. It is the **oracle**, not a user path:
:func:`repro.simulate` is the array kernel's
:func:`~repro.sim.kernel.simulate_fast`, and the kernel's differential
batteries compare against this engine to 1e-9. Only tests, the ``event``
baseline that ``repro bench`` times, and the kernel/engine benchmark
scripts call it. The kernel is in turn the engine's check: it builds
its arrays from the graph's int-id tables, never from the engine's
``_DenseSchedule``, and the two agree in every regime (implicit,
lowered, contended, blocking, offload). The engine is the oracle for op
and wire times; the background-collective rules after the loop are the
one epilogue both simulators run (:mod:`repro.sim.epilogue`), whose
oracle is the reference finalizer in ``tests/reference_collectives.py``.
"""

from __future__ import annotations

import functools
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.common.errors import ScheduleError
from repro.schedules.dependencies import (
    ACTIVATION,
    GRADIENT,
    TRANSFER,
    DependencyGraph,
    OpKey,
    build_dependency_graph,
)
from repro.schedules.ir import OP_KINDS, Operation, OpKind, OpTable, Schedule
from repro.sim.cost import CostModel
from repro.sim.epilogue import _iteration_time


@dataclass(frozen=True)
class TimedOp:
    """An operation with its simulated start/end times."""

    op: Operation
    worker: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CollectiveRecord:
    """One gradient-synchronization collective instance."""

    stage: int
    micro_batches: tuple[int, ...]
    workers: tuple[int, ...]
    launch_times: tuple[float, ...]
    start: float
    end: float

    @property
    def cost(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TransferRecord:
    """One explicit point-to-point transfer of a lowered schedule."""

    src_worker: int
    dst_worker: int
    payload: str  # "act" or "grad"
    micro_batches: tuple[int, ...]
    part: tuple[int, int]
    #: Moment the message's bytes start serializing onto the link (after
    #: any queueing behind earlier transfers on the same channel).
    start: float
    #: Arrival at the destination (start + alpha + beta * L).
    end: float
    #: Seconds the contention channel was held (beta * L).
    occupancy: float
    #: Channel id from the topology, or None when links are free.
    channel: tuple | None
    #: Position of the issuing SEND/OFFLOAD/RELOAD op in its worker's
    #: row: with ``src_worker``, the record's structural identity.
    op_index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SimulationResult:
    """Timed schedule plus the derived iteration-level quantities.

    ``compute_makespan`` and ``iteration_time`` are plain attributes, and
    :meth:`busy_time`, :meth:`compute_window` and :meth:`sync_spans` read
    the solve's arrays: per-op start and end times indexed by the
    dependency graph's row-major op ids, and per-collective spans. The
    per-op records — ``timed``, ``collectives`` and ``transfers`` — are
    built on first read and kept: the event engine passes them built, the
    array kernel passes a function that builds them, so a caller that
    reads only scalars and those methods never pays for them.
    """

    def __init__(
        self,
        schedule: Schedule,
        cost_model: CostModel,
        *,
        compute_makespan: float,
        iteration_time: float,
        start: list[float],
        end: list[float],
        compute_rows: tuple[np.ndarray, np.ndarray],
        sync_spans: list[tuple],
        records: tuple | Callable[[], tuple],
    ):
        self.schedule = schedule
        self.cost_model = cost_model
        #: Last compute (forward/backward) completion across all workers.
        self.compute_makespan = compute_makespan
        #: Iteration time including non-overlapped gradient synchronization.
        self.iteration_time = iteration_time
        self._start = start
        self._end = end
        #: Compute op ids grouped by worker in row order, and per-worker
        #: offsets into them.
        self._compute_rows = compute_rows
        #: ``(stage, micro_batches, workers, start, end)`` per collective.
        self._sync_spans = sync_spans
        #: ``(timed, collectives, transfers)``, or the function building it.
        self._records = records

    def _built(self) -> tuple:
        if callable(self._records):
            self._records = self._records()
        return self._records

    @functools.cached_property
    def timed(self) -> dict[OpKey, TimedOp]:
        """Every op's :class:`TimedOp`, keyed by ``op.key()``."""
        return self._built()[0]

    @functools.cached_property
    def collectives(self) -> list[CollectiveRecord]:
        """Collective records in ``(stage, micro_batches)`` order."""
        return self._built()[1]

    @functools.cached_property
    def transfers(self) -> tuple[TransferRecord, ...]:
        """Explicit p2p transfers (lowered schedules only; empty otherwise)."""
        return self._built()[2]

    @functools.cached_property
    def _compute_columns(
        self,
    ) -> tuple[list[int], list[float], list[float], list[float]]:
        """Per-worker offsets, then each compute op's start, end and
        ``end - start``, grouped by worker in row order."""
        ids, ptr = self._compute_rows
        start = np.asarray(self._start)[ids]
        end = np.asarray(self._end)[ids]
        return ptr.tolist(), start.tolist(), end.tolist(), (end - start).tolist()

    def timed_ops_on(self, worker: int) -> list[TimedOp]:
        """This worker's timed compute ops, in execution order."""
        return [
            self.timed[op.key()]
            for op in self.schedule.ops_on(worker)
            if op.is_compute
        ]

    def transfers_from(self, worker: int) -> list[TransferRecord]:
        """Outgoing transfers of ``worker``, ordered by wire time."""
        return sorted(
            (t for t in self.transfers if t.src_worker == worker),
            key=lambda t: (t.start, t.end, t.dst_worker),
        )

    def busy_time(self, worker: int) -> float:
        """Total compute seconds on ``worker``: each compute op's
        ``end - start``, summed in row order."""
        ptr, _, _, spans = self._compute_columns
        return sum(spans[ptr[worker] : ptr[worker + 1]])

    def compute_window(self, worker: int) -> tuple[float, float] | None:
        """``(first compute start, last compute end)`` on ``worker``, or
        None for a worker without compute."""
        ptr, start, end, _ = self._compute_columns
        lo, hi = ptr[worker], ptr[worker + 1]
        return (start[lo], end[hi - 1]) if lo < hi else None

    def bubble_time(self, worker: int) -> float:
        """Idle compute time on ``worker`` within the compute makespan."""
        return self.compute_makespan - self.busy_time(worker)

    def sync_tail(self) -> float:
        """Non-overlapped synchronization time appended after compute."""
        return self.iteration_time - self.compute_makespan

    def sync_spans(self) -> list[tuple]:
        """``(stage, micro_batches, workers, start, end)`` of every
        collective, in ``(stage, micro_batches)`` order: the collective
        records' fields, read without building the records."""
        return sorted(self._sync_spans, key=lambda span: (span[0], span[1]))


def _clear_of_transfers(
    start: float,
    workers,
    nic_busy: dict[int, list[tuple[float, float]]],
) -> float:
    """Push ``start`` past in-flight transfer occupancy on any member.

    A collective cannot start while a message is still serializing on a
    member's interface. The event loop applies it when it resolves a
    blocking collective, over the transfers already on the wire; the
    test references apply it too. Background collectives are cleared by
    the shared epilogue (:func:`repro.sim.epilogue._clear_sorted`, which
    reaches the same value over merged busy runs).
    """
    moved = True
    while moved:
        moved = False
        for w in workers:
            for s, e in nic_busy.get(w, ()):
                if s <= start < e:
                    start = e
                    moved = True
    return start


#: Kind codes of the dense representation (branch on ints, not enums).
_PLAIN, _ALLREDUCE, _SEND, _RECV = 0, 1, 2, 3


def first_seen(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of the key columns by first appearance.

    Returns each row's id and, per id, the index of its first row.
    """
    order = np.lexsort(keys[::-1])  # stable: equal rows keep row order
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        ranked = key[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    first = order[new]
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = rank[np.cumsum(new) - 1]
    return ids, np.sort(first)


def _classify_ops(table: OpTable) -> tuple[np.ndarray, ...]:
    """Per-op kind code, host-transfer direction and duration shape.

    The one op classification the engine's dense form and the array
    kernel share, read from the schedule's op table. Host ops reuse the
    ``_SEND`` machinery (both launch a transfer that occupies a channel);
    the host direction (-1 for network sends and non-sends, 0 for an
    OFFLOAD's device→host copy, 1 for a RELOAD's host→device copy) tells
    the wire-parameter setup to price them on the worker's host channel
    instead of a link. The shape is the duration-memoization class:
    ops that agree on everything ``compute_time()`` reads (kind, stage,
    work units, recompute flag) share one, numbered by first appearance.
    Returns the three per-op arrays and each shape's first op.
    """
    code = _CODE_OF_KIND[table.kind]
    # Work units (op.work_units): 0 for every non-_PLAIN (non-compute) op.
    units = np.where(code == _PLAIN, np.diff(table.mb_ptr) / table.part_count, 0.0)
    shape, reps = first_seen(table.kind, table.stage, units, table.recompute)
    return code, _HOST_DIR_OF_KIND[table.kind], shape, reps


#: Kind code and host direction of each op kind, indexed like ``OP_KINDS``.
_CODE_OF_KIND, _HOST_DIR_OF_KIND = np.array(
    [
        {
            OpKind.ALLREDUCE: (_ALLREDUCE, -1),
            OpKind.SEND: (_SEND, -1),
            OpKind.RECV: (_RECV, -1),
            OpKind.OFFLOAD: (_SEND, 0),
            OpKind.RELOAD: (_SEND, 1),
        }.get(kind, (_PLAIN, -1))
        for kind in OP_KINDS
    ]
).T


class _DenseSchedule:
    """The event engine's dense form of a dependency graph.

    Reads the graph's int-id tables (row-major op ids, CSR incoming
    edges) and splits its edges by how the event loop consumes them, so
    the loop branches on ints and indexes lists instead of hashing
    ``op.key()`` tuples. Built once per graph and cached on it —
    repeated simulations of one schedule under many cost models
    (calibration sweeps, ablations) pay only the per-cost-model arrays.
    It is also the layout the collective epilogue reads
    (:mod:`repro.sim.epilogue`), under the attribute names the kernel
    uses. Only the engine builds it; the array kernel builds its own
    arrays from the same tables.
    """

    def __init__(self, graph: DependencyGraph):
        schedule = graph.schedule
        self.ops_flat: list[Operation] = graph.ops_flat
        self.op_worker: list[int] = graph.op_worker
        #: Position of each op within its worker's row. Together with
        #: ``(end, worker)`` this reconstructs the event loop's pop order:
        #: the heap orders events by ``(end, worker)``, and a worker's own
        #: ties resolve in program order because its next event is only
        #: pushed after the previous one pops. The array kernel's FIFO
        #: serialization sorts transfers by exactly this key.
        self.row_pos: list[int] = graph.row_pos
        self.row_ids: list[range] = []
        start = 0
        for row in schedule.worker_ops:
            self.row_ids.append(range(start, start + len(row)))
            start += len(row)
        total = len(self.ops_flat)
        self.total = total

        code, host_dir, shape, _ = _classify_ops(schedule.op_table())
        self.kind_code: list[int] = code.tolist()
        self.num_workers = schedule.num_workers
        #: Compute op ids (row-major, so grouped by worker) and per-worker
        #: offsets into them.
        self.compute_by_worker = np.flatnonzero(code == _PLAIN)
        self.worker_ptr = np.searchsorted(
            np.asarray(self.op_worker)[self.compute_by_worker],
            np.arange(self.num_workers + 1),
        )
        self.host_dir: list[int] = host_dir.tolist()
        #: Duration class of each op (see :func:`_classify_ops`).
        self.shape: list[int] = shape.tolist()
        groups: dict[tuple, list[int]] = defaultdict(list)
        for oid in np.flatnonzero(code == _ALLREDUCE).tolist():
            op = self.ops_flat[oid]
            groups[op.stage, op.micro_batches].append(oid)
        #: Sync group key ``(stage, micro_batches)`` -> ids of its
        #: ALLREDUCE members, in id order; and each member's key.
        self.sync_groups = {key: tuple(ids) for key, ids in groups.items()}
        self.group_of = {m: key for key, ids in groups.items() for m in ids}

        ptr = graph.dep_ptr
        dep_src, dep_kind, dep_units = graph.dep_src, graph.dep_kind, graph.dep_units
        self.in_count = [ptr[i + 1] - ptr[i] for i in range(total)]
        #: Local edges: satisfied at the producer's end time.
        self.out_local: list[list[int]] = [[] for _ in range(total)]
        #: Implicit cross-worker edges: (dst, src_worker, dst_worker, units).
        self.out_remote: list[list[tuple[int, int, int, float]]] = [
            [] for _ in range(total)
        ]
        #: SEND id -> RECV id of its TRANSFER edge (-1 when absent).
        self.transfer_out = [-1] * total
        #: SEND id -> (dst_worker, payload units) for the wire. Filled from
        #: the TRANSFER edge so the payload size has exactly one source of
        #: truth: the graph's ``dep_units``, precomputed at graph build.
        self.send_info: dict[int, tuple[int, float]] = {}
        op_worker = self.op_worker
        for dst in range(total):
            dst_worker = op_worker[dst]
            for e in range(ptr[dst], ptr[dst + 1]):
                src = dep_src[e]
                kind = dep_kind[e]
                if kind == TRANSFER:
                    self.transfer_out[src] = dst
                    self.send_info[src] = (dst_worker, dep_units[e])
                elif (
                    kind == ACTIVATION or kind == GRADIENT
                ) and op_worker[src] != dst_worker:
                    self.out_remote[src].append(
                        (dst, op_worker[src], dst_worker, dep_units[e])
                    )
                else:
                    self.out_local[src].append(dst)
        # The send table, in id order: the epilogue reads its columns, and
        # the event loop records each wire start at the send's index.
        self.send_info = dict(sorted(self.send_info.items()))
        sends = list(self.send_info)
        self.send_worker = np.asarray(op_worker, dtype=np.int64)[sends]
        self.send_dst_w = np.array(
            [dst_w for dst_w, _ in self.send_info.values()], dtype=np.int64
        )
        self.send_host_dir = host_dir[sends]


def _dense_of(graph: DependencyGraph) -> _DenseSchedule:
    dense = getattr(graph, "_dense", None)
    if dense is None:
        dense = _DenseSchedule(graph)
        graph._dense = dense  # type: ignore[attr-defined]
    return dense


def simulate(
    schedule: Schedule,
    cost_model: CostModel,
    *,
    graph: DependencyGraph | None = None,
    blocking_sync: bool = False,
) -> SimulationResult:
    """Simulate one training iteration of ``schedule`` under ``cost_model``.

    Parameters
    ----------
    graph:
        Optionally a pre-built dependency graph (skips rebuilding when
        simulating the same schedule under many cost models).
    blocking_sync:
        Treat allreduces as synchronous (the worker blocks until the
        collective completes). Default False: non-blocking launch +
        background completion (§3.2).
    """
    if graph is None:
        graph = build_dependency_graph(schedule)
    dense = _dense_of(graph)

    num_workers = schedule.num_workers
    worker_rows = schedule.worker_ops
    ops_flat = dense.ops_flat
    op_worker = dense.op_worker
    row_ids = dense.row_ids
    kind_code = dense.kind_code
    out_local = dense.out_local
    out_remote = dense.out_remote
    transfer_out = dense.transfer_out
    total = dense.total

    # ---- per-cost-model arrays ------------------------------------------
    # Durations memoized by the op's shape class from _classify_ops: a
    # schedule has thousands of ops but only a handful of shapes.
    dur_of_shape: dict[int, float] = {}
    duration = [0.0] * total
    for oid, op in enumerate(ops_flat):
        code = kind_code[oid]
        if code == _ALLREDUCE:
            duration[oid] = cost_model.sync_launch_overhead
        elif code == _SEND or code == _RECV:
            duration[oid] = cost_model.comm_launch_overhead
        else:
            shape = dense.shape[oid]
            d = dur_of_shape.get(shape)
            if d is None:
                d = cost_model.compute_time(op)
                dur_of_shape[shape] = d
            duration[oid] = d

    # Implicit p2p delays and wire parameters, memoized per (src, dst,
    # units) — topologies expose few distinct worker-pair classes.
    p2p_cache: dict[tuple, float] = {}

    def p2p_delay(src_w: int, dst_w: int, units: float) -> float:
        mkey = (src_w, dst_w, units)
        d = p2p_cache.get(mkey)
        if d is None:
            d = cost_model.p2p_time(src_w, dst_w, units)
            p2p_cache[mkey] = d
        return d

    host_dir = dense.host_dir
    #: SEND id -> (send index, dst_worker, wire time, occupancy, channel).
    send_wire: dict[int, tuple[int, int, float, float, tuple | None]] = {}
    occupancy = [0.0] * len(dense.send_info)
    for k, (oid, (dst_w, units)) in enumerate(dense.send_info.items()):
        src_w = op_worker[oid]
        hd = host_dir[oid]
        if hd >= 0:
            # OFFLOAD/RELOAD: the copy runs on the worker's own host
            # channel — host-link alpha-beta time, contending only with
            # this worker's other host transfers (never with p2p links).
            send_wire[oid] = (
                k,
                dst_w,
                cost_model.host_time(units),
                cost_model.host_occupancy(units),
                cost_model.host_channel_key(src_w, "h2d" if hd else "d2h"),
            )
        else:
            send_wire[oid] = (
                k,
                dst_w,
                p2p_delay(src_w, dst_w, units),
                cost_model.p2p_occupancy(src_w, dst_w, units),
                cost_model.p2p_channel(src_w, dst_w),
            )
        occupancy[k] = send_wire[oid][3]
    wire_start_of = [0.0] * len(occupancy)

    sync_groups = dense.sync_groups
    group_of = dense.group_of
    group_waiters: dict[tuple, list[int]] = defaultdict(list)
    #: Blocking collectives resolved during the loop: group -> (start, end).
    #: The epilogue takes these verbatim so the released workers and the
    #: collective records can never contradict each other.
    loop_resolved: dict[tuple, tuple[float, float]] = {}

    # Link channels: FIFO occupancy for explicit transfers. nic_busy_loop
    # mirrors each transfer's occupancy per endpoint worker so blocking
    # collectives can apply _clear_of_transfers without rescanning the
    # global transfer list.
    channel_free: dict[tuple, float] = defaultdict(float)
    transfers: list[TransferRecord] = []
    nic_busy_loop: dict[int, list[tuple[float, float]]] = defaultdict(list)

    # ---- event loop ------------------------------------------------------
    unmet = list(dense.in_count)
    ready = [0.0] * total
    pointers = [0] * num_workers
    free_at = [0.0] * num_workers
    started = [False] * num_workers
    blocked = [False] * num_workers
    start_of = [0.0] * total
    end_of_id = [0.0] * total

    heap: list[tuple[float, int]] = []  # (end time, worker)
    push = heapq.heappush
    pop = heapq.heappop

    def try_start(worker: int) -> None:
        if started[worker] or blocked[worker]:
            return
        ids = row_ids[worker]
        ptr = pointers[worker]
        if ptr >= len(ids):
            return
        oid = ids[ptr]
        if unmet[oid] > 0:
            return
        start = free_at[worker]
        if ready[oid] > start:
            start = ready[oid]
        end = start + duration[oid]
        start_of[oid] = start
        end_of_id[oid] = end
        free_at[worker] = end
        started[worker] = True
        push(heap, (end, worker))

    def resolve_group(group_key: tuple) -> None:
        """All members launched a blocking collective: release them.

        The collective starts once every member launched *and* no p2p
        transfer is still serializing on a member's interface (lowered
        schedules — transfers already on the wire win the link), so the
        blocking ablation sees the same p2p/collective contention as the
        background path. Contention-free links (zero occupancy) leave the
        start at ``max(launches)``, preserving lowered/implicit parity.
        """
        mids = sync_groups[group_key]
        stage, _ = group_key
        workers = tuple(op_worker[m] for m in mids)
        start = _clear_of_transfers(
            max(start_of[m] for m in mids), workers, nic_busy_loop
        )
        end = start + cost_model.allreduce_time(stage, workers)
        loop_resolved[group_key] = (start, end)
        for waiter in group_waiters.pop(group_key, []):
            blocked[waiter] = False
            free_at[waiter] = max(free_at[waiter], end)
            try_start(waiter)

    done = 0
    for worker in range(num_workers):
        try_start(worker)

    while heap:
        _now, worker = pop(heap)
        oid = row_ids[worker][pointers[worker]]
        end = end_of_id[oid]
        started[worker] = False
        pointers[worker] += 1
        done += 1

        code = kind_code[oid]
        if code == _ALLREDUCE and blocking_sync:
            group_key = group_of[oid]
            blocked[worker] = True
            waiters = group_waiters[group_key]
            waiters.append(worker)
            if len(waiters) == len(sync_groups[group_key]):
                resolve_group(group_key)
        elif code == _SEND and oid in send_wire:
            op = ops_flat[oid]
            k, dst_w, wire_time, occ, channel = send_wire[oid]
            wire_start = end
            if channel is not None:
                if channel_free[channel] > wire_start:
                    wire_start = channel_free[channel]
                channel_free[channel] = wire_start + occ
            wire_start_of[k] = wire_start
            arrival = wire_start + wire_time
            if occ > 0 and host_dir[oid] < 0:
                # Host copies ride PCIe, not the NIC: they never block a
                # collective's interface (the epilogue's _busy_sends rule).
                interval = (wire_start, wire_start + occ)
                nic_busy_loop[worker].append(interval)
                nic_busy_loop[dst_w].append(interval)
            transfers.append(
                TransferRecord(
                    src_worker=worker,
                    dst_worker=dst_w,
                    payload=op.payload,
                    micro_batches=op.micro_batches,
                    part=op.part,
                    start=wire_start,
                    end=arrival,
                    occupancy=occ,
                    channel=channel,
                    op_index=dense.row_pos[oid],
                )
            )
            recv = transfer_out[oid]
            if recv >= 0:
                if arrival > ready[recv]:
                    ready[recv] = arrival
                unmet[recv] -= 1
                if unmet[recv] == 0:
                    try_start(op_worker[recv])

        for dst in out_local[oid]:
            if end > ready[dst]:
                ready[dst] = end
            unmet[dst] -= 1
            if unmet[dst] == 0:
                try_start(op_worker[dst])
        for dst, src_w, dst_w, units in out_remote[oid]:
            at = end + p2p_delay(src_w, dst_w, units)
            if at > ready[dst]:
                ready[dst] = at
            unmet[dst] -= 1
            if unmet[dst] == 0:
                try_start(op_worker[dst])
        try_start(worker)

    if done < total:
        stuck = [
            (w, worker_rows[w][pointers[w]].short())
            for w in range(num_workers)
            if pointers[w] < len(worker_rows[w])
        ]
        raise ScheduleError(
            f"simulation deadlock; {total - done} ops pending, heads: {stuck[:8]}"
        )

    timed: dict[OpKey, TimedOp] = {}
    for oid, op in enumerate(ops_flat):
        timed[op.key()] = TimedOp(
            op, op_worker[oid], start_of[oid], end_of_id[oid]
        )
    comp = dense.compute_by_worker
    compute_makespan = float(np.asarray(end_of_id)[comp].max()) if comp.size else 0.0
    iteration_time, compute_makespan, spans = _iteration_time(
        dense,
        cost_model,
        start_of,
        end_of_id,
        compute_makespan,
        wire=(np.asarray(wire_start_of), np.asarray(occupancy)),
        resolved=loop_resolved if blocking_sync else None,
    )
    # Canonical transfer order: the structural key the kernel's send
    # table has, so both list the same records in the same order.
    transfers.sort(key=lambda t: (t.src_worker, t.op_index))
    return SimulationResult(
        schedule,
        cost_model,
        compute_makespan=compute_makespan,
        iteration_time=iteration_time,
        start=start_of,
        end=end_of_id,
        compute_rows=(comp, dense.worker_ptr),
        sync_spans=spans,
        records=(
            timed,
            _collective_records(dense, spans, start_of),
            tuple(transfers),
        ),
    )


def _collective_records(
    layout, spans: list[tuple], start: Sequence[float]
) -> list[CollectiveRecord]:
    """The :class:`CollectiveRecord` of each epilogue span, in ``(stage,
    micro_batches)`` order, with each member's launch start.

    The one builder of collective records: the engine's and the kernel's
    (``layout`` is their ``_DenseSchedule`` or ``ScheduleKernel``). The
    order reads no float time, so both list the same records in the same
    order even where their times differ by an ulp; a collective is
    unique per ``(stage, micro_batches)``.
    """
    groups = layout.sync_groups
    return [
        CollectiveRecord(
            stage=stage,
            micro_batches=mbs,
            workers=workers,
            launch_times=tuple(start[m] for m in groups[(stage, mbs)]),
            start=begin,
            end=finish,
        )
        for stage, mbs, workers, begin, finish in sorted(
            spans, key=lambda span: (span[0], span[1])
        )
    ]
