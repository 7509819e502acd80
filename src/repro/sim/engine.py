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
scripts call it. The seed's round-robin polling loop is preserved as
:func:`simulate_polling`, the engine's own check: it reads the graph's
``OpKey``-keyed ``deps``/``location`` views instead of the graph's
int-id tables that the engine's ``_DenseSchedule`` and the array kernel
are built from, so it independently checks that translation. It re-scans
every worker per round, O(workers x rounds).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

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


@dataclass
class SimulationResult:
    """Timed schedule plus the derived iteration-level quantities."""

    schedule: Schedule
    cost_model: CostModel
    timed: dict[OpKey, TimedOp]
    collectives: list[CollectiveRecord]
    #: Last compute (forward/backward) completion across all workers.
    compute_makespan: float
    #: Iteration time including non-overlapped gradient synchronization.
    iteration_time: float
    #: Explicit p2p transfers (lowered schedules only; empty otherwise).
    transfers: tuple[TransferRecord, ...] = ()

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
        """Total compute seconds on ``worker``."""
        return sum(t.duration for t in self.timed_ops_on(worker))

    def bubble_time(self, worker: int) -> float:
        """Idle compute time on ``worker`` within the compute makespan."""
        return self.compute_makespan - self.busy_time(worker)

    def sync_tail(self) -> float:
        """Non-overlapped synchronization time appended after compute."""
        return self.iteration_time - self.compute_makespan

    def worker_compute_end(self, worker: int) -> float:
        ops = self.timed_ops_on(worker)
        return ops[-1].end if ops else 0.0


def _clear_of_transfers(
    start: float,
    workers,
    nic_busy: dict[int, list[tuple[float, float]]],
) -> float:
    """Push ``start`` past in-flight transfer occupancy on any member.

    The single implementation of the collective-vs-p2p contention rule: a
    collective cannot start while a message is still serializing on a
    member's interface. Used both when resolving blocking collectives in
    the event loop and when recording background collectives afterwards.
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
    Only the engine reads it; the array kernel builds its own arrays
    from the same tables.
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
        self.host_dir: list[int] = host_dir.tolist()
        #: Duration class of each op (see :func:`_classify_ops`).
        self.shape: list[int] = shape.tolist()
        self.group_of: dict[int, tuple] = {}
        self.sync_group_members: dict[tuple, list[tuple[int, Operation]]] = (
            defaultdict(list)
        )
        for oid, code in enumerate(self.kind_code):
            if code == _ALLREDUCE:
                op = self.ops_flat[oid]
                group_key = (op.stage, op.micro_batches)
                self.sync_group_members[group_key].append(
                    (self.op_worker[oid], op)
                )
                self.group_of[oid] = group_key

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
    send_wire: dict[int, tuple[int, float, float, tuple | None]] = {}
    for oid, (dst_w, units) in dense.send_info.items():
        src_w = op_worker[oid]
        hd = host_dir[oid]
        if hd >= 0:
            # OFFLOAD/RELOAD: the copy runs on the worker's own host
            # channel — host-link alpha-beta time, contending only with
            # this worker's other host transfers (never with p2p links).
            send_wire[oid] = (
                dst_w,
                cost_model.host_time(units),
                cost_model.host_occupancy(units),
                cost_model.host_channel_key(src_w, "h2d" if hd else "d2h"),
            )
        else:
            send_wire[oid] = (
                dst_w,
                p2p_delay(src_w, dst_w, units),
                cost_model.p2p_occupancy(src_w, dst_w, units),
                cost_model.p2p_channel(src_w, dst_w),
            )

    sync_group_members = dense.sync_group_members
    group_of = dense.group_of
    sync_launches: dict[tuple, dict[int, float]] = defaultdict(dict)
    group_waiters: dict[tuple, list[int]] = defaultdict(list)
    #: Blocking collectives resolved during the loop: group -> (start, end).
    #: _finalize records these verbatim so the released workers and the
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
        launches = sync_launches[group_key]
        stage, _ = group_key
        workers = tuple(w for w, _ in sync_group_members[group_key])
        start = _clear_of_transfers(max(launches.values()), workers, nic_busy_loop)
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
        if code == _ALLREDUCE:
            group_key = group_of[oid]
            sync_launches[group_key][worker] = start_of[oid]
            if blocking_sync:
                blocked[worker] = True
                group_waiters[group_key].append(worker)
                if len(sync_launches[group_key]) == len(
                    sync_group_members[group_key]
                ):
                    resolve_group(group_key)
        elif code == _SEND and oid in send_wire:
            op = ops_flat[oid]
            dst_w, wire_time, occupancy, channel = send_wire[oid]
            wire_start = end
            if channel is not None:
                if channel_free[channel] > wire_start:
                    wire_start = channel_free[channel]
                channel_free[channel] = wire_start + occupancy
            arrival = wire_start + wire_time
            if occupancy > 0 and host_dir[oid] < 0:
                # Host copies ride PCIe, not the NIC: they never block a
                # collective's interface (mirrored in _finalize/kernel).
                interval = (wire_start, wire_start + occupancy)
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
                    occupancy=occupancy,
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
    compute_makespan = max(
        (
            end_of_id[oid]
            for oid in range(total)
            if kind_code[oid] == _PLAIN
        ),
        default=0.0,
    )

    return _finalize(
        schedule,
        cost_model,
        timed,
        sync_group_members,
        sync_launches,
        transfers,
        blocking_sync=blocking_sync,
        compute_makespan=compute_makespan,
        resolved=loop_resolved,
    )


def _finalize(
    schedule: Schedule,
    cost_model: CostModel,
    timed: dict[OpKey, TimedOp],
    sync_group_members: dict[tuple, list[tuple[int, Operation]]],
    sync_launches: dict[tuple, dict[int, float]],
    transfers: list[TransferRecord],
    *,
    blocking_sync: bool,
    compute_makespan: float | None = None,
    resolved: dict[tuple, tuple[float, float]] | None = None,
) -> SimulationResult:
    """Resolve collectives and assemble the :class:`SimulationResult`.

    Shared by the event-queue engine and the polling reference so both
    apply identical collective-overlap semantics. ``resolved`` carries the
    blocking collectives the event loop already timed (start, end) — those
    are recorded verbatim, because the member workers were released from
    exactly those times; re-deriving them here could contradict the
    compute timeline.

    The array kernel's batch path re-implements the non-blocking subset of
    these rules on flat arrays (:func:`repro.sim.kernel._iteration_time`)
    to avoid materializing per-op records; any change to the collective
    ordering, link-serialization, or overlap-slowdown semantics here must
    be mirrored there (the kernel differential tests and every
    ``repro bench`` run assert the two stay within 1e-9).
    """
    num_workers = schedule.num_workers
    resolved = resolved or {}
    if compute_makespan is None:
        compute_makespan = max(
            (t.end for t in timed.values() if t.op.is_compute), default=0.0
        )

    # Per-worker interface busy intervals from explicit p2p transfers: a
    # collective cannot start while a message is still serializing on a
    # member's link (transfers scheduled first win the channel; traffic
    # launched after the collective's start is not re-queued behind it).
    # Blocking collectives saw the same rule inside the event loop.
    nic_busy: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for t in transfers:
        if t.occupancy > 0 and t.payload != "stash":
            interval = (t.start, t.start + t.occupancy)
            nic_busy[t.src_worker].append(interval)
            nic_busy[t.dst_worker].append(interval)

    # Resolve collective completions (non-blocking case; for blocking they
    # are already folded into the cursors, but recording them is useful).
    # Collectives sharing a worker are serviced serially — one network
    # interface per node — in ready-time order.
    pending = []
    for group_key, members in sync_group_members.items():
        stage, micro_batches = group_key
        launches = sync_launches[group_key]
        workers = tuple(w for w, _ in members)
        ready = max(launches.values())
        cost = cost_model.allreduce_time(stage, workers)
        pending.append((ready, stage, micro_batches, workers, launches, cost))
    pending.sort(key=lambda t: (t[0], t[1], t[2]))

    collectives: list[CollectiveRecord] = []
    iteration_time = compute_makespan
    link_free = [0.0] * num_workers
    for ready, stage, micro_batches, workers, launches, cost in pending:
        if (stage, micro_batches) in resolved:
            start, end = resolved[(stage, micro_batches)]
        else:
            start = max([ready] + [link_free[w] for w in workers])
            start = _clear_of_transfers(start, workers, nic_busy)
            end = start + cost
        for w in workers:
            link_free[w] = max(link_free[w], end)
        collectives.append(
            CollectiveRecord(
                stage=stage,
                micro_batches=micro_batches,
                workers=workers,
                launch_times=tuple(launches[w] for w in workers),
                start=start,
                end=end,
            )
        )
        iteration_time = max(iteration_time, end)

    # Progression contention: a collective in flight slows the compute it
    # overlaps with (§3.2). Charged per worker proportionally to the
    # overlapped span; extends both that worker's effective finish and the
    # iteration.
    if cost_model.sync_overlap_slowdown > 0 and collectives and not blocking_sync:
        worker_compute_end = [0.0] * num_workers
        for t in timed.values():
            if t.op.is_compute:
                worker_compute_end[t.worker] = max(
                    worker_compute_end[t.worker], t.end
                )
        for record in collectives:
            for w in record.workers:
                overlap = max(
                    0.0, min(record.end, worker_compute_end[w]) - record.start
                )
                penalty = cost_model.sync_overlap_slowdown * overlap
                worker_compute_end[w] += penalty
        compute_makespan = max(compute_makespan, max(worker_compute_end))
        iteration_time = max(iteration_time, compute_makespan)

    # Canonical record order: structural keys that read no float time,
    # so the engine and the kernel list the same records in the same
    # order even where their times differ by an ulp. A collective is
    # unique per (stage, micro-batches), a transfer per issuing op.
    collectives.sort(key=lambda c: (c.stage, c.micro_batches))
    transfers.sort(key=lambda t: (t.src_worker, t.op_index))
    return SimulationResult(
        schedule=schedule,
        cost_model=cost_model,
        timed=timed,
        collectives=collectives,
        compute_makespan=compute_makespan,
        iteration_time=iteration_time,
        transfers=tuple(transfers),
    )


def simulate_polling(
    schedule: Schedule,
    cost_model: CostModel,
    *,
    blocking_sync: bool = False,
) -> SimulationResult:
    """The seed's round-robin polling simulator, kept as a reference.

    Semantically identical to :func:`simulate` for implicit-communication
    schedules (the differential tests assert this); it re-scans every
    worker per round — O(workers x rounds) — which is what the event queue
    replaces. Lowered schedules are rejected: link-channel contention needs
    the event queue.
    """
    if schedule.lowered:
        raise ScheduleError(
            "simulate_polling does not support lowered schedules; use simulate()"
        )
    if schedule.metadata.get("offload") or any(
        op.is_host_comm for _, op in schedule.all_ops()
    ):
        raise ScheduleError(
            "simulate_polling does not support offloaded schedules; "
            "host-channel contention needs the event queue — use simulate()"
        )
    graph = build_dependency_graph(schedule)

    num_workers = schedule.num_workers
    pointers = [0] * num_workers
    cursor = [0.0] * num_workers  # when the worker becomes free
    end_of: dict[OpKey, float] = {}
    timed: dict[OpKey, TimedOp] = {}

    sync_group_members: dict[tuple, list[tuple[int, Operation]]] = defaultdict(list)
    for worker, op in schedule.all_ops():
        if op.kind is OpKind.ALLREDUCE:
            sync_group_members[(op.stage, op.micro_batches)].append((worker, op))
    sync_launches: dict[tuple, dict[int, float]] = defaultdict(dict)
    collective_end_cache: dict[tuple, float] = {}

    def deps_ready_time(worker: int, op: Operation) -> float | None:
        """Earliest start permitted by data dependencies, or None if a
        dependency has not been timed yet."""
        ready = 0.0
        for edge in graph.deps[op.key()]:
            src_end = end_of.get(edge.src)
            if src_end is None:
                return None
            if edge.is_p2p_candidate:
                src_worker = graph.location[edge.src][0]
                src_end = src_end + cost_model.p2p_time(
                    src_worker, worker, edge.payload_units
                )
            ready = max(ready, src_end)
        return ready

    def collective_blocking_end(group_key: tuple) -> float | None:
        """Completion time of a blocking collective, once all launched."""
        members = sync_group_members[group_key]
        launches = sync_launches[group_key]
        if len(launches) < len(members):
            return None
        if group_key not in collective_end_cache:
            stage, _ = group_key
            workers = tuple(w for w, _ in members)
            start = max(launches.values())
            cost = cost_model.allreduce_time(stage, workers)
            collective_end_cache[group_key] = start + cost
        return collective_end_cache[group_key]

    total = sum(len(ops) for ops in schedule.worker_ops)
    done = 0
    # Ops whose timing is deferred because a blocking collective is waiting
    # for other members: (worker, group_key).
    blocked_on_collective: dict[int, tuple] = {}

    while done < total:
        progressed = False
        for worker in range(num_workers):
            while pointers[worker] < len(schedule.worker_ops[worker]):
                op = schedule.worker_ops[worker][pointers[worker]]
                key = op.key()

                if worker in blocked_on_collective:
                    group_key = blocked_on_collective[worker]
                    end = collective_blocking_end(group_key)
                    if end is None:
                        break
                    cursor[worker] = max(cursor[worker], end)
                    del blocked_on_collective[worker]
                    # fall through to time the current op

                if op.kind is OpKind.ALLREDUCE:
                    group_key = (op.stage, op.micro_batches)
                    launch = cursor[worker]
                    sync_launches[group_key][worker] = launch
                    cursor[worker] = launch + cost_model.sync_launch_overhead
                    end_of[key] = cursor[worker]
                    timed[key] = TimedOp(op, worker, launch, cursor[worker])
                    pointers[worker] += 1
                    done += 1
                    progressed = True
                    if blocking_sync:
                        blocked_on_collective[worker] = group_key
                        # Cannot proceed past a blocking collective until all
                        # members have launched.
                        end = collective_blocking_end(group_key)
                        if end is None:
                            break
                        cursor[worker] = max(cursor[worker], end)
                        del blocked_on_collective[worker]
                    continue

                ready = deps_ready_time(worker, op)
                if ready is None:
                    break
                start = max(cursor[worker], ready)
                end = start + cost_model.compute_time(op)
                timed[key] = TimedOp(op, worker, start, end)
                end_of[key] = end
                cursor[worker] = end
                pointers[worker] += 1
                done += 1
                progressed = True
        if not progressed:
            stuck = [
                (w, schedule.worker_ops[w][pointers[w]].short())
                for w in range(num_workers)
                if pointers[w] < len(schedule.worker_ops[w])
            ]
            raise ScheduleError(
                f"simulation deadlock; {total - done} ops pending, heads: {stuck[:8]}"
            )

    return _finalize(
        schedule,
        cost_model,
        timed,
        sync_group_members,
        sync_launches,
        [],
        blocking_sync=blocking_sync,
    )
