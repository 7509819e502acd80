"""Lowering pass: make point-to-point communication explicit.

Every schedule builder emits *implicit* communication — a cross-worker
``ACTIVATION``/``GRADIENT`` dependency edge whose alpha-beta cost the
simulator used to tack onto the consumer. That model cannot express link
contention (two transfers sharing a link never queue), cannot overlap a
transfer with the sender's next compute op explicitly, and gives the Gantt
and Chrome-trace renderers nothing to draw.

``lower_schedule`` rewrites a schedule so that every cross-worker
activation/gradient flow becomes an explicit
:class:`~repro.schedules.ir.OpKind.SEND` / ``RECV`` pair placed on the two
workers' timelines (the same move the zero-bubble runtime makes with its
``SEND_FORWARD``/``RECV_FORWARD`` ``ScheduledNode`` types):

* **eager send** — the ``SEND`` sits immediately after its producer in the
  source worker's order, so the transfer launches as soon as the payload
  exists and overlaps with whatever the worker computes next;
* **just-in-time receive** — the ``RECV`` sits immediately before its
  consumer in the destination worker's order, preserving the consumer's
  position and making lowering timing-neutral under contention-free links;
* **in-order per link** — sends on one worker launch in program order, and
  the simulator services each link's transfers FIFO, so messages between a
  worker pair can never overtake each other (the ordering guarantee real
  p2p transports provide).

Edges between stages that share a worker (e.g. the fold of the ZB-V
placement, or Chimera replicas crossing on one worker) are *not* lowered —
there is no link to occupy.

The pass reads only the :class:`~repro.schedules.dependencies.
DependencyGraph`'s int-id tables (its op table and CSR edge tables),
never builder internals and never op keys, so every registered scheme —
and any future builder — lowers without per-scheme code.

Lowering returns the lowered schedule's dependency graph, not only the
schedule: it splices each SEND/RECV pair into the implicit graph's CSR
tables instead of leaving a second graph build to the caller. Each
rewritten cross-worker edge becomes the consumer's ``DELIVERY`` edge
from its RECV, the RECV takes the ``TRANSFER`` edge from its SEND, and
the SEND takes an ``ENQUEUE`` edge from the producer; every other edge
keeps its kind and units, with its source renumbered. The result equals
:func:`~repro.schedules.dependencies.build_dependency_graph` of the
lowered schedule table for table (``tests/test_dependency_parity.py``
pins it), so the builder stays the reference and lowering reuses its
own edge scan.

The lowered ops are spliced the same way, into the implicit schedule's
:class:`~repro.schedules.ir.OpTable` under the same renumbering, and no
``Operation`` is made for them: the graph's ``schedule`` is
table-backed (:meth:`~repro.schedules.ir.Schedule.from_table`), and
its ops (the implicit ops reused by identity, the comm ops made from
their table rows) are built only when something reads them. Kernel
construction and the disk tier read the table alone.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from repro.common.errors import ScheduleError
from repro.schedules.dependencies import (
    ACTIVATION,
    DELIVERY,
    ENQUEUE,
    GRADIENT,
    TRANSFER,
    DependencyGraph,
    build_dependency_graph,
)
from repro.schedules.ir import (
    PAYLOADS,
    RECV_CODE,
    SEND_CODE,
    OpTable,
    Schedule,
    expand_runs,
)

_ACT, _GRAD = PAYLOADS.index("act"), PAYLOADS.index("grad")


def is_lowered(schedule: Schedule) -> bool:
    """True if ``schedule`` already carries explicit SEND/RECV ops."""
    return schedule.lowered


def lower_schedule(
    schedule: Schedule, *, graph: DependencyGraph | None = None
) -> DependencyGraph:
    """Rewrite implicit cross-worker edges into explicit SEND/RECV pairs.

    Parameters
    ----------
    schedule:
        Any validated schedule from any builder.
    graph:
        Optionally a pre-built dependency graph of ``schedule`` (skips
        rebuilding it).

    Returns
    -------
    DependencyGraph
        The lowered schedule's dependency graph. Its ``schedule`` is the
        lowered schedule, table-backed (its ops are built on first
        read): the same compute ops in the same order, comm ops
        inserted, and ``metadata["lowered"] = True`` (read-only when
        ``schedule``'s metadata is). Its ``table`` is the lowered op
        table, spliced without making an op.

    Raises
    ------
    ScheduleError
        If ``schedule`` is already lowered (lowering is not idempotent by
        design: a second pass would try to re-lower the comm ops' edges).
    """
    if schedule.lowered:
        raise ScheduleError(
            f"schedule {schedule.describe()} is already lowered"
        )
    if graph is None:
        graph = build_dependency_graph(schedule)

    total = len(graph.op_worker)
    ptr = np.asarray(graph.dep_ptr, dtype=np.int64)
    src = np.asarray(graph.dep_src, dtype=np.int64)
    kind = np.asarray(graph.dep_kind, dtype=np.int64)
    worker = np.asarray(graph.op_worker, dtype=np.int64)
    dst = np.repeat(np.arange(total), np.diff(ptr))

    # One (SEND, RECV) pair per cross-worker message edge. Ids are
    # row-major, so sorting edges by (src id, dst id) orders them by
    # (src worker, src position, dst worker, dst position): multiple
    # sends hanging off one producer launch in the order their consumers
    # run — eager FIFO matches consumption order.
    cross = np.flatnonzero(
        ((kind == ACTIVATION) | (kind == GRADIENT)) & (worker[src] != worker[dst])
    )
    cross = cross[np.lexsort((kind[cross], dst[cross], src[cross]))]
    c_src, c_dst = src[cross], dst[cross]
    num = len(cross)

    # Renumbering: each op's RECVs sit just before it and its SENDs just
    # after it, so an op moves up by every comm op inserted before it.
    num_sends = np.bincount(c_src, minlength=total)
    num_recvs = np.bincount(c_dst, minlength=total)
    inserted = num_sends + num_recvs
    new_id = np.arange(total) + np.cumsum(inserted) - inserted + num_recvs
    rank = np.arange(num)
    send_id = new_id[c_src] + 1 + rank - np.searchsorted(c_src, c_src)
    by_dst = np.argsort(c_dst, kind="stable")
    recv_rank = np.empty(num, dtype=np.int64)
    recv_rank[by_dst] = rank - np.searchsorted(c_dst[by_dst], c_dst[by_dst])
    recv_id = new_id[c_dst] - num_recvs[c_dst] + recv_rank

    # The lowered op table. Comm rows take the consumer's replica and
    # part, the producer's stage (SEND) or the consumer's (RECV), and the
    # consumer's micro-batches that the producer covers, in sorted order.
    table = schedule.op_table()
    size = total + 2 * num
    op_worker = np.empty(size, dtype=np.int64)
    op_worker[new_id] = worker
    op_worker[send_id] = worker[c_src]
    op_worker[recv_id] = worker[c_dst]
    row_len = np.bincount(op_worker, minlength=schedule.num_workers)
    row_end = np.cumsum(row_len)
    row_pos = np.arange(size) - (row_end - row_len)[op_worker]

    mb_ptr = table.mb_ptr.astype(np.int64)
    mb_len = np.diff(mb_ptr)
    # Each message's candidate micro-batches: the consumer's, kept where
    # the producer covers them too.
    edge = np.repeat(np.arange(num), mb_len[c_dst])
    taken = expand_runs(mb_ptr[c_dst], mb_len[c_dst])
    shared = table.mb[taken].astype(np.int64)
    span = int(table.mb.max(initial=0)) + 1
    covered = np.repeat(np.arange(num), mb_len[c_src]) * span + table.mb[
        expand_runs(mb_ptr[c_src], mb_len[c_src])
    ]
    keep = np.isin(edge * span + shared, covered)
    edge, shared = edge[keep], shared[keep]
    by_edge = np.lexsort((shared, edge))
    edge, shared = edge[by_edge], shared[by_edge]
    shared_len = np.bincount(edge, minlength=num)

    comm = np.concatenate((send_id, recv_id))
    consumer = np.concatenate((c_dst, c_dst))
    length = np.zeros(size, dtype=np.int64)
    length[new_id] = mb_len
    length[comm] = np.concatenate((shared_len, shared_len))
    new_mb_ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(length, out=new_mb_ptr[1:])
    new_mb = np.empty(int(new_mb_ptr[-1]), dtype=np.int32)
    new_mb[expand_runs(new_mb_ptr[new_id], mb_len)] = table.mb
    new_mb[expand_runs(new_mb_ptr[comm], length[comm])] = np.concatenate(
        (shared, shared)
    )

    def column(values: np.ndarray, comm_values: np.ndarray) -> np.ndarray:
        out = np.empty(size, dtype=values.dtype)
        out[new_id] = values
        out[comm] = comm_values
        return out

    payload = np.where(kind[cross] == ACTIVATION, _ACT, _GRAD).astype(np.int8)
    lowered_table = OpTable(
        worker=op_worker.astype(np.int32),
        pos=row_pos.astype(np.int32),
        kind=column(
            table.kind,
            np.repeat(np.array([SEND_CODE, RECV_CODE], dtype=np.int8), num),
        ),
        replica=column(table.replica, table.replica[consumer]),
        stage=column(table.stage, table.stage[np.concatenate((c_src, c_dst))]),
        mb_ptr=new_mb_ptr.astype(np.int32),
        mb=new_mb,
        part_index=column(table.part_index, table.part_index[consumer]),
        part_count=column(table.part_count, table.part_count[consumer]),
        recompute=column(table.recompute, np.zeros(2 * num, dtype=bool)),
        payload=column(table.payload, np.concatenate((payload, payload))),
    )
    recv_units = shared_len / table.part_count[c_dst]

    # The lowered CSR tables: every op keeps its edge slots in order (a
    # cross-worker edge turns into the DELIVERY from its RECV), each SEND
    # holds one ENQUEUE slot and each RECV one TRANSFER slot.
    counts = np.ones(size, dtype=np.int64)
    counts[new_id] = np.diff(ptr)
    new_ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=new_ptr[1:])
    slot = new_ptr[new_id[dst]] + np.arange(len(src)) - ptr[dst]
    edges = len(src) + 2 * num
    new_src = np.empty(edges, dtype=np.int64)
    new_kind = np.empty(edges, dtype=np.int64)
    new_units = np.empty(edges, dtype=np.float64)
    new_src[slot] = new_id[src]
    new_kind[slot] = kind
    new_units[slot] = graph.dep_units
    delivered = slot[cross]
    new_src[delivered] = recv_id
    new_kind[delivered] = DELIVERY
    new_units[delivered] = 0.0
    enqueued = new_ptr[send_id]
    new_src[enqueued] = new_id[c_src]
    new_kind[enqueued] = ENQUEUE
    new_units[enqueued] = 0.0
    wired = new_ptr[recv_id]
    new_src[wired] = send_id
    new_kind[wired] = TRANSFER
    new_units[wired] = recv_units

    metadata = {**schedule.metadata, "lowered": True}
    if isinstance(schedule.metadata, MappingProxyType):
        metadata = MappingProxyType(metadata)  # read-only stays read-only
    reused = np.zeros(size, dtype=bool)
    reused[new_id] = True
    return DependencyGraph(
        schedule=Schedule.from_table(lowered_table, schedule, metadata, reused=reused),
        op_worker=op_worker.tolist(),
        row_pos=row_pos.tolist(),
        dep_ptr=new_ptr.tolist(),
        dep_src=new_src.tolist(),
        dep_kind=new_kind.tolist(),
        dep_units=new_units.tolist(),
    )

