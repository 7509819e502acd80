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
"""

from __future__ import annotations

from dataclasses import replace

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
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops


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
        lowered schedule: the same compute ops in the same order, comm
        ops inserted, and ``metadata["lowered"] = True``.

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

    ops_flat = graph.ops_flat
    total = len(ops_flat)
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

    sends: list[Operation] = []
    recvs: list[Operation] = []
    recv_units: list[float] = []
    for s, d, k in zip(c_src.tolist(), c_dst.tolist(), kind[cross].tolist()):
        src_op = ops_flat[s]
        dst_op = ops_flat[d]
        payload = "act" if k == ACTIVATION else "grad"
        shared = dst_op.micro_batches
        if len(shared) > 1 or shared != src_op.micro_batches:
            shared = tuple(sorted(set(src_op.micro_batches) & set(shared)))
        sends.append(
            Operation(
                OpKind.SEND,
                dst_op.replica,
                src_op.stage,
                micro_batches=shared,
                part=dst_op.part,
                payload=payload,
            )
        )
        recvs.append(
            Operation(
                OpKind.RECV,
                dst_op.replica,
                dst_op.stage,
                micro_batches=shared,
                part=dst_op.part,
                payload=payload,
            )
        )
        recv_units.append(len(shared) / dst_op.part[1])

    # The lowered op table.
    size = total + 2 * num
    ops = np.empty(size, dtype=object)
    ops[new_id] = ops_flat
    ops[send_id] = sends
    ops[recv_id] = recvs
    op_worker = np.empty(size, dtype=np.int64)
    op_worker[new_id] = worker
    op_worker[send_id] = worker[c_src]
    op_worker[recv_id] = worker[c_dst]
    row_len = np.bincount(op_worker, minlength=schedule.num_workers)
    row_end = np.cumsum(row_len)
    row_pos = np.arange(size) - (row_end - row_len)[op_worker]

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

    ops_list = ops.tolist()
    bounds = zip((row_end - row_len).tolist(), row_end.tolist())
    lowered = replace(
        schedule,
        worker_ops=freeze_worker_ops([ops_list[a:b] for a, b in bounds]),
        metadata={**dict(schedule.metadata), "lowered": True},
    )
    return DependencyGraph(
        schedule=lowered,
        ops_flat=ops_list,
        op_worker=op_worker.tolist(),
        row_pos=row_pos.tolist(),
        dep_ptr=new_ptr.tolist(),
        dep_src=new_src.tolist(),
        dep_kind=new_kind.tolist(),
        dep_units=new_units.tolist(),
    )
