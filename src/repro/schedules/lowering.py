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
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import ScheduleError
from repro.schedules.dependencies import (
    ACTIVATION,
    GRADIENT,
    DependencyGraph,
    build_dependency_graph,
)
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops


def is_lowered(schedule: Schedule) -> bool:
    """True if ``schedule`` already carries explicit SEND/RECV ops."""
    return schedule.lowered


def lower_schedule(
    schedule: Schedule, *, graph: DependencyGraph | None = None
) -> Schedule:
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
    Schedule
        A new schedule with the same compute ops in the same order, comm
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

    ops_flat, op_worker = graph.ops_flat, graph.op_worker
    ptr, dep_src, dep_kind = graph.dep_ptr, graph.dep_src, graph.dep_kind

    # One (SEND, RECV) pair per cross-worker message edge. Ids are
    # row-major, so sorting edges by (src id, dst id) orders them by
    # (src worker, src position, dst worker, dst position): multiple
    # sends hanging off one producer launch in the order their consumers
    # run — eager FIFO matches consumption order.
    edges: list[tuple[int, int, int]] = []
    for dst in range(len(ops_flat)):
        for e in range(ptr[dst], ptr[dst + 1]):
            kind = dep_kind[e]
            src = dep_src[e]
            if (kind == ACTIVATION or kind == GRADIENT) and (
                op_worker[src] != op_worker[dst]
            ):
                edges.append((src, dst, kind))
    edges.sort()
    sends_after: dict[int, list[Operation]] = {}
    recvs_before: dict[int, list[Operation]] = {}
    for src, dst, kind in edges:
        src_op = ops_flat[src]
        dst_op = ops_flat[dst]
        payload = "act" if kind == ACTIVATION else "grad"
        shared = tuple(
            sorted(set(src_op.micro_batches) & set(dst_op.micro_batches))
        )
        send = Operation(
            OpKind.SEND,
            dst_op.replica,
            src_op.stage,
            micro_batches=shared,
            part=dst_op.part,
            payload=payload,
        )
        recv = Operation(
            OpKind.RECV,
            dst_op.replica,
            dst_op.stage,
            micro_batches=shared,
            part=dst_op.part,
            payload=payload,
        )
        sends_after.setdefault(src, []).append(send)
        recvs_before.setdefault(dst, []).append(recv)

    rows: list[list[Operation]] = [[] for _ in schedule.worker_ops]
    for oid, op in enumerate(ops_flat):
        row = rows[op_worker[oid]]
        row.extend(recvs_before.get(oid, ()))
        row.append(op)
        row.extend(sends_after.get(oid, ()))

    return replace(
        schedule,
        worker_ops=freeze_worker_ops(rows),
        metadata={**dict(schedule.metadata), "lowered": True},
    )
