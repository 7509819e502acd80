"""Data-dependency extraction for schedules.

Given a :class:`~repro.schedules.ir.Schedule`, build the DAG of *data*
dependencies between operations:

* ``F(r, s, m)`` depends on ``F(r, s-1, m)`` — activation transfer between
  consecutive stages (a p2p message when the stages live on different
  workers);
* ``B(r, s, m)`` depends on ``B(r, s+1, m)`` — gradient transfer — and on
  ``F(r, s, m)`` — the stashed activation (or stashed stage input when
  recomputation is on). The same holds for the split input-gradient op
  ``Bi``; fused and split backwards can feed each other across stages
  (what matters is who produces the input gradient);
* ``W(r, s, m)`` (split weight gradient) depends on its own stage's
  ``Bi(r, s, m)`` — the deferred per-layer gradients of the backward walk —
  a purely local edge that never becomes a message;
* ``R(r, s, m)`` (explicit rematerialization, inserted by the recompute
  pass) depends on its own stage's forward — the stashed stage input it
  replays — another purely local edge; the backward it precedes is held
  behind it by worker program order;
* ``S(r, s)`` (allreduce) depends on every local *weight-gradient producer*
  of that stage replica — the fused backward, or the ``W`` half under
  backward splitting (or, for per-micro-batch synchronization as in
  PipeDream, on the producer of its micro-batch).

Lowered schedules (:mod:`repro.schedules.lowering`) additionally contain
explicit ``SEND``/``RECV`` pairs, and the graph builder wires them in:

* ``SEND`` depends on its local producer (``ENQUEUE`` — the forward whose
  activations it ships, or the input-gradient backward);
* ``RECV`` depends on its matching ``SEND`` (``TRANSFER`` — the one edge
  kind that travels over a link and carries a payload);
* the consumer depends on its ``RECV`` (``DELIVERY``, local) *instead of*
  holding a direct cross-worker ``ACTIVATION``/``GRADIENT`` edge. Edges
  between stages that share a worker are never lowered and keep their
  original kind.

Fused schedules (:mod:`repro.schedules.passes.fuse`) have no ``RECV``
ops: each message is one batched transfer carried by its ``SEND``, and
the consumer holds the ``TRANSFER`` edge *directly* — the engine times it
with the full wire model (latency, occupancy, channel FIFO), so fusion
changes the event count, never the communication semantics.

Worker-order dependencies (op ``i+1`` on a worker starts after op ``i``) are
*not* materialized here; the simulator and the runtime both respect the list
order directly. The validator and the array kernel combine both edge sets
and levelize them with :func:`levelize`.

Representation
--------------
The graph *is* a set of int-id tables. Ops are numbered row-major
(worker 0's ops first, in program order), so an op's row successor is
``id + 1`` and sorting by id sorts by ``(worker, position)``. Incoming
edges are CSR tables over destination ids (``dep_ptr``, ``dep_src``,
``dep_kind``, ``dep_units``). The builder reads the schedule's op table
(:meth:`~repro.schedules.ir.Schedule.op_table`) as column lists, so it
makes no ``Operation`` (one is made from its row only for an error
message): a duplicate op shows up as a collision in its per-micro-batch
(or, for ALLREDUCE and SEND, whole-identity) index, and everything else
indexes by id. Lowering (which splices its lowered graph's tables, and
its op table, from them instead of rebuilding), the engine's dense form,
the array kernel and the validator's acyclicity check read the tables;
this builder stays the reference that the splice is tested against. The
``OpKey``-keyed ``location``/``deps`` dicts and the :class:`Edge` iterators are views,
built on first use, for the readers that think in op keys: the
bubble-filling pass and the tests. A lowered graph's ``schedule`` is
table-backed, so its SEND/RECV ops exist only once its ops (or
``ops_flat``) are read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.schedules.ir import (
    ALLREDUCE_CODE,
    BACKWARD_CODE,
    BACKWARD_INPUT_CODE,
    BACKWARD_WEIGHT_CODE,
    FORWARD_CODE,
    OFFLOAD_CODE,
    PAYLOADS,
    RECOMPUTE_CODE,
    RECV_CODE,
    RELOAD_CODE,
    SEND_CODE,
    Operation,
    OpTable,
    Schedule,
    peer_stage,
)

OpKey = tuple


class EdgeKind(enum.Enum):
    """Why one operation must wait for another."""

    #: Forward output of the previous stage (p2p activation message when the
    #: stages live on different workers; rewritten by lowering).
    ACTIVATION = "activation"
    #: Input-gradient from the next stage (p2p gradient message when the
    #: stages live on different workers; rewritten by lowering).
    GRADIENT = "gradient"
    #: Locally stashed activation produced by the same stage's forward.
    STASH = "stash"
    #: Deferred weight-gradient inputs a split ``W`` op takes from its own
    #: stage's input-gradient half (local, never a message).
    DEFERRAL = "deferral"
    #: Local weight gradients that feed a gradient-synchronization collective.
    SYNC = "sync"
    #: A ``SEND``'s local handoff from the op that produced its payload.
    ENQUEUE = "enqueue"
    #: The wire: ``SEND -> RECV``. The only edge kind that occupies a link.
    TRANSFER = "transfer"
    #: A consumer's local handoff from the ``RECV`` that delivered its input.
    DELIVERY = "delivery"


@dataclass(frozen=True)
class Edge:
    """A directed dependency ``src -> dst`` (dst waits for src).

    ``payload_units`` is the number of micro-batch-equivalents the edge
    moves (shared micro-batches scaled by the consumer's part split),
    precomputed here once so the simulator never re-derives micro-batch
    intersections inside its scheduling loop. Non-message edges carry 0.
    """

    src: OpKey
    dst: OpKey
    kind: EdgeKind
    payload_units: float = 0.0

    @property
    def is_p2p_candidate(self) -> bool:
        """Edges that cross workers become point-to-point messages."""
        return self.kind in (EdgeKind.ACTIVATION, EdgeKind.GRADIENT)

    @property
    def is_transfer(self) -> bool:
        """True for the explicit ``SEND -> RECV`` wire edge."""
        return self.kind is EdgeKind.TRANSFER


#: Edge-kind codes of :attr:`DependencyGraph.dep_kind` index this tuple;
#: the code constants below follow :class:`EdgeKind`'s declaration order.
EDGE_KINDS: tuple[EdgeKind, ...] = tuple(EdgeKind)
ACTIVATION, GRADIENT, STASH, DEFERRAL, SYNC, ENQUEUE, TRANSFER, DELIVERY = range(
    len(EDGE_KINDS)
)


@dataclass(eq=False)
class DependencyGraph:
    """The schedule's data-dependency DAG as int-id tables.

    Attributes
    ----------
    schedule:
        The schedule the graph describes (lowering's is table-backed, see
        :meth:`~repro.schedules.ir.Schedule.from_table`).
    op_worker / row_pos:
        Op id ``i`` runs at position ``row_pos[i]`` of worker
        ``op_worker[i]``. Ids are row-major; row ``i`` of :attr:`table`
        is op id ``i``.
    dep_ptr / dep_src / dep_kind / dep_units:
        Incoming edges in CSR form: op ``i``'s edges are slots
        ``dep_ptr[i]:dep_ptr[i + 1]``, each with its source id, its kind
        (an index into :data:`EDGE_KINDS`) and its payload units.

    ``==`` compares the schedules, their ops and the tables.
    :attr:`ops_flat`, :attr:`location`, :attr:`deps`, :meth:`edges` and
    :meth:`transfer_edges` are views, built on first use; a lowered
    graph makes its SEND/RECV ops only when one of them, or the
    schedule's ops, are read.
    """

    schedule: Schedule
    op_worker: list[int]
    row_pos: list[int]
    dep_ptr: list[int]
    dep_src: list[int]
    dep_kind: list[int]
    dep_units: list[float]

    @property
    def table(self) -> OpTable:
        """The ops as numpy columns, row ``i`` op id ``i``."""
        return self.schedule.op_table()

    @cached_property
    def ops_flat(self) -> list[Operation]:
        """Op id ``i`` is ``ops_flat[i]``."""
        return list(chain.from_iterable(self.schedule.worker_ops))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DependencyGraph):
            return NotImplemented
        return self._compared() == other._compared()

    def _compared(self) -> tuple:
        return (
            self.schedule,
            self.ops_flat,
            self.op_worker,
            self.row_pos,
            self.dep_ptr,
            self.dep_src,
            self.dep_kind,
            self.dep_units,
        )

    @cached_property
    def location(self) -> dict[OpKey, tuple[int, int]]:
        """``op.key() -> (worker, position)`` for every operation."""
        return {
            op.key(): (worker, pos)
            for op, worker, pos in zip(self.ops_flat, self.op_worker, self.row_pos)
        }

    @cached_property
    def deps(self) -> dict[OpKey, tuple[Edge, ...]]:
        """``op.key() -> tuple of incoming edges`` (possibly empty)."""
        keys = list(self.location)
        ptr, src, kind, units = self.dep_ptr, self.dep_src, self.dep_kind, self.dep_units
        return {
            dst: tuple(
                Edge(keys[src[e]], dst, EDGE_KINDS[kind[e]], units[e])
                for e in range(ptr[i], ptr[i + 1])
            )
            for i, dst in enumerate(keys)
        }

    def edges(self) -> Iterator[Edge]:
        for incoming in self.deps.values():
            yield from incoming

    def transfer_edges(self) -> Iterator[Edge]:
        """The explicit ``SEND -> RECV`` wire edges of a lowered schedule."""
        for edge in self.edges():
            if edge.is_transfer:
                yield edge


def levelize(
    src: Sequence[int] | np.ndarray, dst: Sequence[int] | np.ndarray, total: int
) -> tuple[list[int], list[int], list[int]]:
    """Kahn's algorithm, level by level, over ``total`` ops and the edges
    ``src[i] -> dst[i]``.

    Each source's out-list keeps the given edge order. The first frontier
    is every op without incoming edges, in id order; each next frontier
    holds the ops the previous one released, in release order. Returns
    ``(level, order, stuck)``: each op's level (``-1`` if never reached),
    the visit order, and the ops never reached in id order, which are
    exactly the ops on a cycle or behind one. The array kernel's waves,
    its blocking-collective order and the validator's acyclicity check
    all run this one pass; each caller words its own error.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    by_src = np.argsort(src, kind="stable")
    out_dst = dst[by_src].tolist()
    out_ptr = np.searchsorted(src[by_src], np.arange(total + 1)).tolist()
    indeg = np.bincount(dst, minlength=total).tolist()
    level = [-1] * total
    order: list[int] = []
    frontier = [o for o, n in enumerate(indeg) if not n]
    depth = 0
    while frontier:
        nxt: list[int] = []
        for o in frontier:
            level[o] = depth
            for d in out_dst[out_ptr[o] : out_ptr[o + 1]]:
                indeg[d] -= 1
                if not indeg[d]:
                    nxt.append(d)
        order.extend(frontier)
        frontier = nxt
        depth += 1
    stuck = [o for o, n in enumerate(indeg) if n]
    return level, order, stuck


def _operation(table: OpTable, row: int) -> Operation:
    """Row ``row`` of ``table`` as an op, for an error message."""
    rows = np.zeros(len(table.kind), dtype=bool)
    rows[row] = True
    return table.take(rows).operations()[0]


def build_dependency_graph(schedule: Schedule) -> DependencyGraph:
    """Construct the :class:`DependencyGraph` for ``schedule``.

    Reads the schedule's op table (:meth:`~repro.schedules.ir.Schedule.op_table`)
    as column lists, so a table-backed schedule's ops stay unbuilt.

    Raises
    ------
    ValidationError
        If an operation's producer is missing from the schedule (e.g. a
        backward whose forward was never scheduled, or a ``RECV`` with no
        matching ``SEND``) or an operation appears twice.
    """
    table = schedule.op_table()
    op_kind = table.kind.tolist()
    op_replica = table.replica.tolist()
    op_stage = table.stage.tolist()
    op_worker = table.worker.tolist()
    op_payload = [PAYLOADS[code] for code in table.payload.tolist()]
    op_part = list(zip(table.part_index.tolist(), table.part_count.tolist()))
    mb, ptr = table.mb.tolist(), table.mb_ptr.tolist()
    op_mbs = [tuple(mb[a:b]) for a, b in zip(ptr, ptr[1:])]
    row_len = np.bincount(table.worker, minlength=schedule.num_workers)
    row_end = np.cumsum(row_len).tolist()

    def identity(oid: int) -> tuple:
        """The fields :meth:`Operation.key` hashes, of row ``oid``."""
        return (
            op_kind[oid],
            op_replica[oid],
            op_stage[oid],
            op_mbs[oid],
            op_part[oid],
            op_payload[oid],
        )

    def not_twice(oid: int, other: int) -> None:
        """Row ``oid`` collided with row ``other`` in an index: an exact
        duplicate is reported as such, before the index's own message."""
        if identity(oid) == identity(other):
            op = _operation(table, oid)
            raise ValidationError(
                f"operation {op.short()} (replica {op.replica}, stage "
                f"{op.stage}) scheduled twice"
            )

    # Per-micro-batch producer indexes, op key fields -> op id. Forward
    # doubling means several micro-batches can share one forward op, hence
    # the per-mb map. Input-gradient producers (fused B or split Bi) and
    # weight-gradient producers (fused B or split W) are indexed separately
    # so split and fused backwards compose through the same lookups.
    fwd_by_mb: dict[tuple[int, int, int], int] = {}  # (replica, stage, mb)
    grad_by_mb: dict[tuple[int, int, int, tuple[int, int]], int] = {}
    wgrad_by_mb: dict[tuple[int, int, int, tuple[int, int]], int] = {}
    # The ALLREDUCE wiring's inputs: each stage replica's weight-gradient
    # producers as (mb, id) in schedule order, and each replica's forward
    # micro-batches. ALLREDUCEs are indexed by their whole identity, for
    # the duplicate check alone.
    wgrad_of_stage: dict[tuple[int, int], list[tuple[int, int]]] = {}
    fwd_mbs: dict[int, set[int]] = {}
    sync_index: dict[tuple, int] = {}
    # Comm-op indexes (lowered schedules only). Sends are looked up by their
    # full identity when wiring a RECV's TRANSFER edge; recvs are looked up
    # per micro-batch when redirecting a consumer's cross-worker edge, and
    # sends per destination micro-batch for fused schedules (the consumer
    # takes the TRANSFER edge itself when no RECV exists).
    send_index: dict[tuple, int] = {}
    send_by_dst_mb: dict[tuple[int, int, int, tuple[int, int], str], int] = {}
    recv_by_mb: dict[tuple[int, int, int, tuple[int, int], str], int] = {}
    remat_by_mb: dict[tuple[int, int, int], int] = {}
    # Host-tier transfer indexes (offloaded schedules only). Offloads and
    # reloads pair 1:1 on (replica, stage, micro_batches): the OFFLOAD's
    # device→host copy feeds exactly one RELOAD's host→device copy, which
    # in turn delivers to exactly one consuming backward/RECOMPUTE — the
    # single-valued wiring the simulator's transfer tables rely on.
    offload_by_mb: dict[tuple[int, int, int], int] = {}
    reload_by_mb: dict[tuple[int, int, int], int] = {}
    reloads: list[int] = []

    for oid, (kind, replica, stage, mbs) in enumerate(
        zip(op_kind, op_replica, op_stage, op_mbs)
    ):
        if kind == FORWARD_CODE:
            for mb in mbs:
                fkey = (replica, stage, mb)
                if fkey in fwd_by_mb:
                    not_twice(oid, fwd_by_mb[fkey])
                    raise ValidationError(
                        f"micro-batch {mb} has two forwards at stage "
                        f"{stage} of replica {replica}"
                    )
                fwd_by_mb[fkey] = oid
            fwd_mbs.setdefault(replica, set()).update(mbs)
        elif kind == BACKWARD_CODE or kind == BACKWARD_INPUT_CODE:
            part = op_part[oid]
            for mb in mbs:
                bkey = (replica, stage, mb, part)
                if bkey in grad_by_mb:
                    not_twice(oid, grad_by_mb[bkey])
                    raise ValidationError(
                        f"micro-batch {mb} part {part} has two "
                        f"backwards at stage {stage} of replica {replica}"
                    )
                grad_by_mb[bkey] = oid
        if kind == BACKWARD_CODE or kind == BACKWARD_WEIGHT_CODE:
            part = op_part[oid]
            producers = wgrad_of_stage.setdefault((replica, stage), [])
            for mb in mbs:
                bkey = (replica, stage, mb, part)
                if bkey in wgrad_by_mb:
                    not_twice(oid, wgrad_by_mb[bkey])
                    raise ValidationError(
                        f"micro-batch {mb} part {part} has two "
                        f"weight-gradient producers at stage {stage} "
                        f"of replica {replica}"
                    )
                wgrad_by_mb[bkey] = oid
                producers.append((mb, oid))
        elif kind == RECOMPUTE_CODE:
            for mb in mbs:
                rkey = (replica, stage, mb)
                if rkey in remat_by_mb:
                    not_twice(oid, remat_by_mb[rkey])
                    raise ValidationError(
                        f"micro-batch {mb} has two RECOMPUTE ops at stage "
                        f"{stage} of replica {replica}"
                    )
                remat_by_mb[rkey] = oid
        elif kind == ALLREDUCE_CODE:
            skey = (replica, stage, mbs, op_part[oid])
            if skey in sync_index:
                not_twice(oid, sync_index[skey])
            sync_index[skey] = oid
        elif kind == SEND_CODE:
            part, payload = op_part[oid], op_payload[oid]
            skey = (replica, stage, mbs, part, payload)
            if skey in send_index:
                not_twice(oid, send_index[skey])
            send_index[skey] = oid
            dst_stage = peer_stage(True, stage, payload)
            for mb in mbs:
                send_by_dst_mb[(replica, dst_stage, mb, part, payload)] = oid
        elif kind == RECV_CODE:
            part, payload = op_part[oid], op_payload[oid]
            for mb in mbs:
                rkey = (replica, stage, mb, part, payload)
                if rkey in recv_by_mb:
                    not_twice(oid, recv_by_mb[rkey])
                    raise ValidationError(
                        f"micro-batch {mb} has two {payload} receives "
                        f"at stage {stage} of replica {replica}"
                    )
                recv_by_mb[rkey] = oid
        elif kind == OFFLOAD_CODE:
            for mb in mbs:
                okey = (replica, stage, mb)
                if okey in offload_by_mb:
                    not_twice(oid, offload_by_mb[okey])
                    raise ValidationError(
                        f"micro-batch {mb} has two OFFLOAD ops at stage "
                        f"{stage} of replica {replica}"
                    )
                offload_by_mb[okey] = oid
        elif kind == RELOAD_CODE:
            for mb in mbs:
                okey = (replica, stage, mb)
                if okey in reload_by_mb:
                    not_twice(oid, reload_by_mb[okey])
                    raise ValidationError(
                        f"micro-batch {mb} has two RELOAD ops at stage "
                        f"{stage} of replica {replica}"
                    )
                reload_by_mb[okey] = oid
            reloads.append(oid)

    for okey, off_id in offload_by_mb.items():
        reload_id = reload_by_mb.get(okey)
        if reload_id is None:
            raise ValidationError(
                f"OFFLOAD of micro-batch {okey[2]} at stage {okey[1]} "
                f"(replica {okey[0]}) has no matching RELOAD"
            )
        if op_mbs[reload_id] != op_mbs[off_id]:
            off, reload = _operation(table, off_id), _operation(table, reload_id)
            raise ValidationError(
                f"OFFLOAD {off.short()} and RELOAD {reload.short()} cover "
                f"different micro-batches (replica {okey[0]}, stage {okey[1]})"
            )
    # Each RELOAD delivers to the *first* stash consumer (backward part or
    # RECOMPUTE) that follows it on its worker; later consumers are held
    # behind that one by program order. The consumer holds the host-wire
    # TRANSFER edge directly, like a fused transfer.
    stash_consumers = (BACKWARD_CODE, BACKWARD_INPUT_CODE, RECOMPUTE_CODE)
    consumer_reloads: dict[int, list[int]] = {}
    for reload_id in reloads:
        replica, stage = op_replica[reload_id], op_stage[reload_id]
        worker = op_worker[reload_id]
        needed = set(op_mbs[reload_id])
        for later_id in range(reload_id + 1, row_end[worker]):
            if (
                op_kind[later_id] in stash_consumers
                and op_replica[later_id] == replica
                and op_stage[later_id] == stage
                and not needed.isdisjoint(op_mbs[later_id])
            ):
                consumer_reloads.setdefault(later_id, []).append(reload_id)
                break
        else:
            op = _operation(table, reload_id)
            raise ValidationError(
                f"RELOAD {op.short()} (replica {op.replica}) has no "
                f"consuming backward or RECOMPUTE after it on worker "
                f"{worker}"
            )

    def units(src: int, dst: int) -> float:
        """Micro-batch units moved along a producer -> consumer edge."""
        src_mbs, dst_mbs = op_mbs[src], op_mbs[dst]
        if src_mbs == dst_mbs:
            shared = len(dst_mbs)
        else:
            shared = len(set(src_mbs) & set(dst_mbs))
        return shared / op_part[dst][1]

    def stage_edge(producer: int, kind: int, flow: tuple, oid: int) -> tuple:
        """The edge that brings ``flow`` to op ``oid`` from the
        neighbouring stage: from its RECV when lowered, straight from its
        batched SEND when fused, else the implicit ``kind`` edge from
        ``producer``."""
        recv = recv_by_mb.get(flow)
        if recv is not None:
            return (recv, DELIVERY, 0.0)
        send = send_by_dst_mb.get(flow)
        if send is not None:
            return (send, TRANSFER, units(send, oid))
        return (producer, kind, units(producer, oid))

    depth = schedule.num_stages
    dep_ptr = [0]
    dep_src: list[int] = []
    dep_kind: list[int] = []
    dep_units: list[float] = []

    for oid, (kind, replica, stage, mbs) in enumerate(
        zip(op_kind, op_replica, op_stage, op_mbs)
    ):
        # (src id, kind code, payload units), deduplicated below.
        incoming: list[tuple[int, int, float]] = []
        if kind == FORWARD_CODE:
            if stage > 0:
                part = op_part[oid]
                for mb in mbs:
                    producer = fwd_by_mb.get((replica, stage - 1, mb))
                    if producer is None:
                        raise ValidationError(
                            f"forward of micro-batch {mb} at stage {stage} "
                            f"(replica {replica}) has no stage-{stage - 1} producer"
                        )
                    flow = (replica, stage, mb, part, "act")
                    incoming.append(stage_edge(producer, ACTIVATION, flow, oid))
        elif kind == BACKWARD_CODE or kind == BACKWARD_INPUT_CODE:
            part = op_part[oid]
            for mb in mbs:
                fwd = fwd_by_mb.get((replica, stage, mb))
                if fwd is None:
                    raise ValidationError(
                        f"backward of micro-batch {mb} at stage {stage} "
                        f"(replica {replica}) has no matching forward"
                    )
                incoming.append((fwd, STASH, 0.0))
                if stage < depth - 1:
                    producer = grad_by_mb.get((replica, stage + 1, mb, part))
                    if producer is None:
                        raise ValidationError(
                            f"backward of micro-batch {mb} part {part} at "
                            f"stage {stage} (replica {replica}) has no "
                            f"stage-{stage + 1} gradient producer"
                        )
                    flow = (replica, stage, mb, part, "grad")
                    incoming.append(stage_edge(producer, GRADIENT, flow, oid))
        elif kind == RECOMPUTE_CODE:
            for mb in mbs:
                fwd = fwd_by_mb.get((replica, stage, mb))
                if fwd is None:
                    raise ValidationError(
                        f"RECOMPUTE of micro-batch {mb} at stage "
                        f"{stage} (replica {replica}) has no "
                        f"matching forward"
                    )
                incoming.append((fwd, STASH, 0.0))
        elif kind == BACKWARD_WEIGHT_CODE:
            part = op_part[oid]
            for mb in mbs:
                producer = grad_by_mb.get((replica, stage, mb, part))
                if producer is None or op_kind[producer] != BACKWARD_INPUT_CODE:
                    raise ValidationError(
                        f"weight gradient of micro-batch {mb} part {part} "
                        f"at stage {stage} (replica {replica}) has no "
                        f"matching input-gradient (Bi) producer"
                    )
                incoming.append((producer, DEFERRAL, 0.0))
        elif kind == SEND_CODE:
            part, payload = op_part[oid], op_payload[oid]
            for mb in mbs:
                if payload == "act":
                    producer = fwd_by_mb.get((replica, stage, mb))
                else:
                    producer = grad_by_mb.get((replica, stage, mb, part))
                if producer is None:
                    raise ValidationError(
                        f"{_operation(table, oid).short()} (replica {replica}) "
                        f"has no local {payload} producer for micro-batch {mb}"
                    )
                incoming.append((producer, ENQUEUE, 0.0))
        elif kind == RECV_CODE:
            part, payload = op_part[oid], op_payload[oid]
            src_stage = peer_stage(False, stage, payload)
            send = send_index.get((replica, src_stage, mbs, part, payload))
            if send is None:
                raise ValidationError(
                    f"{_operation(table, oid).short()} (replica {replica}) "
                    f"has no matching SEND at stage {src_stage}"
                )
            incoming.append((send, TRANSFER, len(mbs) / part[1]))
        elif kind == OFFLOAD_CODE:
            for mb in mbs:
                fwd = fwd_by_mb.get((replica, stage, mb))
                if fwd is None:
                    raise ValidationError(
                        f"OFFLOAD of micro-batch {mb} at stage {stage} "
                        f"(replica {replica}) has no matching forward"
                    )
                incoming.append((fwd, ENQUEUE, 0.0))
        elif kind == RELOAD_CODE:
            for mb in mbs:
                off = offload_by_mb.get((replica, stage, mb))
                if off is None:
                    raise ValidationError(
                        f"RELOAD of micro-batch {mb} at stage {stage} "
                        f"(replica {replica}) has no matching OFFLOAD"
                    )
                incoming.append((off, TRANSFER, units(off, oid)))
        elif kind == ALLREDUCE_CODE:
            targets = mbs or fwd_mbs.get(replica, ())
            worker = op_worker[oid]
            for mb, producer in wgrad_of_stage.get((replica, stage), ()):
                if mb in targets and op_worker[producer] == worker:
                    incoming.append((producer, SYNC, 0.0))
        # The first stash consumer after each RELOAD waits for the
        # host→device copy to arrive (host-wire TRANSFER edge).
        for reload_id in consumer_reloads.get(oid, ()):
            incoming.append(
                (reload_id, TRANSFER, len(op_mbs[reload_id]) / op_part[reload_id][1])
            )
        # Deduplicate on (src, kind), keeping the first edge (forward
        # doubling can produce the same edge twice when both micro-batches
        # of a chunk share one producer chunk).
        unique: dict[tuple[int, int], float] = {}
        for src, code, units_moved in incoming:
            unique.setdefault((src, code), units_moved)
        for (src, code), units_moved in unique.items():
            dep_src.append(src)
            dep_kind.append(code)
            dep_units.append(units_moved)
        dep_ptr.append(len(dep_src))

    return DependencyGraph(
        schedule=schedule,
        op_worker=op_worker,
        row_pos=table.pos.tolist(),
        dep_ptr=dep_ptr,
        dep_src=dep_src,
        dep_kind=dep_kind,
        dep_units=dep_units,
    )
