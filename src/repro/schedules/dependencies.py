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
``dep_kind``, ``dep_units``). The builder hashes each op's key once, for
the uniqueness check; everything else indexes by id. Lowering (which
splices its lowered graph's tables from them instead of rebuilding),
the engine's dense form, the array kernel and the validator's
acyclicity check read the tables; this builder stays the reference
that the splice is tested against. The ``OpKey``-keyed
``location``/``deps`` dicts and the :class:`Edge` iterators are views,
built on first use, for the readers that think in op keys: the
bubble-filling pass, the polling simulator and the tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from repro.common.errors import ValidationError
from repro.schedules.ir import Operation, OpKind, Schedule

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


@dataclass
class DependencyGraph:
    """The schedule's data-dependency DAG as int-id tables.

    Attributes
    ----------
    schedule:
        The schedule the graph was built from.
    ops_flat / op_worker / row_pos:
        The op table: op id ``i`` is ``ops_flat[i]``, running at position
        ``row_pos[i]`` of worker ``op_worker[i]``. Ids are row-major.
    dep_ptr / dep_src / dep_kind / dep_units:
        Incoming edges in CSR form: op ``i``'s edges are slots
        ``dep_ptr[i]:dep_ptr[i + 1]``, each with its source id, its kind
        (an index into :data:`EDGE_KINDS`) and its payload units.

    ``==`` compares the tables. :attr:`location`, :attr:`deps`,
    :meth:`edges` and :meth:`transfer_edges` are ``OpKey``-keyed views,
    built on first use.
    """

    schedule: Schedule
    ops_flat: list[Operation]
    op_worker: list[int]
    row_pos: list[int]
    dep_ptr: list[int]
    dep_src: list[int]
    dep_kind: list[int]
    dep_units: list[float]

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


def _payload_between(src: Operation, dst: Operation) -> float:
    """Micro-batch units moved along a producer -> consumer edge."""
    if src.micro_batches == dst.micro_batches:
        shared = len(dst.micro_batches)
    else:
        shared = len(set(src.micro_batches) & set(dst.micro_batches))
    return shared / dst.part[1]


def build_dependency_graph(schedule: Schedule) -> DependencyGraph:
    """Construct the :class:`DependencyGraph` for ``schedule``.

    Raises
    ------
    ValidationError
        If an operation's producer is missing from the schedule (e.g. a
        backward whose forward was never scheduled, or a ``RECV`` with no
        matching ``SEND``) or an operation appears twice.
    """
    ops_flat: list[Operation] = []
    op_worker: list[int] = []
    row_pos: list[int] = []
    keys: set[OpKey] = set()
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
    # micro-batches.
    wgrad_of_stage: dict[tuple[int, int], list[tuple[int, int]]] = {}
    fwd_mbs: dict[int, set[int]] = {}
    # Comm-op indexes (lowered schedules only). Sends are looked up by their
    # full identity when wiring a RECV's TRANSFER edge; recvs are looked up
    # per micro-batch when redirecting a consumer's cross-worker edge, and
    # sends per destination micro-batch for fused schedules (the consumer
    # takes the TRANSFER edge itself when no RECV exists).
    send_index: dict[tuple, int] = {}
    send_by_dst_mb: dict[tuple[int, int, int, tuple[int, int], str], int] = {}
    recv_by_mb: dict[tuple[int, int, int, tuple[int, int], str], int] = {}
    remat_mbs: set[tuple[int, int, int]] = set()
    # Host-tier transfer indexes (offloaded schedules only). Offloads and
    # reloads pair 1:1 on (replica, stage, micro_batches): the OFFLOAD's
    # device→host copy feeds exactly one RELOAD's host→device copy, which
    # in turn delivers to exactly one consuming backward/RECOMPUTE — the
    # single-valued wiring the simulator's transfer tables rely on.
    offload_by_mb: dict[tuple[int, int, int], int] = {}
    reload_by_mb: dict[tuple[int, int, int], int] = {}
    reloads: list[int] = []
    row_end: list[int] = []

    for worker, row in enumerate(schedule.worker_ops):
        for pos, op in enumerate(row):
            oid = len(ops_flat)
            keys.add(op.key())
            if len(keys) == oid:  # the key was already there
                raise ValidationError(
                    f"operation {op.short()} (replica {op.replica}, stage "
                    f"{op.stage}) scheduled twice"
                )
            ops_flat.append(op)
            op_worker.append(worker)
            row_pos.append(pos)
            kind = op.kind
            replica, stage, mbs = op.replica, op.stage, op.micro_batches
            if kind is OpKind.FORWARD:
                for mb in mbs:
                    fkey = (replica, stage, mb)
                    if fkey in fwd_by_mb:
                        raise ValidationError(
                            f"micro-batch {mb} has two forwards at stage "
                            f"{stage} of replica {replica}"
                        )
                    fwd_by_mb[fkey] = oid
                fwd_mbs.setdefault(replica, set()).update(mbs)
            elif kind is OpKind.BACKWARD or kind is OpKind.BACKWARD_INPUT:
                for mb in mbs:
                    bkey = (replica, stage, mb, op.part)
                    if bkey in grad_by_mb:
                        raise ValidationError(
                            f"micro-batch {mb} part {op.part} has two "
                            f"backwards at stage {stage} of replica {replica}"
                        )
                    grad_by_mb[bkey] = oid
            if kind is OpKind.BACKWARD or kind is OpKind.BACKWARD_WEIGHT:
                producers = wgrad_of_stage.setdefault((replica, stage), [])
                for mb in mbs:
                    bkey = (replica, stage, mb, op.part)
                    if bkey in wgrad_by_mb:
                        raise ValidationError(
                            f"micro-batch {mb} part {op.part} has two "
                            f"weight-gradient producers at stage {stage} "
                            f"of replica {replica}"
                        )
                    wgrad_by_mb[bkey] = oid
                    producers.append((mb, oid))
            elif kind is OpKind.RECOMPUTE:
                for mb in mbs:
                    rkey = (replica, stage, mb)
                    if rkey in remat_mbs:
                        raise ValidationError(
                            f"micro-batch {mb} has two RECOMPUTE ops at stage "
                            f"{stage} of replica {replica}"
                        )
                    remat_mbs.add(rkey)
            elif kind is OpKind.SEND:
                send_index[(replica, stage, mbs, op.part, op.payload)] = oid
                for mb in mbs:
                    send_by_dst_mb[
                        (replica, op.peer_stage, mb, op.part, op.payload)
                    ] = oid
            elif kind is OpKind.RECV:
                for mb in mbs:
                    rkey = (replica, stage, mb, op.part, op.payload)
                    if rkey in recv_by_mb:
                        raise ValidationError(
                            f"micro-batch {mb} has two {op.payload} receives "
                            f"at stage {stage} of replica {replica}"
                        )
                    recv_by_mb[rkey] = oid
            elif kind is OpKind.OFFLOAD:
                for mb in mbs:
                    okey = (replica, stage, mb)
                    if okey in offload_by_mb:
                        raise ValidationError(
                            f"micro-batch {mb} has two OFFLOAD ops at stage "
                            f"{stage} of replica {replica}"
                        )
                    offload_by_mb[okey] = oid
            elif kind is OpKind.RELOAD:
                for mb in mbs:
                    okey = (replica, stage, mb)
                    if okey in reload_by_mb:
                        raise ValidationError(
                            f"micro-batch {mb} has two RELOAD ops at stage "
                            f"{stage} of replica {replica}"
                        )
                    reload_by_mb[okey] = oid
                reloads.append(oid)
        row_end.append(len(ops_flat))

    for okey, off_id in offload_by_mb.items():
        reload_id = reload_by_mb.get(okey)
        if reload_id is None:
            raise ValidationError(
                f"OFFLOAD of micro-batch {okey[2]} at stage {okey[1]} "
                f"(replica {okey[0]}) has no matching RELOAD"
            )
        off, reload = ops_flat[off_id], ops_flat[reload_id]
        if reload.micro_batches != off.micro_batches:
            raise ValidationError(
                f"OFFLOAD {off.short()} and RELOAD {reload.short()} cover "
                f"different micro-batches (replica {okey[0]}, stage {okey[1]})"
            )
    # Each RELOAD delivers to the *first* stash consumer (backward part or
    # RECOMPUTE) that follows it on its worker; later consumers are held
    # behind that one by program order. The consumer holds the host-wire
    # TRANSFER edge directly, like a fused transfer.
    consumer_reloads: dict[int, list[int]] = {}
    for reload_id in reloads:
        op = ops_flat[reload_id]
        worker = op_worker[reload_id]
        needed = set(op.micro_batches)
        for later_id in range(reload_id + 1, row_end[worker]):
            later = ops_flat[later_id]
            if (
                (later.is_backward or later.kind is OpKind.RECOMPUTE)
                and later.replica == op.replica
                and later.stage == op.stage
                and not needed.isdisjoint(later.micro_batches)
            ):
                consumer_reloads.setdefault(later_id, []).append(reload_id)
                break
        else:
            raise ValidationError(
                f"RELOAD {op.short()} (replica {op.replica}) has no "
                f"consuming backward or RECOMPUTE after it on worker "
                f"{worker}"
            )

    def stage_edge(producer: int, kind: int, flow: tuple, op: Operation) -> tuple:
        """The edge that brings ``flow`` to ``op`` from the neighbouring
        stage: from its RECV when lowered, straight from its batched SEND
        when fused, else the implicit ``kind`` edge from ``producer``."""
        recv = recv_by_mb.get(flow)
        if recv is not None:
            return (recv, DELIVERY, 0.0)
        send = send_by_dst_mb.get(flow)
        if send is not None:
            return (send, TRANSFER, _payload_between(ops_flat[send], op))
        return (producer, kind, _payload_between(ops_flat[producer], op))

    depth = schedule.num_stages
    dep_ptr = [0]
    dep_src: list[int] = []
    dep_kind: list[int] = []
    dep_units: list[float] = []

    for oid, op in enumerate(ops_flat):
        kind = op.kind
        replica, stage, mbs = op.replica, op.stage, op.micro_batches
        # (src id, kind code, payload units), deduplicated below.
        incoming: list[tuple[int, int, float]] = []
        if kind is OpKind.FORWARD:
            if stage > 0:
                for mb in mbs:
                    producer = fwd_by_mb.get((replica, stage - 1, mb))
                    if producer is None:
                        raise ValidationError(
                            f"forward of micro-batch {mb} at stage {stage} "
                            f"(replica {replica}) has no stage-{stage - 1} producer"
                        )
                    flow = (replica, stage, mb, op.part, "act")
                    incoming.append(stage_edge(producer, ACTIVATION, flow, op))
        elif kind is OpKind.BACKWARD or kind is OpKind.BACKWARD_INPUT:
            for mb in mbs:
                fwd = fwd_by_mb.get((replica, stage, mb))
                if fwd is None:
                    raise ValidationError(
                        f"backward of micro-batch {mb} at stage {stage} "
                        f"(replica {replica}) has no matching forward"
                    )
                incoming.append((fwd, STASH, 0.0))
                if stage < depth - 1:
                    producer = grad_by_mb.get((replica, stage + 1, mb, op.part))
                    if producer is None:
                        raise ValidationError(
                            f"backward of micro-batch {mb} part {op.part} at "
                            f"stage {stage} (replica {replica}) has no "
                            f"stage-{stage + 1} gradient producer"
                        )
                    flow = (replica, stage, mb, op.part, "grad")
                    incoming.append(stage_edge(producer, GRADIENT, flow, op))
        elif kind is OpKind.RECOMPUTE:
            for mb in mbs:
                fwd = fwd_by_mb.get((replica, stage, mb))
                if fwd is None:
                    raise ValidationError(
                        f"RECOMPUTE of micro-batch {mb} at stage "
                        f"{stage} (replica {replica}) has no "
                        f"matching forward"
                    )
                incoming.append((fwd, STASH, 0.0))
        elif kind is OpKind.BACKWARD_WEIGHT:
            for mb in mbs:
                producer = grad_by_mb.get((replica, stage, mb, op.part))
                if (
                    producer is None
                    or ops_flat[producer].kind is not OpKind.BACKWARD_INPUT
                ):
                    raise ValidationError(
                        f"weight gradient of micro-batch {mb} part {op.part} "
                        f"at stage {stage} (replica {replica}) has no "
                        f"matching input-gradient (Bi) producer"
                    )
                incoming.append((producer, DEFERRAL, 0.0))
        elif kind is OpKind.SEND:
            for mb in mbs:
                if op.payload == "act":
                    producer = fwd_by_mb.get((replica, stage, mb))
                else:
                    producer = grad_by_mb.get((replica, stage, mb, op.part))
                if producer is None:
                    raise ValidationError(
                        f"{op.short()} (replica {replica}) has no local "
                        f"{op.payload} producer for micro-batch {mb}"
                    )
                incoming.append((producer, ENQUEUE, 0.0))
        elif kind is OpKind.RECV:
            src_stage = op.peer_stage
            send = send_index.get((replica, src_stage, mbs, op.part, op.payload))
            if send is None:
                raise ValidationError(
                    f"{op.short()} (replica {replica}) has no matching "
                    f"SEND at stage {src_stage}"
                )
            incoming.append((send, TRANSFER, len(mbs) / op.part[1]))
        elif kind is OpKind.OFFLOAD:
            for mb in mbs:
                fwd = fwd_by_mb.get((replica, stage, mb))
                if fwd is None:
                    raise ValidationError(
                        f"OFFLOAD of micro-batch {mb} at stage {stage} "
                        f"(replica {replica}) has no matching forward"
                    )
                incoming.append((fwd, ENQUEUE, 0.0))
        elif kind is OpKind.RELOAD:
            for mb in mbs:
                off = offload_by_mb.get((replica, stage, mb))
                if off is None:
                    raise ValidationError(
                        f"RELOAD of micro-batch {mb} at stage {stage} "
                        f"(replica {replica}) has no matching OFFLOAD"
                    )
                incoming.append((off, TRANSFER, _payload_between(ops_flat[off], op)))
        elif kind is OpKind.ALLREDUCE:
            targets = mbs or fwd_mbs.get(replica, ())
            worker = op_worker[oid]
            for mb, producer in wgrad_of_stage.get((replica, stage), ()):
                if mb in targets and op_worker[producer] == worker:
                    incoming.append((producer, SYNC, 0.0))
        # The first stash consumer after each RELOAD waits for the
        # host→device copy to arrive (host-wire TRANSFER edge).
        for reload_id in consumer_reloads.get(oid, ()):
            reload = ops_flat[reload_id]
            incoming.append(
                (reload_id, TRANSFER, len(reload.micro_batches) / reload.part[1])
            )
        # Deduplicate on (src, kind), keeping the first edge (forward
        # doubling can produce the same edge twice when both micro-batches
        # of a chunk share one producer chunk).
        unique: dict[tuple[int, int], float] = {}
        for src, code, units in incoming:
            unique.setdefault((src, code), units)
        for (src, code), units in unique.items():
            dep_src.append(src)
            dep_kind.append(code)
            dep_units.append(units)
        dep_ptr.append(len(dep_src))

    return DependencyGraph(
        schedule=schedule,
        ops_flat=ops_flat,
        op_worker=op_worker,
        row_pos=row_pos,
        dep_ptr=dep_ptr,
        dep_src=dep_src,
        dep_kind=dep_kind,
        dep_units=dep_units,
    )
