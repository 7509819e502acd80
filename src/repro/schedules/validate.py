"""Structural validation of schedules.

``validate_schedule`` is run by every builder's test and by the simulator in
strict mode. It enforces the invariants that make a schedule executable:

1. **Uniqueness** — no operation is scheduled twice (checked while building
   the dependency graph).
2. **Completeness** — every micro-batch ``0..N-1`` receives exactly one
   forward and a full set of backward parts at *every* stage of exactly one
   replica. A stage's backward may be fused (``B``) or split
   (``Bi`` + ``W``); under splitting the weight-gradient parts must mirror
   the input-gradient parts exactly, and fused/split must not mix for one
   (stage, micro-batch).
3. **Acyclicity** — data dependencies plus each worker's program order admit
   a topological order (i.e. the schedule can actually run without
   deadlock).
4. **Placement consistency** — every compute op is scheduled on the worker
   its placement assigns to ``(replica, stage)``. Comm ops carry the stage
   of the endpoint they run on, so the same rule pins the ``SEND`` to the
   producer's worker and the ``RECV`` to the consumer's.
5. For lowered schedules (:mod:`repro.schedules.lowering`), **lowering
   completeness** — every cross-worker activation/gradient flow has exactly
   one ``SEND``/``RECV`` pair, no comm op covers a same-worker (local) hop,
   and comm ops appear only in schedules marked lowered. (That each ``RECV``
   has a matching ``SEND`` and each ``SEND`` a local producer is enforced
   while building the dependency graph.) Fused schedules
   (:mod:`repro.schedules.passes.fuse`) instead require every flow covered
   by exactly one batched ``SEND`` and **no** ``RECV`` ops at all.
6. **Recompute coverage** — explicit ``RECOMPUTE`` ops (the recompute
   pass) are unique per (replica, stage, micro-batch), sit *before* the
   micro-batch's first backward part on the same worker, and never double
   up with a flag-recomputed backward (whose rematerialization is already
   charged in-op).
7. Optionally, **synchronization coverage** — every hosted stage replica has
   a gradient allreduce op (synchronous schemes only).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.common.errors import ValidationError
from repro.schedules.dependencies import (
    DependencyGraph,
    build_dependency_graph,
    levelize,
)
from repro.schedules.ir import OpKind, Schedule


def validate_schedule(
    schedule: Schedule,
    *,
    require_sync_ops: bool = False,
) -> DependencyGraph:
    """Validate ``schedule`` and return its dependency graph.

    Raises
    ------
    ValidationError
        With a message pinpointing the first violated invariant.
    """
    graph = build_dependency_graph(schedule)
    _check_placement(schedule)
    _check_completeness(schedule)
    _check_lowering(schedule)
    _check_recompute(schedule)
    _check_offload(schedule)
    _check_acyclic(graph)
    if require_sync_ops:
        _check_sync_coverage(schedule)
    return graph


def _check_placement(schedule: Schedule) -> None:
    for worker, op in schedule.all_ops():
        expected = schedule.worker_of(op.replica, op.stage)
        if worker != expected:
            raise ValidationError(
                f"{op.short()} (replica {op.replica}, stage {op.stage}) is "
                f"scheduled on worker {worker} but placed on worker {expected}"
            )


def _check_completeness(schedule: Schedule) -> None:
    depth = schedule.num_stages
    n = schedule.num_micro_batches

    # Which replica owns each micro-batch (determined by its stage-0 forward).
    owner: dict[int, int] = {}
    for _, op in schedule.all_ops():
        if op.is_forward and op.stage == 0:
            for mb in op.micro_batches:
                if mb in owner and owner[mb] != op.replica:
                    raise ValidationError(
                        f"micro-batch {mb} enters both replica {owner[mb]} "
                        f"and replica {op.replica}"
                    )
                owner[mb] = op.replica

    missing = sorted(set(range(n)) - set(owner))
    if missing:
        raise ValidationError(f"micro-batches {missing} never enter the pipeline")
    extra = sorted(set(owner) - set(range(n)))
    if extra:
        raise ValidationError(
            f"micro-batches {extra} are outside the declared range 0..{n - 1}"
        )

    fwd_seen: dict[tuple[int, int], int] = defaultdict(int)  # (stage, mb) -> count
    fused_parts: dict[tuple[int, int], set[tuple[int, int]]] = defaultdict(set)
    input_parts: dict[tuple[int, int], set[tuple[int, int]]] = defaultdict(set)
    weight_parts: dict[tuple[int, int], set[tuple[int, int]]] = defaultdict(set)
    for _, op in schedule.all_ops():
        if (
            op.kind is OpKind.ALLREDUCE
            or op.is_comm
            or op.is_host_comm
            or op.is_recompute
        ):
            continue
        for mb in op.micro_batches:
            if op.replica != owner.get(mb):
                raise ValidationError(
                    f"{op.short()} of micro-batch {mb} at stage {op.stage} runs "
                    f"on replica {op.replica}, owner is {owner.get(mb)}"
                )
        if op.is_forward:
            for mb in op.micro_batches:
                fwd_seen[(op.stage, mb)] += 1
        elif op.kind is OpKind.BACKWARD:
            for mb in op.micro_batches:
                fused_parts[(op.stage, mb)].add(op.part)
        elif op.is_backward_input:
            for mb in op.micro_batches:
                input_parts[(op.stage, mb)].add(op.part)
        elif op.is_backward_weight:
            for mb in op.micro_batches:
                weight_parts[(op.stage, mb)].add(op.part)

    def check_parts(parts: set[tuple[int, int]], stage: int, mb: int, what: str) -> None:
        num_parts = {p[1] for p in parts}
        if len(num_parts) != 1:
            raise ValidationError(
                f"micro-batch {mb} mixes {what} splits {sorted(parts)} "
                f"at stage {stage}"
            )
        total = num_parts.pop()
        if {p[0] for p in parts} != set(range(total)):
            raise ValidationError(
                f"micro-batch {mb} {what} parts {sorted(parts)} do not "
                f"cover 0..{total - 1} at stage {stage}"
            )

    for stage in range(depth):
        for mb in range(n):
            if fwd_seen[(stage, mb)] != 1:
                raise ValidationError(
                    f"micro-batch {mb} has {fwd_seen[(stage, mb)]} forwards at "
                    f"stage {stage} (expected exactly 1)"
                )
            fused = fused_parts[(stage, mb)]
            split_in = input_parts[(stage, mb)]
            split_w = weight_parts[(stage, mb)]
            if fused and (split_in or split_w):
                raise ValidationError(
                    f"micro-batch {mb} mixes fused and split backwards at "
                    f"stage {stage}"
                )
            if split_in or split_w:
                check_parts(split_in | split_w, stage, mb, "backward")
                if split_in != split_w:
                    raise ValidationError(
                        f"micro-batch {mb} split-backward halves disagree at "
                        f"stage {stage}: input parts {sorted(split_in)} vs "
                        f"weight parts {sorted(split_w)}"
                    )
                continue
            if not fused:
                raise ValidationError(
                    f"micro-batch {mb} has no backward at stage {stage}"
                )
            check_parts(fused, stage, mb, "backward")


def _check_lowering(schedule: Schedule) -> None:
    """Completeness of the explicit comm ops in a lowered schedule.

    Recomputes, from the schedule structure alone, which activation and
    gradient flows cross a worker boundary, and checks the comm ops cover
    exactly those flows — nothing missing, nothing local lowered.
    """
    has_comm = any(op.is_comm for _, op in schedule.all_ops())
    if not schedule.lowered:
        if has_comm:
            raise ValidationError(
                "schedule contains SEND/RECV ops but is not marked lowered "
                "(run it through repro.schedules.lowering.lower_schedule)"
            )
        return
    fused = bool(schedule.metadata.get("fused_comm", False))

    depth = schedule.num_stages
    sends: set[tuple] = set()  # (replica, src_stage, mb, part, payload)
    recvs: set[tuple] = set()

    def add_flow(flows: set[tuple], op, flow: tuple) -> None:
        # "Exactly one" pair per flow: a second comm op covering an
        # already-claimed flow (e.g. a stray single-mb SEND next to the
        # doubling chunk's SEND) must fail here, not as an executor
        # KeyError at run time.
        if flow in flows:
            raise ValidationError(
                f"{op.short()} (replica {op.replica}) duplicates a flow "
                f"already covered by another comm op: {flow}"
            )
        flows.add(flow)

    for _, op in schedule.all_ops():
        if op.kind is OpKind.SEND:
            src, dst = op.stage, op.peer_stage
            if not 0 <= dst < depth:
                raise ValidationError(
                    f"{op.short()} targets stage {dst} outside 0..{depth - 1}"
                )
            if schedule.worker_of(op.replica, src) == schedule.worker_of(
                op.replica, dst
            ):
                raise ValidationError(
                    f"{op.short()} lowers a local hop (stages {src} and {dst} "
                    f"of replica {op.replica} share a worker)"
                )
            for mb in op.micro_batches:
                add_flow(sends, op, (op.replica, src, mb, op.part, op.payload))
        elif op.kind is OpKind.RECV:
            if fused:
                raise ValidationError(
                    f"fused schedule still carries a RECV op {op.short()} "
                    f"(replica {op.replica}) — fuse_comm batches every "
                    f"transfer into its SEND"
                )
            src = op.peer_stage
            for mb in op.micro_batches:
                add_flow(recvs, op, (op.replica, src, mb, op.part, op.payload))

    required: set[tuple] = set()
    for _, op in schedule.all_ops():
        if op.is_forward and op.stage > 0:
            if schedule.worker_of(op.replica, op.stage - 1) != schedule.worker_of(
                op.replica, op.stage
            ):
                for mb in op.micro_batches:
                    required.add((op.replica, op.stage - 1, mb, op.part, "act"))
        elif op.is_backward and op.stage < depth - 1:
            if schedule.worker_of(op.replica, op.stage + 1) != schedule.worker_of(
                op.replica, op.stage
            ):
                for mb in op.micro_batches:
                    required.add((op.replica, op.stage + 1, mb, op.part, "grad"))

    pairs = (("SEND", sends),) if fused else (("SEND", sends), ("RECV", recvs))
    for name, have in pairs:
        missing = required - have
        if missing:
            replica, stage, mb, part, payload = sorted(missing)[0]
            raise ValidationError(
                f"lowered schedule is missing a {name} for the {payload} of "
                f"micro-batch {mb} part {part} out of stage {stage} "
                f"(replica {replica}); {len(missing)} flow(s) uncovered"
            )
        extra = have - required
        if extra:
            replica, stage, mb, part, payload = sorted(extra)[0]
            raise ValidationError(
                f"lowered schedule has a {name} with no consumer: {payload} "
                f"of micro-batch {mb} part {part} out of stage {stage} "
                f"(replica {replica}); {len(extra)} stray flow(s)"
            )


def _check_recompute(schedule: Schedule) -> None:
    """Positional and uniqueness rules for explicit RECOMPUTE ops.

    (The matching-forward requirement and per-micro-batch uniqueness are
    enforced while building the dependency graph; here we pin the
    *placement*: a rematerialization must precede the first backward part
    of its micro-batch on the same worker, and must not double up with a
    flag-recomputed backward.)
    """
    remat_pos: dict[tuple[int, int, int], tuple[int, int]] = {}
    first_bwd_pos: dict[tuple[int, int, int], tuple[int, int]] = {}
    flagged: set[tuple[int, int, int]] = set()
    for worker, ops in enumerate(schedule.worker_ops):
        for pos, op in enumerate(ops):
            if op.is_recompute:
                for mb in op.micro_batches:
                    remat_pos[(op.replica, op.stage, mb)] = (worker, pos)
            elif op.is_backward:
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    if key not in first_bwd_pos:
                        first_bwd_pos[key] = (worker, pos)
                    if op.recompute:
                        flagged.add(key)
    for key, (worker, pos) in remat_pos.items():
        if key in flagged:
            raise ValidationError(
                f"(replica, stage, mb) = {key} has both an explicit "
                f"RECOMPUTE op and a flag-recomputed backward — the "
                f"rematerialization would be charged twice"
            )
        bwd = first_bwd_pos.get(key)
        if bwd is None:
            raise ValidationError(
                f"RECOMPUTE for (replica, stage, mb) = {key} has no backward"
            )
        if bwd[0] != worker or bwd[1] < pos:
            raise ValidationError(
                f"RECOMPUTE for (replica, stage, mb) = {key} on worker "
                f"{worker} does not precede its first backward "
                f"(worker {bwd[0]}, position {bwd[1]})"
            )


def _check_offload(schedule: Schedule) -> None:
    """Residency discipline for OFFLOAD/RELOAD pairs.

    (That offloads and reloads pair 1:1 per (replica, stage, micro-batch),
    match micro-batch coverage, and have a matching forward and a consuming
    backward is enforced while building the dependency graph; here we pin
    the *positions*: the stash must be offloaded only after its forward,
    and while it resides on the host — between the OFFLOAD and its RELOAD —
    no operation may consume it. Every stash consumer (backward part,
    weight-gradient half, RECOMPUTE) must follow the RELOAD.)
    """
    offload_pos: dict[tuple[int, int, int], int] = {}
    reload_pos: dict[tuple[int, int, int], int] = {}
    fwd_pos: dict[tuple[int, int, int], int] = {}
    consumer_pos: dict[tuple[int, int, int], list[tuple[int, str]]] = (
        defaultdict(list)
    )
    for worker, ops in enumerate(schedule.worker_ops):
        for pos, op in enumerate(ops):
            keys = [(op.replica, op.stage, mb) for mb in op.micro_batches]
            if op.is_offload:
                for key in keys:
                    offload_pos[key] = pos
            elif op.is_reload:
                for key in keys:
                    reload_pos[key] = pos
            elif op.is_forward:
                for key in keys:
                    fwd_pos[key] = pos
            elif op.is_backward or op.is_backward_weight or op.is_recompute:
                for key in keys:
                    consumer_pos[key].append((pos, op.short()))
    for key, opos in offload_pos.items():
        if key not in fwd_pos or fwd_pos[key] > opos:
            raise ValidationError(
                f"OFFLOAD for (replica, stage, mb) = {key} does not follow "
                f"its forward"
            )
        rpos = reload_pos[key]  # pairing guaranteed by the graph builder
        if rpos < opos:
            raise ValidationError(
                f"RELOAD for (replica, stage, mb) = {key} precedes its "
                f"OFFLOAD"
            )
        for cpos, short in consumer_pos.get(key, ()):
            if opos < cpos < rpos:
                raise ValidationError(
                    f"{short} consumes the stash of (replica, stage, mb) = "
                    f"{key} while it resides on the host (between its "
                    f"OFFLOAD and RELOAD)"
                )


def _check_acyclic(graph: DependencyGraph) -> None:
    """:func:`~repro.schedules.dependencies.levelize` over data edges plus
    per-worker program order.

    Runs on the graph's op ids: program order is ``id -> id + 1`` within
    a worker's row (ids are row-major).
    """
    total = len(graph.op_worker)
    worker = np.asarray(graph.op_worker, dtype=np.int64)
    chain = np.flatnonzero(worker[1:] == worker[:-1])
    dst = np.repeat(np.arange(total), np.diff(graph.dep_ptr))
    _, _, stuck = levelize(
        np.concatenate((np.asarray(graph.dep_src, dtype=np.int64), chain)),
        np.concatenate((dst, chain + 1)),
        total,
    )
    if stuck:
        keys = [graph.ops_flat[o].key() for o in stuck[:8]]
        raise ValidationError(
            f"schedule has a dependency cycle / deadlock; {len(stuck)} "
            f"operations can never run, e.g. {keys}"
        )


def validate_synthesized_schedule(
    schedule: Schedule,
    *,
    memory_budget_units: float | None = None,
) -> DependencyGraph:
    """:func:`validate_schedule` plus the synthesized-schedule rule set.

    A ``synthesize`` schedule is search output, not a hand-audited recipe,
    so it carries extra obligations on top of general executability:

    * scheme is ``"synthesize"`` (the rules below are meaningless for the
      hand-written builders);
    * **split-only discipline** — every backward is a ``Bi``/``W`` pair,
      never a fused ``B`` (the search space is (F, Bi, W) placements; a
      fused op would make the cost/memory trade the search optimizes
      unobservable);
    * each ``W`` runs after its ``Bi`` **on the same worker** (the weight
      gradient consumes the stash its input-gradient half left behind);
    * the search provenance is stamped in metadata (``seed``, ``cost``,
      ``peak_units``, ``makespan``) so a cached schedule can always be
      traced back to its parameters;
    * the stamped ``peak_units`` matches a recount by
      :func:`repro.schedules.synthesize.peak_stash_units`, and fits the
      declared (or explicitly passed) memory budget.

    Raises
    ------
    ValidationError
        Naming the first violated rule.
    """
    graph = validate_schedule(schedule, require_sync_ops=schedule.synchronous)
    if schedule.scheme != "synthesize":
        raise ValidationError(
            f"synthesized-schedule rules apply to scheme 'synthesize', "
            f"got {schedule.scheme!r}"
        )
    for worker, ops in enumerate(schedule.worker_ops):
        last_bi: dict[tuple, int] = {}
        for pos, op in enumerate(ops):
            if op.kind is OpKind.BACKWARD:
                raise ValidationError(
                    f"synthesized schedule carries a fused backward "
                    f"{op.short()} on worker {worker}; the search emits "
                    f"split Bi/W pairs only"
                )
            if op.is_backward_input:
                for mb in op.micro_batches:
                    last_bi[(op.replica, op.stage, mb, op.part)] = pos
            elif op.is_backward_weight:
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb, op.part)
                    if key not in last_bi:
                        raise ValidationError(
                            f"weight gradient {op.short()} (micro-batch "
                            f"{mb}) on worker {worker} has no earlier "
                            f"input gradient on the same worker"
                        )
    for field in ("seed", "cost", "peak_units", "makespan"):
        if field not in schedule.metadata:
            raise ValidationError(
                f"synthesized schedule is missing metadata[{field!r}] — "
                f"search provenance must be stamped on the output"
            )
    from repro.schedules.synthesize import peak_stash_units

    recounted = peak_stash_units(schedule)
    stamped = float(schedule.metadata["peak_units"])  # type: ignore[arg-type]
    if abs(recounted - stamped) > 1e-9:
        raise ValidationError(
            f"synthesized schedule stamps peak_units={stamped:g} but a "
            f"recount gives {recounted:g}"
        )
    budget = memory_budget_units
    if budget is None:
        declared = schedule.metadata.get("memory_budget_units")
        budget = None if declared is None else float(declared)  # type: ignore[arg-type]
    if budget is not None and recounted > budget + 1e-9:
        raise ValidationError(
            f"synthesized schedule peaks at {recounted:g} full-stage "
            f"stashes, over its memory budget of {budget:g}"
        )
    return graph


def _check_sync_coverage(schedule: Schedule) -> None:
    synced: set[tuple[int, int]] = set()
    for _, op in schedule.all_ops():
        if op.kind is OpKind.ALLREDUCE:
            synced.add((op.replica, op.stage))
    for worker in range(schedule.num_workers):
        for replica, stage in schedule.replicas_hosted_by(worker):
            if (replica, stage) not in synced:
                raise ValidationError(
                    f"stage {stage} of replica {replica} (worker {worker}) "
                    f"has no gradient synchronization op"
                )
