"""The object-based recompute and offload passes, kept as the oracle.

:class:`~repro.schedules.passes.recompute.RecomputePass` and
:class:`~repro.schedules.passes.offload.OffloadPass` plan and insert on
their input's op table. These are the same passes written over
``Operation`` objects, one op at a time: ``recompute(schedule)`` and
``offload(schedule, min_gap)`` return the schedule each pass must
produce, and ``recompute_uncovered`` and ``offload_plan`` are the
rules the passes' checks apply. ``tests/test_pass_tables.py`` compares
the two forms.
"""

from __future__ import annotations

from dataclasses import replace

from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops


def recompute(schedule: Schedule) -> Schedule:
    """One RECOMPUTE op before the first backward of each (replica,
    stage, mb) not already rematerialized, ahead of its RECVs."""
    covered: set[tuple[int, int, int]] = set()
    for _, op in schedule.all_ops():
        if op.is_recompute or (op.is_backward and op.recompute):
            for mb in op.micro_batches:
                covered.add((op.replica, op.stage, mb))

    seen: set[tuple[int, int, int]] = set()
    mbs_for: dict[tuple, list[int]] = {}
    for ops in schedule.worker_ops:
        for op in ops:
            if not op.is_backward:
                continue
            for mb in op.micro_batches:
                key = (op.replica, op.stage, mb)
                if key in seen or key in covered:
                    continue
                seen.add(key)
                mbs_for.setdefault(op.key(), []).append(mb)

    rows: list[list[Operation]] = []
    for ops in schedule.worker_ops:
        row: list[Operation] = []
        for op in ops:
            mbs = mbs_for.get(op.key())
            if mbs:
                remat = Operation(
                    OpKind.RECOMPUTE, op.replica, op.stage, micro_batches=tuple(mbs)
                )
                at = len(row)
                while at > 0 and row[at - 1].kind is OpKind.RECV:
                    at -= 1
                row.insert(at, remat)
            row.append(op)
        rows.append(row)
    return replace(
        schedule,
        worker_ops=freeze_worker_ops(rows),
        metadata={**dict(schedule.metadata), "recompute": True},
    )


def recompute_uncovered(schedule: Schedule) -> set[tuple[int, int, int]]:
    """The (replica, stage, mb) of backwards left without
    rematerialization (the recompute check's rule)."""
    needed: set[tuple[int, int, int]] = set()
    have: set[tuple[int, int, int]] = set()
    for _, op in schedule.all_ops():
        if op.is_backward:
            for mb in op.micro_batches:
                key = (op.replica, op.stage, mb)
                if op.recompute:
                    have.add(key)
                else:
                    needed.add(key)
        elif op.is_recompute:
            for mb in op.micro_batches:
                have.add((op.replica, op.stage, mb))
    return needed - have


def _is_stash_consumer(op: Operation) -> bool:
    return op.is_backward or op.is_backward_weight or op.is_recompute


def offload_plan(
    schedule: Schedule, min_gap: int = 1
) -> tuple[dict[tuple, list[int]], dict[tuple, list[int]]]:
    """Micro-batches to offload after each forward and to reload before
    each first consumer, keyed by ``op.key()``."""
    covered: set[tuple[int, int, int]] = set()
    for _, op in schedule.all_ops():
        if op.is_offload:
            for mb in op.micro_batches:
                covered.add((op.replica, op.stage, mb))

    offload_after: dict[tuple, list[int]] = {}
    reload_before: dict[tuple, list[int]] = {}
    for ops in schedule.worker_ops:
        fwd_at: dict[tuple[int, int, int], tuple[int, Operation]] = {}
        first_use: dict[tuple[int, int, int], tuple[int, Operation]] = {}
        for pos, op in enumerate(ops):
            if op.is_forward:
                for mb in op.micro_batches:
                    fwd_at[(op.replica, op.stage, mb)] = (pos, op)
            elif _is_stash_consumer(op):
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    if key not in first_use:
                        first_use[key] = (pos, op)
        for key, (fpos, fwd) in fwd_at.items():
            if key in covered or key not in first_use:
                continue
            cpos, consumer = first_use[key]
            if cpos - fpos - 1 < min_gap:
                continue
            offload_after.setdefault(fwd.key(), []).append(key[2])
            reload_before.setdefault(consumer.key(), []).append(key[2])
    return offload_after, reload_before


def offload(schedule: Schedule, min_gap: int = 1) -> Schedule:
    """An OFFLOAD after each stash's forward and a RELOAD before its
    first consumer's RECVs, where at least ``min_gap`` ops separate them."""
    offload_after, reload_before = offload_plan(schedule, min_gap)
    rows: list[list[Operation]] = []
    for ops in schedule.worker_ops:
        row: list[Operation] = []
        for op in ops:
            for mb in sorted(reload_before.get(op.key(), ())):
                reload = Operation(
                    OpKind.RELOAD,
                    op.replica,
                    op.stage,
                    micro_batches=(mb,),
                    payload="stash",
                )
                at = len(row)
                while at > 0 and row[at - 1].kind is OpKind.RECV:
                    at -= 1
                row.insert(at, reload)
            row.append(op)
            for mb in sorted(offload_after.get(op.key(), ())):
                row.append(
                    Operation(
                        OpKind.OFFLOAD,
                        op.replica,
                        op.stage,
                        micro_batches=(mb,),
                        payload="stash",
                    )
                )
        rows.append(row)
    return replace(
        schedule,
        worker_ops=freeze_worker_ops(rows),
        metadata={**dict(schedule.metadata), "offload": True},
    )
