"""Chimera bidirectional pipeline schedules (the paper's core contribution).

Construction (paper §3.1, Figure 3):

1. Choose the bidirectional placement: ``f`` *down* pipelines and ``f`` *up*
   pipelines over the same ``D`` workers (``f = 1`` by default).
2. Partition the ``N`` micro-batches among the ``2f`` pipelines in contiguous
   blocks, as evenly as possible.
3. Schedule each pipeline independently with 1F1B (or an expanded variant
   for ``N > D``, §3.5) to obtain each pipeline's per-stage *program order*.
4. **Merge**: run a deterministic unit-slot list scheduler in which every
   worker holds one program-order queue per hosted pipeline and, each slot,
   executes the ready queue head with the smallest per-pipeline position
   (ties broken by replica id). For an even ``D`` the two directions never
   contend for the same slot, reproducing the paper's conflict-free merge;
   bubbles drop to ``D - 2`` (``D/2 - 1`` in each pass).

Gradient synchronization (§3.2): allreduce launch points are placed
according to ``sync_mode``:

* ``"lazy"`` — after all local compute (Figure 4a),
* ``"eager"`` — right after each stage's last local backward (Figure 4b),
* ``"eager_opt"`` — eager only where the merged timeline actually has a
  bubble between gradient completion and the end of local compute (the
  paper's recommendation: middle stages are synchronized lazily because an
  eager launch there cannot overlap anything and only adds progression
  overhead).

Scaling to ``N > D`` (§3.5) concatenates basic scheduling units under one of
three strategies: ``direct`` (intermediate bubbles remain), ``doubling``
(two-micro-batch forwards + recomputation), and ``halving`` (half-size
backwards). §3.6 generalizes to ``f > 1`` down/up pipeline pairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ScheduleError
from repro.schedules.ir import Operation, Schedule, freeze_worker_ops
from repro.schedules.onefb import expanded_onefb_stage_order, onefb_stage_order
from repro.schedules.passes.sync import SYNC_MODES, insert_eager_sync
from repro.schedules.placement import StagePlacement


class ConcatStrategy(enum.Enum):
    """How to concatenate basic scheduling units when ``N > D`` (§3.5)."""

    #: Figure 7(b): back-to-back units; uneven F/B workloads leave
    #: intermediate bubbles, but no extra memory or recompute cost.
    DIRECT = "direct"
    #: Figure 7(c)/(d): fuse two micro-batches per forward and recompute in
    #: the backward; equalizes slot workloads and removes intermediate
    #: bubbles at the cost of ~1/3 extra backward compute.
    FORWARD_DOUBLING = "doubling"
    #: Same schedule shape with half-size backwards instead of fused
    #: forwards; no recompute / extra memory, but the backward runs at a
    #: sub-maximal micro-batch size.
    BACKWARD_HALVING = "halving"


def partition_micro_batches(
    num_micro_batches: int, num_pipelines: int
) -> list[list[int]]:
    """Contiguous, as-even-as-possible split of ``0..N-1`` over pipelines.

    Matches the paper's assignment (Figure 3: down gets {0, 1}, up gets
    {2, 3}; Figure 8: down pipelines take the first blocks). Earlier
    pipelines receive the extra micro-batches when ``N`` does not divide.
    """
    if num_micro_batches < 1:
        raise ScheduleError("need at least one micro-batch")
    base, extra = divmod(num_micro_batches, num_pipelines)
    blocks: list[list[int]] = []
    start = 0
    for i in range(num_pipelines):
        size = base + (1 if i < extra else 0)
        blocks.append(list(range(start, start + size)))
        start += size
    return blocks


@dataclass(frozen=True)
class MergedTimeline:
    """Result of the unit-slot merge: per-worker order plus slot times."""

    rows: tuple[tuple[Operation, ...], ...]
    #: ``op.key() -> (start_slot, end_slot)`` under unit op durations.
    slots: dict
    makespan: int


def _pipeline_block_for_replica(replica: int, f: int) -> int:
    """Block index of the micro-batch partition owned by ``replica``.

    Down pipelines (even replicas) take the first ``f`` blocks in order, up
    pipelines (odd replicas) the next ``f`` — matching Figure 8.
    """
    if replica % 2 == 0:
        return replica // 2
    return f + replica // 2


def _stage_sequences(
    depth: int,
    f: int,
    blocks: list[list[int]],
    strategy: ConcatStrategy,
) -> dict[tuple[int, int], list[Operation]]:
    """Per-(replica, stage) solo program orders.

    Each pipeline runs (expanded) 1F1B over its full micro-batch list with
    the warmup — i.e. the in-flight micro-batch units — capped at
    ``D/(2f)``. The cap yields Table 2's balanced activation interval
    ``[(D/2+1) Ma, D Ma]`` across the ``2f`` directions; the merge
    (:func:`merge_pipelines`) re-derives the fine-grained interleaving from
    these orders' forward/backward FIFOs, which is what lets a basic
    unit's forwards fill the previous unit's backward-drain gaps
    (paper §3.5, Figure 7).
    """
    sequences: dict[tuple[int, int], list[Operation]] = {}
    cap = max(1, depth // (2 * f))
    for replica in range(2 * f):
        mbs = blocks[_pipeline_block_for_replica(replica, f)]
        for stage in range(depth):
            if not mbs:
                sequences[(replica, stage)] = []
                continue
            if strategy is ConcatStrategy.DIRECT:
                seq = onefb_stage_order(
                    stage, depth, mbs, replica=replica, warmup_cap=cap
                )
            elif strategy is ConcatStrategy.FORWARD_DOUBLING:
                whole, residual = (mbs, []) if len(mbs) % 2 == 0 else (mbs[:-1], mbs[-1:])
                seq = expanded_onefb_stage_order(
                    stage,
                    depth,
                    whole,
                    replica=replica,
                    mode="doubling",
                    warmup_cap=cap,
                )
                if residual:
                    # Odd residual micro-batch: append a plain 1F1B tail,
                    # mirroring the paper's odd-K handling; its backward
                    # recomputes like the doubled units it rides with.
                    seq += [
                        op.with_recompute() if op.is_backward else op
                        for op in onefb_stage_order(
                            stage, depth, residual, replica=replica, warmup_cap=cap
                        )
                    ]
            else:
                seq = expanded_onefb_stage_order(
                    stage,
                    depth,
                    mbs,
                    replica=replica,
                    mode="halving",
                    warmup_cap=cap,
                )
            sequences[(replica, stage)] = seq
    return sequences


def unit_durations(op: Operation) -> int:
    """Equal forward/backward slot widths (Figure 3 top: merge assumption)."""
    return max(1, round(2 * op.work_units))


def practical_durations(op: Operation) -> int:
    """Integer slot widths under the paper's practical workload model.

    In units of half a forward pass: forward = 2 per micro-batch, backward =
    4 (2x a forward), backward with recomputation = 6 (3x), so a half-size
    backward is 2 and a fused two-micro-batch forward is 4.
    """
    per_mb = 2 if op.is_forward else (6 if op.recompute else 4)
    return max(1, round(per_mb * op.work_units))


def merge_pipelines(
    placement: StagePlacement,
    sequences: dict[tuple[int, int], list[Operation]],
    durations: "Callable[[Operation], int]" = unit_durations,
    *,
    inflight_cap: int | None = None,
) -> MergedTimeline:
    """Deterministic slotted merge of per-pipeline program orders.

    Every worker owns, per hosted ``(replica, stage)``, a forward FIFO and a
    backward FIFO extracted from that pipeline's 1F1B program order. Each
    slot, an idle worker executes the *ready* FIFO head with the highest
    priority: backwards before forwards (draining frees activations and
    unblocks upstream injection), then smallest FIFO position, then smallest
    replica id. Forward injection respects Chimera's activation discipline:

    * at most ``cap + 1`` micro-batch units in flight per (replica, stage)
      — ``cap = D/(2f)`` with a one-unit transient exactly as in Figure 7's
      concatenated schedules, and
    * at most ``2f * cap = D`` micro-batches in flight per *worker* across
      all hosted stages — Table 2's upper activation bound.

    Under equal slot widths this reproduces the paper's conflict-free
    bidirectional merge (Figure 3); under the practical widths (backward =
    2x forward) the next basic unit's forwards land exactly in the previous
    unit's backward-drain gaps (§3.5), keeping the total bubble count at
    ``D - 2`` independent of ``N``.
    """
    depth = placement.num_stages
    num_workers = placement.num_workers

    # Split each program order into forward / backward FIFOs. The 1F1B
    # sequencing between them is re-established by the in-flight caps plus
    # data dependencies, which is what allows the cross-unit interleaving.
    fifos: list[list[tuple[int, int, int, list[Operation], list[int]]]] = [
        [] for _ in range(num_workers)
    ]
    per_pipe_cap: dict[tuple[int, int], int] = {}
    total_ops = 0
    total_duration = 0
    for (replica, stage), seq in sorted(sequences.items()):
        worker = placement.worker_of(replica, stage)
        fwd = [op for op in seq if op.is_forward]
        bwd = [op for op in seq if op.is_backward]
        # kind_rank 0 = backward (drained first), 1 = forward.
        fifos[worker].append((1, replica, stage, fwd, [0]))
        fifos[worker].append((0, replica, stage, bwd, [0]))
        total_ops += len(seq)
        total_duration += sum(durations(op) for op in seq)
        # The largest warmup in this pipeline's own order bounds its
        # in-flight units; allow a one-unit transient on top (Figure 7).
        transient = max((len(op.micro_batches) for op in fwd), default=1)
        per_pipe_cap[(replica, stage)] = _max_warmup(seq) + transient

    if inflight_cap is None:
        inflight_cap = max(1, depth)

    fwd_end: dict[tuple[int, int, int], int] = {}
    bwd_end: dict[tuple[int, int, int, tuple[int, int]], int] = {}
    inflight: dict[tuple[int, int], float] = {key: 0.0 for key in per_pipe_cap}
    worker_inflight = [0.0] * num_workers

    def ready(op: Operation, now: int, worker: int, *, ignore_caps: bool = False) -> bool:
        if op.is_forward:
            if not ignore_caps:
                key = (op.replica, op.stage)
                units = len(op.micro_batches)
                if inflight[key] + units > per_pipe_cap[key]:
                    return False
                if worker_inflight[worker] + units > inflight_cap:
                    return False
            if op.stage == 0:
                return True
            return all(
                fwd_end.get((op.replica, op.stage - 1, mb), _NEVER) <= now
                for mb in op.micro_batches
            )
        for mb in op.micro_batches:
            if fwd_end.get((op.replica, op.stage, mb), _NEVER) > now:
                return False
            if op.stage < depth - 1:
                if bwd_end.get((op.replica, op.stage + 1, mb, op.part), _NEVER) > now:
                    return False
        return True

    rows: list[list[Operation]] = [[] for _ in range(num_workers)]
    slots: dict = {}
    busy_until = [0] * num_workers
    done = 0
    now = 0
    limit = 4 * total_duration + 48 * depth + 64
    while done < total_ops:
        if now > limit:
            raise ScheduleError(
                f"pipeline merge made no progress by slot {now} "
                f"({total_ops - done} ops pending) — dependency bug"
            )
        for worker in range(num_workers):
            if busy_until[worker] > now:
                continue
            best = None
            best_prio = None
            for kind_rank, replica, stage, seq, pos in fifos[worker]:
                if pos[0] >= len(seq):
                    continue
                op = seq[pos[0]]
                if not ready(op, now, worker):
                    continue
                prio = (kind_rank, pos[0], replica)
                if best_prio is None or prio < best_prio:
                    best_prio = prio
                    best = (op, pos)
            if best is None:
                continue
            op, pos = best
            pos[0] += 1
            rows[worker].append(op)
            end = now + durations(op)
            slots[op.key()] = (now, end)
            if op.is_forward:
                for mb in op.micro_batches:
                    fwd_end[(op.replica, op.stage, mb)] = end
                inflight[(op.replica, op.stage)] += len(op.micro_batches)
                worker_inflight[worker] += len(op.micro_batches)
            else:
                for mb in op.micro_batches:
                    bwd_end[(op.replica, op.stage, mb, op.part)] = end
                freed = op.work_units
                inflight[(op.replica, op.stage)] -= freed
                worker_inflight[worker] -= freed
            busy_until[worker] = end
            done += 1

        # Stall recovery: if every worker is idle and only the in-flight
        # caps hold work back (a cap-wait cycle across workers, seen for
        # deep forward-doubling chains), admit the single best
        # dependency-ready op ignoring the caps. The transient memory
        # excess is bounded by one scheduling unit and progress is
        # guaranteed; a stall with no dependency-ready op at all is a real
        # bug and still raises below.
        # Nothing in flight and nothing schedulable this slot = stall.
        if done < total_ops and all(b <= now for b in busy_until):
            best = None
            best_prio = None
            best_worker = None
            for worker in range(num_workers):
                for kind_rank, replica, stage, seq, pos in fifos[worker]:
                    if pos[0] >= len(seq):
                        continue
                    op = seq[pos[0]]
                    if ready(op, now, worker) or not ready(
                        op, now, worker, ignore_caps=True
                    ):
                        continue
                    prio = (kind_rank, pos[0], replica)
                    if best_prio is None or prio < best_prio:
                        best_prio = prio
                        best = (op, pos)
                        best_worker = worker
            if best is not None:
                op, pos = best
                pos[0] += 1
                rows[best_worker].append(op)
                end = now + durations(op)
                slots[op.key()] = (now, end)
                for mb in op.micro_batches:
                    fwd_end[(op.replica, op.stage, mb)] = end
                inflight[(op.replica, op.stage)] += len(op.micro_batches)
                worker_inflight[best_worker] += len(op.micro_batches)
                busy_until[best_worker] = end
                done += 1
        now += 1

    makespan = max((end for _, end in slots.values()), default=0)
    return MergedTimeline(rows=freeze_worker_ops(rows), slots=slots, makespan=makespan)


def _max_warmup(seq: list[Operation]) -> int:
    """Micro-batches injected by ``seq`` before its first backward."""
    count = 0
    for op in seq:
        if op.is_backward:
            break
        count += len(op.micro_batches)
    return max(1, count)


_NEVER = 1 << 60


def _eager_opt_pairs(
    placement: StagePlacement, timeline: MergedTimeline
) -> set[tuple[int, int, int]]:
    """``(worker, replica, stage)`` pairs worth synchronizing eagerly.

    The paper's criterion (§3.2): launch the allreduce early only if there
    is an idle slot between the completion of that stage's local gradients
    and the end of the worker's local computation — otherwise the eager
    launch cannot overlap anything and only risks slowing the critical path.
    """
    num_workers = placement.num_workers
    busy: list[set[int]] = [set() for _ in range(num_workers)]
    last_compute_end = [0] * num_workers
    for worker in range(num_workers):
        for op in timeline.rows[worker]:
            start, end = timeline.slots[op.key()]
            busy[worker].update(range(start, end))
            last_compute_end[worker] = max(last_compute_end[worker], end)

    eager: set[tuple[int, int, int]] = set()
    for worker in range(num_workers):
        for replica, stage in placement.stages_on_worker(worker):
            grad_end = max(
                (
                    timeline.slots[op.key()][1]
                    for op in timeline.rows[worker]
                    if op.is_backward and op.replica == replica and op.stage == stage
                ),
                default=None,
            )
            if grad_end is None:
                continue
            window = range(grad_end, last_compute_end[worker])
            if any(slot not in busy[worker] for slot in window):
                eager.add((worker, replica, stage))
    return eager


def build_chimera_schedule(
    depth: int,
    num_micro_batches: int,
    *,
    num_down_pipelines: int = 1,
    concat: ConcatStrategy | str = ConcatStrategy.DIRECT,
    sync_mode: str = "eager_opt",
    slot_model: str = "practical",
) -> Schedule:
    """Build a Chimera schedule.

    Parameters
    ----------
    depth:
        ``D`` — number of pipeline stages; must be even (bidirectional
        merging is conflict-free only for even ``D``, §3.1).
    num_micro_batches:
        ``N`` — micro-batches per worker per iteration. ``N < D`` is
        supported by splitting as evenly as possible; ``N > D`` uses the
        ``concat`` strategy.
    num_down_pipelines:
        ``f`` — the §3.6 generalization; must divide ``D/2``. The default
        ``f = 1`` combines one down and one up pipeline.
    concat:
        Strategy for ``N > D`` (ignored when ``N <= D``). Forward doubling
        always recomputes its fused units' backwards (flag-based, part of
        the schedule shape); schedule-wide recomputation is the recompute
        pass's job — ``build_schedule("chimera", ..., passes="recompute")``.
    sync_mode:
        ``"lazy"``, ``"eager"``, or ``"eager_opt"`` (default; paper §3.2).
    slot_model:
        Duration model used to derive the merged order: ``"practical"``
        (default; backward = 2x forward, Figure 3 bottom) or ``"unit"``
        (equal slots, Figure 3 top — the assumption behind the Table 3
        formulas).

    Returns
    -------
    A validated-shape :class:`~repro.schedules.ir.Schedule`; the unit-slot
    makespan of the merge is recorded in ``metadata["unit_slot_makespan"]``.
    """
    if isinstance(concat, str):
        try:
            concat = ConcatStrategy(concat)
        except ValueError:
            raise ScheduleError(
                f"unknown concatenation strategy {concat!r}; expected one of "
                f"{[s.value for s in ConcatStrategy]}"
            ) from None
    if sync_mode not in SYNC_MODES:
        raise ScheduleError(
            f"unknown sync mode {sync_mode!r}; expected one of {SYNC_MODES}"
        )
    if depth < 2 or depth % 2 != 0:
        raise ScheduleError(
            f"Chimera needs an even number of stages >= 2, got D={depth}"
        )
    f = num_down_pipelines
    placement = StagePlacement.bidirectional(depth, f)
    if num_micro_batches <= depth:
        # A single basic unit (or a partially filled one, N < D).
        strategy = ConcatStrategy.DIRECT
    else:
        strategy = concat

    if slot_model == "practical":
        durations = practical_durations
    elif slot_model == "unit":
        durations = unit_durations
    else:
        raise ScheduleError(
            f"unknown slot model {slot_model!r}; expected 'practical' or 'unit'"
        )
    blocks = partition_micro_batches(num_micro_batches, 2 * f)
    sequences = _stage_sequences(depth, f, blocks, strategy)
    # Forward doubling deliberately doubles the activation budget (paper
    # §3.5), so its per-worker in-flight cap is 2D instead of D.
    inflight_cap = 2 * depth if strategy is ConcatStrategy.FORWARD_DOUBLING else depth
    timeline = merge_pipelines(
        placement, sequences, durations, inflight_cap=inflight_cap
    )

    rows = [list(ops) for ops in timeline.rows]
    if sync_mode == "lazy":
        insert_eager_sync(rows, placement, eager_pairs=set())
    elif sync_mode == "eager":
        insert_eager_sync(rows, placement, eager_pairs=None)
    else:
        insert_eager_sync(
            rows, placement, eager_pairs=_eager_opt_pairs(placement, timeline)
        )

    return Schedule(
        scheme="chimera",
        placement=placement,
        num_micro_batches=num_micro_batches,
        worker_ops=freeze_worker_ops(rows),
        synchronous=True,
        metadata={
            "concat": strategy.value,
            "num_down_pipelines": f,
            "sync_mode": sync_mode,
            "unit_slot_makespan": timeline.makespan,
        },
    )
