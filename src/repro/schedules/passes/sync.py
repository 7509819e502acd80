"""Gradient-synchronization placement as a pass.

``insert_sync`` strips any existing stage-granularity ``ALLREDUCE`` ops and
re-places one per hosted stage replica according to its mode — the §3.2
strategies that used to be reachable only through each builder:

* ``lazy`` (default) — append after all local computation (Figure 4a);
* ``eager`` — insert right after each stage's last local weight-gradient
  producer, overlapping the collective with the remaining compute
  (Figure 4b).

Because it is a pass, *any* scheme can now be re-synchronized — e.g.
``gpipe`` with eager sync — instead of only the modes its builder
hard-codes. Chimera's ``eager_opt`` needs the merged timeline's bubble
structure and therefore stays a builder concern; schemes with
per-micro-batch collectives (PipeDream) are rejected rather than silently
rewritten into per-stage synchronization.

The pass must run before lowering: eager insertion positions an allreduce
directly after a producer, and on a lowered schedule that would push the
producer's ``SEND`` back by the launch overhead.

The placement helpers (:func:`append_lazy_sync`, :func:`insert_eager_sync`)
live here too, and the Chimera builder calls them for its own modes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.common.errors import ScheduleError
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.passes.base import LOWERED, SYNC, SchedulePass
from repro.schedules.placement import StagePlacement

#: Supported synchronization strategies.
SYNC_MODES = ("lazy", "eager", "eager_opt")


def append_lazy_sync(
    rows: list[list[Operation]], placement: StagePlacement
) -> None:
    """Append one allreduce per hosted stage replica at the end of each worker.

    Stages are appended in increasing gradient-availability order (later
    pipeline stages finish their backwards first, so their collectives are
    launched first, mirroring Figure 4a).
    """
    for worker, ops in enumerate(rows):
        hosted = sorted(
            placement.stages_on_worker(worker), key=lambda rs: -rs[1]
        )
        for replica, stage in hosted:
            ops.append(Operation(OpKind.ALLREDUCE, replica, stage))


def insert_eager_sync(
    rows: list[list[Operation]],
    placement: StagePlacement,
    *,
    eager_pairs: set[tuple[int, int, int]] | None = None,
) -> None:
    """Insert allreduce ops right after each stage's last local backward.

    Parameters
    ----------
    eager_pairs:
        Optional set of ``(worker, replica, stage)`` triples that should be
        synchronized eagerly; hosted pairs not in the set are appended lazily
        at the end (this implements ``eager-sync-opt``: middle stages, whose
        gradients only complete at the very end of local computation, gain
        nothing from an eager launch and would only add progression overhead,
        paper §3.2). ``None`` means *every* hosted pair is eager.
    """
    for worker, ops in enumerate(rows):
        hosted = placement.stages_on_worker(worker)
        lazy: list[tuple[int, int]] = []
        inserts: list[tuple[int, Operation]] = []
        for replica, stage in hosted:
            eager = eager_pairs is None or (worker, replica, stage) in eager_pairs
            if not eager:
                lazy.append((replica, stage))
                continue
            last_bwd = max(
                (
                    i
                    for i, op in enumerate(ops)
                    if op.produces_weight_grads
                    and op.replica == replica
                    and op.stage == stage
                ),
                default=None,
            )
            if last_bwd is None:
                lazy.append((replica, stage))
                continue
            inserts.append((last_bwd + 1, Operation(OpKind.ALLREDUCE, replica, stage)))
        # Insert from the back so earlier indices stay valid.
        for pos, op in sorted(inserts, key=lambda t: -t[0]):
            ops.insert(pos, op)
        for replica, stage in sorted(lazy, key=lambda rs: -rs[1]):
            ops.append(Operation(OpKind.ALLREDUCE, replica, stage))




class InsertSyncPass(SchedulePass):
    """Place one gradient allreduce per hosted stage replica."""

    name = "insert_sync"
    forbids = frozenset({LOWERED})
    provides = frozenset({SYNC})

    def __init__(self, mode: str = "lazy"):
        if mode not in ("lazy", "eager"):
            raise ScheduleError(
                f"insert_sync mode must be 'lazy' or 'eager', got {mode!r} "
                f"(builder-level modes: {SYNC_MODES})"
            )
        self.mode = mode

    def params(self) -> tuple[tuple[str, object], ...]:
        return (("mode", self.mode),)

    def run(self, schedule: Schedule) -> Schedule:
        for _, op in schedule.all_ops():
            if op.kind is OpKind.ALLREDUCE and op.micro_batches:
                raise ScheduleError(
                    f"insert_sync cannot re-place per-micro-batch "
                    f"collectives ({schedule.scheme} synchronizes after "
                    f"every backward); its sync placement is scheme-managed"
                )
        rows = [
            [op for op in ops if op.kind is not OpKind.ALLREDUCE]
            for ops in schedule.worker_ops
        ]
        if self.mode == "lazy":
            append_lazy_sync(rows, schedule.placement)
        else:
            insert_eager_sync(rows, schedule.placement, eager_pairs=None)
        return replace(schedule, worker_ops=freeze_worker_ops(rows))

    def check(self, before: Schedule, after: Schedule) -> None:
        hosted = sum(
            len(after.replicas_hosted_by(w)) for w in range(after.num_workers)
        )
        placed = after.count(OpKind.ALLREDUCE)
        if placed != hosted:
            raise ScheduleError(
                f"insert_sync placed {placed} allreduce ops for {hosted} "
                f"hosted stage replicas on {after.describe()}"
            )
