"""Cooperative executor: runs a schedule's operations on real NumPy stages.

Workers are polled round-robin; each executes its next operation as soon as
the operation's messages are available in the backend (the in-order-per-
worker semantics the simulator models). A full pass with no progress is a
deadlock and raises with a per-worker report — by construction (validated
schedules) this only fires on library bugs, and the tests rely on that.

The executor is scheme-agnostic: PipeDream's weight stashing and per-micro-
batch updates are injected through hooks by the trainer. Split-backward
schedules (zero-bubble family) execute ``BACKWARD_INPUT`` as a gradient-
propagating backward whose parameter gradients are deferred inside the
stage module, and ``BACKWARD_WEIGHT`` as the purely local accumulation of
that deferred contribution.

Lowered schedules (:mod:`repro.schedules.lowering`) run with *explicit*
transfer steps: a producer whose consumer lives on another worker parks
its tensor in a local outbox, the scheduled ``SEND`` moves it into the
backend (the wire), the ``RECV`` moves it from the backend into the
consumer's inbox, and the consumer reads the inbox. Stage pairs sharing a
worker (the ZB-V fold) keep the direct backend path — exactly the edges
the lowering pass leaves implicit. *Fused* schedules
(:mod:`repro.schedules.passes.fuse`) have no ``RECV`` step: the batched
``SEND`` puts the tensor on the wire and the consumer takes it straight
off the backend. Explicit ``RECOMPUTE`` ops (the recompute pass)
rematerialize a stage's discarded activations from the stashed stage
input right before the first backward. ``OFFLOAD``/``RELOAD`` ops (the
offload pass) park a stage's stash in the module's host tier between the
forward and its first consumer. All paths produce bit-identical training
results; the parity tests assert it.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.common.errors import DeadlockError, ReproError
from repro.models.loss import softmax_cross_entropy
from repro.runtime.backend import InProcessBackend
from repro.runtime.stage_module import StageModule
from repro.schedules.ir import Operation, OpKind, Schedule

#: (group, replica, stage) -> StageModule
StageMap = Mapping[tuple[int, int, int], StageModule]


class PipelineExecutor:
    """Executes one training iteration of ``schedule`` over ``width`` groups.

    Parameters
    ----------
    schedule:
        Any validated schedule.
    stages:
        Stage modules per ``(group, replica, stage)``.
    width:
        ``W`` — data-parallel pipeline groups (each runs the same schedule
        on its own micro-batches).
    weight_stashing:
        PipeDream-style: snapshot weights at each forward, run the backward
        against the snapshot (version consistency across an update that
        happened in between).
    on_sync_complete:
        Called with ``(stage, micro_batches, members)`` whenever a gradient
        allreduce finishes; PipeDream's trainer updates weights here.
    """

    def __init__(
        self,
        schedule: Schedule,
        stages: StageMap,
        *,
        width: int = 1,
        weight_stashing: bool = False,
        on_sync_complete: Callable[[int, tuple, list], None] | None = None,
    ) -> None:
        self.schedule = schedule
        self.stages = dict(stages)
        self.width = width
        #: Message/collective transport of this executor's iterations.
        self.backend = InProcessBackend()
        self.weight_stashing = weight_stashing
        self.on_sync_complete = on_sync_complete
        self.lowered = schedule.lowered
        #: Fused communication (fuse_comm pass): SENDs exist but RECVs are
        #: batched into them — consumers read the backend directly.
        self.fused = bool(schedule.metadata.get("fused_comm", False))
        #: Lowered mode: producer output awaiting its SEND, keyed like the
        #: backend message it becomes.
        self._outbox: dict[tuple, np.ndarray] = {}
        #: Lowered mode: received message awaiting its consumer.
        self._inbox: dict[tuple, np.ndarray] = {}
        #: (replica, stage, mb) whose forward must stash only the stage
        #: input — flag-based recomputation plus explicit RECOMPUTE ops.
        self._recompute_mbs: set[tuple[int, int, int]] = {
            (op.replica, op.stage, mb)
            for _, op in schedule.all_ops()
            if (op.is_backward and op.recompute) or op.is_recompute
            for mb in op.micro_batches
        }
        if weight_stashing and any(
            op.is_split_backward for _, op in schedule.all_ops()
        ):
            raise ReproError(
                "weight stashing (PipeDream versioning) is not supported "
                "with split-backward schedules"
            )
        for group in range(width):
            for worker in range(schedule.num_workers):
                for replica, stage in schedule.replicas_hosted_by(worker):
                    if (group, replica, stage) not in self.stages:
                        raise ReproError(
                            f"missing stage module (group={group}, "
                            f"replica={replica}, stage={stage})"
                        )

    # ------------------------------------------------------------------ API
    def run_iteration(
        self, data: list[list[tuple[np.ndarray, np.ndarray]]]
    ) -> float:
        """Execute the schedule once; returns the mini-batch loss.

        ``data[group][mb] = (tokens, targets)`` with exactly ``N`` entries
        per group.
        """
        n = self.schedule.num_micro_batches
        if len(data) != self.width:
            raise ReproError(f"need data for {self.width} groups, got {len(data)}")
        for group_data in data:
            if len(group_data) != n:
                raise ReproError(
                    f"each group needs {n} micro-batches, got {len(group_data)}"
                )
        self._data = data
        self._logits: dict[tuple[int, int], np.ndarray] = {}
        self._losses: dict[tuple[int, int], float] = {}
        self._stashes: dict[tuple, list[np.ndarray]] = {}
        self._outbox.clear()
        self._inbox.clear()
        self.backend.reset_collectives()

        pointers = {
            (group, worker): 0
            for group in range(self.width)
            for worker in range(self.schedule.num_workers)
        }
        ops = self.schedule.worker_ops
        total = self.width * sum(len(row) for row in ops)
        done = 0
        while done < total:
            progressed = False
            for (group, worker), ptr in list(pointers.items()):
                row = ops[worker]
                while pointers[(group, worker)] < len(row):
                    op = row[pointers[(group, worker)]]
                    if not self._executable(group, op):
                        break
                    self._execute(group, worker, op)
                    pointers[(group, worker)] += 1
                    done += 1
                    progressed = True
            if not progressed:
                heads = {}
                for (group, worker), ptr in pointers.items():
                    if ptr < len(ops[worker]):
                        heads[f"g{group}/P{worker}"] = ops[worker][ptr].short()
                raise DeadlockError(
                    f"pipeline made no progress; blocked heads: {heads}"
                )
        unresolved = self.backend.unresolved_collectives()
        if unresolved:
            raise DeadlockError(
                f"iteration finished with unresolved collectives: {unresolved}"
            )
        if self._outbox or self._inbox:
            raise DeadlockError(
                f"iteration finished with undelivered transfers: "
                f"{len(self._outbox)} parked, {len(self._inbox)} unconsumed"
            )
        mean_group_losses = [
            sum(self._losses[(g, mb)] for mb in range(n)) / n
            for g in range(self.width)
        ]
        return float(np.mean(mean_group_losses))

    # ------------------------------------------------------------- execution
    def _cross_worker(self, replica: int, src_stage: int, dst_stage: int) -> bool:
        """Does a message between these stages leave its worker?"""
        return self.schedule.worker_of(replica, src_stage) != self.schedule.worker_of(
            replica, dst_stage
        )

    def _message_key(
        self, group: int, op: Operation, mb: int, payload: str, stage: int
    ) -> tuple:
        if payload == "act":
            return (group, op.replica, stage, mb, "act")
        return (group, op.replica, stage, mb, "grad", op.part)

    # The three routing helpers own the lowered-vs-implicit decision: a
    # cross-worker message of a lowered schedule stages through the
    # outbox/wire/inbox pipeline, anything else uses the backend directly.
    # Under fused communication the producer side keeps the outbox/SEND
    # step but the consumer reads the wire (backend) itself — the RECV
    # was batched into the SEND.
    def _routes_via_comm_ops(
        self, replica: int, src_stage: int, dst_stage: int
    ) -> bool:
        return self.lowered and self._cross_worker(replica, src_stage, dst_stage)

    def _input_ready(
        self, key: tuple, replica: int, src_stage: int, dst_stage: int
    ) -> bool:
        if not self.fused and self._routes_via_comm_ops(
            replica, src_stage, dst_stage
        ):
            return key in self._inbox
        return self.backend.can_recv(key)

    def _take_input(
        self, key: tuple, replica: int, src_stage: int, dst_stage: int
    ) -> np.ndarray:
        if not self.fused and self._routes_via_comm_ops(
            replica, src_stage, dst_stage
        ):
            return self._inbox.pop(key)
        return self.backend.recv(key)

    def _emit_output(
        self,
        key: tuple,
        replica: int,
        src_stage: int,
        dst_stage: int,
        value: np.ndarray,
    ) -> None:
        if self._routes_via_comm_ops(replica, src_stage, dst_stage):
            self._outbox[key] = value
        else:
            self.backend.send(key, value)

    def _executable(self, group: int, op: Operation) -> bool:
        if (
            op.kind is OpKind.ALLREDUCE
            or op.is_backward_weight
            or op.is_recompute
            or op.is_host_comm
        ):
            # Weight-gradient ops consume only local deferred state;
            # RECOMPUTE replays from the locally stashed stage input;
            # OFFLOAD/RELOAD shuffle the stash between memory tiers of
            # their own worker; in all cases program order (validated: W
            # after its Bi, R after its forward, host ops bracketing the
            # stash's idle span) makes them always runnable.
            return True
        if op.kind is OpKind.SEND:
            # Program order puts the SEND after its producer, which filled
            # the outbox; checked anyway so a deadlock report names it.
            return all(
                self._message_key(group, op, mb, op.payload, op.peer_stage)
                in self._outbox
                for mb in op.micro_batches
            )
        if op.kind is OpKind.RECV:
            return all(
                self.backend.can_recv(
                    self._message_key(group, op, mb, op.payload, op.stage)
                )
                for mb in op.micro_batches
            )
        if op.is_forward:
            if op.stage == 0:
                return True
            return all(
                self._input_ready(
                    (group, op.replica, op.stage, mb, "act"),
                    op.replica,
                    op.stage - 1,
                    op.stage,
                )
                for mb in op.micro_batches
            )
        if op.stage == self.schedule.num_stages - 1:
            return True
        return all(
            self._input_ready(
                (group, op.replica, op.stage, mb, "grad", op.part),
                op.replica,
                op.stage + 1,
                op.stage,
            )
            for mb in op.micro_batches
        )

    def _execute(self, group: int, worker: int, op: Operation) -> None:
        if op.kind is OpKind.ALLREDUCE:
            self._execute_sync(group, op)
        elif op.kind is OpKind.SEND:
            self._execute_send(group, op)
        elif op.kind is OpKind.RECV:
            self._execute_recv(group, op)
        elif op.is_host_comm:
            self._execute_host_comm(group, op)
        elif op.is_recompute:
            self._execute_recompute(group, op)
        elif op.is_forward:
            self._execute_forward(group, op)
        elif op.is_backward_weight:
            self._execute_backward_weight(group, op)
        else:
            self._execute_backward(group, op)

    def _execute_send(self, group: int, op: Operation) -> None:
        """Move the producer's parked tensor onto the wire (the backend)."""
        for mb in op.micro_batches:
            key = self._message_key(group, op, mb, op.payload, op.peer_stage)
            self.backend.send(key, self._outbox.pop(key))

    def _execute_recv(self, group: int, op: Operation) -> None:
        """Take the arrived message off the wire into the consumer's inbox."""
        for mb in op.micro_batches:
            key = self._message_key(group, op, mb, op.payload, op.stage)
            self._inbox[key] = self.backend.recv(key)

    def _execute_host_comm(self, group: int, op: Operation) -> None:
        """Move a stash between the device and host tiers (offload pass).

        ``OFFLOAD`` parks the stage's activation stash in the stage
        module's host-side dict, ``RELOAD`` brings it back before the
        first consumer. Both touch only local state, and in this
        in-process runtime the "copy" is a dict move — training stays
        bit-identical; the simulator prices the transfer.
        """
        stage_module = self.stages[(group, op.replica, op.stage)]
        for mb in op.micro_batches:
            if op.is_offload:
                stage_module.offload_stash(mb)
            else:
                stage_module.reload_stash(mb)

    def _execute_recompute(self, group: int, op: Operation) -> None:
        """Rebuild the stage's discarded activation caches for the backward.

        Under PipeDream weight stashing the replay must use the *same
        weight version* the original forward used (an optimizer step may
        have happened in between), so the stashed snapshot is loaded
        around the rematerialization — exactly what the lazy flag-based
        path does implicitly inside the snapshot-loaded backward.
        """
        stage_module = self.stages[(group, op.replica, op.stage)]
        for mb in op.micro_batches:
            stash_key = (group, op.replica, op.stage, mb)
            if self.weight_stashing and stash_key in self._stashes:
                current = stage_module.snapshot_params()
                stage_module.load_params(self._stashes[stash_key])
                stage_module.rematerialize(mb)
                stage_module.load_params(current)
            else:
                stage_module.rematerialize(mb)

    def _execute_forward(self, group: int, op: Operation) -> None:
        depth = self.schedule.num_stages
        stage_module = self.stages[(group, op.replica, op.stage)]
        for mb in op.micro_batches:
            if op.stage == 0:
                x = self._data[group][mb][0]
            else:
                x = self._take_input(
                    (group, op.replica, op.stage, mb, "act"),
                    op.replica,
                    op.stage - 1,
                    op.stage,
                )
            if self.weight_stashing:
                self._stashes[(group, op.replica, op.stage, mb)] = (
                    stage_module.snapshot_params()
                )
            recompute = (op.replica, op.stage, mb) in self._recompute_mbs
            stage_module.recompute = recompute
            y = stage_module.forward(mb, x)
            if op.stage < depth - 1:
                self._emit_output(
                    (group, op.replica, op.stage + 1, mb, "act"),
                    op.replica,
                    op.stage,
                    op.stage + 1,
                    y,
                )
            else:
                self._logits[(group, mb)] = y

    def _execute_backward(self, group: int, op: Operation) -> None:
        depth = self.schedule.num_stages
        stage_module = self.stages[(group, op.replica, op.stage)]
        index, parts = op.part
        for mb in op.micro_batches:
            if op.stage == depth - 1:
                logits = self._logits[(group, mb)]
                batch = logits.shape[0]
                rows = _part_slice(batch, index, parts)
                targets = self._data[group][mb][1]
                loss, dlogits = softmax_cross_entropy(
                    logits[rows], targets[rows]
                )
                # Rescale from a part-mean to the micro-batch mean so parts
                # compose exactly.
                dlogits = dlogits / parts
                self._losses[(group, mb)] = (
                    self._losses.get((group, mb), 0.0) + loss / parts
                )
                dy = dlogits
                row_slice = rows if parts > 1 else None
            else:
                dy = self._take_input(
                    (group, op.replica, op.stage, mb, "grad", op.part),
                    op.replica,
                    op.stage + 1,
                    op.stage,
                )
                batch = self._data[group][mb][0].shape[0]
                row_slice = _part_slice(batch, index, parts) if parts > 1 else None

            stash_key = (group, op.replica, op.stage, mb)
            if op.is_backward_input:
                dx = stage_module.backward_input(
                    mb, dy, row_slice=row_slice, part=op.part
                )
            elif self.weight_stashing and stash_key in self._stashes:
                current = stage_module.snapshot_params()
                stage_module.load_params(self._stashes[stash_key])
                dx = stage_module.backward(
                    mb, dy, row_slice=row_slice, fraction=1.0 / parts
                )
                stage_module.load_params(current)
                if not stage_module.is_in_flight(mb):
                    del self._stashes[stash_key]
            else:
                dx = stage_module.backward(
                    mb, dy, row_slice=row_slice, fraction=1.0 / parts
                )
            if op.stage > 0:
                self._emit_output(
                    (group, op.replica, op.stage - 1, mb, "grad", op.part),
                    op.replica,
                    op.stage,
                    op.stage - 1,
                    dx,
                )

    def _execute_backward_weight(self, group: int, op: Operation) -> None:
        stage_module = self.stages[(group, op.replica, op.stage)]
        _index, parts = op.part
        for mb in op.micro_batches:
            stage_module.backward_weight(mb, part=op.part, fraction=1.0 / parts)

    def _execute_sync(self, group: int, op: Operation) -> None:
        coll_key = (op.stage, op.micro_batches)
        members = self._sync_members(op.stage)
        stage_module = self.stages[(group, op.replica, op.stage)]
        self.backend.allreduce_contribute(
            coll_key,
            (group, op.replica, op.stage),
            stage_module.grad_arrays(),
            group_size=len(members),
        )
        if self.backend.allreduce_done(coll_key) and self.on_sync_complete:
            self.on_sync_complete(op.stage, op.micro_batches, members)

    def _sync_members(self, stage: int) -> list[tuple[int, int, int]]:
        """Every (group, replica, stage) copy participating in the collective.

        Each model replica holds stage ``stage`` exactly once, so the group
        is ``width x num_replicas`` strong (§3.3: data parallelism grows the
        participant count by W without changing the local gradient size).
        """
        return [
            (group, replica, stage)
            for group in range(self.width)
            for replica in range(self.schedule.num_replicas)
        ]


def _part_slice(batch: int, index: int, parts: int) -> slice:
    if batch % parts:
        raise ReproError(
            f"micro-batch of {batch} rows cannot split into {parts} backward parts"
        )
    step = batch // parts
    return slice(index * step, (index + 1) * step)
