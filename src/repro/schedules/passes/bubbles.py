"""Bubble filling: hoist deferred weight-gradient ops into idle ticks.

The zero-bubble builders already park their ``W`` ops inside bubbles —
but only because their greedy list-schedulers were written that way. Any
*other* split-backward schedule (a hand-built one, a ported trace, a
future builder that emits ``W`` right after its ``Bi``) leaves the
deferral opportunity on the table.

``fill_bubbles`` generalizes the ZB-H1 tail-fill into a pass: it replays
the schedule under a deterministic reference cost model (unit
``f = b = w``, the assumption of the zero-bubble papers),
keeps every non-``W`` op in its original per-worker order, and re-admits
each worker's ``W`` ops — FIFO, so their relative order is stable —
exactly when running one is strictly earlier than the worker's next
non-``W`` op could start. The result: ``W`` ops sit in genuine idle
ticks (hoisted ahead of stalled ops, or deferred past ready ones into
the drain bubbles), and a schedule that is already greedily packed is
reproduced unchanged — the pass is idempotent, and the postcondition
hook asserts the reference makespan never regresses.

Schedules without split backwards pass through untouched. The pass runs
before lowering: once SEND ops exist, inserting a ``W`` in front of one
would delay a message.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from functools import cache
from typing import TYPE_CHECKING

from repro.common.errors import ScheduleError
from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.ir import Operation, Schedule, freeze_worker_ops
from repro.schedules.passes.base import LOWERED, SchedulePass

if TYPE_CHECKING:
    from repro.sim.cost import CostModel


@cache
def reference_cost_model() -> CostModel:
    """The zero-bubble planning model the replay runs under: F = Bi = W = 1,
    fused B = 2. It is fixed, so the spec ``fill_bubbles`` names the
    pass's whole configuration. Built on first use, so registering the
    pass loads no simulator module.
    """
    from repro.sim.cost import CostModel

    return CostModel(
        forward_time=1.0,
        backward_ratio=2.0,
        backward_input_ratio=1.0,
        backward_weight_ratio=1.0,
    )


class FillBubblesPass(SchedulePass):
    """Re-seat deferred W ops into idle ticks of any split-backward schedule."""

    name = "fill_bubbles"
    forbids = frozenset({LOWERED})

    def run(self, schedule: Schedule) -> Schedule:
        if not any(op.is_backward_weight for _, op in schedule.all_ops()):
            return schedule
        graph = build_dependency_graph(schedule)
        cm = reference_cost_model()
        num_workers = schedule.num_workers

        nonw: list[list[Operation]] = []
        pending_w: list[deque[Operation]] = []
        for ops in schedule.worker_ops:
            nonw.append([op for op in ops if not op.is_backward_weight])
            pending_w.append(
                deque(op for op in ops if op.is_backward_weight)
            )
        ptr = [0] * num_workers
        free = [0.0] * num_workers
        end: dict[tuple, float] = {}
        rows: list[list[Operation]] = [[] for _ in range(num_workers)]

        def ready_time(worker: int, op: Operation) -> float | None:
            """Earliest dependency-permitted start, None if a dep is untimed."""
            at = free[worker]
            for edge in graph.deps[op.key()]:
                src_end = end.get(edge.src)
                if src_end is None:
                    return None
                if edge.is_p2p_candidate:
                    src_worker = graph.location[edge.src][0]
                    src_end += cm.p2p_time(
                        src_worker, worker, edge.payload_units
                    )
                if src_end > at:
                    at = src_end
            return at

        total = sum(len(ops) for ops in schedule.worker_ops)
        done = 0
        while done < total:
            # Globally earliest startable action; W ranks after non-W on
            # ties so an already-packed schedule reproduces itself.
            best: tuple[float, int, int] | None = None
            best_op: Operation | None = None
            for w in range(num_workers):
                if ptr[w] < len(nonw[w]):
                    op = nonw[w][ptr[w]]
                    at = ready_time(w, op)
                    if at is not None:
                        key = (at, 0, w)
                        if best is None or key < best:
                            best, best_op = key, op
                if pending_w[w]:
                    op = pending_w[w][0]
                    at = ready_time(w, op)
                    if at is not None:
                        key = (at, 1, w)
                        if best is None or key < best:
                            best, best_op = key, op
            if best is None or best_op is None:
                stuck = [
                    (w, nonw[w][ptr[w]].short())
                    for w in range(num_workers)
                    if ptr[w] < len(nonw[w])
                ]
                stuck += [
                    (w, pending_w[w][0].short())
                    for w in range(num_workers)
                    if pending_w[w]
                ]
                raise ScheduleError(
                    f"fill_bubbles stalled with {total - done} ops pending; "
                    f"heads: {stuck[:8]}"
                )
            at, rank, w = best
            if rank == 0:
                ptr[w] += 1
            else:
                pending_w[w].popleft()
            finish = at + cm.compute_time(best_op)
            end[best_op.key()] = finish
            free[w] = finish
            rows[w].append(best_op)
            done += 1

        return replace(schedule, worker_ops=freeze_worker_ops(rows))

    def check(self, before: Schedule, after: Schedule) -> None:
        for b_row, a_row in zip(before.worker_ops, after.worker_ops):
            if [op for op in b_row if not op.is_backward_weight] != [
                op for op in a_row if not op.is_backward_weight
            ]:
                raise ScheduleError(
                    "fill_bubbles reordered non-weight-gradient ops"
                )
            if [op for op in b_row if op.is_backward_weight] != [
                op for op in a_row if op.is_backward_weight
            ]:
                raise ScheduleError(
                    "fill_bubbles changed the per-worker W op sequence"
                )
        from repro.sim.kernel import simulate_fast

        was = simulate_fast(before, reference_cost_model()).compute_makespan
        now = simulate_fast(after, reference_cost_model()).compute_makespan
        if now > was + 1e-9:
            raise ScheduleError(
                f"fill_bubbles regressed the reference makespan "
                f"{was:g} -> {now:g} on {before.describe()}"
            )
