"""Reference for the collective rules: the dict-based finalizer.

The simulators share one collective epilogue
(:func:`repro.sim.epilogue._iteration_time`), so comparing the engine
with the kernel cannot check those rules. This module implements them a
second time, over ``TimedOp`` dicts and ``TransferRecord`` lists, as
their independent oracle:
``tests/test_kernel_contended.py::assert_results_match`` runs it over
every engine result of the contended, blocking and offload batteries,
and ``tests/test_sim_records.py`` over the kernel's records. It decides
which transfers block a collective by payload (a host copy, ``"stash"``,
never does), not by the send table's host direction the epilogue reads.
"""

from collections import defaultdict

from repro.schedules.dependencies import OpKey
from repro.schedules.ir import Operation, OpKind, Schedule
from repro.sim.cost import CostModel
from repro.sim.engine import (
    CollectiveRecord,
    TimedOp,
    TransferRecord,
    _clear_of_transfers,
)


def finalize(
    schedule: Schedule,
    cost_model: CostModel,
    timed: dict[OpKey, TimedOp],
    sync_group_members: dict[tuple, list[tuple[int, Operation]]],
    sync_launches: dict[tuple, dict[int, float]],
    transfers: list[TransferRecord],
    *,
    blocking_sync: bool,
    compute_makespan: float,
    resolved: dict[tuple, tuple[float, float]] | None = None,
) -> tuple[list[CollectiveRecord], float, float]:
    """Resolve collectives: ``(collectives, compute_makespan, iteration_time)``.

    Sorts ``transfers`` in place into the canonical record order.
    ``resolved`` carries the blocking collectives the solver already
    timed (start, end); those are recorded verbatim, because the member
    workers were released from exactly those times.
    """
    num_workers = schedule.num_workers
    resolved = resolved or {}

    # Per-worker interface busy intervals from explicit p2p transfers: a
    # collective cannot start while a message is still serializing on a
    # member's link (transfers scheduled first win the channel; traffic
    # launched after the collective's start is not re-queued behind it).
    # Blocking collectives saw the same rule inside the event loop.
    nic_busy: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for t in transfers:
        if t.occupancy > 0 and t.payload != "stash":
            interval = (t.start, t.start + t.occupancy)
            nic_busy[t.src_worker].append(interval)
            nic_busy[t.dst_worker].append(interval)

    # Resolve collective completions (non-blocking case; for blocking they
    # are already folded into the cursors, but recording them is useful).
    # Collectives sharing a worker are serviced serially — one network
    # interface per node — in ready-time order.
    pending = []
    for group_key, members in sync_group_members.items():
        stage, micro_batches = group_key
        launches = sync_launches[group_key]
        workers = tuple(w for w, _ in members)
        ready = max(launches.values())
        cost = cost_model.allreduce_time(stage, workers)
        pending.append((ready, stage, micro_batches, workers, launches, cost))
    pending.sort(key=lambda t: (t[0], t[1], t[2]))

    collectives: list[CollectiveRecord] = []
    iteration_time = compute_makespan
    link_free = [0.0] * num_workers
    for ready, stage, micro_batches, workers, launches, cost in pending:
        if (stage, micro_batches) in resolved:
            start, end = resolved[(stage, micro_batches)]
        else:
            start = max([ready] + [link_free[w] for w in workers])
            start = _clear_of_transfers(start, workers, nic_busy)
            end = start + cost
        for w in workers:
            link_free[w] = max(link_free[w], end)
        collectives.append(
            CollectiveRecord(
                stage=stage,
                micro_batches=micro_batches,
                workers=workers,
                launch_times=tuple(launches[w] for w in workers),
                start=start,
                end=end,
            )
        )
        iteration_time = max(iteration_time, end)

    # Progression contention: a collective in flight slows the compute it
    # overlaps with (§3.2). Charged per worker proportionally to the
    # overlapped span; extends both that worker's effective finish and the
    # iteration.
    if cost_model.sync_overlap_slowdown > 0 and collectives and not blocking_sync:
        worker_compute_end = [0.0] * num_workers
        for t in timed.values():
            if t.op.is_compute:
                worker_compute_end[t.worker] = max(
                    worker_compute_end[t.worker], t.end
                )
        for record in collectives:
            for w in record.workers:
                overlap = max(
                    0.0, min(record.end, worker_compute_end[w]) - record.start
                )
                penalty = cost_model.sync_overlap_slowdown * overlap
                worker_compute_end[w] += penalty
        compute_makespan = max(compute_makespan, max(worker_compute_end))
        iteration_time = max(iteration_time, compute_makespan)

    # Canonical record order: structural keys that read no float time,
    # so the engine and the kernel list the same records in the same
    # order even where their times differ by an ulp. A collective is
    # unique per (stage, micro-batches), a transfer per issuing op.
    collectives.sort(key=lambda c: (c.stage, c.micro_batches))
    transfers.sort(key=lambda t: (t.src_worker, t.op_index))
    return collectives, compute_makespan, iteration_time



def reference_collectives(
    result, *, blocking_sync: bool = False
) -> tuple[list[CollectiveRecord], float, float]:
    """:func:`finalize` over a result's own records:
    ``(collectives, compute_makespan, iteration_time)``.

    A blocking result's collectives are taken verbatim, as its solver
    released the member workers from them.
    """
    members: dict[tuple, list[tuple[int, Operation]]] = {}
    launches: dict[tuple, dict[int, float]] = {}
    for worker, row in enumerate(result.schedule.worker_ops):
        for op in row:
            if op.kind is OpKind.ALLREDUCE:
                key = (op.stage, op.micro_batches)
                members.setdefault(key, []).append((worker, op))
                launches.setdefault(key, {})[worker] = result.timed[op.key()].start
    makespan = max(
        (t.end for t in result.timed.values() if t.op.is_compute), default=0.0
    )
    resolved = (
        {(c.stage, c.micro_batches): (c.start, c.end) for c in result.collectives}
        if blocking_sync
        else None
    )
    return finalize(
        result.schedule,
        result.cost_model,
        result.timed,
        members,
        launches,
        list(result.transfers),
        blocking_sync=blocking_sync,
        compute_makespan=makespan,
        resolved=resolved,
    )
