"""The collective epilogue: gradient synchronization (§3.2) on arrays.

The one implementation of the collective rules, run after the op times
are known by the event engine and by every array-kernel row. Non-blocking
collectives are ready when their last member launched; collectives that
share a worker run one after another in ready-time order; none starts
while a p2p transfer still holds a member's interface (host copies never
do); compute a collective overlaps is slowed down. Blocking collectives
come timed from the solver and are taken verbatim.

Its input is a *layout* read by attribute name, so it imports neither
simulator: ``op_worker``, ``sync_groups`` (group key -> member op ids),
``num_workers``, ``compute_by_worker`` and ``worker_ptr`` (compute op
ids grouped by worker, and per-worker offsets into them), and the send
table ``send_worker`` / ``send_dst_w`` / ``send_host_dir``. The kernel's
``ScheduleKernel`` and the engine's ``_DenseSchedule`` both carry them.
The oracle for these rules is the dict finalizer in
``tests/reference_collectives.py``.

Clearance reads per-worker merged busy runs, binary-searched by
:func:`_clear_sorted`; the kernel's blocking floors grow them one
transfer at a time (:func:`_add_busy`), the epilogue builds them in one
vectorized pass (:func:`_busy_runs`).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.sim.cost import CostModel


def _iteration_time(
    layout,
    cost_model: CostModel,
    start: Sequence[float],
    end: Sequence[float],
    compute_makespan: float,
    *,
    wire: tuple[np.ndarray, np.ndarray] | None = None,
    resolved: dict | None = None,
) -> tuple[float, float, list[tuple]]:
    """``(iteration time, compute makespan, spans)`` of one solved row.

    ``start``/``end`` are per-op times indexed by op id. ``resolved``
    holds the blocking solver's collectives (group key -> ``(start,
    end)``), taken verbatim because the member workers were released
    from exactly those times; ``None`` means non-blocking. Other
    collectives sharing a worker are serviced serially in ready-time
    order, each one pushed past in-flight transfer occupancy on its
    members' interfaces (``wire``: the row's per-send wire starts and
    occupancies; only transfers still busy at the earliest ready time
    enter the busy runs). For non-blocking rows the overlap-slowdown
    penalty extends worker finish times (and with them the compute
    makespan) in the same collective order. ``spans`` is each
    collective's ``(stage, micro_batches, workers, start, end)``, in
    ready-time order.
    """
    groups = _groups_of(layout)
    iteration = compute_makespan
    spans: list[tuple] = []
    if not groups.keys:
        return iteration, compute_makespan, spans
    # Batch sweeps pass ndarray rows; the engine and the per-row solves
    # pass lists, of which only the members' starts are read.
    if isinstance(start, np.ndarray):
        launch = start[groups.members]
    else:
        launch = np.fromiter(map(start.__getitem__, groups.member_list), float)
    ready_arr = np.maximum.reduceat(launch, groups.ptr)
    # Ready-time order; groups are in key order, so a stable sort breaks
    # ties by (stage, micro_batches).
    order = np.argsort(ready_arr, kind="stable").tolist()
    ready = ready_arr.tolist()
    costs = [cost_model.allreduce_time(stage, w) for stage, w in groups.classes]

    keys, group_workers, group_class = groups.keys, groups.workers, groups.cls
    link_free = [0.0] * layout.num_workers
    nic_busy = None
    if wire is not None:
        nic_busy = _busy_runs(layout, *wire, after=ready[order[0]])
    for g in order:
        key = keys[g]
        workers = group_workers[g]
        if resolved is not None and key in resolved:
            begin, finish = resolved[key]
        else:
            begin = ready[g]
            for w in workers:
                if link_free[w] > begin:
                    begin = link_free[w]
            if nic_busy:
                begin = _clear_sorted(begin, workers, nic_busy)
            finish = begin + costs[group_class[g]]
        for w in workers:
            if finish > link_free[w]:
                link_free[w] = finish
        spans.append((key[0], key[1], workers, begin, finish))
        if finish > iteration:
            iteration = finish

    if cost_model.sync_overlap_slowdown > 0 and spans and resolved is None:
        worker_end = _worker_compute_end(layout, end)
        for _, _, workers, begin, finish in spans:
            for w in workers:
                overlap = max(0.0, min(finish, worker_end[w]) - begin)
                worker_end[w] += cost_model.sync_overlap_slowdown * overlap
        slowed = max(worker_end) if worker_end else 0.0
        compute_makespan = max(compute_makespan, slowed)
        iteration = max(iteration, compute_makespan)
    return iteration, compute_makespan, spans


class _Groups:
    """A layout's sync groups as arrays: what the epilogue reads of them
    under every cost model, built once per layout (:func:`_groups_of`).

    Groups are in key order, ``(stage, micro_batches)``.
    ``members``/``ptr`` are the member op ids, concatenated (also as
    ``member_list``), and each group's offset into them; ``classes`` are the distinct ``(stage,
    workers)`` pairs that price a collective, and ``cls`` each group's
    index there.
    """

    def __init__(self, layout):
        op_worker = layout.op_worker
        self.keys = sorted(layout.sync_groups)
        mids = [layout.sync_groups[key] for key in self.keys]
        self.workers = [tuple(op_worker[m] for m in ids) for ids in mids]
        self.member_list = [m for ids in mids for m in ids]
        self.members = np.array(self.member_list, dtype=np.int64)
        self.ptr = np.cumsum([0] + [len(ids) for ids in mids[:-1]])
        classes: dict[tuple, int] = {}
        self.cls = [
            classes.setdefault((stage, workers), len(classes))
            for (stage, _), workers in zip(self.keys, self.workers)
        ]
        self.classes = list(classes)


#: Layout -> its :class:`_Groups`. Weak on the layout, so a kernel's or
#: dense schedule's entry dies with it; a side table rather than an
#: attribute keeps stored kernels' bytes independent of the epilogue.
_GROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _groups_of(layout) -> _Groups:
    groups = _GROUPS.get(layout)
    if groups is None:
        groups = _GROUPS[layout] = _Groups(layout)
    return groups


def _worker_compute_end(layout, end: Sequence[float]) -> list[float]:
    """Last compute completion per worker (0.0 for a worker without
    compute)."""
    worker_end = np.zeros(layout.num_workers)
    wptr = layout.worker_ptr
    filled = wptr[1:] > wptr[:-1]
    if filled.any():
        worker_end[filled] = np.maximum.reduceat(
            np.asarray(end)[layout.compute_by_worker], wptr[:-1][filled]
        )
    return worker_end.tolist()


def _busy_sends(layout, occupancy: np.ndarray) -> np.ndarray:
    """Indices of the sends that occupy a NIC: nonzero occupancy, no host.

    Host transfers ride PCIe, not the NIC, so they never block a
    collective.
    """
    return np.flatnonzero((occupancy > 0.0) & (layout.send_host_dir < 0))


def _add_busy(
    runs: dict[int, tuple[list[float], list[float]]], w: int, s: float, e: float
) -> None:
    """Add interval ``[s, e)`` to worker ``w``'s merged busy runs.

    A worker's runs are two sorted lists (starts, ends) of disjoint runs
    that do not touch, so :func:`_clear_sorted` can binary-search them;
    the new interval absorbs every run it overlaps or touches.
    """
    run = runs.get(w)
    if run is None:
        runs[w] = ([s], [e])
        return
    starts, ends = run
    lo = bisect_left(ends, s)
    hi = bisect_right(starts, e, lo)
    if lo == hi:
        starts.insert(lo, s)
        ends.insert(lo, e)
        return
    if starts[lo] < s:
        s = starts[lo]
    if ends[hi - 1] > e:
        e = ends[hi - 1]
    starts[lo:hi] = [s]
    ends[lo:hi] = [e]


def _busy_runs(
    layout,
    wire_start: np.ndarray,
    occupancy: np.ndarray,
    after: float,
) -> dict[int, tuple[list[float], list[float]]]:
    """Per-worker merged busy runs of one row's transfers ending after ``after``.

    The runs :func:`_add_busy` builds one interval at a time, built here
    from one sorted pass: a row's transfers are all known up front, so
    a vectorized filter keeps the live ones and a lexsort orders them by
    (worker, start); one Python pass then coalesces each worker's
    intervals (a per-worker numpy merge costs more than the few live
    intervals it merges). Each transfer occupies both endpoints'
    interfaces. A transfer that ends at or before ``after`` (the row's
    earliest collective ready time) can never push a collective, so it
    is left out.
    """
    busy = _busy_sends(layout, occupancy)
    s_one = wire_start[busy]
    e_one = s_one + occupancy[busy]
    live = e_one > after
    busy, s_one, e_one = busy[live], s_one[live], e_one[live]
    runs: dict[int, tuple[list[float], list[float]]] = {}
    if not busy.size:
        return runs
    workers = np.concatenate([layout.send_worker[busy], layout.send_dst_w[busy]])
    starts = np.concatenate([s_one, s_one])
    ends = np.concatenate([e_one, e_one])
    order = np.lexsort((starts, workers))
    current = None
    for w, s, e in zip(
        workers[order].tolist(), starts[order].tolist(), ends[order].tolist()
    ):
        if w != current:
            current = w
            run_starts, run_ends = runs[w] = ([s], [e])
        # Coalesce: an interval starting at or before the run's end joins
        # it (closed intervals, touching merges).
        elif s > run_ends[-1]:
            run_starts.append(s)
            run_ends.append(e)
        elif e > run_ends[-1]:
            run_ends[-1] = e
    return runs


def _clear_sorted(
    start: float,
    workers,
    nic: dict[int, tuple[list[float], list[float]]],
) -> float:
    """The least time >= ``start`` clear of every member's busy runs.

    The engine's ``_clear_of_transfers`` rescans each transfer interval
    until none covers ``start``; its answer is the least time not covered
    by the union of the members' intervals, so binary-searching each
    worker's merged runs (:func:`_add_busy`) reaches the same value.
    """
    moved = True
    while moved:
        moved = False
        for w in workers:
            iv = nic.get(w)
            if iv is None:
                continue
            starts, ends = iv
            i = bisect_right(starts, start) - 1
            if i >= 0 and start < ends[i]:
                start = ends[i]
                moved = True
    return start
