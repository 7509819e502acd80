"""Scheme-agnostic activation recomputation as a pass.

Until this pass existed, recomputation was a per-builder option: each
builder threaded a ``recompute`` flag into its stage-order helper, which
stamped it on the backward ops, and the cost model inflated those
backwards (B = 3F instead of 2F). Only some builders bothered.

``recompute`` instead rewrites *any* schedule:

* every forward's stash is demoted to the stage input (the memory model
  keys off the inserted ops — see :func:`repro.sim.memory.analyze_memory`);
* one explicit :class:`~repro.schedules.ir.OpKind.RECOMPUTE` op per
  ``(replica, stage, micro-batch)`` is inserted immediately before the
  micro-batch's *first* backward (part) on that worker, carrying the
  rematerialization cost (``recompute_backward_ratio - backward_ratio``
  forward-equivalents) that the flag-based path buried inside the
  backward.

Making rematerialization a schedulable op is not just bookkeeping: its
only data dependency is the stashed stage input, so the simulator starts
it as soon as the worker idles — a bubble in front of the backward now
*hides* the recompute cost instead of stretching the critical path, which
is how real runtimes prefetch rematerialization.

Backwards that already carry the ``recompute`` flag (Chimera's forward
doubling bakes recomputation into its schedule shape) are left alone —
their cost is already charged in-op — so the pass composes with every
builder. Insertion skips backwards any contiguous run of ``RECV`` ops
directly in front of the backward, which makes the pass commute *exactly*
(op-for-op) with ``lower_p2p`` and ``fuse_comm``; the property tests
assert it.

The pass plans and inserts on the input's op table
(:meth:`~repro.schedules.ir.Schedule.op_table`) and returns a
table-backed schedule (:meth:`~repro.schedules.ir.Schedule.from_table`):
it makes no ``Operation``, and the RECOMPUTE ops exist only once
something reads the output's ops. ``tests/reference_passes.py`` keeps
the object-based form of the pass that the parity tests compare
against.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ScheduleError
from repro.schedules.ir import (
    BACKWARD_CODE,
    BACKWARD_INPUT_CODE,
    RECOMPUTE_CODE,
    Schedule,
    whole_rows,
)
from repro.schedules.passes.base import (
    RECOMPUTE,
    SchedulePass,
    before_recvs,
    mb_entries,
)


class RecomputePass(SchedulePass):
    """Insert explicit RECOMPUTE ops before each first backward."""

    name = "recompute"
    provides = frozenset({RECOMPUTE})

    def run(self, schedule: Schedule) -> Schedule:
        table = schedule.op_table()
        row, mb, key = mb_entries(table)
        kind = table.kind[row]
        backward = (kind == BACKWARD_CODE) | (kind == BACKWARD_INPUT_CODE)
        # Micro-batches already rematerialized (explicit op) or charged
        # in-op (flag): idempotence and composition with flag-based
        # builders both fall out of skipping them.
        covered = key[(kind == RECOMPUTE_CODE) | (backward & table.recompute[row])]
        # The first backward part of each (replica, stage, mb) hosts the
        # insertion; a multi-micro-batch backward gets one covering
        # RECOMPUTE, its micro-batches in the op's order.
        candidates = np.flatnonzero(backward & ~np.isin(key, covered))
        _, first = np.unique(key[candidates], return_index=True)
        chosen = np.sort(candidates[first])
        hosts, mb_len = np.unique(row[chosen], return_counts=True)
        added = whole_rows(
            np.full(len(hosts), RECOMPUTE_CODE),
            table.worker[hosts],
            table.replica[hosts],
            table.stage[hosts],
            mb_len,
            mb[chosen],
        )
        # Slot the rematerialization before the backward's just-in-time
        # RECVs (if lowering already ran) so recompute∘lower ==
        # lower∘recompute op-for-op.
        spliced, reused = table.insert(before_recvs(table, hosts), added)
        return Schedule.from_table(
            spliced,
            schedule,
            {**dict(schedule.metadata), "recompute": True},
            reused=reused,
        )

    def check(self, before: Schedule, after: Schedule) -> None:
        table = after.op_table()
        row, mb, key = mb_entries(table)
        kind = table.kind[row]
        backward = (kind == BACKWARD_CODE) | (kind == BACKWARD_INPUT_CODE)
        flagged = table.recompute[row]
        have = key[(kind == RECOMPUTE_CODE) | (backward & flagged)]
        uncovered = np.flatnonzero(backward & ~flagged & ~np.isin(key, have))
        if len(uncovered):
            example = min(
                (int(table.replica[row[i]]), int(table.stage[row[i]]), int(mb[i]))
                for i in uncovered
            )
            count = len(np.unique(key[uncovered]))
            raise ScheduleError(
                f"recompute pass left {count} backward(s) without "
                f"rematerialization, e.g. (replica, stage, mb) = {example}"
            )
