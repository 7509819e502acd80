"""The communication-lowering transform as a pass.

``lower_p2p`` is :func:`repro.schedules.lowering.lower_schedule` behind the
pass interface (it keeps the lowered schedule and lets lowering's graph
go): every cross-worker activation/gradient dependency becomes an
explicit eager ``SEND`` / just-in-time ``RECV`` pair. The heavy lifting
stays in :mod:`repro.schedules.lowering` (the cache's lazily-derived
artifacts call it directly); this wrapper contributes the ordering facts —
it provides ``lowered`` and refuses to run twice — and the postcondition
that lowering only ever *adds* comm ops, never touches compute.
"""

from __future__ import annotations

from repro.common.errors import ScheduleError
from repro.schedules.ir import Schedule
from repro.schedules.passes.base import LOWERED, SchedulePass


class LowerP2PPass(SchedulePass):
    """Make cross-worker p2p communication explicit (SEND/RECV pairs)."""

    name = "lower_p2p"
    forbids = frozenset({LOWERED})
    provides = frozenset({LOWERED})

    def run(self, schedule: Schedule) -> Schedule:
        # Registering the pass must not load lowering (the trainer never
        # lowers); the schedule cache imports it for every planning process.
        from repro.schedules.lowering import lower_schedule

        return lower_schedule(schedule).schedule

    def check(self, before: Schedule, after: Schedule) -> None:
        kept = [op for _, op in after.all_ops() if not op.is_comm]
        original = [op for _, op in before.all_ops()]
        if kept != original:
            raise ScheduleError(
                f"lower_p2p changed non-comm ops of {before.describe()}"
            )
        if not after.lowered:
            raise ScheduleError("lower_p2p did not mark the schedule lowered")
