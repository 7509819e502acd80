"""GPipe schedule builder [Huang et al. 2019].

GPipe injects all ``N`` micro-batches into the pipeline at once (all forwards
first, then all backwards) and flushes at the iteration boundary. Bubble
ratio ``(D-1)/(N+D-1)`` per pass; activation memory proportional to ``N``
(Table 2 of the Chimera paper).

The builder emits compute rows only; gradient synchronization and
activation recomputation (GPipe's usual operating mode at scale — the
paper's evaluation runs GPipe with recomputation in most configurations)
are applied by the registry's pass pipeline
(:mod:`repro.schedules.passes`): ``build_schedule("gpipe", ...,
passes="recompute")``.
"""

from __future__ import annotations

from repro.common.errors import ScheduleError
from repro.schedules.ir import Operation, Schedule, freeze_worker_ops
from repro.schedules.onefb import gpipe_stage_order
from repro.schedules.placement import StagePlacement


def build_gpipe_schedule(depth: int, num_micro_batches: int) -> Schedule:
    """Build the GPipe schedule for ``D = depth`` stages, ``N`` micro-batches."""
    if depth < 1:
        raise ScheduleError("GPipe needs at least one stage")
    if num_micro_batches < 1:
        raise ScheduleError("GPipe needs at least one micro-batch")
    placement = StagePlacement.linear(depth)
    mbs = range(num_micro_batches)
    rows: list[list[Operation]] = [
        gpipe_stage_order(stage, depth, mbs) for stage in range(depth)
    ]
    return Schedule(
        scheme="gpipe",
        placement=placement,
        num_micro_batches=num_micro_batches,
        worker_ops=freeze_worker_ops(rows),
        synchronous=True,
    )
