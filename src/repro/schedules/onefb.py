"""One-Forward-One-Backward (1F1B) per-stage operation orders.

1F1B [Narayanan et al. 2019] is the building block of DAPPLE, PipeDream,
PipeDream-2BW, and of *each direction* of a Chimera bidirectional pipeline:
stage ``s`` first runs ``min(D - 1 - s, N)`` warmup forwards, then
alternates one forward with one backward, and finally drains the remaining
backwards. This caps the number of in-flight micro-batches (and therefore
stashed activations) at ``D - s`` for stage ``s``.

This module also provides the *expanded* 1F1B variants used by Chimera's
forward-doubling and backward-halving concatenation strategies (paper §3.5),
where each scheduling unit is either a fused two-micro-batch forward followed
by two single-micro-batch backwards, or a single forward followed by two
half-micro-batch backwards.
"""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ScheduleError
from repro.schedules.ir import Operation, OpKind


def onefb_stage_order(
    stage: int,
    depth: int,
    micro_batches: Sequence[int],
    *,
    replica: int = 0,
    warmup_cap: int | None = None,
    steady_backward_first: bool = False,
) -> list[Operation]:
    """Classic 1F1B order for one stage of one pipeline.

    Parameters
    ----------
    stage, depth:
        Stage index and pipeline depth ``D``.
    micro_batches:
        The micro-batch ids this pipeline processes, in injection order.
    replica:
        Model-replica id stamped on the operations.
    warmup_cap:
        Optional cap on the number of warmup forwards (i.e. on the
        in-flight micro-batch count). Chimera caps each direction at ``D/2``
        so the two directions together never exceed ``D`` in-flight
        micro-batches and concatenated basic units chain seamlessly
        (paper §3.5).
    steady_backward_first:
        Emit steady-state pairs as (backward, forward) instead of the
        classic (forward, backward). Capped pipelines must drain a
        micro-batch before injecting the next one to honour the cap;
        it is also what lets the next basic unit's forwards fill the
        previous unit's backward-drain gaps (paper Figure 7).

    Returns
    -------
    The stage's operation list: warmup forwards, steady 1F1B pairs, and the
    backward drain.
    """
    if not 0 <= stage < depth:
        raise ScheduleError(f"stage {stage} outside pipeline of depth {depth}")
    mbs = list(micro_batches)
    n = len(mbs)
    warmup = min(depth - 1 - stage, n)
    if warmup_cap is not None:
        warmup = min(warmup, warmup_cap)
    # With no warmup (last stage) a backward-first steady pair would place a
    # micro-batch's backward before its own forward — impossible.
    steady_backward_first = steady_backward_first and warmup >= 1

    ops: list[Operation] = []
    for i in range(warmup):
        ops.append(
            Operation(OpKind.FORWARD, replica, stage, micro_batches=(mbs[i],))
        )
    for i in range(warmup, n):
        fwd = Operation(OpKind.FORWARD, replica, stage, micro_batches=(mbs[i],))
        bwd = Operation(
            OpKind.BACKWARD, replica, stage, micro_batches=(mbs[i - warmup],)
        )
        ops.extend((bwd, fwd) if steady_backward_first else (fwd, bwd))
    for i in range(n - warmup, n):
        ops.append(
            Operation(OpKind.BACKWARD, replica, stage, micro_batches=(mbs[i],))
        )
    return ops


def gpipe_stage_order(
    stage: int,
    depth: int,
    micro_batches: Sequence[int],
) -> list[Operation]:
    """GPipe order: all forwards, then all backwards (replica 0).

    GPipe injects every micro-batch into the pipeline before any backward
    starts, so the activation footprint is proportional to ``N``
    (Table 2 of the paper).
    """
    if not 0 <= stage < depth:
        raise ScheduleError(f"stage {stage} outside pipeline of depth {depth}")
    mbs = list(micro_batches)
    ops = [Operation(OpKind.FORWARD, 0, stage, micro_batches=(mb,)) for mb in mbs]
    # Backwards drain in reverse arrival order at the last stage in classic
    # GPipe diagrams; using forward order keeps the same bubble count and is
    # what Figure 2 of the paper shows (backward of micro-batch 0 first).
    ops.extend(Operation(OpKind.BACKWARD, 0, stage, micro_batches=(mb,)) for mb in mbs)
    return ops


def expanded_onefb_stage_order(
    stage: int,
    depth: int,
    micro_batches: Sequence[int],
    *,
    replica: int = 0,
    mode: str,
    warmup_cap: int | None = None,
) -> list[Operation]:
    """1F1B over *units* whose backward expands into two operations.

    ``mode="doubling"`` (forward doubling): a unit is a fused forward over two
    consecutive micro-batches; its backward is two single-micro-batch
    backwards with recomputation (the doubled activations exceed device
    memory, paper §3.5).

    ``mode="halving"`` (backward halving): a unit is a single full-size
    forward; its backward is two half-micro-batch backwards and no
    recomputation.

    Both realizations share the schedule *shape* of Figure 7(c)/(d): every
    forward slot is followed (in steady state) by two equal-duration backward
    slots, which equalizes forward and backward slot workloads and removes
    the intermediate bubbles of direct concatenation.
    """
    if mode not in ("doubling", "halving"):
        raise ScheduleError(f"unknown expanded-1F1B mode {mode!r}")
    mbs = list(micro_batches)
    if mode == "doubling":
        if len(mbs) % 2 != 0:
            raise ScheduleError(
                f"forward doubling needs an even micro-batch count, got {len(mbs)}"
            )
        units: list[tuple[int, ...]] = [
            tuple(mbs[i : i + 2]) for i in range(0, len(mbs), 2)
        ]
    else:
        units = [(mb,) for mb in mbs]

    num_units = len(units)
    warmup = min(depth - 1 - stage, num_units)
    if warmup_cap is not None:
        warmup = min(warmup, warmup_cap)

    def forward_of(unit: tuple[int, ...]) -> Operation:
        return Operation(OpKind.FORWARD, replica, stage, micro_batches=unit)

    def backwards_of(unit: tuple[int, ...]) -> list[Operation]:
        if mode == "doubling":
            return [
                Operation(
                    OpKind.BACKWARD,
                    replica,
                    stage,
                    micro_batches=(mb,),
                    recompute=True,
                )
                for mb in unit
            ]
        (mb,) = unit
        return [
            Operation(
                OpKind.BACKWARD, replica, stage, micro_batches=(mb,), part=(k, 2)
            )
            for k in range(2)
        ]

    ops: list[Operation] = []
    for i in range(warmup):
        ops.append(forward_of(units[i]))
    for i in range(warmup, num_units):
        ops.append(forward_of(units[i]))
        ops.extend(backwards_of(units[i - warmup]))
    for i in range(num_units - warmup, num_units):
        ops.extend(backwards_of(units[i]))
    return ops
