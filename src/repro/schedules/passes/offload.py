"""Host-memory activation offload as a pass.

The memory/throughput frontier the planner explores had two axes:
recompute (trade FLOPs for stash bytes) and the memory-controllable
zero-bubble variants (trade ramp time for stash lifetime). This pass adds
the third axis real runtimes exploit: park each forward's activation
stash in *host* memory while it is not needed, and prefetch it back just
in time for the backward — the stash costs host↔device bandwidth instead
of device bytes or recompute FLOPs.

``offload`` rewrites any schedule:

* one :class:`~repro.schedules.ir.OpKind.OFFLOAD` op per
  ``(replica, stage, micro-batch)`` is inserted immediately after the
  forward that produced the stash — the stash's last pre-backward use —
  launching the device→host copy;
* one matching :class:`~repro.schedules.ir.OpKind.RELOAD` op is inserted
  immediately before the micro-batch's *first* stash consumer (backward
  part, or the RECOMPUTE op when the recompute pass ran first) on that
  worker, launching the host→device copy the consumer waits for.

Both ops block their worker only for the communication launch overhead;
the copies themselves occupy the worker's host↔device channel
(:class:`repro.sim.network.HostChannel`) and run concurrently with
compute. Because the RELOAD's only data dependency is the OFFLOAD's
completed device→host copy, the simulator starts it as soon as the worker
idles — any bubble in front of the consuming backward hides the reload
latency, which is exactly how real prefetched offload behaves
(cf. zero-bubble's host-side activation offload).

Insertion skips backwards over any contiguous run of ``RECV`` ops
directly in front of the consumer (the same idiom as the recompute pass),
so the reload sits before the consumer's just-in-time receives. Stashes
whose forward and first consumer are adjacent (gap below ``min_gap``
intervening ops) are left on the device: a back-to-back offload/reload
pair would save no peak memory and only add launch overhead.

The pass composes with recompute in either order: recompute-then-offload
reloads the stashed stage *input* before the RECOMPUTE op; offload-then-
recompute inserts the RECOMPUTE between the RELOAD and the backward
(recompute's insertion skips only RECVs). Run it before ``lower_p2p`` /
``fuse_comm`` — the canonical pipeline position (see ``docs/passes.md``).

Like the recompute pass, it plans and inserts on the input's op table
and returns a table-backed schedule: a stash consumer is a column mask,
and the OFFLOAD/RELOAD ops exist only once something reads the output's
ops. ``tests/reference_passes.py`` keeps the object-based form.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ScheduleError
from repro.schedules.ir import (
    BACKWARD_CODE,
    BACKWARD_INPUT_CODE,
    BACKWARD_WEIGHT_CODE,
    FORWARD_CODE,
    OFFLOAD_CODE,
    PAYLOADS,
    RECOMPUTE_CODE,
    RELOAD_CODE,
    OpKind,
    OpTable,
    Schedule,
    whole_rows,
)
from repro.schedules.passes.base import (
    OFFLOAD,
    SchedulePass,
    before_recvs,
    mb_entries,
)

#: Kind codes of the ops that need the stash resident on the device.
_STASH_CONSUMERS = (
    BACKWARD_CODE,
    BACKWARD_INPUT_CODE,
    BACKWARD_WEIGHT_CODE,
    RECOMPUTE_CODE,
)
_STASH = PAYLOADS.index("stash")


class OffloadPass(SchedulePass):
    """Insert OFFLOAD/RELOAD pairs around each stash's idle interval."""

    name = "offload"
    provides = frozenset({OFFLOAD})

    def __init__(self, min_gap: str | int = 1):
        self.min_gap = int(min_gap)
        if self.min_gap < 1:
            raise ScheduleError(
                f"offload min_gap must be >= 1, got {self.min_gap}"
            )

    def params(self) -> tuple[tuple[str, object], ...]:
        if self.min_gap == 1:
            return ()
        return (("min_gap", self.min_gap),)

    def _plan(self, table: OpTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Insertion plan, one entry per offloaded stash: the row of its
        (last) forward, the row of its first consumer on the worker, and
        its micro-batch."""
        row, mb, key = mb_entries(table, per_worker=True)
        kind = table.kind[row]
        forward = np.flatnonzero(kind == FORWARD_CODE)[::-1]
        consumer = np.flatnonzero(np.isin(kind, _STASH_CONSUMERS))
        fwd_keys, last = np.unique(key[forward], return_index=True)
        use_keys, first = np.unique(key[consumer], return_index=True)
        keys, f, c = np.intersect1d(
            fwd_keys, use_keys, assume_unique=True, return_indices=True
        )
        fwd_entry = forward[last[f]]
        fwd, use = row[fwd_entry], row[consumer[first[c]]]
        # Stashes already offloaded: idempotence. A back-to-back pair
        # would save nothing.
        keep = ~np.isin(keys, key[kind == OFFLOAD_CODE])
        keep &= use - fwd - 1 >= self.min_gap
        return fwd[keep], use[keep], mb[fwd_entry[keep]]

    def run(self, schedule: Schedule) -> Schedule:
        table = schedule.op_table()
        fwd, use, mb = self._plan(table)
        # Offloads right after their forward, then reloads before their
        # consumer's just-in-time RECVs (if lowering already ran); at one
        # place, in micro-batch order.
        by_fwd, by_use = np.lexsort((mb, fwd)), np.lexsort((mb, use))
        hosts = np.concatenate((fwd[by_fwd], use[by_use]))
        added = whole_rows(
            np.repeat([OFFLOAD_CODE, RELOAD_CODE], len(mb)),
            table.worker[hosts],
            table.replica[hosts],
            table.stage[hosts],
            np.ones(len(hosts), np.int64),
            np.concatenate((mb[by_fwd], mb[by_use])),
            payload=_STASH,
        )
        before = np.concatenate((fwd[by_fwd] + 1, before_recvs(table, use[by_use])))
        spliced, reused = table.insert(before, added)
        return Schedule.from_table(
            spliced,
            schedule,
            {**dict(schedule.metadata), "offload": True},
            reused=reused,
        )

    def check(self, before: Schedule, after: Schedule) -> None:
        wanted = len(self._plan(before.op_table())[2])
        offloads = after.count(OpKind.OFFLOAD) - before.count(OpKind.OFFLOAD)
        reloads = after.count(OpKind.RELOAD) - before.count(OpKind.RELOAD)
        if offloads != wanted or reloads != wanted:
            raise ScheduleError(
                f"offload pass planned {wanted} stash offload(s) but "
                f"inserted {offloads} OFFLOAD / {reloads} RELOAD op(s)"
            )
