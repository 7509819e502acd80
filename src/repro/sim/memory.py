"""Per-worker memory accounting for pipeline schedules (paper §2, Table 2;
§4.1, Figure 9).

Two components:

* **Activations** — a micro-batch's stash lives from its forward to (the
  last part of) its backward on each stage. Peak liveness is counted by
  walking each worker's operation order. With recomputation only the stage
  *input* is stashed, plus a transient full-activation buffer while a
  backward rematerializes. Under backward splitting the input-gradient op
  (``Bi``) keeps the stash alive — the weight-gradient half still needs the
  layer inputs — and only the matching ``W`` releases it; this is why the
  zero-bubble schedules trade activation lifetime for bubble time. A ``Bi``
  that rematerializes keeps the full activations live until its ``W``.
  Recomputation comes in two equivalent forms: the legacy ``recompute``
  flag on backward ops, and the recompute pass's explicit ``RECOMPUTE``
  ops — at an explicit op the full activations become live (the stash is
  promoted from the stage input) and the releasing backward(s) free them,
  which yields the same peak as the flag accounting.
* **Weights** — each hosted stage replica stores parameters (+ gradients +
  optimizer state); PipeDream additionally stashes up to ``D - s`` weight
  versions at stage ``s`` for version consistency, PipeDream-2BW exactly 2.

The accounting is **two-tier**: an ``OFFLOAD`` op (offload pass) moves its
stash's bytes out of the device's live set and into the worker's host
tier until the matching ``RELOAD`` brings them back, so the device peak
excludes host-resident stashes and each worker additionally reports its
host-tier peak (:attr:`WorkerMemory.host_peak_bytes`), budgeted
separately by :meth:`MemoryReport.fits`.

The schemes' qualitative signatures (GPipe ~ N x Ma; DAPPLE/2BW first-worker
peak; Chimera balanced in [(D/2+1) Ma, D Ma]; GEMS minimal) all emerge from
this accounting — Figure 9 is regenerated from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import MemoryModelError
from repro.schedules.ir import OpKind, Schedule
from repro.schedules.placement import StagePlacement


def _per_stage(value: Sequence[float] | float, stage: int, what: str) -> float:
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value[stage])
    except IndexError:
        raise MemoryModelError(
            f"{what} has {len(value)} entries but stage {stage} was requested"
        ) from None


@dataclass(frozen=True)
class MemoryModel:
    """Byte sizes per stage.

    Attributes
    ----------
    activation_bytes:
        Full activation stash of one micro-batch on one stage (``Ma``).
    stash_input_bytes:
        Bytes stashed per micro-batch when the backward recomputes (just the
        stage input).
    weight_bytes:
        One copy of a stage's weights including gradients and optimizer
        state (``M_theta``). Scalar = balanced stages; a sequence models the
        embedding-heavy first stage the paper highlights in §4.1.
    weight_stash_bytes:
        Bytes of one *extra* stashed weight version (raw parameters only —
        PipeDream/2BW stash old parameter values for version consistency,
        not gradients or optimizer state).
    """

    activation_bytes: tuple[float, ...] | float = 1.0
    stash_input_bytes: tuple[float, ...] | float = 0.25
    weight_bytes: tuple[float, ...] | float = 0.0
    weight_stash_bytes: tuple[float, ...] | float = 0.0

    def act(self, stage: int) -> float:
        return _per_stage(self.activation_bytes, stage, "activation_bytes")

    def stash(self, stage: int) -> float:
        return _per_stage(self.stash_input_bytes, stage, "stash_input_bytes")

    def weights(self, stage: int) -> float:
        return _per_stage(self.weight_bytes, stage, "weight_bytes")

    def weight_stash(self, stage: int) -> float:
        return _per_stage(self.weight_stash_bytes, stage, "weight_stash_bytes")


@dataclass(frozen=True)
class WorkerMemory:
    """Memory accounting for one worker."""

    worker: int
    weight_bytes: float
    activation_peak_bytes: float
    #: Peak number of live micro-batch stashes (in micro-batch units),
    #: comparable to Table 2's activation intervals.
    activation_peak_units: float
    #: Peak bytes of this worker's stashes parked in *host* memory
    #: (offload pass). Host-resident stashes are excluded from the device
    #: peak above — that exclusion is the entire point of offloading —
    #: and budgeted separately against the host tier.
    host_peak_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Device-tier peak (host-resident stashes excluded)."""
        return self.weight_bytes + self.activation_peak_bytes


@dataclass(frozen=True)
class MemoryReport:
    """Per-worker memory plus distribution summaries (Figure 9)."""

    workers: tuple[WorkerMemory, ...]

    @property
    def peak_bytes(self) -> float:
        return max(w.total_bytes for w in self.workers)

    @property
    def min_bytes(self) -> float:
        return min(w.total_bytes for w in self.workers)

    @property
    def imbalance(self) -> float:
        """max / min total memory across workers (1.0 = perfectly balanced)."""
        lo = self.min_bytes
        return self.peak_bytes / lo if lo > 0 else float("inf")

    @property
    def host_peak_bytes(self) -> float:
        """Largest host-tier peak across workers (0 without offload)."""
        return max(w.host_peak_bytes for w in self.workers)

    def fits(
        self, capacity_bytes: float, host_capacity_bytes: float | None = None
    ) -> bool:
        """Would this configuration run without OOM on the given device?

        A configuration whose modeled peak **equals** the budget fits. The
        comparison carries a relative epsilon because :func:`analyze_memory`
        accumulates ``live_bytes`` with float additions — a peak assembled
        as ``0.1 + 0.2`` must not be rejected against a ``0.3`` budget over
        2^-54 of drift. ``host_capacity_bytes`` budgets the host tier the
        same way (``None`` = unlimited host memory, the common case —
        hosts hold orders of magnitude more than devices).
        """
        if exceeds(self.peak_bytes, capacity_bytes):
            return False
        return host_capacity_bytes is None or not exceeds(
            self.host_peak_bytes, host_capacity_bytes
        )


def exceeds(peak_bytes: float, capacity_bytes: float) -> bool:
    """Does ``peak_bytes`` overshoot ``capacity_bytes`` (the OOM test)?

    The one comparison behind :meth:`MemoryReport.fits` and the planner's
    :func:`device_floor` pruning, with its 1e-9 relative slack.
    """
    slack = 1e-9 * max(abs(capacity_bytes), abs(peak_bytes), 1.0)
    return peak_bytes > capacity_bytes + slack


def weight_versions(scheme: str, num_stages: int, stage: int) -> int:
    """Stashed weight-version count for ``stage`` under ``scheme``.

    PipeDream keeps one version per in-flight micro-batch — ``D - s`` at
    stage ``s`` of ``D = num_stages`` (up to ``D``, Table 2);
    PipeDream-2BW double-buffers (2); synchronous schemes keep a single
    version.
    """
    if scheme == "pipedream":
        return num_stages - stage
    if scheme == "pipedream_2bw":
        return 2
    return 1


def _weight_bytes(
    scheme: str, placement: StagePlacement, model: MemoryModel, worker: int
) -> float:
    """Bytes of every stage replica ``worker`` hosts, stashed versions
    included (Table 2's weight column)."""
    weights = 0.0
    for _, stage in placement.stages_on_worker(worker):
        versions = weight_versions(scheme, placement.num_stages, stage)
        weights += model.weights(stage)
        weights += (versions - 1) * model.weight_stash(stage)
    return weights


def device_floor(
    scheme: str,
    placement: StagePlacement,
    model: MemoryModel,
    num_micro_batches: int,
) -> float:
    """A lower bound on the device peak of any ``scheme`` schedule on
    ``placement``, known before the schedule is built.

    Each worker holds its weights (:func:`weight_versions` included) for
    the whole iteration, and at some point a full activation stash
    ``act(s)`` of a stage it hosts: a forward stashes it, and the
    recompute and offload passes only shrink a stash *between* the
    forward and its backward, which rematerializes or reloads it. Once
    every replica runs a micro-batch (``N >= replicas``) that is the
    worker's largest ``act(s)``; below that some replica may stay idle,
    so only the smallest is certain. The floor is the largest such sum
    over workers; :func:`analyze_memory`'s ``peak_bytes`` is never below
    it, for every pass pipeline.
    """
    all_replicas_run = num_micro_batches >= placement.num_replicas
    floor = 0.0
    for worker in range(placement.num_workers):
        acts = [model.act(s) for _, s in placement.stages_on_worker(worker)]
        act = max(acts) if all_replicas_run else min(acts)
        floor = max(floor, _weight_bytes(scheme, placement, model, worker) + act)
    return floor


def analyze_memory(schedule: Schedule, model: MemoryModel) -> MemoryReport:
    """Compute the per-worker memory report for ``schedule``.

    Walks each worker's operation order tracking live activation stashes;
    the walk order is exactly the execution order, so the peak is the true
    runtime peak for any cost model (liveness only changes at this worker's
    own operations).
    """
    # Which (replica, stage, mb) triples recompute. Two sources: the
    # legacy flag on backward ops (rematerialization transient charged at
    # the backward) and the recompute pass's explicit RECOMPUTE ops
    # (promotion charged at the op). Either way the forward must know to
    # stash only the stage input.
    recompute: set[tuple[int, int, int]] = set()
    explicit: set[tuple[int, int, int]] = set()
    for _, op in schedule.all_ops():
        if op.is_backward and op.recompute:
            for mb in op.micro_batches:
                recompute.add((op.replica, op.stage, mb))
        elif op.is_recompute:
            for mb in op.micro_batches:
                explicit.add((op.replica, op.stage, mb))
    stash_only = recompute | explicit

    workers: list[WorkerMemory] = []
    for worker in range(schedule.num_workers):
        live_bytes = 0.0
        live_units = 0.0
        peak_bytes = 0.0
        peak_units = 0.0
        host_live = 0.0
        host_peak = 0.0
        remaining_parts: dict[tuple[int, int, int], float] = {}
        stash_of: dict[tuple[int, int, int], float] = {}
        on_host: set[tuple[int, int, int]] = set()
        for op in schedule.worker_ops[worker]:
            if op.is_host_comm:
                # Two-tier accounting: an OFFLOAD moves the stash's bytes
                # out of the device's live set and into the host tier; the
                # matching RELOAD moves them back. The stash keeps its
                # identity (remaining_parts/stash_of untouched) so the
                # releasing backward frees it exactly as without offload.
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    if op.is_offload:
                        if key not in remaining_parts:
                            raise MemoryModelError(
                                f"OFFLOAD of micro-batch {mb} at stage "
                                f"{op.stage} without a live forward stash "
                                f"on worker {worker}"
                            )
                        if key in on_host:
                            raise MemoryModelError(
                                f"micro-batch {mb} at stage {op.stage} "
                                f"offloaded twice on worker {worker}"
                            )
                        moved = stash_of[key] * remaining_parts[key]
                        live_bytes -= moved
                        live_units -= remaining_parts[key]
                        host_live += moved
                        on_host.add(key)
                        host_peak = max(host_peak, host_live)
                    else:
                        if key not in on_host:
                            raise MemoryModelError(
                                f"RELOAD of micro-batch {mb} at stage "
                                f"{op.stage} without an offloaded stash "
                                f"on worker {worker}"
                            )
                        moved = stash_of[key] * remaining_parts[key]
                        host_live -= moved
                        live_bytes += moved
                        live_units += remaining_parts[key]
                        on_host.discard(key)
                        peak_bytes = max(peak_bytes, live_bytes)
                        peak_units = max(peak_units, live_units)
                continue
            # Collectives and explicit SEND/RECV (lowered schedules) neither
            # create nor release activation stashes.
            if not op.is_compute:
                continue
            if op.is_forward:
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    stored = (
                        model.stash(op.stage)
                        if key in stash_only
                        else model.act(op.stage)
                    )
                    stash_of[key] = stored
                    remaining_parts[key] = 1.0
                    live_bytes += stored
                    live_units += 1.0
                peak_bytes = max(peak_bytes, live_bytes)
                peak_units = max(peak_units, live_units)
            elif op.is_recompute:
                # Explicit rematerialization: promote the stashed stage
                # input to the full activations; the releasing backward(s)
                # free the promoted stash.
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    if key not in remaining_parts:
                        raise MemoryModelError(
                            f"RECOMPUTE of micro-batch {mb} at stage "
                            f"{op.stage} without a live forward stash on "
                            f"worker {worker}"
                        )
                    full = model.act(op.stage)
                    if stash_of[key] < full:
                        live_bytes += (full - stash_of[key]) * remaining_parts[key]
                        stash_of[key] = full
                peak_bytes = max(peak_bytes, live_bytes)
            elif op.is_backward_input:
                # Split input gradient: consumes the stash but does not
                # release it (the weight-gradient half still needs the layer
                # inputs). Rematerialized activations must survive to W too.
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    if key not in remaining_parts:
                        raise MemoryModelError(
                            f"input gradient of micro-batch {mb} at stage "
                            f"{op.stage} without a live forward stash on "
                            f"worker {worker}"
                        )
                    full = model.act(op.stage)
                    if key in recompute and stash_of[key] < full:
                        live_bytes += (full - stash_of[key]) * remaining_parts[key]
                        stash_of[key] = full
                peak_bytes = max(peak_bytes, live_bytes)
            else:
                # Fused backward or split weight gradient: releases this
                # part's share of the stash once it completes.
                fraction = 1.0 / op.part[1]
                transient = 0.0
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    if key not in remaining_parts:
                        raise MemoryModelError(
                            f"backward of micro-batch {mb} at stage {op.stage} "
                            f"without a live forward stash on worker {worker}"
                        )
                    if op.kind is OpKind.BACKWARD and key in recompute:
                        # Rematerialized activations live only during this op.
                        transient += model.act(op.stage) - stash_of[key]
                peak_bytes = max(peak_bytes, live_bytes + max(0.0, transient))
                for mb in op.micro_batches:
                    key = (op.replica, op.stage, mb)
                    remaining_parts[key] -= fraction
                    live_bytes -= stash_of[key] * fraction
                    live_units -= fraction
                    if remaining_parts[key] <= 1e-9:
                        del remaining_parts[key]
        workers.append(
            WorkerMemory(
                worker=worker,
                weight_bytes=_weight_bytes(
                    schedule.scheme, schedule.placement, model, worker
                ),
                activation_peak_bytes=peak_bytes,
                activation_peak_units=peak_units,
                host_peak_bytes=host_peak,
            )
        )
    return MemoryReport(workers=tuple(workers))
