"""Cost model: maps schedule operations to simulated durations.

This is the bridge between a workload/machine pair and the discrete-event
engine. The paper's conventions (§3.4):

* ``F_t`` — forward time of one micro-batch on one stage, measured by micro
  benchmark (here: derived analytically in :mod:`repro.perf.calibration`);
* backward = 2x forward, or 3x with activation recomputation;
* p2p activation/gradient messages follow the alpha-beta model;
* allreduce follows Rabenseifner's cost with group size = stage replicas x W.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.schedules.ir import Operation, OpKind
from repro.sim.collectives import allreduce_cost
from repro.sim.network import (
    FlatTopology,
    HierarchicalTopology,
    HostChannel,
    LinkSpec,
)

Topology = FlatTopology | HierarchicalTopology


@dataclass(frozen=True)
class CostModel:
    """Durations and communication costs for one simulated configuration.

    Attributes
    ----------
    forward_time:
        ``F_t`` — seconds for one micro-batch forward on one stage.
    backward_ratio / recompute_backward_ratio:
        ``B_t = ratio * F_t`` without / with activation recomputation.
    backward_input_ratio / backward_weight_ratio:
        ``b_t``/``w_t`` — split-backward (zero-bubble) durations as
        multiples of ``F_t``. ``None`` (default) halves ``backward_ratio``
        between the two, so a fused backward always costs exactly
        ``b + w`` and splitting is cost-neutral; setting them explicitly
        models measured asymmetry (the fused ``BACKWARD`` then costs their
        sum). Rematerialization under recomputation is charged to the
        input-gradient half.
    stage_scale:
        Optional per-stage compute multiplier (e.g. the embedding-heavy
        first stage of a language model); ``None`` means balanced stages.
    activation_message_bytes:
        Per-micro-batch payload of the p2p activation (and input-gradient)
        message between consecutive stages.
    topology:
        Network model for p2p and collectives; ``None`` disables
        communication costs entirely (pure-compute simulation).
    stage_grad_bytes:
        Per-stage gradient bytes synchronized by the stage's allreduce.
        A scalar means all stages equal.
    data_parallel_width:
        ``W`` — multiplies each stage's allreduce group size (§3.3: after
        combining with data parallelism the local gradient size does not
        change but the number of participants grows by ``W``).
    allreduce_algorithm:
        ``rabenseifner`` (paper default), ``ring``, or ``recursive_doubling``.
    sync_launch_overhead:
        Worker-blocking seconds consumed by posting a non-blocking
        allreduce (initialization / progression threading, §3.2 — the
        reason eager-sync-opt skips middle stages).
    comm_launch_overhead:
        Worker-blocking seconds consumed by posting an explicit ``SEND``
        or ``RECV`` op of a lowered schedule (descriptor setup, the CPU
        side of an isend/irecv). The transfer itself runs on the link, not
        the worker; 0.0 (default) makes lowering timing-neutral under
        contention-free links.
    """

    forward_time: float = 1.0
    backward_ratio: float = 2.0
    recompute_backward_ratio: float = 3.0
    backward_input_ratio: float | None = None
    backward_weight_ratio: float | None = None
    stage_scale: tuple[float, ...] | None = None
    activation_message_bytes: float = 0.0
    topology: Topology | None = None
    stage_grad_bytes: tuple[float, ...] | float = 0.0
    data_parallel_width: int = 1
    allreduce_algorithm: str = "rabenseifner"
    sync_launch_overhead: float = 0.0
    comm_launch_overhead: float = 0.0
    #: Per-worker host↔device link used by OFFLOAD/RELOAD ops of the
    #: offload pass. ``None`` (default) makes host transfers free — the
    #: contention-free limit the offload parity tests exercise.
    host_channel: HostChannel | None = None
    #: Per-micro-batch stash payload moved by one OFFLOAD (and back by its
    #: RELOAD). ``None`` reuses ``activation_message_bytes`` — the stash of
    #: a stage is its input activation, same payload the p2p message
    #: carries.
    offload_message_bytes: float | None = None
    #: Fraction of compute slowdown while a non-blocking collective is in
    #: flight on a worker (asynchronous progression contends with compute —
    #: the §3.2 effect that makes eager middle-stage synchronization a net
    #: loss). Applied as extra time proportional to the overlapped span.
    sync_overlap_slowdown: float = 0.0

    def __post_init__(self) -> None:
        if self.forward_time <= 0:
            raise ConfigurationError("forward_time must be positive")
        if self.backward_ratio <= 0 or self.recompute_backward_ratio <= 0:
            raise ConfigurationError("backward ratios must be positive")
        for ratio in (self.backward_input_ratio, self.backward_weight_ratio):
            if ratio is not None and ratio <= 0:
                raise ConfigurationError("split-backward ratios must be positive")
        if self.data_parallel_width < 1:
            raise ConfigurationError("data_parallel_width must be >= 1")

    # ----------------------------------------------------------- constructors
    @staticmethod
    def unit() -> "CostModel":
        """F = B = 1, no communication — the Figure 3 (top) abstraction."""
        return CostModel(forward_time=1.0, backward_ratio=1.0, recompute_backward_ratio=1.0)

    @staticmethod
    def practical() -> "CostModel":
        """F = 1, B = 2 (3 with recompute), no communication — Figure 3 bottom."""
        return CostModel(forward_time=1.0)

    def with_(self, **changes: object) -> "CostModel":
        """Functional update helper."""
        return replace(self, **changes)

    # -------------------------------------------------------------- durations
    def _scale(self, stage: int) -> float:
        if self.stage_scale is None:
            return 1.0
        try:
            return self.stage_scale[stage]
        except IndexError:
            raise ConfigurationError(
                f"stage_scale has {len(self.stage_scale)} entries but stage "
                f"{stage} was simulated"
            ) from None

    # --------------------------------------------------------- split backward
    def input_grad_ratio(self) -> float:
        """``b_t / F_t`` — duration ratio of a split input-gradient op."""
        if self.backward_input_ratio is not None:
            return self.backward_input_ratio
        return self.backward_ratio / 2.0

    def weight_grad_ratio(self) -> float:
        """``w_t / F_t`` — duration ratio of a split weight-gradient op."""
        if self.backward_weight_ratio is not None:
            return self.backward_weight_ratio
        return self.backward_ratio / 2.0

    def fused_backward_ratio(self) -> float:
        """``B_t / F_t`` of the fused backward: ``b + w`` when the split is
        configured explicitly, the legacy ``backward_ratio`` otherwise."""
        if self.backward_input_ratio is None and self.backward_weight_ratio is None:
            return self.backward_ratio
        return self.input_grad_ratio() + self.weight_grad_ratio()

    def remat_ratio(self) -> float:
        """Rematerialization cost as a multiple of ``F_t``.

        The paper models a recomputed backward as 3F instead of 2F — one
        extra forward-equivalent. An explicit ``RECOMPUTE`` op (the
        recompute pass) carries exactly that difference, so flag-based and
        op-based recomputation cost the same total. Clamped at zero for
        degenerate models where the recompute ratio is not larger.
        """
        return max(0.0, self.recompute_backward_ratio - self.backward_ratio)

    def compute_time(self, op: Operation) -> float:
        """Simulated duration of a compute op (0 for ALLREDUCE).

        Flag-based recomputation adds one extra forward-equivalent
        (``recompute_backward_ratio - backward_ratio``) to the fused
        backward — or, under splitting, to the input-gradient half (the
        weight-gradient half reuses the rematerialized activations). An
        explicit ``RECOMPUTE`` op (recompute pass) carries the same
        forward-equivalent as its own duration instead, leaving the
        backward at its base ratio. Comm ops block the worker only for
        ``comm_launch_overhead`` — the transfer itself is timed by the
        engine on the link.
        """
        if op.kind is OpKind.ALLREDUCE:
            return 0.0
        if op.is_comm or op.is_host_comm:
            return self.comm_launch_overhead
        base = self.forward_time * self._scale(op.stage) * op.work_units
        if op.is_forward:
            return base
        if op.is_recompute:
            return base * self.remat_ratio()
        remat = (
            self.recompute_backward_ratio - self.backward_ratio
            if op.recompute
            else 0.0
        )
        if op.is_backward_input:
            return base * (self.input_grad_ratio() + remat)
        if op.is_backward_weight:
            return base * self.weight_grad_ratio()
        return base * (self.fused_backward_ratio() + remat)

    # ---------------------------------------------------------- communication
    def p2p_time(self, src_worker: int, dst_worker: int, payload_units: float) -> float:
        """Activation/gradient message time for ``payload_units`` micro-batches."""
        if self.topology is None or src_worker == dst_worker:
            return 0.0
        return self.topology.p2p_time(
            src_worker, dst_worker, self.activation_message_bytes * payload_units
        )

    def p2p_occupancy(
        self, src_worker: int, dst_worker: int, payload_units: float
    ) -> float:
        """Seconds a transfer holds its link channel (the bandwidth term).

        The latency term pipelines; only the serialization time
        ``beta * L`` excludes other transfers from the channel. Zero when
        communication is free or the endpoints share a worker.
        """
        if self.topology is None or src_worker == dst_worker:
            return 0.0
        return self.topology.link_of(src_worker, dst_worker).occupancy(
            self.activation_message_bytes * payload_units
        )

    def p2p_channel(self, src_worker: int, dst_worker: int) -> tuple | None:
        """Contention channel of a transfer, or None when links are free."""
        if self.topology is None or src_worker == dst_worker:
            return None
        return self.topology.channel(src_worker, dst_worker)

    # ----------------------------------------------------------- host channel
    def host_bytes(self, payload_units: float) -> float:
        """Stash bytes moved by a host transfer of ``payload_units``."""
        per_mb = (
            self.activation_message_bytes
            if self.offload_message_bytes is None
            else self.offload_message_bytes
        )
        return per_mb * payload_units

    def host_time(self, payload_units: float) -> float:
        """Host↔device copy time; 0 when no host channel is configured."""
        if self.host_channel is None:
            return 0.0
        return self.host_channel.link.time(self.host_bytes(payload_units))

    def host_occupancy(self, payload_units: float) -> float:
        """Seconds a host transfer holds its channel (bandwidth term only)."""
        if self.host_channel is None:
            return 0.0
        return self.host_channel.link.occupancy(self.host_bytes(payload_units))

    def host_channel_key(self, worker: int, direction: str) -> tuple | None:
        """Contention channel of a host transfer, or None when free.

        ``direction`` is ``"d2h"`` for an OFFLOAD's copy, ``"h2d"`` for a
        RELOAD's. The tuple matches what the array kernel decodes from its
        integer host-channel ids, so engine and kernel report identical
        :class:`TransferRecord` channels.
        """
        if self.host_channel is None:
            return None
        return self.host_channel.channel_key(worker, direction)

    def grad_bytes(self, stage: int) -> float:
        if isinstance(self.stage_grad_bytes, (int, float)):
            return float(self.stage_grad_bytes)
        return self.stage_grad_bytes[stage]

    def allreduce_time(self, stage: int, group_workers: Sequence[int]) -> float:
        """Cost of synchronizing ``stage``'s gradients.

        ``group_workers`` are the workers holding a replica of the stage
        within one pipeline group; the effective group size is
        ``len(group_workers) * W``. Every collective moves the stage's full
        gradient, including PipeDream's per-backward synchronization.
        """
        group_size = len(set(group_workers)) * self.data_parallel_width
        if group_size <= 1:
            return 0.0
        if self.topology is None:
            link = LinkSpec(0.0, 0.0)
        else:
            link = self.topology.group_link(tuple(group_workers))
        return allreduce_cost(
            self.allreduce_algorithm,
            link.alpha,
            link.beta,
            self.grad_bytes(stage),
            group_size,
        )
