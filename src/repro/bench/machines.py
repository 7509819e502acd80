"""Machine models for the paper's two testbeds.

The paper evaluates on (a) CSCS Piz Daint — one NVIDIA P100 (16 GB) per
Cray XC50 node, Aries dragonfly interconnect, PyTorch + GLOO backend — and
(b) a 32x V100 (32 GB) cluster, 8 GPUs per server behind NVLink, servers
connected by InfiniBand.

We cannot run on that hardware, so each testbed becomes a
:class:`MachineSpec`: a sustained compute rate, device memory capacity, and
alpha-beta link parameters. The absolute values are rough (documented
below); the *relative* structure — compute/communication ratio, the memory
capacity that forces activation recomputation, NVLink vs IB asymmetry — is
what the paper's conclusions depend on, and the EXPERIMENTS.md log records
how the reproduced shapes compare.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.memo import hash_once
from repro.common.units import GIB
from repro.sim.network import (
    FlatTopology,
    HierarchicalTopology,
    HostChannel,
    LinkSpec,
)


@hash_once
@dataclass(frozen=True)
class MachineSpec:
    """One accelerator-per-worker cluster model.

    Attributes
    ----------
    flops_per_sec:
        Sustained (not peak) FLOP/s per accelerator for transformer-style
        matmul workloads.
    memory_bytes:
        Device memory available to the training process.
    framework_overhead_bytes:
        Memory consumed by the framework/runtime before any tensor is
        allocated (CUDA context, NCCL/GLOO buffers, allocator slack).
    intra_link / inter_link:
        Alpha-beta parameters; for flat networks both are the same link.
    gpus_per_node:
        Accelerators sharing the fast intra link (1 = flat network).
    host_memory_bytes:
        Host (CPU) RAM available per worker for offloaded activation
        stashes — the second tier of the memory model. Node RAM divided
        by the accelerators sharing it.
    host_link:
        Host↔device copy link (PCIe-class) used by the offload pass's
        OFFLOAD/RELOAD transfers; private per worker.
    host_duplex:
        ``"full"`` — separate D2H/H2D DMA engines (offload and reload
        overlap); ``"half"`` — one shared copy queue.
    """

    name: str
    flops_per_sec: float
    memory_bytes: float
    framework_overhead_bytes: float
    intra_link: LinkSpec
    inter_link: LinkSpec
    gpus_per_node: int = 1
    host_memory_bytes: float = 64 * GIB
    #: PCIe 3.0 x16 sustained through a pinned-buffer copy path.
    host_link: LinkSpec = LinkSpec.from_bandwidth(
        alpha=5e-6, bandwidth_bytes_per_sec=12e9
    )
    host_duplex: str = "full"

    def __post_init__(self) -> None:
        if self.flops_per_sec <= 0 or self.memory_bytes <= 0:
            raise ConfigurationError("machine compute/memory must be positive")
        if self.gpus_per_node < 1:
            raise ConfigurationError("gpus_per_node must be >= 1")
        if self.host_memory_bytes <= 0:
            raise ConfigurationError("host memory must be positive")

    def topology(self) -> FlatTopology | HierarchicalTopology:
        """Build the network model for this machine."""
        if self.gpus_per_node == 1:
            return FlatTopology(self.inter_link)
        return HierarchicalTopology(
            intra=self.intra_link,
            inter=self.inter_link,
            gpus_per_node=self.gpus_per_node,
        )

    def host_channel(self) -> HostChannel:
        """The per-worker host↔device copy channel for the simulators."""
        return HostChannel(self.host_link, duplex=self.host_duplex)

    @property
    def usable_memory_bytes(self) -> float:
        return self.memory_bytes - self.framework_overhead_bytes


#: Piz Daint: P100 sustained ~4.5 TFLOP/s on fp32 matmuls; 16 GiB HBM2.
#: The paper runs PyTorch with the GLOO backend (not NCCL) for both p2p and
#: allreduce, so the effective transfer path is host CPU + TCP-over-Aries:
#: ~1.5 GB/s sustained with tens of microseconds of latency. This is what
#: makes gradient synchronization expensive enough that the (W, D) sweet
#: spot sits at moderate depths (Figures 10/11) and extra pipeline replicas
#: stop paying off beyond f=1..2 (Figure 19).
PIZ_DAINT = MachineSpec(
    name="piz-daint-p100",
    flops_per_sec=4.5e12,
    memory_bytes=16 * GIB,
    framework_overhead_bytes=1.5 * GIB,
    intra_link=LinkSpec.from_bandwidth(alpha=3e-5, bandwidth_bytes_per_sec=1.5e9),
    inter_link=LinkSpec.from_bandwidth(alpha=3e-5, bandwidth_bytes_per_sec=1.5e9),
    gpus_per_node=1,
)

#: 4 servers x 8 V100 (32 GiB): NVLink inside a server (~60 GB/s effective
#: through the framework), GLOO-over-InfiniBand between servers (~2.5 GB/s).
V100_CLUSTER = MachineSpec(
    name="v100-nvlink-cluster",
    flops_per_sec=12e12,
    memory_bytes=32 * GIB,
    framework_overhead_bytes=1.5 * GIB,
    intra_link=LinkSpec.from_bandwidth(alpha=5e-6, bandwidth_bytes_per_sec=60e9),
    inter_link=LinkSpec.from_bandwidth(alpha=2e-5, bandwidth_bytes_per_sec=2.5e9),
    gpus_per_node=8,
)

#: Short names accepted by the CLI and the planner service.
MACHINES: dict[str, MachineSpec] = {
    "piz-daint": PIZ_DAINT,
    "v100": V100_CLUSTER,
}
