"""Alpha-beta network models and topologies.

The paper's performance model (§3.4) uses the classic latency-bandwidth
(alpha-beta) cost: sending ``L`` bytes costs ``alpha + beta * L`` seconds.
We provide a flat topology (every worker pair connected by the same link —
a reasonable model of Piz Daint's Aries dragonfly, which the paper also
treats as "bidirectional and direct point-to-point communication between
compute nodes") and a hierarchical topology for the V100 cluster
(NVLink inside a server, InfiniBand between servers, Figure 16).

Channels and contention
-----------------------
For *lowered* schedules (explicit SEND/RECV ops) the simulator
treats each link as a serially reusable **channel**: a transfer occupies
its channel for the bandwidth term ``beta * L`` (the serialization time on
the wire) while the latency term ``alpha`` pipelines — two messages can be
in flight, but their bytes cannot interleave. ``duplex`` selects the
channel granularity:

* ``"full"`` (default) — each *direction* of a worker pair is its own
  channel; ``a -> b`` and ``b -> a`` never contend (Aries/NVLink/IB are
  full-duplex).
* ``"half"`` — both directions share one channel, modelling half-duplex
  interconnects or a shared bus.

With ``beta = 0`` (infinite bandwidth) occupancy vanishes and the lowered
simulation reproduces the implicit-communication timing exactly — the
contention-free limit used by the parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError

#: Valid values for a topology's ``duplex`` mode.
DUPLEX_MODES = ("full", "half")


@dataclass(frozen=True)
class LinkSpec:
    """One link class in the alpha-beta model.

    Attributes
    ----------
    alpha:
        Per-message latency in seconds.
    beta:
        Transfer time per byte in seconds (i.e. 1 / bandwidth).
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError(
                f"link parameters must be non-negative, got alpha={self.alpha}, "
                f"beta={self.beta}"
            )

    def time(self, num_bytes: float) -> float:
        """Time to move ``num_bytes`` over this link."""
        return self.alpha + self.beta * num_bytes

    def occupancy(self, num_bytes: float) -> float:
        """Seconds the link's channel is held: the bandwidth term only."""
        return self.beta * num_bytes

    @staticmethod
    def from_bandwidth(alpha: float, bandwidth_bytes_per_sec: float) -> "LinkSpec":
        """Build a link from a latency and a bandwidth (bytes/s)."""
        if bandwidth_bytes_per_sec <= 0:
            raise ConfigurationError("bandwidth must be positive")
        return LinkSpec(alpha=alpha, beta=1.0 / bandwidth_bytes_per_sec)


def _check_duplex(duplex: str) -> str:
    if duplex not in DUPLEX_MODES:
        raise ConfigurationError(
            f"duplex must be one of {DUPLEX_MODES}, got {duplex!r}"
        )
    return duplex


def _channel(src: int, dst: int, duplex: str) -> tuple[int, int]:
    """Contention-channel id for a ``src -> dst`` transfer."""
    if duplex == "half" and src > dst:
        return (dst, src)
    return (src, dst)


def _channel_id_array(
    src: np.ndarray, dst: np.ndarray, duplex: str, num_workers: int
) -> np.ndarray:
    """Integer-encoded contention channels for many transfers at once.

    The array form of :func:`_channel`: channel ``(a, b)`` encodes as
    ``a * num_workers + b`` (after the half-duplex canonicalization), so
    ``(id // num_workers, id % num_workers)`` recovers the tuple the
    event engine reports in its :class:`TransferRecord`\\ s.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if duplex == "half":
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        return lo * num_workers + hi
    return src * num_workers + dst


@dataclass(frozen=True)
class HostChannel:
    """One worker's host↔device copy engine (PCIe-class link).

    Activation offload (:mod:`repro.schedules.passes.offload`) moves stash
    bytes over this channel instead of the network: every worker owns a
    private host link — transfers of different workers never contend with
    each other or with p2p traffic, but two copies on the *same* worker
    serialize exactly like messages on a network link. ``duplex`` selects
    the channel granularity, mirroring topologies:

    * ``"full"`` (default) — device→host and host→device are separate DMA
      engines; an offload and a reload on one worker overlap.
    * ``"half"`` — both directions share one engine (a single copy queue).

    Channel identities live in their own namespace: the tuple form is
    ``("host", worker[, direction])`` and the integer encoding used by the
    array kernel starts at ``num_workers ** 2``, above every worker-pair
    channel id, so host and network channels never collide.
    """

    link: LinkSpec
    duplex: str = "full"

    def __post_init__(self) -> None:
        _check_duplex(self.duplex)

    def channel_key(self, worker: int, direction: str) -> tuple:
        """Tuple channel identity: ``("host", w, dir)`` / ``("host", w)``.

        ``direction`` is ``"d2h"`` (offload) or ``"h2d"`` (reload). Under
        half duplex both directions collapse onto one channel, so the
        direction component is dropped.
        """
        if self.duplex == "half":
            return ("host", worker)
        return ("host", worker, direction)

    def channel_id(self, worker: int, direction_code: int, num_workers: int) -> int:
        """Integer channel id for the array kernel.

        ``direction_code`` is 0 for device→host, 1 for host→device. Ids
        are ``num_workers**2 + worker*2 + code`` (code forced to 0 under
        half duplex), disjoint from the ``src*W + dst`` network ids.
        """
        code = 0 if self.duplex == "half" else direction_code
        return num_workers * num_workers + worker * 2 + code

    def decode_channel_id(self, cid: int, num_workers: int) -> tuple:
        """Recover the tuple channel identity from an integer id."""
        rem = cid - num_workers * num_workers
        worker, code = divmod(rem, 2)
        if self.duplex == "half":
            return ("host", worker)
        return ("host", worker, "h2d" if code else "d2h")


class FlatTopology:
    """All worker pairs share one link class.

    Compares (and hashes) by value: two topologies with the same link and
    duplex mode are interchangeable, which is what lets cost models built
    from the same machine spec deduplicate in batched planning.
    """

    def __init__(self, link: LinkSpec, *, duplex: str = "full"):
        self.link = link
        self.duplex = _check_duplex(duplex)

    def _key(self) -> tuple:
        return (FlatTopology, self.link, self.duplex)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FlatTopology) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def p2p_time(self, src: int, dst: int, num_bytes: float) -> float:
        """Point-to-point message time between two workers."""
        if src == dst:
            return 0.0
        return self.link.time(num_bytes)

    def link_of(self, src: int, dst: int) -> LinkSpec:
        """The link class carrying a ``src -> dst`` transfer."""
        return self.link

    def channel(self, src: int, dst: int) -> tuple[int, int]:
        """The contention channel a ``src -> dst`` transfer occupies."""
        return _channel(src, dst, self.duplex)

    def link_table(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-transfer ``(alpha, beta)`` arrays — :meth:`link_of` in bulk.

        The array kernel builds its per-SEND wire/occupancy tables from
        this instead of calling ``link_of`` once per transfer.
        """
        n = len(np.asarray(src))
        return (
            np.full(n, self.link.alpha),
            np.full(n, self.link.beta),
        )

    def channel_id_array(
        self, src: np.ndarray, dst: np.ndarray, num_workers: int
    ) -> np.ndarray:
        """Integer channel ids for many transfers — :meth:`channel` in bulk."""
        return _channel_id_array(src, dst, self.duplex, num_workers)

    def group_link(self, workers: tuple[int, ...]) -> LinkSpec:
        """The link class that bounds a collective over ``workers``."""
        return self.link


class HierarchicalTopology:
    """Fast intra-node links, slower inter-node links.

    Workers ``[k * gpus_per_node, (k+1) * gpus_per_node)`` share node ``k``
    (e.g. 8 V100s behind NVLink, nodes connected by InfiniBand).
    Compares and hashes by value, like :class:`FlatTopology`.
    """

    def __init__(
        self,
        intra: LinkSpec,
        inter: LinkSpec,
        gpus_per_node: int,
        *,
        duplex: str = "full",
    ):
        if gpus_per_node < 1:
            raise ConfigurationError("gpus_per_node must be >= 1")
        self.intra = intra
        self.inter = inter
        self.gpus_per_node = gpus_per_node
        self.duplex = _check_duplex(duplex)

    def _key(self) -> tuple:
        return (
            HierarchicalTopology,
            self.intra,
            self.inter,
            self.gpus_per_node,
            self.duplex,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HierarchicalTopology)
            and self._key() == other._key()
        )

    def __hash__(self) -> int:
        return hash(self._key())

    def node_of(self, worker: int) -> int:
        return worker // self.gpus_per_node

    def p2p_time(self, src: int, dst: int, num_bytes: float) -> float:
        if src == dst:
            return 0.0
        return self.link_of(src, dst).time(num_bytes)

    def link_of(self, src: int, dst: int) -> LinkSpec:
        """NVLink-class within a node, the inter-node link across nodes."""
        return self.intra if self.node_of(src) == self.node_of(dst) else self.inter

    def channel(self, src: int, dst: int) -> tuple[int, int]:
        """The contention channel a ``src -> dst`` transfer occupies."""
        return _channel(src, dst, self.duplex)

    def link_table(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-transfer ``(alpha, beta)`` arrays — :meth:`link_of` in bulk."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        intra = (src // self.gpus_per_node) == (dst // self.gpus_per_node)
        alpha = np.where(intra, self.intra.alpha, self.inter.alpha)
        beta = np.where(intra, self.intra.beta, self.inter.beta)
        return alpha, beta

    def channel_id_array(
        self, src: np.ndarray, dst: np.ndarray, num_workers: int
    ) -> np.ndarray:
        """Integer channel ids for many transfers — :meth:`channel` in bulk."""
        return _channel_id_array(src, dst, self.duplex, num_workers)

    def group_link(self, workers: tuple[int, ...]) -> LinkSpec:
        """Bounding link for a collective: inter-node if the group spans nodes."""
        nodes = {self.node_of(w) for w in workers}
        return self.intra if len(nodes) <= 1 else self.inter
