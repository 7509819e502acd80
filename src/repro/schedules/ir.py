"""Intermediate representation for pipeline-parallel schedules.

A :class:`Schedule` is the contract between the schedule builders
(:mod:`repro.schedules`), the discrete-event simulator (:mod:`repro.sim`), the
memory model, and the real training runtime (:mod:`repro.runtime`): a static,
per-worker *ordered* list of operations, plus the stage placement that says
which worker holds which (replica, stage) pair.

Time is *not* part of the IR — the simulator assigns start/end times given a
cost model, and the runtime executes operations as their data dependencies
are satisfied, preserving each worker's order.

Design notes
------------
* ``micro_batches`` is a tuple so a single operation can cover several
  micro-batches at once (*forward doubling*, paper §3.5 uses chunks of two).
* ``part = (index, num_parts)`` splits one micro-batch across several
  operations (*backward halving* runs every backward at half the micro-batch
  size, so each backward op covers one half).
* ``ALLREDUCE`` operations model gradient synchronization across stage
  replicas; their position inside a worker's list encodes the eager /
  lazy synchronization strategies of paper §3.2.
* The backward pass exists in two granularities: the fused ``BACKWARD``
  (input + weight gradients in one op, used by all the paper's schemes) and
  the split ``BACKWARD_INPUT`` / ``BACKWARD_WEIGHT`` pair that the
  zero-bubble schedule family (:mod:`repro.schedules.zero_bubble`) uses to
  move weight-gradient work into pipeline bubbles [Qi et al. 2023].
* ``SEND`` / ``RECV`` make point-to-point transfers first-class schedule
  operations. Builders never emit them — the lowering pass
  (:mod:`repro.schedules.lowering`) rewrites every cross-worker
  activation/gradient dependency into an explicit pair, which is what lets
  the simulator model link contention and the Gantt/trace renderers draw
  communication lanes. A comm op's ``payload`` says what travels
  (``"act"`` or ``"grad"``); its ``stage`` is the *endpoint it runs on*
  (the producer's stage for ``SEND``, the consumer's for ``RECV``) so the
  placement invariant — every op runs on the worker hosting its
  ``(replica, stage)`` — holds for comm ops too.
* :meth:`Schedule.op_table` is the same ops as numpy columns
  (:class:`OpTable`), filled in one walk per schedule and cached on it.
  The memory profile compiler and the simulators' op classification
  read the columns instead of walking ``Operation`` objects, and the
  disk tier stores tables, not pickled ops (:meth:`OpTable.operations`
  rebuilds the objects).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.common.errors import ScheduleError
from repro.schedules.placement import StagePlacement


class OpKind(enum.Enum):
    """The kinds of work a pipeline worker performs."""

    #: Forward pass of one stage on one (or more) micro-batches.
    FORWARD = "F"
    #: Fused backward pass of one stage on one micro-batch (or a fraction of
    #: one): input gradient *and* weight gradient in a single operation.
    BACKWARD = "B"
    #: Input-gradient half of a split backward (zero-bubble ``B``): computes
    #: and propagates ``d input`` upstream; weight gradients are deferred.
    BACKWARD_INPUT = "Bi"
    #: Weight-gradient half of a split backward (zero-bubble ``W``):
    #: accumulates the parameter gradients the matching ``Bi`` deferred.
    #: Purely local — never sends a message.
    BACKWARD_WEIGHT = "W"
    #: Explicit activation rematerialization, produced by the recompute
    #: pass (:mod:`repro.schedules.passes.recompute`): replays the stage's
    #: forward from the stashed stage input so the following backward finds
    #: its activations. Purely local; sits immediately before the first
    #: backward (part) of its micro-batch, so any bubble in front of that
    #: backward hides the rematerialization cost.
    RECOMPUTE = "R"
    #: Gradient allreduce across the replicas of one stage.
    ALLREDUCE = "S"
    #: Explicit point-to-point send, produced by the lowering pass. Runs on
    #: the producer's worker; launches a transfer that occupies the link.
    SEND = "Tx"
    #: Explicit point-to-point receive, produced by the lowering pass. Runs
    #: on the consumer's worker; completes when the transfer arrives.
    RECV = "Rx"
    #: Host-memory offload of one micro-batch's activation stash, produced
    #: by the offload pass (:mod:`repro.schedules.passes.offload`). Runs on
    #: the worker hosting the stash; launches a device→host copy that
    #: occupies the worker's host channel. The stash leaves device memory
    #: once the copy completes and must be brought back by a ``RELOAD``
    #: before any backward (or recompute) of the micro-batch.
    OFFLOAD = "Ho"
    #: Host-memory reload of a previously offloaded stash. Launches the
    #: host→device copy (it may start only after the offload's copy has
    #: landed on the host); the consuming backward waits for its arrival.
    RELOAD = "Hr"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Operation:
    """One unit of scheduled work.

    Attributes
    ----------
    kind:
        Forward, backward, or gradient synchronization.
    replica:
        Model-replica index. Chimera with ``f`` down pipelines uses replicas
        ``0..2f-1`` (even = down direction, odd = up direction); unidirectional
        schemes use replica 0 only (GEMS uses 0 and 1).
    stage:
        Pipeline-stage index inside the replica, ``0 <= stage < D``.
    micro_batches:
        Micro-batches covered by this op. Length one except under forward
        doubling. Empty for stage-granularity ``ALLREDUCE`` ops.
    part:
        ``(index, num_parts)`` sub-micro-batch split. ``(0, 1)`` means the
        whole micro-batch; backward halving uses ``(0, 2)`` and ``(1, 2)``.
    recompute:
        For ``BACKWARD`` / ``BACKWARD_INPUT``: the forward activations were
        discarded and must be recomputed, increasing the op's cost (paper
        models B = 3F instead of B = 2F when recomputation is on; a split
        backward charges the rematerialization to its input-gradient half).
    payload:
        For ``SEND`` / ``RECV``: what travels — ``"act"`` (forward
        activations, stage ``s`` to ``s + 1``) or ``"grad"`` (input
        gradients, stage ``s`` to ``s - 1``). Empty for every other kind.
    """

    kind: OpKind
    replica: int
    stage: int
    micro_batches: tuple[int, ...] = ()
    part: tuple[int, int] = (0, 1)
    recompute: bool = False
    payload: str = ""

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise ScheduleError(f"negative stage in {self!r}")
        if self.replica < 0:
            raise ScheduleError(f"negative replica in {self!r}")
        index, num_parts = self.part
        if num_parts < 1 or not (0 <= index < num_parts):
            raise ScheduleError(f"invalid part split {self.part} in {self!r}")
        if self.kind is not OpKind.ALLREDUCE and not self.micro_batches:
            raise ScheduleError(f"{self.kind} op must cover micro-batches: {self!r}")
        if len(set(self.micro_batches)) != len(self.micro_batches):
            raise ScheduleError(f"duplicate micro-batches in {self!r}")
        if self.is_comm:
            if self.payload not in ("act", "grad"):
                raise ScheduleError(
                    f"comm op needs payload 'act' or 'grad', got "
                    f"{self.payload!r} in {self!r}"
                )
        elif self.is_host_comm:
            if self.payload != "stash":
                raise ScheduleError(
                    f"host-transfer op needs payload 'stash', got "
                    f"{self.payload!r} in {self!r}"
                )
        elif self.payload:
            raise ScheduleError(f"payload on non-comm op {self!r}")

    @property
    def is_forward(self) -> bool:
        return self.kind is OpKind.FORWARD

    @property
    def is_backward(self) -> bool:
        """True for operations that compute the *input* gradient.

        Covers the fused ``BACKWARD`` and the split ``BACKWARD_INPUT``:
        both consume the upstream gradient message and the local activation
        stash, and both send ``d input`` to the previous stage.
        ``BACKWARD_WEIGHT`` is *not* a backward in this sense — see
        :attr:`produces_weight_grads`.
        """
        return self.kind in (OpKind.BACKWARD, OpKind.BACKWARD_INPUT)

    @property
    def is_backward_input(self) -> bool:
        return self.kind is OpKind.BACKWARD_INPUT

    @property
    def is_backward_weight(self) -> bool:
        return self.kind is OpKind.BACKWARD_WEIGHT

    @property
    def is_split_backward(self) -> bool:
        """True for either half of a split (zero-bubble) backward."""
        return self.kind in (OpKind.BACKWARD_INPUT, OpKind.BACKWARD_WEIGHT)

    @property
    def produces_weight_grads(self) -> bool:
        """True once this op completes the stage's parameter gradients.

        The fused ``BACKWARD`` and the split ``BACKWARD_WEIGHT`` both leave
        accumulated weight gradients behind; gradient-synchronization
        placement (and the allreduce data dependencies) key off this.
        """
        return self.kind in (OpKind.BACKWARD, OpKind.BACKWARD_WEIGHT)

    @property
    def is_recompute(self) -> bool:
        """True for the explicit rematerialization op of the recompute pass."""
        return self.kind is OpKind.RECOMPUTE

    @property
    def is_comm(self) -> bool:
        """True for the explicit point-to-point ops (``SEND`` / ``RECV``)."""
        return self.kind in (OpKind.SEND, OpKind.RECV)

    @property
    def is_offload(self) -> bool:
        return self.kind is OpKind.OFFLOAD

    @property
    def is_reload(self) -> bool:
        return self.kind is OpKind.RELOAD

    @property
    def is_host_comm(self) -> bool:
        """True for the host-tier transfer ops (``OFFLOAD`` / ``RELOAD``).

        Both run on the worker that hosts the stash — there is no remote
        endpoint; the transfer occupies the worker's own host↔device
        channel instead of a network link.
        """
        return self.kind in (OpKind.OFFLOAD, OpKind.RELOAD)

    @property
    def peer_stage(self) -> int:
        """The other endpoint's stage of a comm op.

        Single source of the direction convention: activations flow to
        ``stage + 1``, gradients to ``stage - 1``, and a ``RECV`` names the
        consumer's stage so its peer sits on the opposite side. Everything
        that resolves a comm op's peer worker — the engine, the executor,
        the validator, the dependency builder — goes through here.
        """
        if not self.is_comm:
            raise ScheduleError(f"peer_stage on non-comm op {self!r}")
        step = 1 if self.payload == "act" else -1
        if self.kind is OpKind.SEND:
            return self.stage + step
        return self.stage - step

    @property
    def is_compute(self) -> bool:
        return self.kind not in (
            OpKind.ALLREDUCE,
            OpKind.SEND,
            OpKind.RECV,
            OpKind.OFFLOAD,
            OpKind.RELOAD,
        )

    @property
    def work_units(self) -> float:
        """Micro-batch-equivalents of compute covered by this op.

        Forward doubling ops count 2.0; backward-halving halves count 0.5;
        allreduce and send/recv count 0 (communication, not compute). Split
        backward halves each count their full micro-batch coverage — the
        cost model decides how the fused backward's time divides between
        them.
        """
        if not self.is_compute:
            return 0.0
        return len(self.micro_batches) / self.part[1]

    def key(self) -> tuple:
        """Hashable identity used for dependency lookups and uniqueness."""
        return (
            self.kind,
            self.replica,
            self.stage,
            self.micro_batches,
            self.part,
            self.payload,
        )

    def short(self) -> str:
        """Compact human-readable form used by the Gantt renderer."""
        mbs = ",".join(str(m) for m in self.micro_batches)
        suffix = ""
        if self.part != (0, 1):
            suffix = f".{self.part[0]}/{self.part[1]}"
        if self.kind is OpKind.ALLREDUCE:
            return f"S{self.stage}r{self.replica}"
        if self.is_comm:
            return f"{self.kind.value}[{self.payload}]{mbs}s{self.stage}{suffix}"
        if self.is_host_comm:
            return f"{self.kind.value}{mbs}s{self.stage}{suffix}"
        if self.is_recompute:
            return f"R{mbs}s{self.stage}{suffix}"
        return f"{self.kind.value}{mbs}{suffix}"

    def with_recompute(self) -> "Operation":
        """Return a copy with the recompute flag set."""
        return replace(self, recompute=True)


#: Kind codes of :attr:`OpTable.kind` index this tuple; the code
#: constants below follow :class:`OpKind`'s declaration order.
OP_KINDS: tuple[OpKind, ...] = tuple(OpKind)
(
    FORWARD_CODE,
    BACKWARD_CODE,
    BACKWARD_INPUT_CODE,
    BACKWARD_WEIGHT_CODE,
    RECOMPUTE_CODE,
    ALLREDUCE_CODE,
    SEND_CODE,
    RECV_CODE,
    OFFLOAD_CODE,
    RELOAD_CODE,
) = range(len(OP_KINDS))
#: Payload codes of :attr:`OpTable.payload` index this tuple.
PAYLOADS: tuple[str, ...] = ("", "act", "grad", "stash")
_KIND_CODE = {kind.value: code for code, kind in enumerate(OP_KINDS)}
_PAYLOAD_CODE = {payload: code for code, payload in enumerate(PAYLOADS)}
#: An op's fields in declaration order, the order of its ``__dict__``.
_OP_FIELDS = (
    "kind", "replica", "stage", "micro_batches", "part", "recompute", "payload"
)
#: Reads an op's fields, its kind as the value string (a member hashes
#: its name in Python; the string hashes in C).
_read_op = attrgetter("kind._value_", *_OP_FIELDS[1:])


@dataclass(frozen=True, eq=False)
class OpTable:
    """A schedule's operations as numpy columns (:meth:`Schedule.op_table`).

    Row ``i`` is op id ``i`` of the row-major numbering the dependency
    graph uses (worker 0's ops first, in program order), at position
    ``pos[i]`` of worker ``worker[i]``. ``kind`` indexes
    :data:`OP_KINDS` and ``payload`` :data:`PAYLOADS`. Micro-batches are
    CSR: row ``i`` covers ``mb[mb_ptr[i]:mb_ptr[i + 1]]``, in the op's
    order. The columns are narrow (a table stays resident with its
    schedule), so readers widen them before key arithmetic; a value a
    column cannot hold raises ``OverflowError`` when the table is built.
    """

    worker: np.ndarray  # int32 [n]
    pos: np.ndarray  # int32 [n]
    kind: np.ndarray  # int8 [n]
    replica: np.ndarray  # int16 [n]
    stage: np.ndarray  # int16 [n]
    mb_ptr: np.ndarray  # int32 [n + 1]
    mb: np.ndarray  # int32 [mb_ptr[-1]]
    part_index: np.ndarray  # int16 [n]
    part_count: np.ndarray  # int16 [n]
    recompute: np.ndarray  # bool [n]
    payload: np.ndarray  # int8 [n]

    @classmethod
    def of(cls, worker_ops: Sequence[Sequence[Operation]]) -> "OpTable":
        """The table of a schedule's rows, filled in one walk."""
        lengths = [len(row) for row in worker_ops]
        flat = list(chain.from_iterable(worker_ops))
        n = len(flat)
        columns = list(zip(*map(_read_op, flat))) or [()] * len(_OP_FIELDS)
        kinds, replicas, stages, mbs, parts, recompute, payloads = columns
        mb_ptr = np.zeros(n + 1, np.int32)
        np.cumsum(np.fromiter(map(len, mbs), np.int32, n), out=mb_ptr[1:])
        part = np.array(parts, np.int16).reshape(n, 2)
        row_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
        return cls(
            worker=np.repeat(np.arange(len(lengths), dtype=np.int32), lengths),
            pos=(np.arange(n) - row_start).astype(np.int32),
            kind=np.fromiter(map(_KIND_CODE.__getitem__, kinds), np.int8, n),
            replica=np.array(replicas, np.int16),
            stage=np.array(stages, np.int16),
            mb_ptr=mb_ptr,
            mb=np.fromiter(chain.from_iterable(mbs), np.int32, int(mb_ptr[-1])),
            part_index=part[:, 0].copy(),
            part_count=part[:, 1].copy(),
            recompute=np.array(recompute, bool),
            payload=np.fromiter(map(_PAYLOAD_CODE.__getitem__, payloads), np.int8, n),
        )

    def take(self, rows: np.ndarray) -> "OpTable":
        """The table of the ``rows`` (a boolean mask), in row order."""
        counts = np.diff(self.mb_ptr)
        mb_ptr = np.zeros(int(rows.sum()) + 1, self.mb_ptr.dtype)
        np.cumsum(counts[rows], out=mb_ptr[1:])
        return OpTable(
            **{
                name: getattr(self, name)[rows]
                for name in self.__dataclass_fields__
                if name not in ("mb_ptr", "mb")
            },
            mb_ptr=mb_ptr,
            mb=self.mb[np.repeat(rows, counts)],
        )

    def operations(self) -> list[Operation]:
        """The table's ops as new objects, built the way unpickling builds
        them: ``__new__`` plus the ``__dict__``, no ``__post_init__`` (a
        table only holds ops that passed it). Equal micro-batch and part
        tuples are one object."""
        shared: dict[tuple, tuple] = {}
        intern = shared.setdefault
        mb = self.mb.tolist()
        ptr = self.mb_ptr.tolist()
        mbs = [intern(t, t) for t in (tuple(mb[a:b]) for a, b in zip(ptr, ptr[1:]))]
        parts = [
            intern(p, p)
            for p in zip(self.part_index.tolist(), self.part_count.tolist())
        ]
        new = Operation.__new__
        ops: list[Operation] = []
        for values in zip(
            map(OP_KINDS.__getitem__, self.kind.tolist()),
            self.replica.tolist(),
            self.stage.tolist(),
            mbs,
            parts,
            self.recompute.tolist(),
            map(PAYLOADS.__getitem__, self.payload.tolist()),
        ):
            op = new(Operation)
            op.__dict__.update(zip(_OP_FIELDS, values))
            ops.append(op)
        return ops


@dataclass(frozen=True)
class Schedule:
    """A complete static pipeline schedule for one training iteration.

    Attributes
    ----------
    scheme:
        Human-readable scheme name (``"chimera"``, ``"gpipe"``, ...).
    placement:
        Maps ``(replica, stage)`` to worker ranks; also fixes ``D`` and the
        replica count.
    num_micro_batches:
        ``N`` — micro-batches executed per pipeline group per iteration.
    worker_ops:
        ``worker_ops[w]`` is worker ``w``'s ordered operation list.
    synchronous:
        True for flush-based schemes (GPipe, DAPPLE, GEMS, Chimera); False
        for the asynchronous PipeDream family.
    metadata:
        Builder-specific annotations (e.g. concatenation strategy).
    """

    scheme: str
    placement: StagePlacement
    num_micro_batches: int
    worker_ops: tuple[tuple[Operation, ...], ...]
    synchronous: bool = True
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.worker_ops) != self.placement.num_workers:
            raise ScheduleError(
                f"worker_ops has {len(self.worker_ops)} rows but placement "
                f"declares {self.placement.num_workers} workers"
            )
        if self.num_micro_batches < 1:
            raise ScheduleError("a schedule must cover at least one micro-batch")

    def __getstate__(self) -> dict:
        """Pickled state without the cached :meth:`op_table`."""
        state = dict(self.__dict__)
        state.pop("_op_table", None)
        return state

    def op_table(self) -> OpTable:
        """The ops as numpy columns, built in one walk on first use and
        cached on the schedule (never pickled; ``replace`` drops it)."""
        table = self.__dict__.get("_op_table")
        if table is None:
            table = OpTable.of(self.worker_ops)
            object.__setattr__(self, "_op_table", table)
        return table

    # ------------------------------------------------------------------ views
    @property
    def num_stages(self) -> int:
        """``D`` — pipeline depth."""
        return self.placement.num_stages

    @property
    def num_workers(self) -> int:
        return self.placement.num_workers

    @property
    def num_replicas(self) -> int:
        return self.placement.num_replicas

    def ops_on(self, worker: int) -> tuple[Operation, ...]:
        """Worker ``worker``'s ordered operation list."""
        return self.worker_ops[worker]

    def all_ops(self) -> Iterator[tuple[int, Operation]]:
        """Yield ``(worker, op)`` for every scheduled operation."""
        for worker, ops in enumerate(self.worker_ops):
            for op in ops:
                yield worker, op

    @property
    def lowered(self) -> bool:
        """True once the lowering pass made p2p communication explicit."""
        return bool(self.metadata.get("lowered", False))

    def worker_of(self, replica: int, stage: int) -> int:
        """The worker hosting ``stage`` of ``replica``."""
        return self.placement.worker_of(replica, stage)

    def count(self, kind: OpKind) -> int:
        """Total number of operations of ``kind`` in the schedule."""
        return sum(1 for _, op in self.all_ops() if op.kind is kind)

    def replicas_hosted_by(self, worker: int) -> tuple[tuple[int, int], ...]:
        """All ``(replica, stage)`` pairs placed on ``worker``."""
        return self.placement.stages_on_worker(worker)

    def with_metadata(self, **extra: object) -> "Schedule":
        """Return a copy with ``extra`` merged into :attr:`metadata`."""
        merged = dict(self.metadata)
        merged.update(extra)
        return replace(self, metadata=merged)

    def describe(self) -> str:
        """One-line summary used in harness tables and error messages.

        Shows the worker count separately when it differs from the stage
        count (ZB-V folds ``2P`` chunk stages over ``P`` workers).
        """
        workers = ""
        if self.num_workers != self.num_stages:
            workers = f"workers={self.num_workers}, "
        return (
            f"{self.scheme}(D={self.num_stages}, N={self.num_micro_batches}, "
            f"{workers}replicas={self.num_replicas}, "
            f"{'sync' if self.synchronous else 'async'})"
        )


def freeze_worker_ops(rows: Sequence[Iterable[Operation]]) -> tuple[tuple[Operation, ...], ...]:
    """Convert mutable per-worker op lists to the immutable IR form."""
    return tuple(tuple(row) for row in rows)
