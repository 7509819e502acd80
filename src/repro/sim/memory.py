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

The analysis runs in two steps. :func:`compile_memory_profile` walks a
schedule once into a :class:`MemoryProfile`: per-worker event tables
naming, for every change to the live set, a stage, which per-stage byte
value moves (full activations, stage input, promoted stash, promotion
increment) and a signed coefficient, plus the model-free peak in
micro-batch units. All structural errors (:class:`MemoryModelError` for
an op without the stash it needs) are raised there.
:func:`analyze_memory` prices a profile under a :class:`MemoryModel` with
a few numpy operations (a row-wise ``cumsum`` adds in op order, so every
peak is bitwise the float a running total over the ops reaches). The
machine, workload and micro-batch size change only the model, never the
profile, so the schedule cache keeps one profile per entry
(:meth:`repro.schedules.cache.ScheduleArtifacts.memory_profile`), and the
entry's first disk write carries it, so a restarted process prices the
stored profile without walking the schedule again.

The schemes' qualitative signatures (GPipe ~ N x Ma; DAPPLE/2BW first-worker
peak; Chimera balanced in [(D/2+1) Ma, D Ma]; GEMS minimal) all emerge from
this accounting — Figure 9 is regenerated from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.common.errors import MemoryModelError
from repro.common.memo import WeakMemo, hash_once
from repro.schedules.ir import (
    BACKWARD_CODE,
    BACKWARD_INPUT_CODE,
    BACKWARD_WEIGHT_CODE,
    FORWARD_CODE,
    OFFLOAD_CODE,
    RECOMPUTE_CODE,
    RELOAD_CODE,
    Schedule,
)
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


@hash_once
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
    """Per-worker memory plus distribution summaries (Figure 9).

    The summaries are taken once, when the report is made: reports are
    memoized and shared (:func:`analyze_memory`), and every memory-fit
    decision reads them. They take no part in ``==`` or ``repr``.
    """

    workers: tuple[WorkerMemory, ...]
    #: Largest device-tier total across workers.
    peak_bytes: float = field(init=False, repr=False, compare=False)
    #: Smallest device-tier total across workers.
    min_bytes: float = field(init=False, repr=False, compare=False)
    #: Largest host-tier peak across workers (0 without offload).
    host_peak_bytes: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        totals = [w.total_bytes for w in self.workers]
        object.__setattr__(self, "peak_bytes", max(totals))
        object.__setattr__(self, "min_bytes", min(totals))
        host = max(w.host_peak_bytes for w in self.workers)
        object.__setattr__(self, "host_peak_bytes", host)

    @property
    def imbalance(self) -> float:
        """max / min total memory across workers (1.0 = perfectly balanced)."""
        lo = self.min_bytes
        return self.peak_bytes / lo if lo > 0 else float("inf")

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


# Value codes of a profile's event tables: which per-stage byte value an
# event moves. Each is a row of the table :func:`_value_table` builds.
_NONE = 0  # nothing (padding)
_ACT = 1  # full activations, act(s)
_STASH = 2  # stage input only, stash(s)
_PROMOTED = 3  # a stash after a recompute promotion: act(s) if larger
_INCREMENT = 4  # that promotion's growth: act(s) - stash(s) if positive
_WEIGHTS = 5  # one weight copy, weights(s)
_WEIGHT_STASH = 6  # one stashed weight version, weight_stash(s)


@dataclass(frozen=True, eq=False)
class _EventTable:
    """One tier's events, one zero-padded row per worker.

    Event ``j`` of worker ``w`` adds ``value[code[w, j], stage[w, j]] *
    coef[w, j]`` bytes (a release carries a negative coefficient);
    ``check[w, j]`` marks the events after which the peak is taken.
    """

    stage: np.ndarray  # int16 [W, L]
    code: np.ndarray  # int8 [W, L]
    coef: np.ndarray  # float64 [W, L]
    check: np.ndarray  # bool [W, L]

    def live(self, table: np.ndarray) -> np.ndarray:
        """Live bytes after every event. A row-wise ``cumsum`` adds in
        event order, so each partial sum is the running total's float."""
        return np.cumsum(table[self.code, self.stage] * self.coef, axis=1)

    def peaks(self, live: np.ndarray) -> np.ndarray:
        """Each worker's largest checked live value (``-inf``: none)."""
        return np.where(self.check, live, -np.inf).max(axis=1, initial=-np.inf)


class _Events:
    """An :class:`_EventTable` under construction: flat columns, appended
    worker by worker (call :meth:`next_worker` before each)."""

    def __init__(self) -> None:
        self.stage: list[int] = []
        self.code: list[int] = []
        self.coef: list[float] = []
        #: Flat indices of the checked events.
        self.checked: list[int] = []
        #: Flat index of each worker's first event.
        self.starts: list[int] = []

    def next_worker(self) -> None:
        self.starts.append(len(self.stage))

    def add(self, stage: int, code: int, coef: float) -> None:
        self.stage.append(stage)
        self.code.append(code)
        self.coef.append(coef)

    def table(self) -> _EventTable:
        starts = np.array(self.starts, np.intp)
        lengths = np.diff(starts, append=len(self.stage))
        rows = np.repeat(np.arange(len(starts)), lengths)
        at = (rows, np.arange(len(self.stage)) - starts[rows])
        shape = (len(starts), int(lengths.max(initial=0)))
        stage = np.zeros(shape, np.int16)
        code = np.zeros(shape, np.int8)
        coef = np.zeros(shape, np.float64)
        check = np.zeros(shape, bool)
        stage[at] = self.stage
        code[at] = self.code
        coef[at] = self.coef
        check[at[0][self.checked], at[1][self.checked]] = True
        return _EventTable(stage, code, coef, check)


@dataclass(frozen=True, eq=False)
class MemoryProfile:
    """A schedule's memory accounting with the byte sizes left symbolic.

    :func:`compile_memory_profile` builds it in one walk of the schedule:
    every change to a worker's live set becomes an event naming a stage,
    which per-stage byte value it moves, and a signed coefficient (a
    forward stashes ``+1`` of its value, a backward releases ``-1/parts``,
    an offload moves the ``remaining`` parts). :func:`analyze_memory`
    prices the events under a :class:`MemoryModel` with a few array
    operations. Nothing here depends on a model, so one profile serves
    every machine, workload and micro-batch size that shares the
    schedule.
    """

    #: Device-tier events.
    device: _EventTable
    #: Host-tier events; ``None`` for schedules without OFFLOAD/RELOAD.
    host: _EventTable | None
    #: Recompute transients, one row per recomputing backward: its
    #: worker, the device event it follows (a column of that worker's
    #: row), and the terms ``act(s) - value[code, s]`` it rematerializes
    #: (code :data:`_NONE` pads).
    transient_worker: np.ndarray  # intp [T]
    transient_after: np.ndarray  # intp [T]
    transient_stage: np.ndarray  # int16 [T, M]
    transient_code: np.ndarray  # int8 [T, M]
    #: Each worker's weight terms, in :func:`_weight_bytes`' order.
    weights: _EventTable
    #: Peak live stashes per worker in micro-batch units (model-free).
    activation_peak_units: tuple[float, ...]
    #: Stages the schedule places: every per-stage model field covers them.
    num_stages: int


def compile_memory_profile(schedule: Schedule) -> MemoryProfile:
    """Walk ``schedule`` once into its :class:`MemoryProfile`.

    The walk follows each worker's operation order, which is its
    execution order, so the peaks are the true runtime peaks for any
    cost model (liveness only changes at the worker's own operations).
    Raises :class:`~repro.common.errors.MemoryModelError` when an op
    needs a stash its worker does not hold.
    """
    table = schedule.op_table()
    kind, stage, replica = table.kind, table.stage, table.replica
    counts = np.diff(table.mb_ptr)
    # (replica, stage, mb) as one int key, one per covered micro-batch.
    radix_s = int(stage.max(initial=0)) + 1
    radix_mb = int(table.mb.max(initial=0)) + 1
    entry_op = np.repeat(np.arange(len(kind)), counts)
    entry_key = (
        (replica[entry_op].astype(np.int64) * radix_s + stage[entry_op]) * radix_mb
        + table.mb
    )
    # Which keys recompute. Two sources: the legacy flag on backward ops
    # (rematerialization transient charged at the backward) and the
    # recompute pass's explicit RECOMPUTE ops (promotion charged at the
    # op). Either way the forward must know to stash only the stage input.
    entry_kind = kind[entry_op]
    backward = (entry_kind == BACKWARD_CODE) | (entry_kind == BACKWARD_INPUT_CODE)
    recompute = set(entry_key[backward & table.recompute[entry_op]].tolist())
    stash_only = recompute | set(entry_key[entry_kind == RECOMPUTE_CODE].tolist())

    keys = entry_key.tolist()
    ptr = table.mb_ptr.tolist()
    mbs = table.mb.tolist()
    op_kind, op_stage = kind.tolist(), stage.tolist()
    op_parts = table.part_count.tolist()
    row_end = np.cumsum(np.bincount(table.worker, minlength=schedule.num_workers))
    device = _Events()
    host = _Events()
    transients: list[tuple[int, int, list[tuple[int, int]]]] = []
    units: list[float] = []
    # The device columns, bound locally: the hot loop appends to them.
    stages, codes, coefs, checked = (
        device.stage,
        device.code,
        device.coef,
        device.checked,
    )
    first = 0
    for worker, last in enumerate(row_end.tolist()):
        device.next_worker()
        host.next_worker()
        start = len(stages)
        live_units = 0.0
        peak_units = 0.0
        remaining_parts: dict[int, float] = {}
        code_of: dict[int, int] = {}
        on_host: set[int] = set()
        for oid in range(first, last):
            kind = op_kind[oid]
            stage = op_stage[oid]
            lo, hi = ptr[oid], ptr[oid + 1]
            if kind == FORWARD_CODE:
                for key in keys[lo:hi]:
                    code = _STASH if key in stash_only else _ACT
                    code_of[key] = code
                    remaining_parts[key] = 1.0
                    stages.append(stage)
                    codes.append(code)
                    coefs.append(1.0)
                    live_units += 1.0
                checked.append(len(stages) - 1)
                peak_units = max(peak_units, live_units)
            elif kind == BACKWARD_CODE or kind == BACKWARD_WEIGHT_CODE:
                # Fused backward or split weight gradient: releases this
                # part's share of the stash once it completes.
                fraction = 1.0 / op_parts[oid]
                terms = []
                for e in range(lo, hi):
                    key = keys[e]
                    if key not in remaining_parts:
                        raise MemoryModelError(
                            f"backward of micro-batch {mbs[e]} at stage {stage} "
                            f"without a live forward stash on worker {worker}"
                        )
                    if kind == BACKWARD_CODE and key in recompute:
                        # Rematerialized activations live only during this op.
                        terms.append((stage, code_of[key]))
                if terms:
                    transients.append((worker, len(stages) - 1 - start, terms))
                else:
                    checked.append(len(stages) - 1)
                for key in keys[lo:hi]:
                    remaining_parts[key] -= fraction
                    stages.append(stage)
                    codes.append(code_of[key])
                    coefs.append(-fraction)
                    live_units -= fraction
                    if remaining_parts[key] <= 1e-9:
                        del remaining_parts[key]
            elif kind == RECOMPUTE_CODE or kind == BACKWARD_INPUT_CODE:
                # Explicit rematerialization promotes the stashed stage
                # input to the full activations; the releasing backward(s)
                # free the promoted stash. A split input gradient consumes
                # the stash without releasing it (the weight-gradient half
                # still needs the layer inputs), and activations it
                # rematerializes must survive to W too.
                explicit_op = kind == RECOMPUTE_CODE
                for e in range(lo, hi):
                    key = keys[e]
                    if key not in remaining_parts:
                        what = "RECOMPUTE" if explicit_op else "input gradient"
                        raise MemoryModelError(
                            f"{what} of micro-batch {mbs[e]} at stage {stage} "
                            f"without a live forward stash on worker {worker}"
                        )
                    if code_of[key] == _STASH and (explicit_op or key in recompute):
                        device.add(stage, _INCREMENT, remaining_parts[key])
                        code_of[key] = _PROMOTED
                checked.append(len(stages) - 1)
            elif kind == OFFLOAD_CODE or kind == RELOAD_CODE:
                # Two-tier accounting: an OFFLOAD moves the stash's bytes
                # out of the device's live set and into the host tier; the
                # matching RELOAD moves them back. The stash keeps its
                # identity (remaining_parts/code_of untouched) so the
                # releasing backward frees it exactly as without offload.
                for e in range(lo, hi):
                    key, mb = keys[e], mbs[e]
                    parts = remaining_parts.get(key)
                    if kind == OFFLOAD_CODE:
                        if parts is None:
                            raise MemoryModelError(
                                f"OFFLOAD of micro-batch {mb} at stage "
                                f"{stage} without a live forward stash "
                                f"on worker {worker}"
                            )
                        if key in on_host:
                            raise MemoryModelError(
                                f"micro-batch {mb} at stage {stage} "
                                f"offloaded twice on worker {worker}"
                            )
                        device.add(stage, code_of[key], -parts)
                        live_units -= parts
                        host.checked.append(len(host.stage))
                        host.add(stage, code_of[key], parts)
                        on_host.add(key)
                    else:
                        if key not in on_host:
                            raise MemoryModelError(
                                f"RELOAD of micro-batch {mb} at stage "
                                f"{stage} without an offloaded stash "
                                f"on worker {worker}"
                            )
                        host.add(stage, code_of[key], -parts)
                        checked.append(len(stages))
                        device.add(stage, code_of[key], parts)
                        live_units += parts
                        on_host.discard(key)
                        peak_units = max(peak_units, live_units)
            # Collectives and explicit SEND/RECV (lowered schedules) neither
            # create nor release activation stashes.
        units.append(peak_units)
        first = last

    width = max((len(terms) for _, _, terms in transients), default=0)
    transient_stage = np.zeros((len(transients), width), np.int16)
    transient_code = np.zeros((len(transients), width), np.int8)
    for i, (_, _, terms) in enumerate(transients):
        transient_stage[i, : len(terms)], transient_code[i, : len(terms)] = zip(*terms)

    placement = schedule.placement
    weights = _Events()
    for worker in range(schedule.num_workers):
        weights.next_worker()
        for _, stage in placement.stages_on_worker(worker):
            versions = weight_versions(schedule.scheme, placement.num_stages, stage)
            weights.add(stage, _WEIGHTS, 1.0)
            weights.add(stage, _WEIGHT_STASH, versions - 1)

    return MemoryProfile(
        device=device.table(),
        host=host.table() if host.stage else None,
        transient_worker=np.array([t[0] for t in transients], np.intp),
        transient_after=np.array([t[1] for t in transients], np.intp),
        transient_stage=transient_stage,
        transient_code=transient_code,
        weights=weights.table(),
        activation_peak_units=tuple(units),
        num_stages=placement.num_stages,
    )


def _stage_values(
    value: Sequence[float] | float, num_stages: int, what: str
) -> np.ndarray:
    """``value`` for each of ``num_stages`` stages, as an array."""
    if isinstance(value, (int, float)):
        return np.full(num_stages, float(value))
    if len(value) < num_stages:
        raise MemoryModelError(
            f"{what} has {len(value)} entries but the schedule has "
            f"{num_stages} stages"
        )
    return np.array(value[:num_stages], np.float64)


def _value_table(profile: MemoryProfile, model: MemoryModel) -> np.ndarray:
    """``model``'s per-stage byte values, one row per value code."""
    s = profile.num_stages
    act = _stage_values(model.activation_bytes, s, "activation_bytes")
    stash = _stage_values(model.stash_input_bytes, s, "stash_input_bytes")
    promotes = stash < act
    return np.stack(
        [
            np.zeros(s),
            act,
            stash,
            np.where(promotes, act, stash),
            np.where(promotes, act - stash, 0.0),
            _stage_values(model.weight_bytes, s, "weight_bytes"),
            _stage_values(model.weight_stash_bytes, s, "weight_stash_bytes"),
        ]
    )


def _peaks(values: np.ndarray) -> list[float]:
    """Peaks as floats: ``0.0`` unless a live value exceeded zero (the
    running max starts at ``0.0``)."""
    return [p if p > 0.0 else 0.0 for p in values.tolist()]


#: ``MemoryProfile -> {MemoryModel: MemoryReport}`` for :func:`analyze_memory`.
#: A side table, not an attribute, so stored profiles pickle unchanged.
_REPORTS = WeakMemo()


def analyze_memory(
    schedule: Schedule | MemoryProfile, model: MemoryModel
) -> MemoryReport:
    """Compute the per-worker memory report of a schedule under ``model``.

    Given a :class:`~repro.schedules.ir.Schedule`, compiles its
    :class:`MemoryProfile` first; given a profile, only prices it — the
    way :func:`repro.sim.kernel.kernel_of` accepts a graph or a kernel.
    Callers that analyze one schedule under many models (the planner,
    across the machines, workloads and micro-batch sizes of its
    requests) pass the profile their cache entry holds
    (:meth:`repro.schedules.cache.ScheduleArtifacts.memory_profile`).
    Each live sum adds the same floats in the same order as a running
    total over the worker's ops, so reports are exact, not approximate.

    A profile keeps its reports, keyed by model value, in a side table
    weak-keyed on the profile (:data:`_REPORTS`), so pricing a profile
    again under an equal model returns the same frozen report. A model
    with an unhashable field (a list) is priced every time, a call that
    raises stores nothing, and a schedule argument is compiled and
    priced every time. Unlike :func:`repro.sim.kernel.simulate_batch_many`'s
    row memo this one needs no switch: nothing times this function.
    """
    if not isinstance(schedule, MemoryProfile):
        return _price(compile_memory_profile(schedule), model)
    report = _REPORTS.get(schedule, model)
    if report is None:
        report = _price(schedule, model)
        _REPORTS.put(schedule, model, report)
    return report


def _price(profile: MemoryProfile, model: MemoryModel) -> MemoryReport:
    """Price ``profile`` under ``model`` (:func:`analyze_memory`'s core)."""
    table = _value_table(profile, model)

    live = profile.device.live(table)
    device = profile.device.peaks(live)
    if len(profile.transient_worker):
        stages = profile.transient_stage
        codes = profile.transient_code
        terms = np.where(
            codes != _NONE, table[_ACT, stages] - table[codes, stages], 0.0
        )
        transient = np.cumsum(terms, axis=1)[:, -1]
        before = live[profile.transient_worker, profile.transient_after]
        np.maximum.at(
            device, profile.transient_worker, before + np.maximum(transient, 0.0)
        )
    if profile.host is not None:
        host = _peaks(profile.host.peaks(profile.host.live(table)))
    else:
        host = [0.0] * len(profile.activation_peak_units)
    weights = profile.weights.live(table)[:, -1].tolist()

    return MemoryReport(
        workers=tuple(
            WorkerMemory(
                worker=w,
                weight_bytes=weights[w],
                activation_peak_bytes=peak,
                activation_peak_units=profile.activation_peak_units[w],
                host_peak_bytes=host[w],
            )
            for w, peak in enumerate(_peaks(device))
        )
    )
