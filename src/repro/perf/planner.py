"""Configuration planning: scheme-agnostic search plus the §3.4 procedure.

The paper's §3.4 selection procedure (:func:`select_configuration`, kept
here verbatim for the Figure 13 reproduction) is hard-wired to the
bidirectional schedule: Chimera has so few bubbles that the largest
micro-batch wins and only ``(W, D)`` needs ranking. With ten registered
schemes — including the memory-controllable zero-bubble family, whose
whole point is trading ramp time for peak activation memory — selection
becomes a genuine search problem over ``(scheme, W, D, B)``:

1. **Enumerate.** For every requested scheme, every depth ``D`` dividing
   ``P`` (respecting the scheme's structural traits: even depth for the
   bidirectional placements, ``2D`` model chunks for the V-shaped family)
   and every power-of-two micro-batch size ``B`` dividing the per-group
   share of the mini-batch.
2. **Prune** against ``min(machine.usable_memory_bytes,
   memory_budget_bytes)``, in two steps. First, before anything is
   built, :func:`repro.sim.memory.device_floor` bounds each point's
   device peak from its stage placement (the scheme's ``placement``
   trait): weights plus one full activation stash on the fullest worker.
   No pipeline attempt fits below it, so a point whose floor fails the
   budget is skipped. Then :func:`repro.sim.memory.analyze_memory` runs
   on the real schedule of every other point, trying each attempt
   pipeline in turn until one fits, through the experiment harness's
   :func:`~repro.bench.harness.first_fit` (``synthesize`` has no
   placement trait and always takes this step).
   Skipped points are built only when nothing fits, to name the closest
   candidate in the error: in floor order, until no remaining floor can
   beat the closest exact overshoot.
3. **Rank.** Simulate every survivor in one batched array-kernel call
   (:func:`repro.sim.kernel.simulate_batch_many`) — lowered by default,
   so p2p transfers contend for link bandwidth, with the kernel's
   per-channel FIFO serialization matching the event engine to 1e-9 —
   and sort by simulated end-to-end throughput. Throughputs within 1e-9
   relative of each other rank as tied and are ordered by label, so
   float drift between backends never swaps two configurations.

Schedule-transform passes (:mod:`repro.schedules.passes`) are planning
*axes*: the pruning step enumerates activation offload and
recomputation through the offload/recompute passes, trying each
candidate plain, then offloaded (stashes parked in host RAM — backward
stays at its un-recomputed cost, at the price of PCIe traffic), then
recomputed, then both — so tight budgets rank all three memory-relief
strategies against each other at equal device budget. The request's
``pipeline`` is the base every attempt starts from
(:data:`DEFAULT_PLAN_PIPELINE` when absent); naming ``recompute`` or
``offload`` in it pins that axis on, and the ``recompute`` /
``offload`` fields pin an axis on or off (``False`` reproduces the
pass-less planner).
``pipeline=()`` ranks with implicit communication; ``"lower_p2p,
fuse_comm"`` ranks with batched communication — identical timing at
zero link occupancy with roughly a third fewer ops per event
simulation, which is the fast mode for big lowered grids.

Every memory-fit decision is the benchmark harness's own
(:func:`repro.bench.harness.first_fit` over
:func:`~repro.bench.harness.memory_report`), so a plan entry's attempt
and peak memory are the configuration's ``run_configuration`` outcome.
Asynchronous schemes rank through ``run_configuration`` itself.
Synchronous rows rank from a batch row instead of a
:func:`~repro.sim.kernel.simulate_fast` call: their iteration times are
bitwise equal to it, and the end-to-end plan check agrees with it on
bubble ratios to 1e-9.

Batch planning (planner-as-a-service)
-------------------------------------
:func:`plan_many` evaluates a batch of heterogeneous
:class:`PlanRequest` queries — the primitive behind ``repro serve`` and
``repro plan``, and what the ``benchmarks/e2e`` planning workloads
measure. Identical requests collapse to one computation; every distinct
request is then planned on its own (prune, rank, finalize), so a batch
holds only the survivors of the request being planned. Everything else a
batch shares, consecutive calls share too: each cached schedule keeps
its :class:`~repro.sim.memory.MemoryProfile`, and ``analyze_memory``'s
report memo and the row memo (``_ROW_MEMO``) are weak-keyed on the
cached profile or kernel, so their entries die with the schedule-cache
entry that owns them. A grid point's device floor comes from a bounded
LRU like the calibrations it reads. Asynchronous schemes keep their
steady-state measurement, fanned out over a bounded worker pool. Nothing
is pinned for the call, so an entry the LRU evicts is built again: with
the disk tier off, the six plan-stream requests of ``benchmarks/e2e``
planned as one batch build 207 schedules for 206 distinct keys, and with
the disk tier on they build 206. Per-request results are bit-identical
to calling :func:`plan_configurations` once per request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from repro.common.errors import ConfigurationError, ScheduleError
from repro.common.memo import WeakMemo
from repro.bench.harness import (
    ExperimentConfig,
    ExperimentResult,
    config_label,
    first_fit,
    format_table,
    rank_by_throughput,
    run_configuration,
)
from repro.schedules.passes.pipeline import (
    PipelineParts,
    attempt_pipelines,
    normalize_pipeline,
    split_pipeline,
)
from repro.bench.machines import MachineSpec
from repro.bench.workloads import TransformerSpec
from repro.perf.calibration import (
    CALIBRATION_CACHE_SIZE,
    calibrate_cost_model,
    calibrate_memory_model,
)
from repro.schedules.cache import ScheduleArtifacts, write_back
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import available_schemes, scheme_traits
from repro.sim.kernel import simulate_batch_many
from repro.sim.memory import MemoryModel, MemoryReport, device_floor, exceeds

#: Largest micro-batch size the enumeration considers (power-of-two scan).
DEFAULT_MAX_MICRO_BATCH = 512

#: Default bound on the worker pool :func:`plan_many` uses for the
#: asynchronous schemes' steady-state measurements.
DEFAULT_PLAN_WORKERS = min(8, os.cpu_count() or 1)

#: The base pipeline of a request that names none: rank with explicit
#: SEND/RECV communication, so p2p transfers contend for link bandwidth.
DEFAULT_PLAN_PIPELINE = ("lower_p2p",)

#: Every solved ranking row, per kernel (:func:`_rank` passes it to
#: ``simulate_batch_many``), so a row a later request repeats is a lookup,
#: whether it comes in the same batch or a later call.
_ROW_MEMO = WeakMemo()


@dataclass(frozen=True)
class PlanEntry:
    """One feasible configuration with its simulated performance."""

    scheme: str
    width: int
    depth: int
    micro_batch: int
    num_micro_batches: int
    recompute: bool
    iteration_time: float
    throughput: float  # sequences / second
    bubble_ratio: float
    peak_memory_bytes: float
    #: Canonical pipeline the entry was ranked under (the winning
    #: memory-fit attempt, axes included).
    pipeline: tuple[str, ...] = ()
    #: Host-tier peak of offloaded stashes (0 without the offload pass).
    host_peak_memory_bytes: float = 0.0

    @property
    def offload(self) -> bool:
        return split_pipeline(self.pipeline).offload

    def label(self) -> str:
        return config_label(self, split_pipeline(self.pipeline))


def candidate_grid(
    num_workers: int,
    workload: TransformerSpec,
    mini_batch: int,
    *,
    schemes: Sequence[str],
    min_depth: int = 2,
    max_micro_batch: int = DEFAULT_MAX_MICRO_BATCH,
) -> Iterator[tuple[str, int, int, int]]:
    """Yield structurally valid ``(scheme, width, depth, micro_batch)``.

    A depth is valid for a scheme when it divides ``P``, satisfies the
    scheme's parity trait, and the workload's layers split evenly into the
    schedule's stage count (``2D`` for the V-shaped family). Micro-batch
    sizes scan powers of two with ``W * B`` dividing the mini-batch.
    Depths stop at the layer count: a deeper schedule has more stages than
    layers, so the scan stays short for a huge ``P``.
    """
    max_depth = min(num_workers, workload.num_layers)
    for scheme in schemes:
        traits = scheme_traits(scheme)
        for depth in range(min_depth, max_depth + 1):
            if num_workers % depth:
                continue
            if traits.requires_even_depth and depth % 2:
                continue
            if workload.num_layers % traits.stage_count(depth):
                continue
            width = num_workers // depth
            b = 1
            while b <= max_micro_batch and width * b <= mini_batch:
                if mini_batch % (width * b) == 0:
                    yield scheme, width, depth, b
                b *= 2


@dataclass(frozen=True)
class PlanRequest:
    """One planner query, as submitted to :func:`plan_many` (or, as
    keyword fields after the machine and workload, to
    :func:`plan_configurations`).

    Hashable, so identical queries in one batch (the common case under
    service traffic) collapse to a single computation.
    """

    machine: MachineSpec
    workload: TransformerSpec
    #: Total device count ``P = W * D``.
    num_workers: int
    #: Samples per iteration ``B̂``.
    mini_batch: int
    #: Per-device peak-memory cap; candidates are pruned against
    #: ``min(machine.usable_memory_bytes, budget)``. ``None`` uses the
    #: device capacity alone.
    memory_budget_bytes: float | None = None
    #: Scheme names to consider (default: every registered scheme).
    schemes: tuple[str, ...] | None = None
    #: Smallest pipeline depth ``D`` enumerated.
    min_depth: int = 2
    #: Largest micro-batch size ``B`` enumerated (powers of two).
    max_micro_batch: int = DEFAULT_MAX_MICRO_BATCH
    #: The recompute-pass planning axis. ``None`` (default): try each
    #: candidate without recomputation first, then with it — the paper's
    #: retry-with-``R`` procedure. ``False``: never recompute (tight
    #: budgets then raise instead of selecting an ``R`` configuration).
    #: ``True``: always recompute.
    recompute: bool | None = None
    #: Truncate the ranked table; ``None`` returns every survivor.
    top_k: int | None = None
    #: The base transforms on top of each scheme's defaults: an ordered
    #: pass spec (comma string or sequence, validated against the
    #: registry); the recompute/offload axes compose on top, and naming
    #: ``recompute`` or ``offload`` pins that axis on. ``None`` means
    #: :data:`DEFAULT_PLAN_PIPELINE` (explicit SEND/RECV communication,
    #: so transfers contend for link bandwidth); ``()`` ranks with
    #: implicit communication, ``"lower_p2p,fuse_comm"`` with batched
    #: transfers. After construction the field holds the canonical tuple.
    pipeline: tuple[str, ...] | None = None
    #: The offload planning axis, same shape as ``recompute``: ``None``
    #: (default) tries plain → offload → recompute → offload+recompute
    #: per candidate; ``False`` never offloads; ``True`` always does.
    offload: bool | None = None
    #: Host-tier (CPU RAM) byte budget for offloaded stashes; candidates
    #: prune against ``min(machine.host_memory_bytes, budget)``.
    host_memory_budget_bytes: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.schemes, str):
            raise ConfigurationError(
                f"schemes must be a sequence of scheme names, got the string "
                f"{self.schemes!r}; pass ({self.schemes!r},) to plan over one"
            )
        if self.schemes is not None and not isinstance(self.schemes, tuple):
            object.__setattr__(self, "schemes", tuple(self.schemes))
        pipeline = DEFAULT_PLAN_PIPELINE if self.pipeline is None else self.pipeline
        object.__setattr__(self, "pipeline", normalize_pipeline(pipeline))
        _attempts(self)  # rejects an axis pinned off against its pass


def _attempts(request: PlanRequest) -> tuple[PipelineParts, ...]:
    """The request's attempt pipelines (the one rule of
    :func:`~repro.schedules.passes.pipeline.attempt_pipelines` over its
    ``pipeline``, ``recompute`` and ``offload`` fields), split once."""
    attempts = attempt_pipelines(
        request.pipeline, recompute=request.recompute, offload=request.offload
    )
    return tuple(map(split_pipeline, attempts))


@dataclass(frozen=True)
class PlanOutcome:
    """Per-request result of :func:`plan_many`: a ranking or an error."""

    request: PlanRequest
    entries: tuple[PlanEntry, ...] = ()
    error: ConfigurationError | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def raise_or_entries(self) -> list[PlanEntry]:
        """The ranked entries, re-raising the per-request error if any."""
        if self.error is not None:
            raise self.error
        return list(self.entries)


@dataclass
class _Survivor:
    """One memory-feasible candidate: its grid point's config, the attempt
    that fits, and that attempt's report and artifacts (ranking reads the
    kernels the prune step priced)."""

    cfg: ExperimentConfig
    attempt: PipelineParts
    report: MemoryReport
    arts: ScheduleArtifacts


@dataclass
class _Pruned:
    """A validated, pruned request awaiting ranking."""

    request: PlanRequest
    attempts: tuple[PipelineParts, ...] = ()
    survivors: list[_Survivor] = field(default_factory=list)
    #: The closest built rejection: (overshoot bytes, grid index, label).
    closest: tuple[float, int, str] | None = None
    #: Points the device floor rejected unbuilt:
    #: (floor overshoot bytes, grid index, config).
    skipped: list[tuple[float, int, ExperimentConfig]] = field(
        default_factory=list
    )


def plan_configurations(
    machine: MachineSpec, workload: TransformerSpec, **fields: object
) -> list[PlanEntry]:
    """Rank every feasible ``(scheme, W, D, B)`` under a memory budget.

    ``fields`` are :class:`PlanRequest`'s keyword fields (``num_workers``
    and ``mini_batch`` are required); an unknown name raises
    :class:`TypeError`. Returns the request's ranked entries.

    Raises
    ------
    ConfigurationError
        When the search space is empty, with a message naming the first
        failed step: an empty/unknown scheme list, no valid ``(W, D)``
        factorization, or no micro-batch size fitting the budget.
    """
    request = PlanRequest(machine, workload, **fields)
    return plan_many([request], max_workers=1)[0].raise_or_entries()


def plan_many(
    requests: Iterable[PlanRequest],
    *,
    max_workers: int = DEFAULT_PLAN_WORKERS,
    pool: "object | None" = None,
) -> list[PlanOutcome]:
    """Plan a batch of heterogeneous requests, one distinct request at a time.

    Returns one :class:`PlanOutcome` per request, in order. Per-request
    failures (empty search space, nothing fits the budget) are captured
    in the outcome instead of aborting the batch; results are exactly
    what :func:`plan_configurations` returns for the same request.

    Identical requests collapse to one computation. Each distinct request
    ranks its synchronous survivors through one
    :func:`~repro.sim.kernel.simulate_batch_many` call, and fans its
    asynchronous schemes' steady-state measurements out to the shared
    default *process* pool sized ``max_workers`` (sequential when the
    request has at most one measurement or ``max_workers == 1``). Memory
    reports, ranking rows, floors and calibrations come from process-wide
    memos, which a batch's requests share like consecutive calls do.

    Passing ``pool`` (a :class:`~repro.perf.workers.PlannerWorkerPool`)
    escapes the GIL entirely: distinct requests are sharded round-robin
    across its worker processes, each planning its shard in-process with
    its own warm caches. Per-request outcomes are independent of their
    batchmates, so results are bit-identical to in-process planning,
    including exact error messages.
    """
    requests = list(requests)
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if pool is not None:
        return _plan_many_pooled(requests, pool)
    outcomes: dict[PlanRequest, PlanOutcome] = {}
    for request in requests:
        if request not in outcomes:
            outcomes[request] = _plan_one(request, max_workers)
    return [outcomes[request] for request in requests]


def _plan_one(request: PlanRequest, max_workers: int) -> PlanOutcome:
    """Prune, rank and finalize one request; a :class:`ConfigurationError`
    becomes the outcome's error."""
    # Captured errors drop their tracebacks: a traceback holds this frame,
    # whose locals hold the error again and the pruned request (its
    # survivors' artifacts and memory reports), and that cycle would keep
    # them alive until a full collection for as long as a caller keeps
    # the outcome.
    try:
        with write_back():
            pruned = _prune_request(request)
            entries = _finalize(
                pruned, _rank(pruned.survivors, max_workers=max_workers)
            )
    except ConfigurationError as err:
        return PlanOutcome(request=request, error=err.with_traceback(None))
    return PlanOutcome(request=request, entries=tuple(entries))


def _plan_many_pooled(
    requests: list[PlanRequest], pool
) -> list[PlanOutcome]:
    """Shard distinct requests round-robin across the worker pool.

    Identical requests collapse before sharding (exactly like the
    in-process dedup), each worker plans one shard with its own warm
    caches, and the per-request outcomes reassemble in submission order.
    Bit-identical to in-process planning because per-request results
    never depend on batchmates.
    """
    if not requests:
        return []
    distinct = list(dict.fromkeys(requests))
    shard_count = max(1, min(pool.workers, len(distinct)))
    shards = [distinct[k::shard_count] for k in range(shard_count)]
    futures = [pool.submit_plan(shard) for shard in shards]
    by_request: dict[PlanRequest, PlanOutcome] = {}
    for shard, future in zip(shards, futures):
        shard_outcomes = future.result()
        for request, outcome in zip(shard, shard_outcomes):
            by_request[request] = outcome
    return [by_request[request] for request in requests]


def _parameterized_options(
    request: PlanRequest, scheme: str, width: int, depth: int, micro_batch: int
) -> dict[str, object]:
    """Builder options for a cost-parameterized scheme at one grid point.

    The hand-written schemes are built from ``(D, N)`` alone; a
    cost-parameterized builder like ``synthesize`` additionally wants the
    configuration's cost model and memory budget, so the planner derives
    them from the same calibration the ranking uses: forward-relative
    ``f/b/w`` ratios plus the boundary-message latency in forward units,
    and — when the request carries a byte budget — the activation headroom
    left after weights, converted to full-stage stash units. The options
    flow into the schedule-cache key through the scheme's registered
    ``builder_fingerprint``, so two grid points with different calibrated
    costs never alias one cached schedule.
    """
    model = calibrate_cost_model(
        request.machine,
        request.workload,
        depth=scheme_traits(scheme).stage_count(depth),
        micro_batch=micro_batch,
        data_parallel_width=width,
    )
    options: dict[str, object] = {
        "f_time": 1.0,
        "b_time": model.input_grad_ratio(),
        "w_time": model.weight_grad_ratio(),
        "comm_time": model.p2p_time(0, 1, 1.0) / model.forward_time,
    }
    budget = request.memory_budget_bytes
    if budget is not None:
        capacity = min(request.machine.usable_memory_bytes, budget)
        memory = calibrate_memory_model(
            request.machine, request.workload, depth=depth, micro_batch=micro_batch
        )
        act = memory.activation_bytes
        weights = memory.weight_bytes
        ma = sum(act) / depth if isinstance(act, tuple) else float(act)
        per_worker_weights = (
            sum(weights) / depth if isinstance(weights, tuple) else float(weights)
        )
        if ma > 0:
            units = (capacity - per_worker_weights) / ma
            # The builder rejects non-positive budgets; the planner's
            # except-and-skip then drops the grid point, mirroring how an
            # oversized hand-written candidate is pruned.
            options["memory_budget_units"] = round(units, 6)
    return options


def _prune_request(request: PlanRequest) -> _Pruned:
    """Validate one request and prune its grid by the memory model."""
    if request.num_workers < 2:
        raise ConfigurationError(
            f"need at least two workers for a pipeline, got P={request.num_workers}"
        )
    if request.mini_batch < 1:
        raise ConfigurationError(
            f"mini-batch must be positive, got {request.mini_batch}"
        )
    for name in ("min_depth", "max_micro_batch", "top_k"):
        value = getattr(request, name)
        if value is not None and value < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {value}")
    schemes = request.schemes
    if schemes is None:
        schemes = tuple(available_schemes())
    if not schemes:
        raise ConfigurationError(
            "empty scheme list: pass at least one scheme to plan over, or "
            f"None for all of {list(available_schemes())}"
        )
    for scheme in schemes:
        scheme_traits(scheme)  # raises with the available list on a typo

    grid = list(
        candidate_grid(
            request.num_workers,
            request.workload,
            request.mini_batch,
            schemes=schemes,
            min_depth=request.min_depth,
            max_micro_batch=request.max_micro_batch,
        )
    )
    if not grid:
        raise ConfigurationError(
            f"no valid (W, D) factorization of P={request.num_workers} for "
            f"{request.workload.name} ({request.workload.num_layers} layers) "
            f"with schemes {list(schemes)}: every depth in "
            f"[{request.min_depth}, {request.num_workers}] fails a "
            f"divisibility or parity constraint — try a different worker "
            f"count or min_depth"
        )

    pruned = _Pruned(request=request, attempts=_attempts(request))
    for index, (scheme, width, depth, micro_batch) in enumerate(grid):
        options: dict[str, object] = {}
        if scheme_traits(scheme).cost_parameterized:
            options = _parameterized_options(
                request, scheme, width, depth, micro_batch
            )
        # The pipeline stays at its default here: the per-attempt
        # pipeline is passed explicitly, and the winning one rides beside
        # the config on the survivor.
        cfg = ExperimentConfig(
            scheme=scheme,
            machine=request.machine,
            workload=request.workload,
            width=width,
            depth=depth,
            micro_batch=micro_batch,
            mini_batch=request.mini_batch,
            memory_budget_bytes=request.memory_budget_bytes,
            host_memory_budget_bytes=request.host_memory_budget_bytes,
            options=options,
        )
        # Prune before building: a point whose weights plus one full
        # activation stash already overshoot the device fails every
        # attempt, so it waits for _closest instead of being built.
        floor = _device_floor(cfg)
        if floor is not None and exceeds(floor, cfg.capacity_bytes):
            pruned.skipped.append((floor - cfg.capacity_bytes, index, cfg))
            continue
        # Prune before ranking: the memory verdict needs no simulation, so
        # OOM candidates never pay the simulation cost.
        try:
            attempt, arts, report, fits = first_fit(cfg, pruned.attempts)
        except (ConfigurationError, ScheduleError):
            continue  # structurally invalid corner (e.g. N < 1)
        if not fits:
            rejected = _rejection(cfg, index, attempt, report)
            pruned.closest = _nearer(pruned.closest, rejected)
            continue
        pruned.survivors.append(_Survivor(cfg, attempt, report, arts))
    return pruned


def _device_floor(cfg: ExperimentConfig) -> float | None:
    """:func:`~repro.sim.memory.device_floor` of one grid point, or
    ``None`` when its placement is only known after building.

    A floor the process has already derived is a lookup
    (:func:`_placed_floor`); a memory model that cannot be hashed (a
    list field) is priced every time and never stored.
    """
    traits = scheme_traits(cfg.scheme)
    if traits.placement is None:
        return None
    model = calibrate_memory_model(
        cfg.machine,
        cfg.workload,
        depth=traits.stage_count(cfg.depth),
        micro_batch=cfg.micro_batch,
    )
    key = (cfg.scheme, traits.placement, cfg.depth, model, cfg.num_micro_batches())
    try:
        return _placed_floor(*key)
    except TypeError:  # unhashable model
        return _placed_floor.__wrapped__(*key)


@lru_cache(maxsize=CALIBRATION_CACHE_SIZE)
def _placed_floor(
    scheme: str,
    placement: Callable[[int], StagePlacement],
    depth: int,
    model: MemoryModel,
    num_micro_batches: int,
) -> float:
    """The floor of ``scheme`` on ``placement(depth)``, kept in an LRU as
    large as the calibration caches. The placement callable is part of
    the key, so a scheme re-registered with another placement never
    reads a stale floor."""
    return device_floor(scheme, placement(depth), model, num_micro_batches)


def _rejection(
    cfg: ExperimentConfig, index: int, attempt: PipelineParts, report: MemoryReport
) -> tuple[float, int, str]:
    """``(overshoot bytes, grid index, label)`` of a point no attempt fits,
    as its last attempt (``report``) misses the device or host budget."""
    overshoot = max(
        report.peak_bytes - cfg.capacity_bytes,
        report.host_peak_bytes - cfg.host_capacity_bytes,
    )
    return overshoot, index, config_label(cfg, attempt)


def _nearer(best, rejected):
    """The closer of two rejections; the earlier grid point on a tie."""
    return rejected if best is None or rejected[:2] < best[:2] else best


def _closest(pruned: _Pruned) -> tuple[float, int, str] | None:
    """The rejected candidate with the smallest overshoot (earliest on ties).

    Points the floor skipped build here, in ``(floor overshoot, grid
    index)`` order, only while one could still beat the best exact
    overshoot: a point's exact overshoot is never below its floor's.
    """
    best = pruned.closest
    for bound, index, cfg in sorted(pruned.skipped, key=lambda t: t[:2]):
        if best is not None and bound > best[0]:
            break
        try:
            attempt, _, report, _ = first_fit(cfg, pruned.attempts)
        except (ConfigurationError, ScheduleError):
            continue
        best = _nearer(best, _rejection(cfg, index, attempt, report))
    return best


def _finalize(pruned: _Pruned, entries: list[PlanEntry]) -> list[PlanEntry]:
    """Sort/truncate one request's entries, raising if nothing survived."""
    request = pruned.request
    if not entries:
        budget_gib = (
            min(request.machine.usable_memory_bytes, request.memory_budget_bytes)
            if request.memory_budget_bytes is not None
            else request.machine.usable_memory_bytes
        ) / 2**30
        closest = _closest(pruned)
        detail = (
            f"; closest candidate {closest[2]} overshoots by "
            f"{closest[0] / 2**30:.2f} GiB"
            if closest
            else ""
        )
        raise ConfigurationError(
            f"no micro-batch size fits the {budget_gib:.2f} GiB memory "
            f"budget for P={request.num_workers}, B̂={request.mini_batch} on "
            f"{request.machine.name}{detail} — raise the budget, add "
            f"workers, or allow deeper pipelines"
        )
    entries = rank_by_throughput(entries)
    if request.top_k is not None:
        entries = entries[: request.top_k]
    return entries


def run_steady(cfg: ExperimentConfig) -> ExperimentResult | None:
    """One async-scheme steady-state measurement, in a worker or in process.

    :func:`~repro.bench.harness.run_configuration`, except that a
    structurally invalid corner returns ``None`` (the planner drops the
    candidate); anything else propagates.
    """
    try:
        return run_configuration(cfg)
    except (ConfigurationError, ScheduleError):
        return None


def _rank(survivors: Sequence[_Survivor], *, max_workers: int) -> list[PlanEntry]:
    """Simulate one request's survivors; unsorted entries for :func:`_finalize`.

    Synchronous schemes rank through **one**
    :func:`repro.sim.kernel.simulate_batch_many` call: each survivor is a
    ``(kernel, cost model)`` row with its own shape — ``(scheme, D, N,
    recompute, pipeline)`` as well as ``(W, B)``/topology — and rows
    sharing a cached kernel
    (:meth:`~repro.schedules.cache.ScheduleArtifacts.kernel_for`)
    vectorize together. A row is calibrated from its kernel's stage count
    and reads nothing of the schedule, so an entry restored from the disk
    tier ranks without unpickling its schedule forms. The call passes
    the process-wide row memo (``_ROW_MEMO``), so a row an earlier
    request solved is read back instead of swept. The default lowered
    ranking models link contention; the kernel computes per-channel FIFO
    serialization itself, so contended rows stay on the array path and
    nothing falls back to per-model event simulation.
    Asynchronous schemes keep the steady-state measurement of
    :func:`~repro.bench.harness.run_configuration` (their throughput is a
    marginal rate between two window sizes, not one iteration time),
    fanned out over the shared default **process pool** sized
    ``max_workers``: the measurements are CPU-bound, so a thread pool
    would buy no speedup under the GIL. A single measurement — or
    ``max_workers == 1``, which is how a pool worker plans its shard —
    stays sequential.
    """
    synchronous = [scheme_traits(s.cfg.scheme).synchronous for s in survivors]
    rows = []
    steady_cfgs = []
    for survivor, sync in zip(survivors, synchronous):
        cfg, pipeline = survivor.cfg, survivor.attempt.pipeline()
        if not sync:
            steady_cfgs.append(replace(cfg, pipeline=pipeline))
            continue
        kernel = survivor.arts.kernel_for(pipeline)
        model = calibrate_cost_model(
            cfg.machine,
            cfg.workload,
            depth=kernel.num_stages,
            micro_batch=cfg.micro_batch,
            data_parallel_width=cfg.width,
        )
        rows.append((kernel, model))
    if rows:
        batch = simulate_batch_many(rows, memo=_ROW_MEMO)
    if len(steady_cfgs) > 1 and max_workers > 1:
        from repro.perf.workers import get_default_pool

        steady_pool = get_default_pool(max_workers)
        futures = [steady_pool.submit_steady(cfg) for cfg in steady_cfgs]
        steady = [future.result() for future in futures]
    else:
        steady = [run_steady(cfg) for cfg in steady_cfgs]

    rows_left, steady_left = iter(range(len(rows))), iter(steady)
    entries: list[PlanEntry] = []
    for survivor, sync in zip(survivors, synchronous):
        cfg, attempt, report = survivor.cfg, survivor.attempt, survivor.report
        if sync:
            k = next(rows_left)
            iteration_time = float(batch.iteration_time[k])
            throughput = batch.throughput(
                k, micro_batch=cfg.micro_batch, width=cfg.width
            )
            bubble = batch.bubble_ratio(k)
        else:
            # The measurement re-runs the survivor's memory fit under its
            # winning attempt, so only its timings are new here.
            result = next(steady_left)
            if result is None:
                continue
            iteration_time, throughput = result.iteration_time, result.throughput
            bubble = result.bubble_ratio
        entries.append(
            PlanEntry(
                scheme=cfg.scheme,
                width=cfg.width,
                depth=cfg.depth,
                micro_batch=cfg.micro_batch,
                num_micro_batches=cfg.num_micro_batches(),
                recompute=attempt.recompute,
                iteration_time=iteration_time,
                throughput=throughput,
                bubble_ratio=bubble,
                peak_memory_bytes=report.peak_bytes,
                pipeline=attempt.pipeline(),
                host_peak_memory_bytes=report.host_peak_bytes,
            )
        )
    return entries


# --------------------------------------------------------------------------
# The paper's Chimera-specific §3.4 procedure (Figure 13), formerly
# repro.perf.selector — kept verbatim because Figure 13 reproduces the
# *paper's* greedy strategy, not the scheme-agnostic search above.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfigCandidate:
    """One (W, D, B) candidate with its model-predicted iteration time."""

    width: int
    depth: int
    micro_batch: int
    num_micro_batches: int
    recompute: bool
    predicted_time: float
    predicted_throughput: float

    def label(self) -> str:
        r = ", R" if self.recompute else ""
        return f"W={self.width}, D={self.depth}, B={self.micro_batch}{r}"


def greedy_micro_batch(
    machine: MachineSpec,
    workload: TransformerSpec,
    *,
    width: int,
    depth: int,
    mini_batch: int,
) -> tuple[int, bool] | None:
    """Largest power-of-two ``B`` up to :data:`DEFAULT_MAX_MICRO_BATCH` that
    fits memory, preferring no recompute.

    The greedy half of the paper's §3.4 procedure: Chimera's bubbles are
    few enough that the largest fitting micro-batch wins outright.
    Each ``B`` tries the plain schedule, then recomputation, through
    :func:`~repro.bench.harness.first_fit` and the schedule cache.
    Returns ``(B, recompute)`` or ``None`` if nothing fits (even ``B = 1``
    with recomputation).
    """
    attempts = tuple(
        map(split_pipeline, attempt_pipelines(None, recompute=None, offload=False))
    )
    best: tuple[int, bool] | None = None
    b = 1
    while b <= DEFAULT_MAX_MICRO_BATCH and width * b <= mini_batch:
        if mini_batch % (width * b) == 0:
            cfg = ExperimentConfig(
                scheme="chimera",
                machine=machine,
                workload=workload,
                width=width,
                depth=depth,
                micro_batch=b,
                mini_batch=mini_batch,
            )
            attempt, _, _, fits = first_fit(cfg, attempts)
            if fits:
                best = (b, attempt.recompute)
        b *= 2
    return best


def select_configuration(
    machine: MachineSpec,
    workload: TransformerSpec,
    *,
    num_workers: int,
    mini_batch: int,
) -> list[ConfigCandidate]:
    """Rank all valid Chimera (W, D) factorizations by the §3.4 model.

    Valid depths are even (bidirectional merge), at least 2, divide both
    ``P`` and the workload's layer count, and admit at least one
    micro-batch per pipeline group. For the scheme-agnostic search use
    :func:`plan_configurations`.
    """
    from repro.perf.model import predict_iteration_time

    if num_workers < 2:
        raise ConfigurationError("need at least two workers for a pipeline")
    candidates: list[ConfigCandidate] = []
    max_depth = min(num_workers, workload.num_layers)  # deeper never divides
    for depth in range(2, max_depth + 1, 2):
        if num_workers % depth or workload.num_layers % depth:
            continue
        width = num_workers // depth
        picked = greedy_micro_batch(
            machine, workload, width=width, depth=depth, mini_batch=mini_batch
        )
        if picked is None:
            continue
        micro_batch, recompute = picked
        n = mini_batch // (width * micro_batch)
        cost_model = calibrate_cost_model(
            machine,
            workload,
            depth=depth,
            micro_batch=micro_batch,
            data_parallel_width=width,
        )
        prediction = predict_iteration_time(
            depth, n, cost_model, recompute=recompute
        )
        candidates.append(
            ConfigCandidate(
                width=width,
                depth=depth,
                micro_batch=micro_batch,
                num_micro_batches=n,
                recompute=recompute,
                predicted_time=prediction.iteration_time,
                predicted_throughput=mini_batch / prediction.iteration_time,
            )
        )
    if not candidates:
        raise ConfigurationError(
            f"no feasible (W, D, B) configuration for P={num_workers}, "
            f"B̂={mini_batch} on {machine.name}"
        )
    candidates.sort(key=lambda c: c.predicted_time)
    return candidates


def format_plan(entries: Sequence[PlanEntry]) -> str:
    """Render a ranked plan as the standard plain-text table."""
    body = [
        [
            i,
            e.label(),
            f"N={e.num_micro_batches}",
            f"{e.throughput:.1f}",
            f"{e.bubble_ratio * 100:.1f}%",
            f"{e.peak_memory_bytes / 2**30:.2f}",
        ]
        for i, e in enumerate(entries, 1)
    ]
    return format_table(
        body,
        headers=["rank", "configuration", "micro-batches", "seq/s", "bubble", "peak GiB"],
    )
