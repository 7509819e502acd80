"""Experiment harness: run one (scheme, machine, workload, W, D, B) point.

``run_configuration`` reproduces the paper's experimental procedure:

1. split the ``P = W * D`` workers into ``W`` pipeline groups of depth ``D``;
2. derive ``N = B̂ / (W * B)`` micro-batches per group per iteration;
3. check the memory model against the device capacity — or a tighter
   explicit ``memory_budget_bytes`` — and if the configuration does not
   fit, retry with activation recomputation (the paper's ``R``
   annotation), reporting OOM if even that fails;
4. build the scheme's schedule, simulate it under the calibrated cost
   model, and report throughput / bubble ratio / memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TypeVar

from repro.common.errors import ConfigurationError, ScheduleError
from repro.bench.machines import MachineSpec
from repro.bench.workloads import TransformerSpec
from repro.perf.calibration import calibrate_cost_model, calibrate_memory_model
from repro.schedules.cache import ScheduleArtifacts, schedule_artifacts
from repro.schedules.passes.pipeline import (
    PipelineParts,
    attempt_pipelines,
    normalize_pipeline,
    split_pipeline,
)
from repro.sim.kernel import simulate_fast
from repro.sim.memory import MemoryReport, analyze_memory
from repro.sim.metrics import bubble_ratio, throughput_samples_per_sec


@dataclass(frozen=True)
class ExperimentConfig:
    """One point in a performance sweep."""

    scheme: str
    machine: MachineSpec
    workload: TransformerSpec
    width: int  # W — replicated pipelines
    depth: int  # D — pipeline stages
    micro_batch: int  # B
    mini_batch: int  # B̂
    #: The recompute planning *axis*: ``None`` = auto (use recomputation
    #: only if needed to fit memory — the paper's retry-with-``R``
    #: procedure), ``False`` = never, ``True`` = always. Naming
    #: ``recompute`` in ``pipeline`` pins it on.
    recompute: bool | None = None
    #: Optional per-device peak-memory budget in bytes. The memory check
    #: uses ``min(machine.usable_memory_bytes, memory_budget_bytes)`` — a
    #: budget tighter than the device models a reservation (leaving room
    #: for KV caches, fragmentation slack, a co-located service); a looser
    #: one is clamped to the hardware. ``None`` means the device capacity.
    memory_budget_bytes: float | None = None
    #: The base schedule transforms on top of the scheme's defaults: an
    #: ordered pipeline spec (comma string or sequence of pass names,
    #: validated against the pass registry; see
    #: :mod:`repro.schedules.passes.pipeline`), e.g. ``"offload,lower_p2p"``.
    #: The recompute axis composes on top (see
    #: :func:`~repro.schedules.passes.pipeline.attempt_pipelines`); offload
    #: is on exactly when the pipeline names it.
    pipeline: str | tuple[str, ...] = ()
    #: Host-tier (CPU RAM) budget for offloaded stashes; the check uses
    #: ``min(machine.host_memory_bytes, host_memory_budget_bytes)``.
    #: ``None`` means the machine's host capacity.
    host_memory_budget_bytes: float | None = None
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Spelled ``not (budget > 0)`` so that a NaN budget fails too.
        if self.memory_budget_bytes is not None and not (
            self.memory_budget_bytes > 0
        ):
            raise ConfigurationError(
                f"memory budget must be positive, got {self.memory_budget_bytes}"
            )
        if self.host_memory_budget_bytes is not None and not (
            self.host_memory_budget_bytes > 0
        ):
            raise ConfigurationError(
                f"host memory budget must be positive, got "
                f"{self.host_memory_budget_bytes}"
            )
        object.__setattr__(self, "pipeline", normalize_pipeline(self.pipeline))
        # Only recompute=False can contradict the pipeline: the rule raises.
        if self.recompute is False:
            attempt_pipelines(self.pipeline, recompute=False, offload=None)

    @property
    def num_workers(self) -> int:
        return self.width * self.depth

    @property
    def capacity_bytes(self) -> float:
        """Effective per-device byte budget the configuration must fit."""
        capacity = self.machine.usable_memory_bytes
        if self.memory_budget_bytes is not None:
            capacity = min(capacity, self.memory_budget_bytes)
        return capacity

    @property
    def host_capacity_bytes(self) -> float:
        """Effective host-tier byte budget for offloaded stashes."""
        capacity = self.machine.host_memory_bytes
        if self.host_memory_budget_bytes is not None:
            capacity = min(capacity, self.host_memory_budget_bytes)
        return capacity

    def num_micro_batches(self) -> int:
        denom = self.width * self.micro_batch
        if self.mini_batch % denom:
            raise ConfigurationError(
                f"mini-batch {self.mini_batch} not divisible by W*B={denom}"
            )
        n = self.mini_batch // denom
        if n < 1:
            raise ConfigurationError(
                f"mini-batch {self.mini_batch} too small for W={self.width}, "
                f"B={self.micro_batch}"
            )
        return n

    def describe(self) -> str:
        return (
            f"{self.scheme}(W={self.width}, D={self.depth}, B={self.micro_batch}, "
            f"B̂={self.mini_batch})"
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Simulated outcome of one configuration."""

    config: ExperimentConfig
    num_micro_batches: int
    recompute: bool
    oom: bool
    iteration_time: float
    throughput: float  # sequences / second
    bubble_ratio: float
    peak_memory_bytes: float
    min_memory_bytes: float
    #: The canonical pipeline the result was simulated under (the winning
    #: memory-fit attempt, including the recompute axis outcome).
    pipeline: tuple[str, ...] = ()
    #: Host-tier peak of offloaded stashes (0 without the offload pass).
    host_peak_memory_bytes: float = 0.0

    @property
    def fits(self) -> bool:
        return not self.oom

    def label(self) -> str:
        return config_label(self.config, split_pipeline(self.pipeline))


def config_label(cfg: ExperimentConfig, parts: PipelineParts) -> str:
    """``scheme(W=, D=, B=[, R][, O])`` — the shared result/plan label.

    ``cfg`` is anything with ``scheme``, ``width``, ``depth`` and
    ``micro_batch`` attributes: a config, or a planner's ``PlanEntry``;
    ``parts`` is the pipeline it ran (or failed) under.
    """
    r = ", R" if parts.recompute else ""
    o = ", O" if parts.offload else ""
    return (
        f"{cfg.scheme}(W={cfg.width}, D={cfg.depth}, B={cfg.micro_batch}{r}{o})"
    )


def _invocation(
    cfg: ExperimentConfig, parts: PipelineParts
) -> tuple[str, int, int, dict[str, object]]:
    """``(scheme, D, N, options)``: the schedule-cache invocation of one
    attempt, shared by :func:`config_artifacts` and the steady-state
    measurement."""
    options = {**parts.build_options(), **dict(cfg.options)}
    return cfg.scheme, cfg.depth, cfg.num_micro_batches(), options


def config_artifacts(
    cfg: ExperimentConfig, parts: PipelineParts
) -> ScheduleArtifacts:
    """The memoized schedule artifacts for one pipeline attempt.

    Every harness path funnels through the process-wide schedule cache
    (:mod:`repro.schedules.cache`): planner grids and experiment sweeps
    that revisit the same ``(scheme, D, N, pipeline)`` point — which is
    most of them, since ``W`` and ``B`` only change the cost model —
    reuse the schedule, its dependency graph, and the lowered forms.
    Only the pre-lowering part (``parts.base``) keys the entry; lowering
    and fusion are the cached derived forms of
    :meth:`~repro.schedules.cache.ScheduleArtifacts.schedule_for`.
    """
    scheme, depth, n, options = _invocation(cfg, parts)
    return schedule_artifacts(scheme, depth, n, **options)


def memory_report(
    cfg: ExperimentConfig, parts: PipelineParts
) -> tuple[ScheduleArtifacts, MemoryReport]:
    """Analyze the memory of ``cfg``'s schedule under one attempt pipeline.

    Returns ``(artifacts, MemoryReport)`` with no simulation. The memory
    model is calibrated per the entry's memory profile's stage count
    (ZB-V splits the model into 2D chunks over D workers, so each chunk
    is half a stage), so an entry restored from the disk tier never
    unpickles a schedule form. ``analyze_memory`` memoizes the report on
    the entry's profile, so a repeated fit is a lookup.
    """
    arts = config_artifacts(cfg, parts)
    profile = arts.memory_profile()
    memory_model = calibrate_memory_model(
        cfg.machine,
        cfg.workload,
        depth=profile.num_stages,
        micro_batch=cfg.micro_batch,
    )
    return arts, analyze_memory(profile, memory_model)


def first_fit(
    cfg: ExperimentConfig, attempts: Sequence[PipelineParts]
) -> tuple[PipelineParts, ScheduleArtifacts, MemoryReport, bool]:
    """The paper's retry-with-``R`` rule: the first attempt that fits.

    Tries each attempt pipeline (as split by the caller, once per
    request or configuration) in order against ``cfg``'s device and
    host budgets through :func:`memory_report`, and returns ``(attempt,
    artifacts, report, fits)`` for the first one that fits, else for the
    last one tried. Every memory-fit decision in the stack runs here:
    :func:`run_configuration`, the planner's pruning and the §3.4
    selector's micro-batch choice.
    """
    for attempt in attempts:
        arts, rep = memory_report(cfg, attempt)
        if rep.fits(cfg.capacity_bytes, cfg.host_capacity_bytes):
            return attempt, arts, rep, True
    return attempt, arts, rep, False


def run_configuration(cfg: ExperimentConfig) -> ExperimentResult:
    """Simulate one configuration end to end (see module docstring)."""
    n = cfg.num_micro_batches()
    offload = split_pipeline(cfg.pipeline).offload  # on exactly when named
    attempts = attempt_pipelines(cfg.pipeline, recompute=cfg.recompute, offload=offload)
    used, arts, report, fits = first_fit(cfg, tuple(map(split_pipeline, attempts)))
    pipeline = used.pipeline()
    schedule = arts.schedule_for(pipeline)
    cost_model = calibrate_cost_model(
        cfg.machine,
        cfg.workload,
        depth=schedule.num_stages,
        micro_batch=cfg.micro_batch,
        data_parallel_width=cfg.width,
    )
    # PipeDream's per-micro-batch synchronization sits on the critical path
    # (the immediately following update feeds the next forward), so its
    # collectives block; all other schemes launch non-blocking (§3.2).
    # ``simulate_fast`` runs on the array kernel for every model: one sweep
    # when contention-free, the fixed-point relaxation otherwise.
    result = simulate_fast(
        schedule,
        cost_model,
        kernel=arts.kernel_for(pipeline),
        blocking_sync=(cfg.scheme == "pipedream"),
    )
    if schedule.synchronous:
        throughput = throughput_samples_per_sec(
            result, micro_batch_size=cfg.micro_batch, data_parallel_width=cfg.width
        )
    else:
        # Flush-free schemes (PipeDream family) run a continuous steady
        # state; a single cold window would unfairly charge them the
        # pipeline fill. Measure the marginal rate between two window sizes.
        throughput = _steady_state_throughput(cfg, used, cost_model)
    return ExperimentResult(
        config=cfg,
        num_micro_batches=n,
        recompute=used.recompute,
        oom=not fits,
        iteration_time=result.iteration_time,
        throughput=throughput if fits else 0.0,
        bubble_ratio=bubble_ratio(result),
        peak_memory_bytes=report.peak_bytes,
        min_memory_bytes=report.min_bytes,
        pipeline=pipeline,
        host_peak_memory_bytes=report.host_peak_bytes,
    )


#: Fraction of an asynchronous scheme's per-window gradient synchronization
#: that the next window's compute can actually hide (with a CPU-driven
#: backend, overlap is partial — the paper observes PipeDream-2BW "may not
#: have enough computation to fully overlap the gradient synchronization").
ASYNC_SYNC_OVERLAP = 0.5


def _steady_state_throughput(
    cfg: ExperimentConfig, parts: PipelineParts, cost_model
) -> float:
    """Samples/second of an asynchronous scheme's steady state.

    The per-micro-batch compute rate comes from the *marginal* cost between
    two window sizes (a flush-free scheme never pays the pipeline fill
    again); PipeDream's blocking per-micro-batch collectives are part of
    that margin, while PipeDream-2BW additionally pays the non-overlapped
    residue of its once-per-window gradient synchronization.
    """
    pipeline = parts.pipeline()
    options = _invocation(cfg, parts)[3]
    n1 = 2 * cfg.depth
    n2 = 4 * cfg.depth
    sims = []
    for n in (n1, n2):
        arts = schedule_artifacts(cfg.scheme, cfg.depth, n, **options)
        sims.append(
            simulate_fast(
                arts.schedule_for(pipeline),
                cost_model,
                kernel=arts.kernel_for(pipeline),
                blocking_sync=(cfg.scheme == "pipedream"),
            )
        )
    if cfg.scheme == "pipedream":
        delta = sims[1].iteration_time - sims[0].iteration_time
        if delta <= 0:
            return float("inf")
        return (n2 - n1) * cfg.micro_batch * cfg.width / delta

    marginal = (sims[1].compute_makespan - sims[0].compute_makespan) / (n2 - n1)
    if marginal <= 0:
        return float("inf")
    n_window = cfg.num_micro_batches()
    sync_per_worker = [0.0] * cfg.depth
    for record in sims[0].collectives:
        for w in record.workers:
            sync_per_worker[w] += record.cost
    residue = (1.0 - ASYNC_SYNC_OVERLAP) * max(sync_per_worker, default=0.0)
    period = n_window * marginal + residue
    return n_window * cfg.micro_batch * cfg.width / period


def sweep(configs: Iterable[ExperimentConfig]) -> list[ExperimentResult]:
    """Run a set of configurations, skipping structurally invalid ones."""
    results: list[ExperimentResult] = []
    for cfg in configs:
        try:
            results.append(run_configuration(cfg))
        except (ConfigurationError, ScheduleError):
            continue
    return results


#: Throughputs within this relative distance of a tie cluster's leader
#: rank as tied. Backends and summation orders drift by a few ulps
#: (about 1e-16 relative), far below any real difference between
#: configurations.
TIE_RTOL = 1e-9

_Ranked = TypeVar("_Ranked")


def rank_by_throughput(items: Sequence[_Ranked]) -> list[_Ranked]:
    """Order results or plan entries by throughput, best first.

    Immune to float ties: adjacent items within :data:`TIE_RTOL` of
    their cluster's leader (its fastest item) form one cluster, ordered
    by ``label()``, so 1-ulp drift in a throughput never swaps two
    configurations.
    """
    by_speed = sorted(items, key=lambda r: -r.throughput)
    ranked: list[_Ranked] = []
    cluster: list[_Ranked] = []
    for item in by_speed:
        if cluster and (
            cluster[0].throughput - item.throughput
            > TIE_RTOL * cluster[0].throughput
        ):
            ranked.extend(_by_label(cluster))
            cluster = []
        cluster.append(item)
    ranked.extend(_by_label(cluster))
    return ranked


def _by_label(cluster: list[_Ranked]) -> list[_Ranked]:
    """A tie cluster in label order. A lone item is returned as is:
    ``label()`` is not free for a plan entry."""
    if len(cluster) < 2:
        return cluster
    return sorted(cluster, key=lambda r: r.label())


def best_result(results: Sequence[ExperimentResult]) -> ExperimentResult | None:
    """Highest-throughput non-OOM result (near-ties by label), or None."""
    ranked = rank_by_throughput([r for r in results if not r.oom])
    return ranked[0] if ranked else None


def format_table(
    rows: Sequence[Sequence[object]], headers: Sequence[str]
) -> str:
    """Plain-text table used by every experiment driver."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.3f}"
    return str(cell)
