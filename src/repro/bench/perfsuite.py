"""The ``repro bench`` performance suite and its CI regression gate.

Simulation throughput is the quantity every planner sweep and experiment
grid stands on, so it is measured — not assumed. This module runs a fixed
suite (every registered scheme × pipeline depths {8, 16, 32} × {implicit,
lowered, fused, contended, contended_fused}) three ways per case:

* the PR-2 **event**-queue engine (:func:`repro.sim.engine.simulate`),
* the array-kernel **fast** path (:func:`repro.sim.kernel.simulate_fast`),
* the **batch** API (:func:`repro.sim.kernel.simulate_batch`, several cost
  models amortized over one cached dense schedule),

checks that all three report identical makespans to 1e-9 (the kernel is
engine-exact in *every* regime — there is no event-engine fallback), and
emits a schema-versioned ``BENCH_<rev>.json`` with wall times, ops/sec,
and makespan checksums. The ``fused`` mode runs the lowered schedule
through the fuse_comm pass (each SEND/RECV pair batched into one
transfer): the suite asserts its makespan equals the lowered case's to
1e-9 for every (scheme, depth) — the pass's timing-neutrality contract on
contention-free links — while the event engine processes roughly a third
fewer ops, which ``summary["d16_fused_event_speedup_min"]`` quantifies
(lowered event wall time over fused event wall time, per scheme at
D=16).

The ``contended`` and ``contended_fused`` modes (schema 3) run the
lowered/fused schedules under :func:`contended_suite_model` — nonzero
``beta`` with a large message size, so every transfer occupies its
channel for ``beta * L`` seconds and per-channel FIFO queueing genuinely
fires. These exercise the kernel's contended paths (inline FIFO
serialization on full-duplex links; the fixed-point relaxation for
half-duplex/blocking is covered by the test battery) and gate the
headline claim: batched kernel throughput at least
:data:`CONTENDED_BATCH_SPEEDUP_FLOOR` × the event engine on lowered
contended schedules at the D=16, N=64 reference point
(``summary["d16_contended_batch_speedup_min"]``).

The ``offload`` section (schema 6) times offloaded schedules — the
activation-offload pass's OFFLOAD/RELOAD ops moving stash bytes over
per-worker host channels — under :func:`offload_suite_model`, whose copy
occupancy makes the host FIFOs genuinely queue. Engine/kernel parity is
asserted per case and the section is **gated** like the engine cases:
exact makespans, normalized throughput within tolerance.

The suite times simulators only. Planning and ``/plan`` serving are
measured end to end, from fresh processes and with a per-layer trace, by
the ``benchmarks/e2e`` workloads (``plan_cold``, ``plan_warm``,
``serve_hot``).

Regression gating
-----------------
:func:`check_against` compares a fresh run to a committed baseline
(``benchmarks/baseline.json``) and reports violations for

* any makespan difference beyond 1e-9 (correctness — deterministic, zero
  tolerance),
* any case whose throughput fell more than ``tolerance`` (default 20%)
  below the baseline.

Raw ops/sec depends on the host, so the throughput gate compares
*normalized* scores: each measurement is divided by a calibration score —
the throughput of a fixed pure-Python relaxation-shaped loop timed in the
same process — which cancels machine speed to first order. Raw numbers
are recorded alongside for inspection. A synthetic slowdown can be
injected (``--inject-slowdown`` / ``REPRO_BENCH_INJECT_SLOWDOWN``) to
scale the measured wall times without touching the calibration; CI uses
it to prove the gate actually fails on a 25% regression.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.common.errors import ScheduleError
from repro.common.gcpause import collector_paused
from repro.bench.harness import format_table
from repro.schedules.cache import schedule_artifacts
from repro.schedules.registry import available_schemes, scheme_traits
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.kernel import (
    fast_path_supported,
    kernel_of,
    simulate_batch,
    simulate_fast,
)
from repro.sim.network import FlatTopology, HostChannel, LinkSpec

#: Bumped whenever the JSON layout or the suite contents change; the
#: checker refuses to compare across versions. 2: added the ``fused``
#: mode cases and the fused-speedup summary keys. 3: added the
#: ``contended``/``contended_fused`` modes (nonzero-beta cost model) and
#: the contended-speedup summary keys with their absolute floor. 4: added
#: the planner load-harness section and the non-gating
#: ``schedule_cache`` metadata block. 5: added the
#: non-gating ``synthesize`` section (search-vs-built-ins comparison);
#: the engine case grid is unchanged (cost-parameterized schemes are
#: excluded from it by construction), so a v4 baseline stays valid after
#: bumping its ``schema_version`` field alone. 6: added the **gated**
#: ``offload`` section — offloaded (and offloaded+lowered) schedules
#: timed under the host-channel model, engine/kernel parity asserted and
#: normalized throughput regression-gated like the engine cases. 7: the
#: planner section gained multiprocess and coalescing phases. 8: dropped
#: the planner section and its ``planner_*`` summary keys — planning and
#: serving are measured end to end by the ``benchmarks/e2e`` workloads;
#: the engine and offload grids are unchanged, so a v7 baseline stays
#: valid after deleting the section and bumping ``schema_version``.
SCHEMA_VERSION = 8

#: Full-suite grid: every registered scheme at these depths, N=64 — the
#: acceptance grid of the array kernel (D=16, N=64 is the reference point).
SUITE_DEPTHS = (8, 16, 32)
SUITE_MICRO_BATCHES = 64
#: Fast-suite grid used by tests and smoke runs.
FAST_DEPTHS = (8,)
FAST_MICRO_BATCHES = 16

MODES = ("implicit", "lowered", "fused", "contended", "contended_fused")

#: The pipeline whose schedule form each mode simulates.
MODE_PIPELINES = {
    "implicit": (),
    "lowered": ("lower_p2p",),
    "fused": ("lower_p2p", "fuse_comm"),
    "contended": ("lower_p2p",),
    "contended_fused": ("lower_p2p", "fuse_comm"),
    "offload": (),
    "offload_lowered": ("lower_p2p",),
}

#: Modes evaluated under the contended (nonzero-beta) cost model.
CONTENDED_MODES = ("contended", "contended_fused")

#: Absolute floor on ``d16_contended_batch_speedup_min``: the batched
#: kernel must beat the event engine by at least this factor on lowered
#: contended schedules at D=16, N=64. A ratio of two wall times on the
#: same host, so it needs no calibration; the checker enforces it on the
#: current run directly.
CONTENDED_BATCH_SPEEDUP_FLOOR = 5.0

#: Absolute floor on ``d16_batch_speedup_min``: the batched kernel must
#: beat the event engine by at least this factor on every D=16, N=64
#: case, in every mode. Checked like the contended floor.
BATCH_SPEEDUP_FLOOR = 3.0

#: Cost models evaluated by the batch-path measurement: the base model
#: plus f/b/w variations, so each batch row exercises a distinct duration
#: table against the shared dense schedule.
BATCH_VARIANTS = 8

#: Grid of the gated ``offload`` section (schema 6): offloaded schedules
#: of these schemes, with and without explicit lowering, timed under
#: :func:`offload_suite_model`. A deliberate spread — linear-stash
#: (gpipe), 1F1B (dapple), bidirectional (chimera) — at the engine
#: grid's reference depths.
OFFLOAD_SCHEMES = ("gpipe", "dapple", "chimera")
OFFLOAD_DEPTHS = (8, 16)
OFFLOAD_FAST_DEPTHS = (8,)
OFFLOAD_MODES = ("offload", "offload_lowered")

#: Grid points of the non-gating ``synthesize`` section: (depth, N).
SYNTHESIZE_POINTS = ((4, 16), (8, 16))
SYNTHESIZE_FAST_POINTS = ((4, 8),)
#: Split-backward costs the section synthesizes under — deliberately
#: asymmetric (b != w) so the search has something the hand-written
#: recipes were not tuned for.
SYNTHESIZE_COSTS = (1.0, 1.1, 0.9, 0.05)  # (f, b, w, comm)

#: Makespan agreement required between the engines, and between a run and
#: its baseline.
MAKESPAN_ATOL = 1e-9

#: Default allowed relative throughput drop before the gate fails.
DEFAULT_TOLERANCE = 0.20

_INJECT_ENV = "REPRO_BENCH_INJECT_SLOWDOWN"


@dataclass(frozen=True)
class BenchCase:
    """One suite point: a scheme at a depth, implicit or lowered."""

    scheme: str
    depth: int
    num_micro_batches: int
    mode: str  # "implicit" | "lowered"

    @property
    def case_id(self) -> str:
        return f"{self.scheme}/D{self.depth}/N{self.num_micro_batches}/{self.mode}"


def suite_cases(
    *,
    fast: bool = False,
    depths: Sequence[int] | None = None,
    schemes: Sequence[str] | None = None,
) -> list[BenchCase]:
    """The suite grid (full by default, reduced with ``fast=True``)."""
    if depths is None:
        depths = FAST_DEPTHS if fast else SUITE_DEPTHS
    n = FAST_MICRO_BATCHES if fast else SUITE_MICRO_BATCHES
    if schemes is None:
        # Cost-parameterized builders (synthesize) have no single schedule
        # per (scheme, D, N), so they cannot be engine-suite cases; they
        # get their own non-gating section (run_synthesize_block).
        schemes = tuple(
            s for s in available_schemes() if not scheme_traits(s).cost_parameterized
        )
    return [
        BenchCase(scheme, depth, n, mode)
        for scheme in schemes
        for depth in depths
        for mode in MODES
    ]


def suite_cost_model() -> CostModel:
    """The fixed, contention-free suite model (beta=0: no queueing)."""
    return CostModel(
        forward_time=1.0,
        topology=FlatTopology(LinkSpec(alpha=0.05, beta=0.0)),
        activation_message_bytes=1.0,
        stage_grad_bytes=10.0,
        data_parallel_width=2,
    )


def offload_suite_model() -> CostModel:
    """The fixed host-channel suite model: heavy per-worker copy occupancy.

    ``beta * offload_message_bytes = 2.0`` — each stash copy holds its
    worker's host channel for twice a forward step, so consecutive
    offloads (and the matching reloads) genuinely queue on the PCIe FIFO
    and the kernel's host-channel serialization is load-bearing. The
    network side stays the contention-free suite model: what this section
    times is the host tier, not the wire.
    """
    return suite_cost_model().with_(
        host_channel=HostChannel(LinkSpec(alpha=0.05, beta=0.25)),
        offload_message_bytes=8.0,
    )


def contended_suite_model() -> CostModel:
    """The fixed contended suite model: heavy per-channel occupancy.

    ``beta * activation_message_bytes = 2.0`` — each transfer holds its
    channel for twice a forward step, so back-to-back sends on one link
    genuinely queue and the kernel's FIFO serialization is load-bearing,
    not a no-op.
    """
    return suite_cost_model().with_(
        topology=FlatTopology(LinkSpec(alpha=0.05, beta=0.25)),
        activation_message_bytes=8.0,
    )


def batch_cost_models(
    count: int = BATCH_VARIANTS, *, base: CostModel | None = None
) -> list[CostModel]:
    """``count`` model variants; index 0 is the base (suite) model."""
    if base is None:
        base = suite_cost_model()
    models = [base]
    for i in range(1, count):
        models.append(
            base.with_(
                forward_time=1.0 + 0.05 * i,
                backward_ratio=2.0 - 0.07 * i,
                sync_launch_overhead=0.01 * i,
            )
        )
    return models


def calibration_score(*, repeats: int = 3) -> float:
    """Machine-speed proxy: steps/second of a fixed relaxation-shaped loop.

    Deliberately independent of the library under test (a regression in
    the simulator must not slow the yardstick down with it): a pure-Python
    loop over preallocated lists with the same max/add/index mix as the
    kernel's scalar pass.
    """
    steps = 200_000
    src = [(i * 7919) % 1000 for i in range(1000)]
    best = float("inf")
    for _ in range(repeats):
        end = [0.0] * 1000
        t0 = time.perf_counter()
        for i in range(steps):
            j = i % 1000
            t = end[src[j]] + 1.5
            if t > end[j]:
                end[j] = t
        best = min(best, time.perf_counter() - t0)
    return steps / best


def _best_wall(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """(best wall seconds, last result) over ``repeats`` timed calls.

    Garbage collection is paused around the timed calls — a cycle sweep
    landing inside one repetition would otherwise dominate the measurement
    and fire the regression gate on noise.
    """
    if repeats < 1:
        # repeats=0 would leave `best` at inf -> ops/sec 0.0 and NaN
        # speedups; committed as a baseline, that gate could never fail.
        raise ValueError(f"timing repeats must be >= 1, got {repeats}")
    result = fn()  # warm-up: dense/kernel caches build here, untimed
    best = float("inf")
    with collector_paused():
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    return best, result


def current_revision() -> str:
    """Short git revision of the working tree, or ``"local"``."""
    env = os.environ.get("REPRO_BENCH_REV")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
        )
    except OSError:  # pragma: no cover - git missing entirely
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def _resolve_slowdown(inject_slowdown: float | None) -> float:
    if inject_slowdown is not None:
        return inject_slowdown
    return float(os.environ.get(_INJECT_ENV, "1.0"))


def run_case(
    case: BenchCase,
    *,
    repeats: int = 3,
    batch_size: int = BATCH_VARIANTS,
    slowdown: float = 1.0,
) -> dict:
    """Measure one case three ways and verify engine/kernel parity."""
    arts = schedule_artifacts(case.scheme, case.depth, case.num_micro_batches)
    contended = case.mode in CONTENDED_MODES
    schedule = arts.schedule_for(MODE_PIPELINES[case.mode])
    graph = arts.graph_for(MODE_PIPELINES[case.mode])
    kernel = kernel_of(graph)
    base = contended_suite_model() if contended else suite_cost_model()
    # fast_path_supported is a telemetry hint, not a gate: True means the
    # single-sweep vectorized pass, False means the contended handling.
    # Either way the case runs on the kernel; assert the hint matches the
    # regime so a routing regression fails loudly here.
    hint = fast_path_supported(schedule, base, kernel=kernel)
    if hint == contended:
        raise ScheduleError(
            f"kernel path hint mismatch on {case.case_id}: expected "
            f"{'contended' if contended else 'single-sweep'} routing"
        )
    models = batch_cost_models(batch_size, base=base)

    event_wall, event = _best_wall(
        lambda: simulate(schedule, base, graph=graph), repeats
    )
    fast_wall, fast = _best_wall(
        lambda: simulate_fast(schedule, base, kernel=kernel), repeats
    )
    batch_wall, batch = _best_wall(
        lambda: simulate_batch(schedule, models, kernel=kernel), repeats
    )

    mk_fast = abs(event.compute_makespan - fast.compute_makespan)
    it_fast = abs(event.iteration_time - fast.iteration_time)
    mk_batch = abs(event.compute_makespan - float(batch.compute_makespan[0]))
    it_batch = abs(event.iteration_time - float(batch.iteration_time[0]))
    worst = max(mk_fast, it_fast, mk_batch, it_batch)
    if worst > MAKESPAN_ATOL:
        raise ScheduleError(
            f"engine/kernel makespan divergence on {case.case_id}: "
            f"{worst:.3e} exceeds {MAKESPAN_ATOL:.0e}"
        )

    event_wall *= slowdown
    fast_wall *= slowdown
    batch_wall *= slowdown
    batch_per_model = batch_wall / len(models)
    ops = sum(len(row) for row in schedule.worker_ops)
    return {
        "id": case.case_id,
        "scheme": case.scheme,
        "depth": case.depth,
        "num_micro_batches": case.num_micro_batches,
        "mode": case.mode,
        "ops": ops,
        "compute_makespan": event.compute_makespan,
        "iteration_time": event.iteration_time,
        "event": {"wall_s": event_wall, "ops_per_sec": ops / event_wall},
        "fast": {
            "wall_s": fast_wall,
            "ops_per_sec": ops / fast_wall,
            "speedup": event_wall / fast_wall,
        },
        "batch": {
            "models": len(models),
            "wall_s_per_model": batch_per_model,
            "ops_per_sec": ops / batch_per_model,
            "speedup": event_wall / batch_per_model,
        },
    }


def makespan_checksum(cases: Iterable[dict]) -> str:
    """SHA-256 over every case's (id, makespan, iteration) triple."""
    digest = hashlib.sha256()
    for case in sorted(cases, key=lambda c: c["id"]):
        digest.update(
            (
                f"{case['id']}:{case['compute_makespan']:.12e}:"
                f"{case['iteration_time']:.12e};"
            ).encode()
        )
    return digest.hexdigest()


def run_synthesize_block(*, fast: bool = False) -> dict:
    """The non-gating ``synthesize`` section: search vs every built-in.

    For each grid point, measures every non-parameterized scheme's
    compute makespan and peak activation under the fixed
    :data:`SYNTHESIZE_COSTS` model (one ``simulate_batch_many`` call),
    then synthesizes a schedule with the *best* scheme's peak as its
    memory budget and records how the search compares — speedup over the
    best built-in, build wall time, the winning seed. Informational only:
    ``check_against`` never gates on it (build time is search work, not
    kernel work, and the match-or-beat property is pinned by the test
    suite's acceptance battery instead).
    """
    from repro.schedules.cache import cached_build_schedule
    from repro.schedules.registry import build_schedule
    from repro.schedules.synthesize import peak_stash_units, synthesis_cost_model
    from repro.sim.kernel import simulate_batch_many

    f, b, w, comm = SYNTHESIZE_COSTS
    model = synthesis_cost_model(f, b, w, comm)
    schemes = [
        s for s in available_schemes() if not scheme_traits(s).cost_parameterized
    ]
    points = []
    for depth, n in (SYNTHESIZE_FAST_POINTS if fast else SYNTHESIZE_POINTS):
        built, names = [], []
        for scheme in schemes:
            try:
                built.append(cached_build_schedule(scheme, depth, n))
                names.append(scheme)
            except ScheduleError:
                continue  # scheme structurally invalid at this (D, N)
        batch = simulate_batch_many([(s, model) for s in built])
        makespans = [float(m) for m in batch.compute_makespan]
        best_k = min(range(len(names)), key=lambda k: makespans[k])
        budget = peak_stash_units(built[best_k])
        start = time.perf_counter()
        synthesized = build_schedule(
            "synthesize",
            depth,
            n,
            f_time=f,
            b_time=b,
            w_time=w,
            comm_time=comm,
            memory_budget_units=budget,
        )
        build_s = time.perf_counter() - start
        meta = synthesized.metadata
        points.append(
            {
                "depth": depth,
                "num_micro_batches": n,
                "budget_units": budget,
                "best_scheme": names[best_k],
                "best_makespan": makespans[best_k],
                "synthesize_makespan": float(meta["makespan"]),
                "synthesize_peak_units": float(meta["peak_units"]),
                "seed": meta["seed"],
                "speedup_vs_best": makespans[best_k] / float(meta["makespan"]),
                "build_wall_s": build_s,
            }
        )
    return {"costs": list(SYNTHESIZE_COSTS), "points": points}


def run_offload_block(
    *, fast: bool = False, repeats: int = 3, slowdown: float = 1.0
) -> dict:
    """The gated ``offload`` section (schema 6): host-channel timing.

    Runs each :data:`OFFLOAD_SCHEMES` × depth × {offload,
    offload_lowered} schedule through the event engine and the array
    kernel under :func:`offload_suite_model`, asserts the two agree to
    :data:`MAKESPAN_ATOL` (host-channel FIFOs are kernel code paths, not
    a fallback), and records wall times the checker gates exactly like
    the engine cases — makespans at zero tolerance, normalized
    throughput against the baseline.
    """
    depths = OFFLOAD_FAST_DEPTHS if fast else OFFLOAD_DEPTHS
    n = FAST_MICRO_BATCHES if fast else SUITE_MICRO_BATCHES
    model = offload_suite_model()
    cases: list[dict] = []
    for scheme in OFFLOAD_SCHEMES:
        for depth in depths:
            arts = schedule_artifacts(scheme, depth, n, passes=("offload",))
            for mode in OFFLOAD_MODES:
                schedule = arts.schedule_for(MODE_PIPELINES[mode])
                graph = arts.graph_for(MODE_PIPELINES[mode])
                kernel = kernel_of(graph)
                case_id = f"{scheme}/D{depth}/N{n}/{mode}"
                # Nonzero stash occupancy: the hint must report the
                # contended routing, or host copies stopped queueing.
                if fast_path_supported(schedule, model, kernel=kernel):
                    raise ScheduleError(
                        f"kernel path hint mismatch on {case_id}: expected "
                        f"host-channel contended routing"
                    )
                event_wall, event = _best_wall(
                    lambda: simulate(schedule, model, graph=graph), repeats
                )
                fast_wall, fast_result = _best_wall(
                    lambda: simulate_fast(schedule, model, kernel=kernel),
                    repeats,
                )
                worst = max(
                    abs(event.compute_makespan - fast_result.compute_makespan),
                    abs(event.iteration_time - fast_result.iteration_time),
                )
                if worst > MAKESPAN_ATOL:
                    raise ScheduleError(
                        f"engine/kernel makespan divergence on {case_id}: "
                        f"{worst:.3e} exceeds {MAKESPAN_ATOL:.0e}"
                    )
                event_wall *= slowdown
                fast_wall *= slowdown
                ops = sum(len(row) for row in schedule.worker_ops)
                stash = sum(
                    1 for t in event.transfers if t.payload == "stash"
                )
                cases.append(
                    {
                        "id": case_id,
                        "scheme": scheme,
                        "depth": depth,
                        "num_micro_batches": n,
                        "mode": mode,
                        "ops": ops,
                        "host_copies": stash,
                        "compute_makespan": event.compute_makespan,
                        "iteration_time": event.iteration_time,
                        "event": {
                            "wall_s": event_wall,
                            "ops_per_sec": ops / event_wall,
                        },
                        "fast": {
                            "wall_s": fast_wall,
                            "ops_per_sec": ops / fast_wall,
                            "speedup": event_wall / fast_wall,
                        },
                    }
                )
    return {
        "cases": cases,
        "fast_speedup_min": min(c["fast"]["speedup"] for c in cases),
    }


def run_suite(
    *,
    fast: bool = False,
    depths: Sequence[int] | None = None,
    schemes: Sequence[str] | None = None,
    repeats: int = 3,
    batch_size: int = BATCH_VARIANTS,
    inject_slowdown: float | None = None,
) -> dict:
    """Run the suite and assemble the ``BENCH_*.json`` payload."""
    slowdown = _resolve_slowdown(inject_slowdown)
    cases = suite_cases(fast=fast, depths=depths, schemes=schemes)
    results = [
        run_case(case, repeats=repeats, batch_size=batch_size, slowdown=slowdown)
        for case in cases
    ]
    _check_fused_parity(results)
    d16 = [c for c in results if c["depth"] == 16]
    summary = {
        "makespan_checksum": makespan_checksum(results),
        "fast_speedup_min": min(c["fast"]["speedup"] for c in results),
        "batch_speedup_min": min(c["batch"]["speedup"] for c in results),
    }
    fused_speedups = _fused_event_speedups(results)
    if fused_speedups:
        summary["fused_event_speedup_min"] = min(fused_speedups.values())
    contended = [c for c in results if c["mode"] == "contended"]
    if contended:
        summary["contended_fast_speedup_min"] = min(
            c["fast"]["speedup"] for c in contended
        )
        summary["contended_batch_speedup_min"] = min(
            c["batch"]["speedup"] for c in contended
        )
    if d16:
        summary["d16_fast_speedup_min"] = min(c["fast"]["speedup"] for c in d16)
        summary["d16_batch_speedup_min"] = min(c["batch"]["speedup"] for c in d16)
        d16_fused = {k: v for k, v in fused_speedups.items() if k[1] == 16}
        if d16_fused:
            summary["d16_fused_event_speedup_min"] = min(d16_fused.values())
        d16_contended = [c for c in contended if c["depth"] == 16]
        if d16_contended:
            summary["d16_contended_batch_speedup_min"] = min(
                c["batch"]["speedup"] for c in d16_contended
            )
    offload_section = run_offload_block(
        fast=fast, repeats=repeats, slowdown=slowdown
    )
    summary["offload_fast_speedup_min"] = offload_section["fast_speedup_min"]

    # Non-gating cache-efficacy metadata: cumulative process-wide counters
    # after the whole run.
    from repro.schedules.cache import disk_cache_stats, schedule_cache_stats

    mem = schedule_cache_stats()
    cache_meta = {
        "hits": mem.hits,
        "misses": mem.misses,
        "entries": mem.entries,
        "hit_rate": mem.hit_rate,
    }
    disk = disk_cache_stats()
    if disk is not None:
        cache_meta["disk"] = {
            "hits": disk.hits,
            "misses": disk.misses,
            "stores": disk.stores,
            "evictions": disk.evictions,
            "entries": disk.entries,
            "total_bytes": disk.total_bytes,
            "hit_rate": disk.hit_rate,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "fast" if fast else "full",
        "revision": current_revision(),
        "calibration_score": calibration_score(),
        "inject_slowdown": slowdown,
        "cases": results,
        "schedule_cache": cache_meta,
        "summary": summary,
        "offload": offload_section,
        "synthesize": run_synthesize_block(fast=fast),
    }


def _group_by_scheme_depth(results: Sequence[dict]) -> dict[tuple, dict[str, dict]]:
    """(scheme, depth) -> mode -> case. One case identity for the fused
    parity check and the fused speedup summary, so they can never group
    differently."""
    by_key: dict[tuple, dict[str, dict]] = {}
    for case in results:
        by_key.setdefault((case["scheme"], case["depth"]), {})[case["mode"]] = case
    return by_key


def _check_fused_parity(results: Sequence[dict]) -> None:
    """Assert fused == lowered makespans to 1e-9 per (scheme, depth).

    This is fuse_comm's contract on the suite's contention-free model:
    batching a SEND/RECV pair must not move a single op. Runs on every
    suite invocation, so any drift trips both local runs and CI.
    """
    for (scheme, depth), modes in _group_by_scheme_depth(results).items():
        if "lowered" not in modes or "fused" not in modes:
            continue
        for field in ("compute_makespan", "iteration_time"):
            drift = abs(modes["lowered"][field] - modes["fused"][field])
            if drift > MAKESPAN_ATOL:
                raise ScheduleError(
                    f"fuse_comm parity violation on {scheme}/D{depth}: "
                    f"{field} differs by {drift:.3e}"
                )


def _fused_event_speedups(results: Sequence[dict]) -> dict[tuple, float]:
    """(scheme, depth) -> lowered event wall time / fused event wall time.

    Both cases simulate the *same logical schedule* (fusion changes the
    op encoding, not the workload), so the wall-time ratio is the honest
    per-schedule event-engine speedup of batched communication.
    """
    out = {}
    for key, modes in _group_by_scheme_depth(results).items():
        if "lowered" in modes and "fused" in modes:
            fused_wall = modes["fused"]["event"]["wall_s"]
            if fused_wall > 0:
                out[key] = modes["lowered"]["event"]["wall_s"] / fused_wall
    return out


def write_bench_json(payload: dict, path: str | os.PathLike) -> pathlib.Path:
    """Write the payload as pretty JSON; returns the resolved path."""
    out = pathlib.Path(path)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def default_output_name(payload: dict) -> str:
    """Canonical artifact name for one run: ``BENCH_<revision>.json``."""
    return f"BENCH_{payload['revision']}.json"


def check_against(
    current: dict, baseline: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> list[str]:
    """Regression verdicts of ``current`` vs ``baseline`` (empty = pass).

    Makespans must match to :data:`MAKESPAN_ATOL`; normalized throughput
    (ops/sec over the run's own calibration score) must not drop more
    than ``tolerance`` relative to the baseline, per case and per engine.
    When the run covers the D=16 reference point, its batched kernel
    speedup over the event engine must also clear the absolute
    :data:`BATCH_SPEEDUP_FLOOR` on every case and
    :data:`CONTENDED_BATCH_SPEEDUP_FLOOR` on the contended ones — same-host
    wall-time ratios, so they are checked unnormalized on the current run.
    The offload cases are gated like the engine cases.
    """
    violations: list[str] = []
    summary = current.get("summary", {})
    for key, name, floor in (
        ("d16_batch_speedup_min", "d16 batch", BATCH_SPEEDUP_FLOOR),
        (
            "d16_contended_batch_speedup_min",
            "d16 contended batch",
            CONTENDED_BATCH_SPEEDUP_FLOOR,
        ),
    ):
        speedup = summary.get(key)
        if speedup is not None and speedup < floor:
            violations.append(
                f"{name} speedup {speedup:.2f}x fell below the {floor:.0f}x floor"
            )
    if current.get("schema_version") != baseline.get("schema_version"):
        return [
            f"schema version mismatch: current "
            f"{current.get('schema_version')} vs baseline "
            f"{baseline.get('schema_version')} — refresh the baseline"
        ]
    if current.get("suite") != baseline.get("suite"):
        return [
            f"suite mismatch: current {current.get('suite')!r} vs baseline "
            f"{baseline.get('suite')!r} — compare like with like"
        ]
    cur_cal = float(current.get("calibration_score", 0.0))
    base_cal = float(baseline.get("calibration_score", 0.0))
    if cur_cal <= 0 or base_cal <= 0:
        violations.append("missing calibration score; cannot normalize throughput")
        return violations
    calibration = (cur_cal, base_cal)

    violations += _gate_cases(
        current.get("cases", ()),
        baseline.get("cases", ()),
        ("event", "fast", "batch"),
        calibration=calibration,
        tolerance=tolerance,
    )
    # The offload section gates identically to the engine cases, over the
    # two engines it times.
    cur_off = (current.get("offload") or {}).get("cases", ())
    base_off = (baseline.get("offload") or {}).get("cases", ())
    if base_off and not cur_off:
        violations.append(
            "offload section disappeared from the run — refresh or "
            "investigate"
        )
    violations += _gate_cases(
        cur_off,
        base_off,
        ("event", "fast"),
        calibration=calibration,
        tolerance=tolerance,
        prefix="offload ",
    )
    return violations


def _gate_cases(
    current: Iterable[dict],
    baseline: Iterable[dict],
    engines: Sequence[str],
    *,
    calibration: tuple[float, float],
    tolerance: float,
    prefix: str = "",
) -> list[str]:
    """Violations of one gated case list against its baseline cases.

    Reports cases that disappeared or are not in the baseline, makespan
    drift beyond :data:`MAKESPAN_ATOL`, and per-engine throughput that
    fell more than ``tolerance`` after normalizing by the ``(current,
    baseline)`` scores in ``calibration``. Every message starts
    with ``prefix``, so a report names the section that tripped.
    """
    cur_cases = {c["id"]: c for c in current}
    base_cases = {c["id"]: c for c in baseline}
    cur_cal, base_cal = calibration
    violations = [
        f"{prefix}case disappeared from the suite: {missing}"
        for missing in sorted(set(base_cases) - set(cur_cases))
    ]
    violations += [
        f"{prefix}case not in baseline: {extra} — refresh the baseline"
        for extra in sorted(set(cur_cases) - set(base_cases))
    ]
    for case_id in sorted(set(cur_cases) & set(base_cases)):
        cur, base = cur_cases[case_id], base_cases[case_id]
        for field in ("compute_makespan", "iteration_time"):
            if abs(cur[field] - base[field]) > MAKESPAN_ATOL:
                violations.append(
                    f"{prefix}{case_id}: {field} mismatch "
                    f"({cur[field]!r} vs baseline {base[field]!r})"
                )
        for engine in engines:
            cur_norm = cur[engine]["ops_per_sec"] / cur_cal
            base_norm = base[engine]["ops_per_sec"] / base_cal
            if cur_norm < base_norm * (1.0 - tolerance):
                drop = 1.0 - cur_norm / base_norm
                violations.append(
                    f"{prefix}{case_id}: {engine} throughput regressed "
                    f"{drop * 100:.1f}% (> {tolerance * 100:.0f}% allowed; "
                    f"normalized {cur_norm:.3f} vs baseline {base_norm:.3f})"
                )
    return violations


def format_suite(payload: dict) -> str:
    """Human-readable table of one suite run."""
    rows = []
    for case in payload["cases"]:
        rows.append(
            [
                case["id"],
                case["ops"],
                f"{case['event']['wall_s'] * 1e3:.2f}",
                f"{case['fast']['wall_s'] * 1e3:.2f}",
                f"{case['batch']['wall_s_per_model'] * 1e3:.2f}",
                f"{case['fast']['speedup']:.1f}x",
                f"{case['batch']['speedup']:.1f}x",
            ]
        )
    table = format_table(
        rows,
        headers=[
            "case",
            "ops",
            "event ms",
            "fast ms",
            "batch ms/model",
            "fast speedup",
            "batch speedup",
        ],
    )
    summary = payload["summary"]
    lines = [
        table,
        "",
        f"revision {payload['revision']}  suite {payload['suite']}  "
        f"calibration {payload['calibration_score']:.0f} steps/s",
        f"min speedup: fast {summary['fast_speedup_min']:.1f}x, "
        f"batch {summary['batch_speedup_min']:.1f}x",
    ]
    if "contended_batch_speedup_min" in summary:
        lines.append(
            f"min contended speedup: batch "
            f"{summary['contended_batch_speedup_min']:.1f}x "
            f"(floor {CONTENDED_BATCH_SPEEDUP_FLOOR:.0f}x at D=16)"
        )
    offload = payload.get("offload")
    if offload and offload.get("cases"):
        copies = sum(c["host_copies"] for c in offload["cases"])
        lines.append(
            f"offload: {len(offload['cases'])} cases, {copies} host copies, "
            f"min fast speedup {offload['fast_speedup_min']:.1f}x "
            f"(host-channel model, gated)"
        )
    synthesize = payload.get("synthesize")
    if synthesize:
        for point in synthesize["points"]:
            lines.append(
                f"synthesize D={point['depth']} N={point['num_micro_batches']}: "
                f"{point['speedup_vs_best']:.2f}x vs {point['best_scheme']} "
                f"at {point['synthesize_peak_units']:g}/{point['budget_units']:g} "
                f"Ma budget (seed {point['seed']}, "
                f"built in {point['build_wall_s'] * 1e3:.0f} ms; non-gating)"
            )
    lines.append(f"makespan checksum {summary['makespan_checksum'][:16]}…")
    return "\n".join(lines)
