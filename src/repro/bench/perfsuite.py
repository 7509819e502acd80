"""The ``repro bench`` performance suite and its CI regression gate.

Simulation throughput is the quantity every planner sweep and experiment
grid stands on, so it is measured — not assumed. This module runs a fixed
suite (every registered scheme × pipeline depths {8, 16, 32} × {implicit,
lowered, fused, contended, contended_fused}) three ways per case:

* the PR-2 **event**-queue engine (:func:`repro.sim.engine.simulate`),
* the array-kernel **fast** path (:func:`repro.sim.kernel.simulate_fast`),
* the **batch** API (:func:`repro.sim.kernel.simulate_batch_many`,
  several cost models amortized over one cached kernel),

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
occupancy makes the host FIFOs genuinely queue. Its cases run through
the same :func:`run_case` as the engine grid (event engine and fast
path; no batch path), with engine/kernel parity asserted per case, and
the section is **gated** like the engine cases: exact makespans,
normalized throughput within tolerance.

The suite times simulators only. Planning and ``/plan`` serving are
measured end to end, from fresh processes and with a per-layer trace, by
the ``benchmarks/e2e`` workloads (``plan_cold``, ``plan_warm``,
``serve_hot``).

Regression gating
-----------------
:func:`check_against` compares a fresh run to a committed baseline
(``benchmarks/baseline.json``), over every case list in
:data:`GATED_SECTIONS`, and reports violations for

* any makespan difference beyond 1e-9 (correctness — deterministic, zero
  tolerance),
* any case whose throughput fell more than ``tolerance`` (default 20%)
  below the baseline.

Raw ops/sec depends on the host, so the throughput gate compares
*normalized* scores: each measurement is divided by a calibration score —
the throughput of a fixed pure-Python relaxation-shaped loop timed in the
same process — which cancels machine speed to first order. Raw numbers
are recorded alongside for inspection. A synthetic slowdown can be
injected (``--inject-slowdown``) to scale the measured wall times
without touching the calibration; CI uses it to prove the gate actually
fails on a 25% regression.
"""

from __future__ import annotations

import functools
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
from repro.sim.kernel import kernel_of, simulate_batch_many, simulate_fast
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
#: valid after deleting the section and bumping ``schema_version``. 9:
#: dropped the non-gating ``synthesize`` and ``schedule_cache`` blocks
#: (``repro synthesize`` and ``repro cache stats`` report the same); the
#: grids are unchanged, so a v8 baseline stays valid after deleting both
#: and bumping ``schema_version``.
SCHEMA_VERSION = 9

#: Full-suite grid: every registered scheme at these depths, N=64 — the
#: acceptance grid of the array kernel (D=16, N=64 is the reference point).
SUITE_DEPTHS = (8, 16, 32)
SUITE_MICRO_BATCHES = 64
#: Fast-suite grid used by tests and smoke runs.
FAST_DEPTHS = (8,)
FAST_MICRO_BATCHES = 16

MODES = ("implicit", "lowered", "fused", "contended", "contended_fused")

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
#: grid's reference depths. Offload modes build their artifacts with the
#: activation-offload pass.
OFFLOAD_SCHEMES = ("gpipe", "dapple", "chimera")
OFFLOAD_DEPTHS = (8, 16)
OFFLOAD_FAST_DEPTHS = (8,)
OFFLOAD_MODES = ("offload", "offload_lowered")

#: The case lists :func:`check_against` gates, one row each: the payload
#: key of the section holding the ``cases`` (None: the top-level engine
#: grid), the engines each case times, and the prefix that starts every
#: violation message, so a report names the section that tripped.
GATED_SECTIONS = (
    (None, ("event", "fast", "batch"), ""),
    ("offload", ("event", "fast"), "offload "),
)

#: Makespan agreement required between the engines, and between a run and
#: its baseline.
MAKESPAN_ATOL = 1e-9

#: Default allowed relative throughput drop before the gate fails.
DEFAULT_TOLERANCE = 0.20


@dataclass(frozen=True)
class BenchCase:
    """One suite point: a scheme at a depth in one mode."""

    scheme: str
    depth: int
    num_micro_batches: int
    mode: str  # a key of MODE_PIPELINES

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
        # per (scheme, D, N), so they cannot be suite cases; `repro
        # synthesize` compares them against the built-ins instead.
        schemes = tuple(
            s for s in available_schemes() if not scheme_traits(s).cost_parameterized
        )
    return [
        BenchCase(scheme, depth, n, mode)
        for scheme in schemes
        for depth in depths
        for mode in MODES
    ]


def offload_cases(*, fast: bool = False) -> list[BenchCase]:
    """The gated ``offload`` grid (reduced with ``fast=True``)."""
    n = FAST_MICRO_BATCHES if fast else SUITE_MICRO_BATCHES
    return [
        BenchCase(scheme, depth, n, mode)
        for scheme in OFFLOAD_SCHEMES
        for depth in (OFFLOAD_FAST_DEPTHS if fast else OFFLOAD_DEPTHS)
        for mode in OFFLOAD_MODES
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

#: The cost model each mode is timed under.
MODE_MODELS = {
    "implicit": suite_cost_model,
    "lowered": suite_cost_model,
    "fused": suite_cost_model,
    "contended": contended_suite_model,
    "contended_fused": contended_suite_model,
    "offload": offload_suite_model,
    "offload_lowered": offload_suite_model,
}


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


def calibration_score() -> float:
    """Machine-speed proxy: steps/second of a fixed relaxation-shaped loop
    (the best of three timed runs).

    Deliberately independent of the library under test (a regression in
    the simulator must not slow the yardstick down with it): a pure-Python
    loop over preallocated lists with the same max/add/index mix as the
    kernel's scalar pass.
    """
    steps = 200_000
    src = [(i * 7919) % 1000 for i in range(1000)]
    best = float("inf")
    for _ in range(3):
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


def run_case(
    case: BenchCase,
    *,
    repeats: int = 3,
    batch_size: int = BATCH_VARIANTS,
    slowdown: float = 1.0,
) -> dict:
    """Measure one case and verify engine/kernel parity.

    Every case is timed on the event engine and the kernel's fast path
    under its mode's cost model. Engine-grid cases are also timed on the
    batch path; offload cases instead record their stash copies.
    """
    offload = case.mode in OFFLOAD_MODES
    arts = schedule_artifacts(
        case.scheme,
        case.depth,
        case.num_micro_batches,
        **({"passes": ("offload",)} if offload else {}),
    )
    schedule = arts.schedule_for(MODE_PIPELINES[case.mode])
    graph = arts.graph_for(MODE_PIPELINES[case.mode])
    kernel = kernel_of(graph)
    base = MODE_MODELS[case.mode]()

    event_wall, event = _best_wall(
        lambda: simulate(schedule, base, graph=graph), repeats
    )
    fast_wall, fast = _best_wall(
        lambda: simulate_fast(schedule, base, kernel=kernel), repeats
    )
    kernel_times = [(fast.compute_makespan, fast.iteration_time)]
    if not offload:
        models = batch_cost_models(batch_size, base=base)
        rows = [(kernel, model) for model in models]
        batch_wall, batch = _best_wall(lambda: simulate_batch_many(rows), repeats)
        # Every case runs on the kernel either way; the base row's
        # contention flag (``used_fast_path``: zero occupancy on every
        # channel) must match the regime, so a cost-model or send-table
        # regression fails loudly here.
        contended = MODE_MODELS[case.mode] is contended_suite_model
        if batch.used_fast_path[0] == contended:
            raise ScheduleError(
                f"kernel routing mismatch on {case.case_id}: expected "
                f"{'contended' if contended else 'single-sweep'} routing"
            )
        kernel_times.append(
            (float(batch.compute_makespan[0]), float(batch.iteration_time[0]))
        )

    worst = max(
        max(abs(event.compute_makespan - makespan), abs(event.iteration_time - it))
        for makespan, it in kernel_times
    )
    if worst > MAKESPAN_ATOL:
        raise ScheduleError(
            f"engine/kernel makespan divergence on {case.case_id}: "
            f"{worst:.3e} exceeds {MAKESPAN_ATOL:.0e}"
        )

    event_wall *= slowdown
    fast_wall *= slowdown
    ops = sum(len(row) for row in schedule.worker_ops)
    result = {
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
    }
    if offload:
        # Stash copies must occupy their host channel, or they stopped
        # queueing and the case times the wrong regime.
        stash = [t for t in fast.transfers if t.payload == "stash"]
        if not stash or not all(t.occupancy > 0.0 for t in stash):
            raise ScheduleError(
                f"no host-channel occupancy on {case.case_id}: expected "
                f"queueing stash copies"
            )
        result["host_copies"] = len(stash)
    else:
        batch_per_model = batch_wall * slowdown / len(models)
        result["batch"] = {
            "models": len(models),
            "wall_s_per_model": batch_per_model,
            "ops_per_sec": ops / batch_per_model,
            "speedup": event_wall / batch_per_model,
        }
    return result


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


def run_suite(
    *,
    fast: bool = False,
    depths: Sequence[int] | None = None,
    schemes: Sequence[str] | None = None,
    repeats: int = 3,
    batch_size: int = BATCH_VARIANTS,
    inject_slowdown: float = 1.0,
) -> dict:
    """Run the suite and assemble the ``BENCH_*.json`` payload.

    The engine grid and the ``offload`` grid, every case measured by
    :func:`run_case`, fill the case lists of :data:`GATED_SECTIONS`.
    """
    run = functools.partial(
        run_case, repeats=repeats, batch_size=batch_size, slowdown=inject_slowdown
    )
    cases = suite_cases(fast=fast, depths=depths, schemes=schemes)
    results = [run(case) for case in cases]
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
    offload = [run(case) for case in offload_cases(fast=fast)]
    summary["offload_fast_speedup_min"] = min(c["fast"]["speedup"] for c in offload)
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "fast" if fast else "full",
        "revision": current_revision(),
        "calibration_score": calibration_score(),
        "inject_slowdown": inject_slowdown,
        "cases": results,
        "summary": summary,
        "offload": {
            "cases": offload,
            "fast_speedup_min": summary["offload_fast_speedup_min"],
        },
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
    than ``tolerance`` relative to the baseline, per case and per engine,
    in every section of :data:`GATED_SECTIONS`. When the run covers the
    D=16 reference point, its batched kernel speedup over the event
    engine must also clear the absolute :data:`BATCH_SPEEDUP_FLOOR` on
    every case and :data:`CONTENDED_BATCH_SPEEDUP_FLOOR` on the contended
    ones — same-host wall-time ratios, so they are checked unnormalized
    on the current run, and reported even when the baseline is refused.
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
        return violations + [
            f"schema version mismatch: current "
            f"{current.get('schema_version')} vs baseline "
            f"{baseline.get('schema_version')} — refresh the baseline"
        ]
    if current.get("suite") != baseline.get("suite"):
        return violations + [
            f"suite mismatch: current {current.get('suite')!r} vs baseline "
            f"{baseline.get('suite')!r} — compare like with like"
        ]
    cur_cal = float(current.get("calibration_score", 0.0))
    base_cal = float(baseline.get("calibration_score", 0.0))
    if cur_cal <= 0 or base_cal <= 0:
        violations.append("missing calibration score; cannot normalize throughput")
        return violations
    for section in GATED_SECTIONS:
        violations += _gate_section(
            current,
            baseline,
            *section,
            calibration=(cur_cal, base_cal),
            tolerance=tolerance,
        )
    return violations


def _gate_section(
    current: dict,
    baseline: dict,
    key: str | None,
    engines: Sequence[str],
    prefix: str,
    *,
    calibration: tuple[float, float],
    tolerance: float,
) -> list[str]:
    """Violations of one :data:`GATED_SECTIONS` row against the baseline.

    Reports a keyed section missing from the run, cases that disappeared
    or are not in the baseline, makespan drift beyond
    :data:`MAKESPAN_ATOL`, and per-engine throughput that fell more than
    ``tolerance`` after normalizing by the ``(current, baseline)`` scores
    in ``calibration``. Every message starts with ``prefix``.
    """

    def cases(payload: dict) -> dict[str, dict]:
        section = payload if key is None else payload.get(key) or {}
        return {c["id"]: c for c in section.get("cases", ())}

    cur_cases, base_cases = cases(current), cases(baseline)
    cur_cal, base_cal = calibration
    violations = []
    if key is not None and base_cases and not cur_cases:
        violations.append(
            f"{prefix}section disappeared from the run — refresh or investigate"
        )
    violations += [
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
    lines.append(f"makespan checksum {summary['makespan_checksum'][:16]}…")
    return "\n".join(lines)
