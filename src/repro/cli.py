"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``show``      Render a schedule as an ASCII Gantt chart.
``simulate``  Simulate a configuration on a modelled machine and report
              throughput / bubble ratio / memory.
``select``    Rank Chimera (W, D, B) configurations with the §3.4 model.
``plan``      Scheme-agnostic planner: enumerate (scheme, W, D, B) over
              every registered scheme, prune by the memory model against
              an optional ``--budget-gib`` peak-memory budget, and rank
              the survivors in one batched call to the array kernel
              (contention-aware: transfers queue per link channel).
``synthesize``  Search the (F, Bi, W) placement space directly for a
              schedule under an explicit ``(f, b, w, comm)`` cost model
              and peak-memory budget (``--budget-units``, in full-stage
              activation stashes), validate it with the synthesized-
              schedule rule set, and compare its makespan against every
              hand-written scheme.
``bench``     Run the engine performance suite (event engine vs the array
              kernel's fast/batch paths over every registered scheme ×
              {implicit, lowered, fused, contended, contended_fused} —
              the contended modes use a nonzero-beta link model, so
              transfers queue per channel — plus the gated host-channel
              ``offload`` cases), write a schema-versioned
              ``BENCH_<rev>.json``, and — with ``--check-against
              benchmarks/baseline.json`` —
              fail on makespan mismatches, >20% throughput regressions,
              or a D=16 batch speedup below its 3x floor (5x on the
              contended modes) — the CI gate; see
              ``docs/benchmarking.md``. Planning and serving are
              benchmarked end to end by ``benchmarks/e2e/run.py``.
``serve``     Run the planner as a long-lived HTTP/JSON service
              (``POST /plan``, ``POST /plan_many``, ``GET /stats``; see
              ``docs/serving.md``).
``cache``     Inspect (``stats``), wipe (``clear``), or locate (``path``)
              the schedule-artifact cache, both the in-process LRU and
              the persistent disk tier under ``~/.cache/repro``.
``figure``    Regenerate one of the paper's tables/figures.
``trace``     Export a simulated schedule as Chrome-tracing JSON.

Schedule transforms are composable passes (:mod:`repro.schedules.passes`),
and ``show``, ``trace``, ``simulate`` and ``plan`` all select them with one
flag: ``--pipeline SPEC``, a comma-separated list of pass names run after
the scheme's default pipeline (e.g. ``--pipeline lower_p2p`` makes p2p
transfers explicit SEND/RECV ops that contend for link bandwidth and grow
per-worker comm lanes in the Gantt/trace outputs; ``--pipeline
recompute,lower_p2p,fuse_comm`` also recomputes activations and batches
each SEND/RECV pair into one transfer; ``--pipeline insert_sync:eager``
passes arguments). ``show``/``trace``/``simulate`` default to no extra
passes. ``plan`` defaults to ``lower_p2p`` (``--pipeline ''`` ranks with
implicit communication) and explores the recompute and offload passes as
planning axes on top (``--recompute``/``--no-recompute``,
``--offload``/``--no-offload``); a pass named in ``--pipeline`` pins its
axis on. ``show``/``trace`` take the link model from
``--link-alpha``/``--link-beta`` (in forward-time units; both default to
0, i.e. free links — set them to see transfers on the wire), while
``simulate`` derives it from ``--machine``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.bench import experiments
from repro.bench.harness import ExperimentConfig, run_configuration
from repro.bench.machines import MACHINES
from repro.bench.perfsuite import (
    DEFAULT_TOLERANCE,
    check_against,
    default_output_name,
    format_suite,
    run_suite,
    write_bench_json,
)
from repro.bench.workloads import WORKLOADS
from repro.common.errors import ConfigurationError, ScheduleError
from repro.common.units import parse_gib
from repro.perf.planner import format_plan, plan_configurations
from repro.perf.planner import select_configuration
from repro.schedules.passes.pipeline import normalize_pipeline
from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.cost import CostModel
from repro.sim.gantt import render_gantt
from repro.sim.kernel import simulate_fast
from repro.sim.network import FlatTopology, HostChannel, LinkSpec
from repro.sim.trace import write_chrome_trace
FIGURES = {
    name: getattr(experiments, name)
    for name in experiments.__all__
}


def _schedule_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scheme", choices=available_schemes(), default="chimera")
    parser.add_argument("--depth", "-D", type=int, default=4)
    parser.add_argument("--micro-batches", "-N", type=int, default=4)
    parser.add_argument(
        "--concat", choices=["direct", "doubling", "halving"], default="direct"
    )
    parser.add_argument("--pipelines", "-f", type=int, default=1)
    parser.add_argument(
        "--max-in-flight",
        type=int,
        default=None,
        help="zero-bubble schemes: cap on live activation stashes",
    )
    _pipeline_arg(parser, default=())
    _link_args(parser)


def _pipeline_spec(value: str) -> tuple[str, ...]:
    """argparse type for ``--pipeline``: validate against the registry.

    A typo fails at parse time with the registered pass names in the
    message (the same enumeration the serve schema returns on a bad
    ``pipeline`` field).
    """
    try:
        return normalize_pipeline(value)
    except ConfigurationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _pipeline_arg(
    parser: argparse.ArgumentParser,
    *,
    default: tuple[str, ...] | None,
    help_default: str = "no extra passes",
) -> None:
    parser.add_argument(
        "--pipeline",
        type=_pipeline_spec,
        default=default,
        metavar="SPEC",
        help="schedule passes after the scheme's defaults, comma-separated "
        "(e.g. 'lower_p2p', 'offload,lower_p2p,fuse_comm', "
        f"'insert_sync:eager'; default: {help_default})",
    )


def _link_args(parser: argparse.ArgumentParser) -> None:
    """p2p link model for show/trace (simulate derives it from --machine)."""
    parser.add_argument(
        "--link-alpha",
        type=float,
        default=0.0,
        help="p2p latency in F_t units (show/trace render comm lanes when "
        "a link model is set)",
    )
    parser.add_argument(
        "--link-beta",
        type=float,
        default=0.0,
        help="p2p transfer time per micro-batch message in F_t units "
        "(the portion that occupies the link)",
    )
    parser.add_argument(
        "--host-alpha",
        type=float,
        default=0.0,
        help="host↔device copy latency in F_t units (offload pass; "
        "show/trace render host-channel lanes when set)",
    )
    parser.add_argument(
        "--host-beta",
        type=float,
        default=0.0,
        help="host↔device copy time per stash message in F_t units "
        "(the portion that occupies the worker's PCIe channel)",
    )


def _cost_model(args: argparse.Namespace) -> CostModel:
    cost_model = CostModel.practical()
    if args.link_alpha > 0 or args.link_beta > 0:
        cost_model = cost_model.with_(
            topology=FlatTopology(
                LinkSpec(alpha=args.link_alpha, beta=args.link_beta)
            ),
            activation_message_bytes=1.0,
        )
    if args.host_alpha > 0 or args.host_beta > 0:
        cost_model = cost_model.with_(
            host_channel=HostChannel(
                LinkSpec(alpha=args.host_alpha, beta=args.host_beta)
            ),
            offload_message_bytes=1.0,
        )
    return cost_model


def _build(args: argparse.Namespace):
    options: dict = {"passes": args.pipeline}
    if args.scheme == "chimera":
        options["concat"] = args.concat
        options["num_down_pipelines"] = args.pipelines
    if args.scheme in ("zb_h1", "zb_v") and args.max_in_flight is not None:
        options["max_in_flight"] = args.max_in_flight
    return build_schedule(args.scheme, args.depth, args.micro_batches, **options)


def cmd_show(args: argparse.Namespace) -> int:
    print(render_gantt(_build(args), cost_model=_cost_model(args)))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    result = simulate_fast(_build(args), _cost_model(args))
    write_chrome_trace(result, args.output)
    print(f"wrote {args.output} (open in chrome://tracing or Perfetto)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        scheme=args.scheme,
        machine=MACHINES[args.machine],
        workload=WORKLOADS[args.workload],
        width=args.width,
        depth=args.depth,
        micro_batch=args.micro_batch,
        mini_batch=args.mini_batch,
        pipeline=args.pipeline,
        host_memory_budget_bytes=parse_gib(
            args.host_budget_gib, field="host budget"
        ),
    )
    r = run_configuration(cfg)
    print(f"configuration : {r.label()}")
    print(f"pipeline      : {','.join(r.pipeline) or '(none)'}")
    print(f"micro-batches : N={r.num_micro_batches}")
    print(f"status        : {'OOM' if r.oom else 'fits'}"
          f"{' (activation recomputation)' if r.recompute else ''}")
    print(f"iteration     : {r.iteration_time:.4f} s")
    print(f"throughput    : {r.throughput:.1f} sequences/s")
    print(f"bubble ratio  : {r.bubble_ratio * 100:.1f} %")
    print(f"memory        : {r.min_memory_bytes / 2**30:.2f}"
          f"–{r.peak_memory_bytes / 2**30:.2f} GiB per worker")
    if r.host_peak_memory_bytes > 0:
        print(f"host stash    : {r.host_peak_memory_bytes / 2**30:.2f} GiB peak")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    ranked = select_configuration(
        MACHINES[args.machine],
        WORKLOADS[args.workload],
        num_workers=args.workers,
        mini_batch=args.mini_batch,
    )
    for i, cand in enumerate(ranked, 1):
        mark = "  <- selected" if i == 1 else ""
        print(f"{i}. {cand.label():<24} {cand.predicted_throughput:8.1f} seq/s{mark}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    entries = plan_configurations(
        MACHINES[args.machine],
        WORKLOADS[args.workload],
        num_workers=args.workers,
        mini_batch=args.mini_batch,
        memory_budget_bytes=parse_gib(args.budget_gib),
        schemes=args.schemes,
        recompute=args.recompute,
        top_k=args.top,
        pipeline=args.pipeline,
        offload=args.offload,
        host_memory_budget_bytes=parse_gib(
            args.host_budget_gib, field="host budget"
        ),
    )
    budget_str = f"{args.budget_gib:g} GiB budget" if args.budget_gib else "device capacity"
    print(
        f"plan: {args.workload} on {args.machine}, P={args.workers}, "
        f"B̂={args.mini_batch}, {budget_str}"
    )
    print(format_plan(entries))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    baseline = None
    if args.check_against:
        # Validate the baseline before the multi-minute suite runs, so a
        # missing or corrupt file fails in milliseconds with guidance.
        path = pathlib.Path(args.check_against)
        if not path.is_file():
            print(
                f"error: baseline {path} does not exist — generate one with "
                f"`repro bench -o {path}` and commit it "
                f"(see docs/benchmarking.md)"
            )
            return 1
        try:
            baseline = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            print(f"error: baseline {path} is not valid JSON ({err})")
            return 1
    payload = run_suite(
        fast=args.fast,
        repeats=args.repeats,
        inject_slowdown=args.inject_slowdown,
    )
    out = args.output or default_output_name(payload)
    write_bench_json(payload, out)
    print(format_suite(payload))
    print(f"wrote {out}")
    if baseline is not None:
        violations = check_against(payload, baseline, tolerance=args.tolerance)
        if violations:
            print(
                f"FAIL: {len(violations)} regression(s) against "
                f"{args.check_against}:"
            )
            for violation in violations:
                print(f"  - {violation}")
            return 1
        print(
            f"OK: no regressions against {args.check_against} "
            f"(tolerance {args.tolerance * 100:.0f}%)"
        )
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.schedules.cache import cached_build_schedule
    from repro.schedules.registry import scheme_traits
    from repro.schedules.synthesize import peak_stash_units, synthesis_cost_model
    from repro.schedules.validate import validate_synthesized_schedule
    from repro.schedules.dependencies import build_dependency_graph
    from repro.sim.kernel import kernel_of, simulate_batch_many

    options: dict = {
        "f_time": args.f_time,
        "b_time": args.b_time,
        "w_time": args.w_time,
        "comm_time": args.comm_time,
        "beam_width": args.beam_width,
        "beam_rounds": args.beam_rounds,
    }
    if args.budget_units is not None:
        options["memory_budget_units"] = args.budget_units
    schedule = build_schedule(
        "synthesize", args.depth, args.micro_batches, **options
    )
    validate_synthesized_schedule(schedule)
    meta = schedule.metadata
    print(
        f"synthesized  : D={args.depth}, N={args.micro_batches}, "
        f"costs (f={args.f_time:g}, b={args.b_time:g}, w={args.w_time:g}, "
        f"comm={args.comm_time:g})"
    )
    budget = meta.get("memory_budget_units")
    print(f"budget       : "
          f"{'unconstrained' if budget is None else f'{budget:g} Ma/worker'}")
    print(f"seed         : {meta['seed']} "
          f"(+{meta['refinement_moves']} refinement moves)")
    print(f"makespan     : {meta['makespan']:.4f} F_t")
    print(f"peak memory  : {meta['peak_units']:g} Ma/worker")
    print("validator    : clean (synthesized-schedule rules)")

    model = synthesis_cost_model(
        args.f_time, args.b_time, args.w_time, args.comm_time
    )
    rows = []
    for scheme in available_schemes():
        if scheme_traits(scheme).cost_parameterized:
            continue
        try:
            other = cached_build_schedule(scheme, args.depth, args.micro_batches)
        except (ConfigurationError, ScheduleError):
            continue  # scheme structurally invalid at this (D, N)
        rows.append((scheme, other, peak_stash_units(other)))
    batch = simulate_batch_many(
        [(kernel_of(build_dependency_graph(s)), model) for _, s, _ in rows]
    )
    print(f"\n{'scheme':<14} {'makespan':>10} {'peak Ma':>8}   vs synthesized")
    for k, (scheme, _, peak) in enumerate(rows):
        makespan = float(batch.compute_makespan[k])
        ratio = makespan / meta["makespan"]
        print(f"{scheme:<14} {makespan:>10.4f} {peak:>8g}   {ratio:.3f}x")
    if args.show:
        print()
        print(render_gantt(schedule, cost_model=model))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    print(FIGURES[args.name].run(fast=not args.full))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import PlannerService, serve_forever

    service = PlannerService(
        max_inflight=args.max_inflight,
        workers=args.workers,
        coalesce_ms=args.coalesce_ms,
    )
    serve_forever(args.host, args.port, service=service)
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.schedules.cache import (
        SCHEDULE_CACHE,
        clear_schedule_cache,
        disk_cache_stats,
        schedule_cache_stats,
    )

    disk = SCHEDULE_CACHE.disk
    if args.cache_action == "path":
        print(disk.root if disk is not None else "(disk tier disabled)")
        return 0
    if args.cache_action == "clear":
        removed = clear_schedule_cache(disk=True)
        print(f"cleared in-memory cache; removed {removed} disk entr"
              f"{'y' if removed == 1 else 'ies'}")
        return 0
    mem = schedule_cache_stats()
    print("in-memory LRU")
    print(f"  entries   : {mem.entries} (max {SCHEDULE_CACHE.max_entries})")
    print(f"  hits      : {mem.hits}")
    print(f"  misses    : {mem.misses}")
    print(f"  hit rate  : {mem.hit_rate * 100:.1f} %")
    stats = disk_cache_stats()
    if stats is None:
        print("disk tier     : disabled")
        return 0
    print(f"disk tier ({disk.root})")
    print(f"  entries   : {stats.entries}")
    print(f"  size      : {stats.total_bytes / 2**20:.1f} MiB")
    print(f"  hits      : {stats.hits} (this process)")
    print(f"  misses    : {stats.misses}")
    print(f"  stores    : {stats.stores}")
    print(f"  evictions : {stats.evictions}")
    print(f"  hit rate  : {stats.hit_rate * 100:.1f} %")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Chimera (SC'21) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="render a schedule as ASCII Gantt")
    _schedule_args(p)
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("trace", help="export a Chrome-tracing JSON")
    _schedule_args(p)
    p.add_argument("--output", "-o", default="schedule_trace.json")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("simulate", help="simulate one configuration")
    p.add_argument("--scheme", choices=available_schemes(), default="chimera")
    p.add_argument("--machine", choices=sorted(MACHINES), default="piz-daint")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="bert-48")
    p.add_argument("--width", "-W", type=int, default=8)
    p.add_argument("--depth", "-D", type=int, default=4)
    p.add_argument("--micro-batch", "-B", type=int, default=8)
    p.add_argument("--mini-batch", type=int, default=512)
    p.add_argument(
        "--host-budget-gib",
        type=float,
        default=None,
        help="host-tier (CPU RAM) budget in GiB for offloaded stashes "
        "(default: the machine's host capacity)",
    )
    # Recomputation applies only when needed to fit memory, unless the
    # pipeline names it.
    _pipeline_arg(p, default=())
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "select", help="rank Chimera (W, D, B) with the §3.4 model"
    )
    p.add_argument("--machine", choices=sorted(MACHINES), default="piz-daint")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="bert-48")
    p.add_argument("--workers", "-P", type=int, default=32)
    p.add_argument("--mini-batch", type=int, default=512)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser(
        "plan", help="rank (scheme, W, D, B) under a peak-memory budget"
    )
    p.add_argument("--machine", choices=sorted(MACHINES), default="piz-daint")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="bert-48")
    p.add_argument("--workers", "-P", type=int, default=32)
    p.add_argument("--mini-batch", type=int, default=512)
    p.add_argument(
        "--budget-gib",
        type=float,
        default=None,
        help="per-device peak-memory budget in GiB (default: device capacity)",
    )
    p.add_argument(
        "--schemes",
        nargs="+",
        choices=available_schemes(),
        default=None,
        help="restrict the search to these schemes (default: all)",
    )
    p.add_argument("--top", type=int, default=10, help="rows to print")
    p.add_argument(
        "--recompute",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="recompute planning axis: default tries plain then "
        "recomputed per candidate; --recompute forces it on, "
        "--no-recompute disables the axis entirely",
    )
    p.add_argument(
        "--offload",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="activation-offload planning axis (host-memory tier): "
        "default tries plain → offload → recompute → both per "
        "candidate; --offload forces it on, --no-offload disables it",
    )
    p.add_argument(
        "--host-budget-gib",
        type=float,
        default=None,
        help="host-tier (CPU RAM) budget in GiB for offloaded stashes "
        "(default: the machine's host capacity)",
    )
    _pipeline_arg(p, default=None, help_default="'lower_p2p', link contention")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "synthesize",
        help="search the (F, Bi, W) placement space for a schedule under "
        "a cost model and memory budget",
    )
    p.add_argument("--depth", "-D", type=int, default=4)
    p.add_argument("--micro-batches", "-N", type=int, default=8)
    p.add_argument(
        "--f-time", type=float, default=1.0, help="forward duration (F_t units)"
    )
    p.add_argument(
        "--b-time", type=float, default=1.0, help="input-gradient duration"
    )
    p.add_argument(
        "--w-time", type=float, default=1.0, help="weight-gradient duration"
    )
    p.add_argument(
        "--comm-time",
        type=float,
        default=0.0,
        help="per-hop activation/gradient message latency (0 = free links)",
    )
    p.add_argument(
        "--budget-units",
        type=float,
        default=None,
        help="peak live activation stashes per worker, in full-stage (Ma) "
        "units (default: unconstrained)",
    )
    p.add_argument(
        "--beam-width", type=int, default=4, help="beam-search width"
    )
    p.add_argument(
        "--beam-rounds", type=int, default=3, help="beam refinement rounds"
    )
    p.add_argument(
        "--show", action="store_true", help="render the result as ASCII Gantt"
    )
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "bench",
        help="run the simulator perf suite (every scheme x D in {8,16,32} "
        "x implicit/lowered/fused/contended modes, plus the gated offload "
        "block) / check the CI gate",
    )
    p.add_argument(
        "--output",
        "-o",
        default=None,
        help="output JSON path (default: BENCH_<git-rev>.json)",
    )
    p.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline JSON and exit 1 on regressions",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed relative throughput drop (default 0.20)",
    )
    p.add_argument(
        "--fast",
        action="store_true",
        help="reduced smoke grid (D=8, N=16) instead of the full suite",
    )
    p.add_argument("--repeats", type=int, default=3, help="timing repetitions per case")
    p.add_argument(
        "--inject-slowdown",
        type=float,
        default=1.0,
        help="scale measured wall times (testing hook for the CI gate)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", choices=sorted(FIGURES))
    p.add_argument("--full", action="store_true", help="paper-scale sweep")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser(
        "serve", help="run the planner as an HTTP/JSON service"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8473)
    p.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrently admitted plan computations before load "
        "shedding (HTTP 503)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="planner worker processes; 0 (default) plans in-process, "
        "N > 0 starts a spawn-based pool and shards every batch "
        "across its processes",
    )
    p.add_argument(
        "--coalesce-ms",
        type=float,
        default=0.0,
        help="coalescing window in milliseconds for single /plan calls; "
        "0 (default) disables micro-batching",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cache", help="inspect or clear the schedule-artifact cache"
    )
    p.add_argument(
        "cache_action",
        choices=("stats", "clear", "path"),
        nargs="?",
        default="stats",
    )
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
