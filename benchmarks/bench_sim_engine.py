"""Engine benchmark: the event-queue engine, lowered and not.

Simulates chimera and ZB-V at D=16, N=64 (thousands of operations per
schedule) two ways — the event-queue engine on the implicit schedule and
on the lowered schedule (explicit SEND/RECV with link contention) — and
reports the time per simulation. Nothing here asserts a timing, so the
script runs the same on any host.

Runs under pytest-benchmark like every other bench target, and doubles as
a plain script for the CI smoke step::

    PYTHONPATH=src python benchmarks/bench_sim_engine.py
"""

import time

from repro.bench.harness import format_table
from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.lowering import lower_schedule
from repro.schedules.registry import build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.network import FlatTopology, LinkSpec

DEPTH, MICRO_BATCHES = 16, 64


def _cost_model() -> CostModel:
    return CostModel(
        forward_time=1.0,
        topology=FlatTopology(LinkSpec(alpha=0.05, beta=0.01)),
        activation_message_bytes=1.0,
        stage_grad_bytes=10.0,
        data_parallel_width=2,
    )


def _cases(scheme: str):
    """(label, schedule, graph) benchmark variants for a scheme."""
    schedule = build_schedule(scheme, DEPTH, MICRO_BATCHES)
    graph = build_dependency_graph(schedule)
    lowered_graph = lower_schedule(schedule, graph=graph)
    lowered = lowered_graph.schedule
    return [
        ("event", schedule, graph),
        ("event+lowered", lowered, lowered_graph),
    ]


def _time_once(schedule, graph, *, repeat: int = 3) -> tuple[float, float]:
    """(best seconds per run, iteration_time) with a warm dense cache."""
    cm = _cost_model()
    result = simulate(schedule, cm, graph=graph)  # warm-up / cache build
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = simulate(schedule, cm, graph=graph)
        best = min(best, time.perf_counter() - t0)
    return best, result.iteration_time


def run() -> str:
    """Run every case once and render the comparison table."""
    rows = []
    for scheme in ("chimera", "zb_v"):
        for label, schedule, graph in _cases(scheme):
            seconds, iteration = _time_once(schedule, graph)
            ops = sum(len(r) for r in schedule.worker_ops)
            rows.append(
                [scheme, label, ops, f"{seconds * 1e3:.2f}", f"{iteration:.2f}"]
            )
    return format_table(
        rows, ["scheme", "engine", "ops", "ms/simulate", "iteration(s)"]
    )


def test_simulate_chimera_event(benchmark, report):
    """The event engine on D=16, N=64 chimera."""
    schedule = build_schedule("chimera", DEPTH, MICRO_BATCHES)
    graph = build_dependency_graph(schedule)
    result = benchmark(simulate, schedule, _cost_model(), graph=graph)
    assert result.iteration_time > 0
    report(
        f"chimera D={DEPTH} N={MICRO_BATCHES}: "
        f"iteration {result.iteration_time:.2f}s, {len(result.timed)} ops"
    )


def test_simulate_zb_v_lowered(benchmark, report):
    """Lowered ZB-V under finite links: contention may only add time."""
    schedule = build_schedule("zb_v", DEPTH, MICRO_BATCHES)
    graph = build_dependency_graph(schedule)
    lowered_graph = lower_schedule(schedule, graph=graph)
    lowered = lowered_graph.schedule
    cm = _cost_model()
    result = benchmark(simulate, lowered, cm, graph=lowered_graph)
    baseline = simulate(schedule, cm, graph=graph)
    assert result.iteration_time >= baseline.iteration_time - 1e-9
    report(
        f"zb_v D={DEPTH} N={MICRO_BATCHES} lowered: "
        f"iteration {result.iteration_time:.2f}s "
        f"(implicit {baseline.iteration_time:.2f}s), "
        f"{len(result.transfers)} transfers"
    )


def test_engine_comparison_table(benchmark, report):
    """The full engine x scheme comparison grid."""
    report(benchmark(run))


if __name__ == "__main__":  # pragma: no cover - CI smoke entry point
    print(run())
