"""Array-kernel benchmark: fast/batch paths vs the event-queue engine.

Times the D=16, N=64 acceptance grid of the kernel — chimera and ZB-V,
implicit and lowered — through :func:`repro.sim.kernel.simulate_fast`
(full-result drop-in) and :func:`repro.sim.kernel.simulate_batch` (eight
cost models against one cached dense schedule), asserting the tentpole
speedup: the batch path at least 3x the event engine per model evaluated.

Doubles as a plain script::

    PYTHONPATH=src python benchmarks/bench_kernel.py
"""

import time

from repro.bench.harness import format_table
from repro.bench.perfsuite import batch_cost_models, suite_cost_model
from repro.schedules.cache import schedule_artifacts
from repro.sim.engine import simulate
from repro.sim.kernel import kernel_of, simulate_batch, simulate_fast

DEPTH, MICRO_BATCHES = 16, 64


def _best(fn, repeat: int = 3) -> float:
    fn()  # warm-up: dense form and kernel build here
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: Benchmarked communication forms: mode name -> pipeline.
MODES = {"implicit": (), "lowered": ("lower_p2p",)}


def _case(scheme: str, pipeline: tuple[str, ...]):
    arts = schedule_artifacts(scheme, DEPTH, MICRO_BATCHES)
    return arts.schedule_for(pipeline), arts.graph_for(pipeline)


def run() -> str:
    """Time every case and render the comparison table."""
    base = suite_cost_model()
    models = batch_cost_models()
    rows = []
    for scheme in ("chimera", "zb_v"):
        for mode, pipeline in MODES.items():
            schedule, graph = _case(scheme, pipeline)
            kernel = kernel_of(graph)
            event = _best(lambda: simulate(schedule, base, graph=graph))
            fast = _best(lambda: simulate_fast(schedule, base, kernel=kernel))
            batch = _best(
                lambda: simulate_batch(schedule, models, kernel=kernel)
            ) / len(models)
            rows.append(
                [
                    scheme,
                    mode,
                    f"{event * 1e3:.2f}",
                    f"{fast * 1e3:.2f} ({event / fast:.1f}x)",
                    f"{batch * 1e3:.2f} ({event / batch:.1f}x)",
                ]
            )
    return format_table(
        rows,
        headers=["scheme", "mode", "event ms", "fast ms", "batch ms/model"],
    )


def test_batch_path_beats_event_engine(benchmark, report):
    """Tentpole check: batch evaluation >= 3x the event engine per model."""
    schedule, graph = _case("chimera", False)
    kernel = kernel_of(graph)
    base = suite_cost_model()
    models = batch_cost_models()
    result = benchmark(simulate_batch, schedule, models, kernel=kernel)
    event = _best(lambda: simulate(schedule, base, graph=graph))
    batch = _best(lambda: simulate_batch(schedule, models, kernel=kernel))
    per_model = batch / len(models)
    assert result.iteration_time[0] > 0
    assert event / per_model >= 3.0, (
        f"batch path only {event / per_model:.1f}x the event engine"
    )
    report(
        f"chimera D={DEPTH} N={MICRO_BATCHES}: event {event * 1e3:.2f} ms, "
        f"batch {per_model * 1e3:.2f} ms/model "
        f"({event / per_model:.1f}x over {len(models)} models)"
    )


def test_kernel_comparison_table(benchmark, report):
    """The full kernel x scheme comparison grid."""
    report(benchmark(run))


if __name__ == "__main__":  # pragma: no cover - CI smoke entry point
    print(run())
