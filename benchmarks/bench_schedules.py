"""Micro-benchmarks of the library itself: schedule construction, the
simulator, and the schedule timelines of Figures 2/3/7/8."""

from repro.schedules.chimera import build_chimera_schedule
from repro.schedules.registry import build_schedule
from repro.sim.cost import CostModel
from repro.sim.gantt import render_gantt
from repro.sim.kernel import simulate_fast


def test_build_chimera_d32(benchmark):
    schedule = benchmark(build_chimera_schedule, 32, 32)
    assert schedule.num_stages == 32


def test_build_chimera_forward_doubling(benchmark):
    schedule = benchmark(
        lambda: build_chimera_schedule(16, 64, concat="doubling")
    )
    assert schedule.num_micro_batches == 64


def test_build_chimera_four_pipelines(benchmark):
    schedule = benchmark(
        lambda: build_chimera_schedule(16, 16, num_down_pipelines=2)
    )
    assert schedule.num_replicas == 4


def test_simulate_chimera_d32(benchmark):
    schedule = build_chimera_schedule(32, 32)
    result = benchmark(simulate_fast, schedule, CostModel.practical())
    assert result.compute_makespan > 0


def test_figure2_3_7_8_timelines(benchmark, report):
    """Regenerate the paper's schedule diagrams as ASCII Gantt charts."""

    def render_all() -> str:
        charts = []
        for title, schedule in (
            ("Figure 2 (DAPPLE / 1F1B, D=4, N=4)", build_schedule("dapple", 4, 4)),
            ("Figure 2 (GPipe, D=4, N=4)", build_schedule("gpipe", 4, 4)),
            ("Figure 2 (GEMS, D=4, N=4)", build_schedule("gems", 4, 4)),
            ("Figure 3 (Chimera, D=4, N=4)", build_schedule("chimera", 4, 4)),
            (
                "Figure 7d (forward doubling, D=4, N=8)",
                build_schedule("chimera", 4, 8, concat="doubling"),
            ),
            (
                "Figure 8 (four pipelines, D=8, N=8)",
                build_schedule("chimera", 8, 8, num_down_pipelines=2),
            ),
        ):
            charts.append(title + "\n" + render_gantt(schedule, time_step=0.5))
        return "\n\n".join(charts)

    text = benchmark(render_all)
    report(text)
