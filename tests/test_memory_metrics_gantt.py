"""Memory model, metrics, and the Gantt renderer."""

import pytest

from repro.common.errors import MemoryModelError
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.gantt import render_gantt
from repro.sim.memory import MemoryModel, analyze_memory, weight_versions
from repro.sim.metrics import (
    bubble_ratio,
    parallel_efficiency,
    throughput_samples_per_sec,
    worker_busy_times,
)


class TestMemoryModel:
    def test_recompute_stores_stash_only(self):
        plain = build_schedule("dapple", 4, 4)
        recomp = build_schedule("dapple", 4, 4, recompute=True)
        mm = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.1)
        p = analyze_memory(plain, mm)
        r = analyze_memory(recomp, mm)
        assert r.peak_bytes < p.peak_bytes

    def test_recompute_transient_counted(self):
        """During a recomputed backward the full activation briefly lives."""
        recomp = build_schedule("gems", 4, 2, recompute=True)
        mm = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.1)
        r = analyze_memory(recomp, mm)
        # 1 stash (0.1) rematerializing to 1.0 at the peak.
        assert r.workers[0].activation_peak_bytes == pytest.approx(1.0)

    def test_per_stage_weight_bytes(self):
        schedule = build_schedule("dapple", 2, 2)
        mm = MemoryModel(activation_bytes=0.0, weight_bytes=(5.0, 1.0))
        report = analyze_memory(schedule, mm)
        assert report.workers[0].weight_bytes == 5.0
        assert report.workers[1].weight_bytes == 1.0

    def test_weight_versions_per_scheme(self):
        assert weight_versions("pipedream", 4, 0) == 4
        assert weight_versions("pipedream", 4, 3) == 1
        assert weight_versions("pipedream_2bw", 4, 0) == 2
        assert weight_versions("dapple", 4, 0) == 1
        # analyze_memory charges exactly those versions.
        mm = MemoryModel(activation_bytes=0.0, weight_bytes=1.0,
                         weight_stash_bytes=0.5)
        report = analyze_memory(build_schedule("pipedream", 4, 4), mm)
        assert [w.weight_bytes for w in report.workers] == [2.5, 2.0, 1.5, 1.0]

    def test_imbalance_and_fits(self):
        report = analyze_memory(
            build_schedule("dapple", 4, 4), MemoryModel(activation_bytes=1.0)
        )
        assert report.imbalance == pytest.approx(4.0)
        assert report.fits(report.peak_bytes)
        assert not report.fits(report.peak_bytes - 0.5)

    def test_fits_absorbs_float_accumulation_drift(self):
        """A peak assembled by float additions must not be rejected against
        an exactly-equal budget: 0.1 + 0.2 > 0.3 in binary floats, and the
        planner's budget prune feeds exact peaks back in as capacities."""
        from repro.sim.memory import MemoryReport, WorkerMemory

        drifted = MemoryReport(workers=(WorkerMemory(0, 0.0, 0.1 + 0.2, 3.0),))
        assert drifted.peak_bytes > 0.3  # the classic drift
        assert drifted.fits(0.3)
        assert not drifted.fits(0.3 - 1e-6)

    def test_backward_without_forward_raises(self):
        placement = StagePlacement.linear(1)
        rows = [[Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,))]]
        schedule = Schedule(
            scheme="toy",
            placement=placement,
            num_micro_batches=1,
            worker_ops=freeze_worker_ops(rows),
        )
        with pytest.raises(MemoryModelError):
            analyze_memory(schedule, MemoryModel())

    def test_per_stage_sequence_out_of_range(self):
        mm = MemoryModel(activation_bytes=(1.0,))
        schedule = build_schedule("dapple", 2, 2)
        with pytest.raises(MemoryModelError):
            analyze_memory(schedule, mm)


class TestMetrics:
    def test_worker_busy_times_uniform_for_balanced(self):
        r = simulate(build_schedule("chimera", 4, 4), CostModel.practical())
        busy = worker_busy_times(r)
        assert all(b == pytest.approx(busy[0]) for b in busy)

    def test_throughput_definition(self):
        r = simulate(build_schedule("dapple", 2, 2), CostModel.practical())
        thr = throughput_samples_per_sec(r, micro_batch_size=4, data_parallel_width=3)
        assert thr == pytest.approx(2 * 4 * 3 / r.iteration_time)

    def test_async_default_steady_state(self):
        r = simulate(build_schedule("pipedream", 4, 32), CostModel.practical())
        assert bubble_ratio(r) < bubble_ratio(r, steady_state=False)

    def test_parallel_efficiency(self):
        assert parallel_efficiency(100.0, 16, 400.0, 64) == pytest.approx(1.0)
        assert parallel_efficiency(100.0, 16, 200.0, 64) == pytest.approx(0.5)


class TestGantt:
    def test_renders_all_workers(self):
        text = render_gantt(build_schedule("chimera", 4, 4))
        for w in range(4):
            assert f"P{w}" in text

    def test_marks_backwards(self):
        text = render_gantt(build_schedule("dapple", 2, 2))
        assert "*" in text

    def test_reports_makespan(self):
        text = render_gantt(build_schedule("gpipe", 2, 2))
        assert "makespan" in text

    def test_accepts_simulation_result(self):
        r = simulate(build_schedule("gems", 4, 2), CostModel.practical())
        assert "gems" in render_gantt(r)
