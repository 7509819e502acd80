"""Chimera schedule construction — the paper's §3 claims, mechanically."""

from dataclasses import replace

import pytest

from repro.common.errors import ScheduleError
from repro.schedules.ir import freeze_worker_ops
from repro.schedules.registry import build_schedule
from repro.schedules.chimera import (
    build_chimera_schedule,
    partition_micro_batches,
)
from repro.schedules.validate import validate_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.metrics import bubble_ratio


def practical_makespan(depth, n):
    """3N + 2(D-2) forward units — the Figure 3 (bottom) makespan."""
    return 3 * n + 2 * (depth - 2)


class TestPartition:
    def test_even_split(self):
        assert partition_micro_batches(4, 2) == [[0, 1], [2, 3]]

    def test_uneven_split_front_loaded(self):
        assert partition_micro_batches(5, 2) == [[0, 1, 2], [3, 4]]

    def test_single_micro_batch(self):
        assert partition_micro_batches(1, 2) == [[0], []]

    def test_zero_rejected(self):
        with pytest.raises(ScheduleError):
            partition_micro_batches(0, 2)


class TestBasicUnit:
    @pytest.mark.parametrize("depth", [2, 4, 6, 8, 16, 32])
    def test_practical_makespan_formula(self, depth):
        """The merged N=D schedule hits 3N + 2(D-2) exactly (paper §2)."""
        schedule = build_chimera_schedule(depth, depth)
        result = simulate(schedule, CostModel.practical())
        assert result.compute_makespan == pytest.approx(
            practical_makespan(depth, depth)
        )

    @pytest.mark.parametrize("depth", [4, 8, 16])
    def test_unit_slot_makespan_formula(self, depth):
        """Equal-slot merge: 2N + D - 2 (Figure 3 top)."""
        schedule = build_chimera_schedule(depth, depth, slot_model="unit")
        result = simulate(schedule, CostModel.unit())
        assert result.compute_makespan == pytest.approx(3 * depth - 2)

    def test_figure3_worker_orders(self):
        """D=4, N=4: the merged per-worker orders of Figure 3."""
        schedule = build_chimera_schedule(4, 4)
        compute = [
            [op.short() for op in schedule.ops_on(w) if op.is_compute]
            for w in range(4)
        ]
        assert compute[0] == ["F0", "F1", "F2", "B2", "F3", "B3", "B0", "B1"]
        assert compute[3] == ["F2", "F3", "F0", "B0", "F1", "B1", "B2", "B3"]

    @pytest.mark.parametrize("depth,n", [(4, 4), (8, 8), (16, 16)])
    def test_bubble_ratio_practical(self, depth, n):
        """(D-2) / (3N/2 + D - 2) — Table 2's practical Chimera row."""
        schedule = build_chimera_schedule(depth, n)
        result = simulate(schedule, CostModel.practical())
        expected = (depth - 2) / (1.5 * n + depth - 2)
        assert bubble_ratio(result) == pytest.approx(expected)

    def test_odd_depth_rejected(self):
        with pytest.raises(ScheduleError):
            build_chimera_schedule(5, 5)

    def test_validates_with_sync(self):
        validate_schedule(build_chimera_schedule(8, 8), require_sync_ops=True)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_underfilled_pipeline_valid(self, n):
        """N < D: micro-batches split as evenly as possible (§3.1)."""
        schedule = build_chimera_schedule(8, n)
        validate_schedule(schedule, require_sync_ops=True)

    def test_single_micro_batch_runs_on_down_pipeline(self):
        schedule = build_chimera_schedule(4, 1)
        forwards = {
            (op.replica, mb)
            for _, op in schedule.all_ops()
            if op.is_forward
            for mb in op.micro_batches
        }
        assert forwards == {(0, 0)}


class TestActivationBalance:
    """Table 2: Chimera activations in [(D/2 + 1) Ma, D Ma], symmetric."""

    @pytest.mark.parametrize("depth", [4, 8, 16])
    def test_bounds(self, depth):
        schedule = build_chimera_schedule(depth, depth)
        report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
        units = [w.activation_peak_units for w in report.workers]
        assert min(units) == depth / 2 + 1
        assert max(units) == depth

    def test_symmetry(self):
        schedule = build_chimera_schedule(8, 8)
        report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
        units = [w.activation_peak_units for w in report.workers]
        assert units == units[::-1]

    def test_edge_workers_are_lightest(self):
        schedule = build_chimera_schedule(8, 8)
        report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
        units = [w.activation_peak_units for w in report.workers]
        assert units[0] == min(units) and units[-1] == min(units)


class TestConcatenation:
    @pytest.mark.parametrize("depth,k", [(4, 2), (4, 4), (8, 2), (8, 3), (16, 2)])
    def test_direct_bubble_law(self, depth, k):
        """Direct concatenation keeps intermediate bubbles (paper §3.5 /
        Figure 7b). Our list scheduler follows the empirical law
        ``2(D-2) + (D-3)(K-1)`` forward-units — sub-linear in total work,
        so the ratio still vanishes as N grows."""
        n = depth * k
        schedule = build_chimera_schedule(depth, n, concat="direct")
        result = simulate(schedule, CostModel.practical())
        bubbles = result.compute_makespan - 3 * n
        assert bubbles == pytest.approx(2 * (depth - 2) + (depth - 3) * (k - 1))

    @pytest.mark.parametrize("depth", [4, 8])
    def test_halving_bubbles_constant_in_n(self, depth):
        """Backward halving removes the intermediate bubbles: the total
        stays constant (~D-2, paper §3.5) no matter how many units chain."""
        bubbles = []
        for k in (2, 4, 6):
            n = depth * k
            schedule = build_chimera_schedule(depth, n, concat="halving")
            result = simulate(schedule, CostModel.practical())
            bubbles.append(result.compute_makespan - 3 * n)
        assert bubbles[0] == bubbles[1] == bubbles[2]
        assert depth - 2 <= bubbles[0] <= depth

    def test_halving_beats_direct_at_large_n(self):
        cost = CostModel.practical()
        n = 32
        direct = simulate(build_chimera_schedule(8, n, concat="direct"), cost)
        halving = simulate(build_chimera_schedule(8, n, concat="halving"), cost)
        assert halving.compute_makespan < direct.compute_makespan

    @pytest.mark.parametrize("depth,k", [(4, 2), (8, 2)])
    def test_doubling_beats_direct_under_recompute(self, depth, k):
        """When recomputation is mandatory anyway (Figure 18's regime),
        forward doubling outperforms direct concatenation — under the
        paper's model, where rematerialization inflates the backward on
        the critical path (B = 3F, the legacy flag representation). The
        explicit recompute pass instead prefetches rematerialization
        into bubbles and closes the gap from the other side."""
        n = depth * k
        cost = CostModel.practical()
        direct = build_chimera_schedule(depth, n, concat="direct")
        flagged = replace(
            direct,
            worker_ops=freeze_worker_ops(
                [
                    [op.with_recompute() if op.is_backward else op for op in ops]
                    for ops in direct.worker_ops
                ]
            ),
        )
        flag_time = simulate(flagged, cost).compute_makespan
        doubling = simulate(
            build_chimera_schedule(depth, n, concat="doubling"), cost
        ).compute_makespan
        assert doubling < flag_time
        prefetched = simulate(
            build_schedule("chimera", depth, n, concat="direct", passes="recompute"),
            cost,
        ).compute_makespan
        assert prefetched <= doubling

    def test_doubling_direct_same_without_recompute_tax(self):
        """On Bert-48-like workloads (no recompute needed), direct avoids
        the doubling recompute tax (Figure 17's regime)."""
        cost = CostModel.practical()
        direct = simulate(build_chimera_schedule(4, 8, concat="direct"), cost)
        doubling = simulate(build_chimera_schedule(4, 8, concat="doubling"), cost)
        assert direct.compute_makespan < doubling.compute_makespan

    def test_doubling_memory_doubles(self):
        model = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.25)
        base = analyze_memory(build_chimera_schedule(4, 8, concat="direct"), model)
        doubled = analyze_memory(
            build_chimera_schedule(4, 8, concat="doubling"), model
        )
        base_units = max(w.activation_peak_units for w in base.workers)
        doubled_units = max(w.activation_peak_units for w in doubled.workers)
        assert doubled_units > base_units

    @pytest.mark.parametrize("concat", ["direct", "doubling", "halving"])
    def test_all_strategies_validate(self, concat):
        for depth, n in ((4, 8), (4, 12), (8, 24)):
            schedule = build_chimera_schedule(depth, n, concat=concat)
            validate_schedule(schedule, require_sync_ops=True)

    def test_odd_residual_doubling(self):
        schedule = build_chimera_schedule(4, 10, concat="doubling")
        validate_schedule(schedule, require_sync_ops=True)

    @pytest.mark.parametrize("n", [32, 64])
    def test_deep_doubling_chains_do_not_stall(self, n):
        """Regression: D=4 forward doubling with 8+ units used to wedge in
        a cap-wait cycle; the merge's stall recovery must resolve it."""
        schedule = build_chimera_schedule(4, n, concat="doubling")
        validate_schedule(schedule, require_sync_ops=True)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ScheduleError):
            build_chimera_schedule(4, 8, concat="tripling")

    def test_concat_ignored_when_n_le_d(self):
        schedule = build_chimera_schedule(8, 8, concat="doubling")
        assert schedule.metadata["concat"] == "direct"


class TestGeneralizedPipelines:
    @pytest.mark.parametrize("depth,f", [(8, 2), (16, 2), (16, 4), (8, 4)])
    def test_table3_bubble_formula(self, depth, f):
        schedule = build_chimera_schedule(
            depth, depth, num_down_pipelines=f, slot_model="unit"
        )
        result = simulate(schedule, CostModel.unit())
        expected = (depth - 2 * f) / (2 * f * depth + depth - 2 * f)
        assert bubble_ratio(result) == pytest.approx(expected)

    @pytest.mark.parametrize("depth,f", [(8, 2), (16, 4)])
    def test_table3_activation_lower_bound(self, depth, f):
        schedule = build_chimera_schedule(
            depth, depth, num_down_pipelines=f, slot_model="unit"
        )
        report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
        units = [w.activation_peak_units for w in report.workers]
        assert min(units) == depth - depth / (2 * f) + 1
        assert max(units) <= depth

    def test_f_equals_q_no_bubbles(self):
        """f = Q = D/2 degrades to (pipelined) pure data parallelism."""
        depth = 8
        schedule = build_chimera_schedule(
            depth, depth, num_down_pipelines=depth // 2, slot_model="unit"
        )
        result = simulate(schedule, CostModel.unit())
        assert bubble_ratio(result) == pytest.approx(0.0)

    def test_weights_memory_2f(self):
        schedule = build_chimera_schedule(8, 8, num_down_pipelines=2)
        report = analyze_memory(
            schedule, MemoryModel(activation_bytes=0.0, weight_bytes=1.0)
        )
        assert all(w.weight_bytes == 4.0 for w in report.workers)

    def test_invalid_f_rejected(self):
        with pytest.raises(ScheduleError):
            build_chimera_schedule(8, 8, num_down_pipelines=3)


class TestSyncModes:
    def test_eager_opt_skips_middle_stages_d4(self):
        """Paper §3.2: P0/P3 sync stage 3 eagerly; P1/P2 sync lazily."""
        schedule = build_chimera_schedule(4, 4, sync_mode="eager_opt")
        # P0: eager allreduce for the up replica's stage 3 sits before the
        # last compute ops.
        p0 = [op.short() for op in schedule.ops_on(0)]
        assert p0.index("S3r1") < p0.index("B0")
        # P1: both allreduces trail all compute.
        p1_kinds = [op.kind.value for op in schedule.ops_on(1)]
        assert p1_kinds[-2:] == ["S", "S"]

    def test_eager_places_all_after_last_backward(self):
        schedule = build_chimera_schedule(4, 4, sync_mode="eager")
        for worker in range(4):
            ops = schedule.ops_on(worker)
            for i, op in enumerate(ops):
                if op.kind.value != "S":
                    continue
                later_bwd = [
                    o
                    for o in ops[i + 1 :]
                    if o.is_backward and o.replica == op.replica and o.stage == op.stage
                ]
                assert not later_bwd

    def test_lazy_appends_all_syncs(self):
        schedule = build_chimera_schedule(4, 4, sync_mode="lazy")
        for worker in range(4):
            kinds = [op.kind.value for op in schedule.ops_on(worker)]
            assert kinds[-2:] == ["S", "S"]

    def test_unknown_sync_mode_rejected(self):
        with pytest.raises(ScheduleError):
            build_chimera_schedule(4, 4, sync_mode="psychic")

    def test_unknown_slot_model_rejected(self):
        with pytest.raises(ScheduleError):
            build_chimera_schedule(4, 4, slot_model="quantum")
