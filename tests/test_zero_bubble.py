"""Zero-bubble schedules (ZB-H1/ZB-V and the memory-controllable
ZB-vhalf/ZB-vmin): signatures, regression vs DAPPLE, training parity."""

import numpy as np
import pytest

from repro.common.errors import ScheduleError
from repro.models.reference import SequentialTrainer
from repro.models.transformer import build_transformer_layers
from repro.runtime.optimizers import SGD
from repro.runtime.trainer import PipelineTrainer
from repro.schedules.analysis import (
    activation_interval_formula,
    bubble_ratio_formula,
    scheme_properties,
)
from repro.schedules.ir import OpKind
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import build_schedule
from repro.schedules.validate import validate_schedule
from repro.schedules.lowering import lower_schedule
from repro.schedules.zero_bubble import (
    build_zb_h1_schedule,
    build_zb_v_schedule,
    build_zb_vhalf_schedule,
    build_zb_vmin_schedule,
    stable_pattern,
)
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.metrics import bubble_ratio
from tests.conftest import make_micro_batches

SHAPES = [(2, 4), (4, 4), (4, 8), (8, 8), (8, 16)]


class TestVShapedPlacement:
    def test_folds_chunks_over_workers(self):
        p = StagePlacement.vshaped(4)
        assert p.num_stages == 8 and p.num_workers == 4
        assert [p.worker_of(0, s) for s in range(8)] == [0, 1, 2, 3, 3, 2, 1, 0]
        # Worker 0 hosts the first and the last chunk.
        assert p.stages_on_worker(0) == ((0, 0), (0, 7))

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ScheduleError):
            StagePlacement.vshaped(0)


ALL_ZB_BUILDERS = [
    build_zb_h1_schedule,
    build_zb_v_schedule,
    build_zb_vhalf_schedule,
    build_zb_vmin_schedule,
]


@pytest.mark.parametrize("builder", ALL_ZB_BUILDERS)
class TestZeroBubbleStructure:
    @pytest.mark.parametrize("depth,n", SHAPES)
    def test_validates_with_sync(self, builder, depth, n):
        # Sync placement is the registry's insert_sync pass, not the
        # builder's job.
        scheme = builder(2, 2).scheme
        validate_schedule(build_schedule(scheme, depth, n), require_sync_ops=True)

    @pytest.mark.parametrize("depth,n", [(4, 8)])
    def test_every_backward_is_split(self, builder, depth, n):
        schedule = builder(depth, n)
        assert schedule.count(OpKind.BACKWARD) == 0
        expected = schedule.num_stages * n
        assert schedule.count(OpKind.BACKWARD_INPUT) == expected
        assert schedule.count(OpKind.BACKWARD_WEIGHT) == expected

    def test_marked_synchronous(self, builder):
        assert builder(4, 8).synchronous

    def test_rejects_bad_args(self, builder):
        with pytest.raises(ScheduleError):
            builder(0, 4)
        with pytest.raises(ScheduleError):
            builder(4, 0)


@pytest.mark.parametrize("scheme", ["zb_h1", "zb_v"])
@pytest.mark.parametrize("depth,n", SHAPES)
class TestZeroBubbleRegression:
    def test_strictly_lower_bubble_than_dapple(self, scheme, depth, n):
        """The acceptance bar: at equal depth / micro-batches the zero-bubble
        schedules must beat synchronous 1F1B's bubble ratio outright."""
        cost = CostModel.practical()
        zb = simulate(build_schedule(scheme, depth, n), cost)
        dapple = simulate(build_schedule("dapple", depth, n), cost)
        assert bubble_ratio(zb) < bubble_ratio(dapple)

    def test_bubble_tracks_formula(self, scheme, depth, n):
        """ZB-H1's 2(D-1)/(3N + 2(D-1)) is exact; ZB-V's asymptote is met
        within a couple of greedy time units."""
        result = simulate(build_schedule(scheme, depth, n), CostModel.practical())
        formula = bubble_ratio_formula(scheme, depth, n)
        if scheme == "zb_h1":
            assert bubble_ratio(result) == pytest.approx(formula)
        else:
            assert bubble_ratio(result) == pytest.approx(formula, abs=0.02)

    def test_activation_interval_formula_exact(self, scheme, depth, n):
        report = analyze_memory(
            build_schedule(scheme, depth, n), MemoryModel(activation_bytes=1.0)
        )
        units = [w.activation_peak_units for w in report.workers]
        lo, hi = activation_interval_formula(scheme, depth, n)
        assert min(units) == pytest.approx(lo)
        assert max(units) == pytest.approx(hi)


class TestZeroBubbleSignatures:
    def test_zb_h1_same_memory_as_dapple(self):
        """ZB-H1's cap preserves the 1F1B activation signature exactly."""
        mm = MemoryModel(activation_bytes=1.0)
        h1 = analyze_memory(build_zb_h1_schedule(4, 8), mm)
        assert [w.activation_peak_units for w in h1.workers] == [4, 3, 2, 1]

    def test_zb_h1_makespan_closed_form(self):
        for depth, n in SHAPES:
            result = simulate(
                build_zb_h1_schedule(depth, n), CostModel.practical()
            )
            assert result.compute_makespan == pytest.approx(3 * n + 2 * (depth - 1))

    def test_zb_v_constant_memory_in_n(self):
        mm = MemoryModel(activation_bytes=1.0)
        peaks = []
        for n in (8, 16, 32):
            report = analyze_memory(build_zb_v_schedule(4, n), mm)
            units = [w.activation_peak_units for w in report.workers]
            assert min(units) == max(units)  # perfectly balanced
            peaks.append(max(units))
        assert peaks == [8, 8, 8]  # 2D chunk stashes, independent of N

    def test_max_in_flight_tightens_memory(self):
        """The cap trades bubble time for activation memory on ZB-H1."""
        for cap in (1, 2, 3):
            schedule = build_schedule("zb_h1", 4, 8, max_in_flight=cap)
            validate_schedule(schedule, require_sync_ops=True)
            report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
            assert max(w.activation_peak_units for w in report.workers) <= cap

    def test_zb_v_cap_is_best_effort_at_the_turn(self):
        """ZB-V's worker 0 hosts both ends of the V; a cap below the round
        trip is relaxed just enough to keep the pipeline deadlock-free."""
        schedule = build_schedule("zb_v", 4, 8, max_in_flight=6)
        validate_schedule(schedule, require_sync_ops=True)
        report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
        units = [w.activation_peak_units for w in report.workers]
        assert max(units[1:]) <= 6  # enforced away from the turn
        assert units[0] <= 2 * 4  # never beyond the default budget

    def test_scheme_properties_bundle(self):
        props = scheme_properties("zb_h1", 8, 8)
        assert props.synchronous
        assert props.weight_copies == 1.0
        assert props.bubble_ratio == pytest.approx(14 / 38)

    def test_recompute_inserts_explicit_ops(self):
        """The recompute pass precedes each first backward (the Bi half)
        with one RECOMPUTE op; no flags are stamped."""
        schedule = build_schedule("zb_h1", 4, 4, recompute=True)
        assert not any(op.recompute for _, op in schedule.all_ops())
        remats = schedule.count(OpKind.RECOMPUTE)
        assert remats == schedule.count(OpKind.BACKWARD_INPUT)
        validate_schedule(schedule)


class TestMemoryControllable:
    """ZB-vhalf / ZB-vmin: the controllable-memory stable-pattern family."""

    DEPTHS = (2, 4, 8)

    @pytest.mark.parametrize("scheme", ["zb_vhalf", "zb_vmin"])
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_validates_lowers_and_simulates(self, scheme, depth):
        """Acceptance: both variants validate, lower, and simulate for
        D in {2, 4, 8}."""
        schedule = build_schedule(scheme, depth, 2 * depth)
        validate_schedule(schedule, require_sync_ops=True)
        lowered = lower_schedule(schedule)
        validate_schedule(lowered)
        for s in (schedule, lowered):
            result = simulate(s, CostModel.practical())
            assert result.compute_makespan > 0

    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_peak_memory_ordering_vmin_vhalf_zbv(self, depth, n):
        """Acceptance: measured peak activation memory respects
        vmin <= vhalf <= zb_v at equal (D, N)."""
        mm = MemoryModel(activation_bytes=1.0)

        def peak(scheme):
            report = analyze_memory(build_schedule(scheme, depth, n), mm)
            return max(w.activation_peak_units for w in report.workers)

        assert peak("zb_vmin") <= peak("zb_vhalf") <= peak("zb_v")

    def test_vhalf_roughly_halves_and_vmin_roughly_thirds_zb_v(self):
        """The headline claim at a saturated pipeline (N >> D): vhalf sits
        near half of ZB-V's 2D chunk budget (D + 2), vmin near a third
        (~2D/3 + 2)."""
        mm = MemoryModel(activation_bytes=1.0)
        for depth in (8, 12):
            vhalf = analyze_memory(build_zb_vhalf_schedule(depth, 3 * depth), mm)
            vmin = analyze_memory(build_zb_vmin_schedule(depth, 3 * depth), mm)
            assert max(w.activation_peak_units for w in vhalf.workers) == depth + 2
            assert (
                max(w.activation_peak_units for w in vmin.workers)
                <= 2 * depth / 3 + 3
            )

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_makespan_closed_forms(self, depth):
        """Unit-cost makespans: 6N + max(0, 4D + i - 5) for vmin (i = 2
        when 3 | D) and 6N + (7D - 4)/2 for even D on vhalf, exact for
        N >= D."""
        n = 2 * depth
        vmin = simulate(build_zb_vmin_schedule(depth, n), CostModel.practical())
        interval = 2 if depth % 3 == 0 else 0
        assert vmin.compute_makespan == pytest.approx(
            6 * n + max(0, 4 * depth + interval - 5)
        )
        vhalf = simulate(build_zb_vhalf_schedule(depth, n), CostModel.practical())
        assert vhalf.compute_makespan == pytest.approx(6 * n + (7 * depth - 4) / 2)

    @pytest.mark.parametrize("depth", [3, 6, 9, 12])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_vmin_bubble_formula_exact_at_interval_depths(self, depth, n):
        """Regression: when 3 | D the interval correction only applies for
        N >= 2 (a single micro-batch has nothing to collide with), and the
        analytic bubble must track the simulation exactly either way."""
        result = simulate(build_zb_vmin_schedule(depth, n), CostModel.practical())
        assert bubble_ratio(result) == pytest.approx(
            bubble_ratio_formula("zb_vmin", depth, n)
        )
        interval = 2 if n >= 2 else 0
        assert result.compute_makespan == pytest.approx(
            6 * n + max(0, 4 * depth + interval - 5)
        )

    @pytest.mark.parametrize("scheme", ["zb_vhalf", "zb_vmin"])
    def test_stable_pattern_collision_free(self, scheme):
        """Each worker's four streams occupy distinct tick residues mod 6,
        so micro-batches interleave without collisions for every N."""
        for depth in range(1, 33):
            for row in stable_pattern(scheme, depth):
                assert len(row) == 4
                assert all(t >= 0 for t in row)
                assert len({t % 6 for t in row}) == 4

    def test_stable_pattern_rejects_unknown_scheme(self):
        with pytest.raises(ScheduleError, match="no stable pattern"):
            stable_pattern("zb_h1", 4)

    @pytest.mark.parametrize("scheme", ["zb_vhalf", "zb_vmin"])
    def test_recompute_inserts_explicit_ops(self, scheme):
        schedule = build_schedule(scheme, 4, 4, recompute=True)
        assert not any(op.recompute for _, op in schedule.all_ops())
        assert schedule.count(OpKind.RECOMPUTE) == schedule.count(
            OpKind.BACKWARD_INPUT
        )
        validate_schedule(schedule)

    @pytest.mark.parametrize("scheme", ["zb_vhalf", "zb_vmin"])
    def test_constant_memory_in_n(self, scheme):
        mm = MemoryModel(activation_bytes=1.0)
        peaks = []
        for n in (12, 24, 48):
            report = analyze_memory(build_schedule(scheme, 4, n), mm)
            peaks.append(max(w.activation_peak_units for w in report.workers))
        assert peaks[0] == peaks[1] == peaks[2]


class TestZeroBubbleTraining:
    def run_pair(self, tiny_config, scheme, depth, n, iters=3, **kw):
        opt = lambda: SGD(0.05)
        trainer = PipelineTrainer(
            tiny_config,
            scheme=scheme,
            depth=depth,
            num_micro_batches=n,
            optimizer_factory=opt,
            **kw,
        )
        ref = SequentialTrainer(build_transformer_layers(tiny_config), opt())
        lp, ls = [], []
        for it in range(iters):
            mbs = make_micro_batches(
                tiny_config, n * kw.get("width", 1), 2, seed=100 + it
            )
            lp.append(trainer.train_step(mbs))
            ls.append(ref.train_step(mbs))
        return trainer, ref, lp, ls

    @staticmethod
    def max_weight_diff(trainer, ref):
        return max(
            float(np.abs(a.params[k] - b.params[k]).max())
            for a, b in zip(trainer.full_model_layers(), ref.layers)
            for k in a.params
        )

    @pytest.mark.parametrize(
        "scheme,depth",
        [("zb_h1", 4), ("zb_v", 2), ("zb_vhalf", 2), ("zb_vmin", 2)],
    )
    def test_matches_sequential_sgd(self, tiny_config, scheme, depth):
        trainer, ref, lp, ls = self.run_pair(tiny_config, scheme, depth, 4)
        assert lp == pytest.approx(ls, abs=1e-9)
        assert self.max_weight_diff(trainer, ref) < 1e-10

    @pytest.mark.parametrize("scheme,depth", [("zb_h1", 4), ("zb_v", 2)])
    def test_loss_parity_with_fused_dapple(self, tiny_config, scheme, depth):
        """Acceptance: split-backward training lands on the same losses as
        fused-backward DAPPLE within 1e-6."""
        _, _, zb_losses, _ = self.run_pair(tiny_config, scheme, depth, 8)
        _, _, dapple_losses, _ = self.run_pair(tiny_config, "dapple", 4, 8)
        assert zb_losses == pytest.approx(dapple_losses, abs=1e-6)

    def test_zb_h1_recompute_matches_sgd(self, tiny_config):
        trainer, ref, _, _ = self.run_pair(
            tiny_config, "zb_h1", 4, 4, pipeline="recompute"
        )
        assert self.max_weight_diff(trainer, ref) < 1e-10

    def test_zb_h1_data_parallel_width(self, tiny_config):
        trainer, ref, lp, ls = self.run_pair(tiny_config, "zb_h1", 4, 4, width=2)
        assert lp == pytest.approx(ls, abs=1e-9)
        assert self.max_weight_diff(trainer, ref) < 1e-10
        assert trainer.replicas_in_sync(atol=1e-12)

    def test_zb_v_partitions_double_stages(self, tiny_config):
        trainer, _, _, _ = self.run_pair(tiny_config, "zb_v", 2, 4)
        assert trainer.schedule.num_stages == 4
        # Worker 0 hosts the first and last chunk of the single replica.
        assert trainer.schedule.replicas_hosted_by(0) == ((0, 0), (0, 3))
