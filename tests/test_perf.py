"""Performance model (Equation 1) and configuration selection (§3.4)."""

import pytest

from repro.bench.machines import PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48, GPT2_64
from repro.common.errors import ConfigurationError
from repro.perf.calibration import calibrate_cost_model, calibrate_memory_model
from repro.perf.model import (
    chimera_critical_path,
    predict_closed_form,
    predict_iteration_time,
)
from repro.perf.planner import greedy_micro_batch, select_configuration
from repro.schedules.chimera import build_chimera_schedule
from repro.schedules.registry import build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate


class TestCriticalPath:
    def test_figure6_example(self):
        """D = 6, N = 6 gives C_f = 6, C_b = 10 (paper Figure 6)."""
        assert chimera_critical_path(6, 6) == (6, 10)

    def test_full_pipeline_counts(self):
        assert chimera_critical_path(4, 8) == (8, 10)

    def test_underfilled_pipeline_floors_at_depth(self):
        assert chimera_critical_path(8, 1) == (8, 8)

    def test_odd_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            chimera_critical_path(5, 5)


class TestClosedForm:
    def test_matches_simulated_makespan_balanced(self):
        """For balanced stages and no comms, Eq. (1) compute term equals
        the engine's makespan exactly (N = D)."""
        for depth in (4, 8, 16):
            pred = predict_closed_form(depth, depth, forward_time=1.0)
            sched = build_chimera_schedule(depth, depth)
            sim = simulate(sched, CostModel.practical())
            assert pred.compute_time == pytest.approx(sim.compute_makespan)

    def test_recompute_ratio_used(self):
        plain = predict_closed_form(4, 4, forward_time=1.0)
        recomp = predict_closed_form(4, 4, forward_time=1.0, recompute=True)
        assert recomp.compute_time > plain.compute_time

    def test_p2p_term_linear(self):
        base = predict_closed_form(4, 4, forward_time=1.0)
        comm = predict_closed_form(4, 4, forward_time=1.0, comm_p2p=0.5)
        c_f, c_b = chimera_critical_path(4, 4)
        assert comm.compute_time - base.compute_time == pytest.approx(
            0.5 * (c_f + c_b)
        )


class TestFullModel:
    @pytest.mark.parametrize(
        "depth,width,b", [(4, 8, 8), (8, 4, 4), (16, 2, 2)]
    )
    def test_error_under_10_percent(self, depth, width, b):
        """The paper reports <10% model error (§4.2.2)."""
        n = max(depth, 256 // (width * b))
        cost = calibrate_cost_model(
            PIZ_DAINT, BERT48, depth=depth, micro_batch=b, data_parallel_width=width
        )
        pred = predict_iteration_time(depth, n, cost)
        sim = simulate(build_chimera_schedule(depth, n), cost)
        err = abs(pred.iteration_time - sim.iteration_time) / sim.iteration_time
        assert err < 0.10

    def test_ranking_matches_practice_bert48(self):
        """The model must pick the same best (W, D) as the simulation
        (Figure 13, Bert-48 panel)."""
        mini_batch = 256
        ranked_model, ranked_sim = [], []
        for depth in (2, 4, 8, 16):
            width = 32 // depth
            picked = greedy_micro_batch(
                PIZ_DAINT, BERT48, width=width, depth=depth, mini_batch=mini_batch
            )
            assert picked is not None
            b, recompute = picked
            n = mini_batch // (width * b)
            cost = calibrate_cost_model(
                PIZ_DAINT, BERT48, depth=depth, micro_batch=b,
                data_parallel_width=width,
            )
            pred = predict_iteration_time(depth, n, cost, recompute=recompute)
            sim = simulate(
                build_schedule(
                    "chimera", depth, n, passes="recompute" if recompute else ""
                ),
                cost,
            )
            ranked_model.append((pred.iteration_time, depth))
            ranked_sim.append((sim.iteration_time, depth))
        assert min(ranked_model)[1] == min(ranked_sim)[1]


class TestSelector:
    def test_returns_sorted_candidates(self):
        ranked = select_configuration(
            PIZ_DAINT, BERT48, num_workers=32, mini_batch=512
        )
        times = [c.predicted_time for c in ranked]
        assert times == sorted(times)

    def test_depths_divide_workers_and_layers(self):
        ranked = select_configuration(
            PIZ_DAINT, BERT48, num_workers=32, mini_batch=512
        )
        for c in ranked:
            assert 32 % c.depth == 0
            assert BERT48.num_layers % c.depth == 0
            assert c.width * c.depth == 32

    def test_greedy_prefers_largest_fitting_b(self):
        picked = greedy_micro_batch(
            PIZ_DAINT, BERT48, width=8, depth=4, mini_batch=512
        )
        assert picked is not None
        b, _ = picked
        assert b >= 8  # Chimera runs B=8 here in the paper

    def test_too_few_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            select_configuration(PIZ_DAINT, BERT48, num_workers=1, mini_batch=64)

    def test_v100_cluster_also_selects(self):
        ranked = select_configuration(
            V100_CLUSTER, BERT48, num_workers=16, mini_batch=128
        )
        assert ranked


class TestCalibration:
    def test_stage_scales_reflect_head_weight(self):
        cost = calibrate_cost_model(PIZ_DAINT, GPT2_64, depth=8, micro_batch=1)
        assert cost.stage_scale is not None
        assert max(cost.stage_scale) == cost.stage_scale[-1]  # LM head stage

    def test_small_micro_batch_less_efficient(self):
        small = calibrate_cost_model(PIZ_DAINT, BERT48, depth=4, micro_batch=1)
        large = calibrate_cost_model(PIZ_DAINT, BERT48, depth=4, micro_batch=8)
        # Per-sample time = F_t / B must shrink with B.
        assert large.forward_time / 8 < small.forward_time

    def test_memory_model_embedding_on_first_stage(self):
        mm = calibrate_memory_model(PIZ_DAINT, BERT48, depth=4, micro_batch=4)
        assert mm.weights(0) > mm.weights(1)

    def test_grad_bytes_track_params(self):
        cost = calibrate_cost_model(PIZ_DAINT, BERT48, depth=4, micro_batch=4)
        profiles = BERT48.stage_profiles(4, 4)
        for stage, p in enumerate(profiles):
            assert cost.grad_bytes(stage) == pytest.approx(4.0 * p.params)

    @pytest.mark.parametrize(
        "calibrate", [calibrate_cost_model, calibrate_memory_model]
    )
    def test_calibration_memoized_per_distinct_input(self, calibrate):
        """A repeated calibration returns the memoized model, equal to an
        uncached one; a different input gets its own; the memo is bounded."""
        first = calibrate(V100_CLUSTER, GPT2_64, depth=8, micro_batch=3)
        assert calibrate(V100_CLUSTER, GPT2_64, depth=8, micro_batch=3) is first
        fresh = calibrate.__wrapped__(V100_CLUSTER, GPT2_64, depth=8, micro_batch=3)
        assert fresh is not first
        assert fresh == first
        other = calibrate(V100_CLUSTER, GPT2_64, depth=8, micro_batch=5)
        assert other != first
        maxsize = calibrate.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 4096


class TestSelectorRemoval:
    def test_deprecated_shim_is_gone(self):
        """The repro.perf.selector deprecation shim was retired; the §3.4
        objects live in (and only in) repro.perf.planner."""
        import importlib
        import sys

        sys.modules.pop("repro.perf.selector", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.perf.selector")
        from repro.perf import planner

        assert callable(planner.select_configuration)
        assert callable(planner.greedy_micro_batch)
        assert planner.ConfigCandidate is not None
