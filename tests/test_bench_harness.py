"""Machines, workloads, and the experiment harness."""

import math
from dataclasses import replace

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    best_result,
    format_table,
    rank_by_throughput,
    run_configuration,
    sweep,
)
from repro.bench.machines import PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48, GPT2_32, GPT2_64
from repro.cli import main as cli_main
from repro.common.errors import ConfigurationError
from repro.sim.network import FlatTopology, HierarchicalTopology


class TestWorkloads:
    def test_bert48_params_close_to_table4(self):
        assert abs(BERT48.total_params - 669_790_012) / 669_790_012 < 0.01

    def test_gpt2_params_close_to_table4(self):
        assert abs(GPT2_64.total_params - 1_389_327_360) / 1_389_327_360 < 0.01

    def test_stage_profiles_cover_all_params(self):
        for workload in (BERT48, GPT2_64, GPT2_32):
            profiles = workload.stage_profiles(4, 2)
            assert sum(p.params for p in profiles) == workload.total_params

    def test_uneven_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            BERT48.stage_profiles(5, 1)

    def test_head_stage_heaviest_flops(self):
        profiles = GPT2_64.stage_profiles(8, 1)
        assert max(p.forward_flops for p in profiles) == profiles[-1].forward_flops

    def test_embedding_stage_heaviest_params(self):
        profiles = GPT2_64.stage_profiles(8, 1)
        assert max(p.params for p in profiles) == profiles[0].params

    def test_boundary_bytes_scale_with_micro_batch(self):
        assert BERT48.boundary_bytes(4) == 4 * BERT48.boundary_bytes(1)


class TestMachines:
    def test_piz_daint_flat_topology(self):
        assert isinstance(PIZ_DAINT.topology(), FlatTopology)

    def test_v100_hierarchical_topology(self):
        topo = V100_CLUSTER.topology()
        assert isinstance(topo, HierarchicalTopology)
        assert topo.p2p_time(0, 1, 1e9) < topo.p2p_time(7, 8, 1e9)

    def test_usable_memory_below_total(self):
        assert PIZ_DAINT.usable_memory_bytes < PIZ_DAINT.memory_bytes


class TestHarness:
    def _cfg(self, **kw):
        base = dict(
            scheme="chimera",
            machine=PIZ_DAINT,
            workload=BERT48,
            width=8,
            depth=4,
            micro_batch=8,
            mini_batch=512,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_micro_batch_count(self):
        assert self._cfg().num_micro_batches() == 8

    def test_indivisible_mini_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            self._cfg(mini_batch=500).num_micro_batches()

    def test_run_produces_throughput(self):
        r = run_configuration(self._cfg())
        assert r.throughput > 0
        assert 0 <= r.bubble_ratio < 1
        assert r.peak_memory_bytes > r.min_memory_bytes

    def test_auto_recompute_on_memory_pressure(self):
        r = run_configuration(
            self._cfg(
                scheme="gpipe", width=2, depth=16, micro_batch=16, mini_batch=2048
            )
        )
        assert r.recompute or r.oom

    def test_forced_recompute_respected(self):
        r = run_configuration(self._cfg(recompute=True))
        assert r.recompute

    def test_oom_reports_zero_throughput(self):
        r = run_configuration(
            self._cfg(
                scheme="gpipe",
                workload=GPT2_64,
                width=1,
                depth=32,
                micro_batch=4,
                mini_batch=512,
            )
        )
        if r.oom:
            assert r.throughput == 0.0

    def test_sweep_skips_invalid(self):
        configs = [
            self._cfg(),
            self._cfg(depth=6),  # 48 layers fine but 32 % 6 != 0 at width 8
            self._cfg(mini_batch=500),
        ]
        results = sweep(configs)
        assert len(results) >= 1

    def test_best_result_prefers_throughput(self):
        results = sweep([self._cfg(), self._cfg(micro_batch=4)])
        best = best_result(results)
        assert best is not None
        assert best.throughput == max(r.throughput for r in results)

    def test_best_result_ignores_one_ulp_and_input_order(self):
        """Near-tied results rank by label: a 1-ulp throughput nudge in
        either direction, in either input order, keeps the same best."""
        result = run_configuration(self._cfg())
        dapple = replace(result, config=self._cfg(scheme="dapple"))
        for nudge in (math.inf, -math.inf):
            pair = [
                replace(dapple, throughput=1.0),
                replace(result, throughput=math.nextafter(1.0, nudge)),
            ]
            for ordered in (pair, pair[::-1]):
                assert best_result(ordered).config.scheme == "chimera"
        # A real gap still wins on throughput.
        gap = [replace(result, throughput=1.0), replace(dapple, throughput=1.1)]
        assert best_result(gap).config.scheme == "dapple"

    @pytest.mark.parametrize(
        "field", ["memory_budget_bytes", "host_memory_budget_bytes"]
    )
    @pytest.mark.parametrize("budget", [math.nan, 0.0, -1.0])
    def test_nan_or_non_positive_budget_rejected(self, field, budget):
        """A NaN budget passes ``budget <= 0``; let through, it would make
        ``capacity_bytes`` ``min(usable, nan)``: the device capacity."""
        with pytest.raises(ConfigurationError, match="budget must be positive"):
            self._cfg(**{field: budget})

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--width", "0"], "width"),
            (["--micro-batch", "0"], "micro_batch"),
            (["--mini-batch", "0"], "mini_batch"),
            (["--width", "-2"], "width"),
            (["--width", "-2", "--micro-batch", "-4"], "width"),
        ],
    )
    def test_sizes_below_one_rejected(self, flags, field):
        """``repro simulate`` names the bad size instead of dividing by
        zero in ``num_micro_batches`` or blaming a derived quantity."""
        with pytest.raises(ConfigurationError, match=f"^{field} must be at least 1"):
            cli_main(["simulate", *flags])

    def test_lone_items_rank_without_a_label(self):
        """Only a tie cluster of two or more is ordered by ``label()``."""

        class Item:
            def __init__(self, throughput, label=None):
                self.throughput = throughput
                self._label = label

            def label(self):
                assert self._label is not None, "label() of a lone item"
                return self._label

        tied = [Item(1.0, "b"), Item(math.nextafter(1.0, 0.0), "a")]
        items = [Item(0.5), *tied, Item(2.0)]
        ranked = rank_by_throughput(items)
        assert ranked == [items[3], tied[1], tied[0], items[0]]

    def test_chimera_options_forwarded(self):
        r = run_configuration(
            self._cfg(mini_batch=1024, options={"concat": "halving"})
        )
        assert r.throughput > 0

    def test_async_uses_steady_state_throughput(self):
        """PipeDream family throughput must not be charged the pipeline
        fill of a cold window."""
        r_async = run_configuration(
            self._cfg(scheme="pipedream_2bw", micro_batch=8)
        )
        assert r_async.throughput > 0


class TestFormatTable:
    def test_aligns_columns(self):
        text = format_table([["a", 1.0], ["bbbb", 22.5]], headers=["x", "y"])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1

    def test_float_formatting(self):
        text = format_table([[0.1234, 12.5, 1234.5]], headers=["a", "b", "c"])
        assert "0.123" in text and "12.50" in text and "1234" in text
