"""Scheme-agnostic planner: ranking, budget pruning, and failure modes."""

import math
from dataclasses import replace

import pytest

from repro.bench.harness import (
    ExperimentConfig,
    rank_by_throughput,
    run_configuration,
)
from repro.bench.machines import PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48
from repro.common.errors import ConfigurationError
from repro.common.units import GIB
from repro.perf.planner import (
    PlanEntry,
    candidate_grid,
    format_plan,
    plan_configurations,
)

#: Small synchronous scenario used throughout: P=8, B̂=64 keeps every
#: simulation tiny while still admitting several (scheme, W, D, B) cells.
SMALL = dict(num_workers=8, mini_batch=64, pipeline=())
SYNC_SCHEMES = ("dapple", "chimera", "zb_h1", "zb_v", "zb_vhalf", "zb_vmin")


def small_plan(machine=PIZ_DAINT, **overrides) -> list[PlanEntry]:
    kwargs = dict(SMALL, schemes=SYNC_SCHEMES)
    kwargs.update(overrides)
    return plan_configurations(machine, BERT48, **kwargs)


class TestCandidateGrid:
    def test_respects_scheme_traits(self):
        grid = list(
            candidate_grid(8, BERT48, 64, schemes=("chimera", "zb_v", "dapple"))
        )
        for scheme, width, depth, b in grid:
            assert width * depth == 8
            if scheme == "chimera":
                assert depth % 2 == 0
            if scheme == "zb_v":
                # 2D chunk stages must divide the 48 layers.
                assert BERT48.num_layers % (2 * depth) == 0

    def test_micro_batches_are_powers_of_two_dividing_share(self):
        for _, width, _, b in candidate_grid(8, BERT48, 64, schemes=("dapple",)):
            assert b & (b - 1) == 0
            assert 64 % (width * b) == 0


class TestRanking:
    def test_nonempty_ranked_table_on_both_machines(self):
        """Acceptance: the planner returns a non-empty ranked table for at
        least two machine specs."""
        for machine in (PIZ_DAINT, V100_CLUSTER):
            entries = small_plan(machine)
            assert entries
            rates = [e.throughput for e in entries]
            assert rates == sorted(rates, reverse=True)

    def test_entries_match_harness_results(self):
        """A plan entry is exactly the harness outcome for that cell."""
        entry = small_plan()[0]
        result = run_configuration(
            ExperimentConfig(
                scheme=entry.scheme,
                machine=PIZ_DAINT,
                workload=BERT48,
                width=entry.width,
                depth=entry.depth,
                micro_batch=entry.micro_batch,
                mini_batch=64,
            )
        )
        assert not result.oom
        assert entry.throughput == pytest.approx(result.throughput)
        assert entry.peak_memory_bytes == pytest.approx(result.peak_memory_bytes)
        assert entry.recompute == result.recompute

    def test_top_k_truncates(self):
        full = small_plan()
        assert small_plan(top_k=3) == full[:3]

    def test_batch_ranking_matches_harness_for_every_entry(self):
        """The batch-simulation ranking path is the harness, not a model.

        Every entry — synchronous schemes grouped through
        ``simulate_batch_many``, asynchronous ones through the steady-state
        path — must reproduce ``run_configuration`` exactly, in both
        communication modes.
        """
        for pipeline in ((), ("lower_p2p",)):
            entries = small_plan(
                schemes=("dapple", "zb_v", "pipedream_2bw"), pipeline=pipeline
            )
            assert entries
            assert {e.scheme for e in entries} >= {"dapple", "zb_v"}
            for entry in entries:
                result = run_configuration(
                    ExperimentConfig(
                        scheme=entry.scheme,
                        machine=PIZ_DAINT,
                        workload=BERT48,
                        width=entry.width,
                        depth=entry.depth,
                        micro_batch=entry.micro_batch,
                        mini_batch=64,
                        pipeline=pipeline,
                        recompute=entry.recompute,
                    )
                )
                assert entry.num_micro_batches == result.num_micro_batches
                assert entry.iteration_time == pytest.approx(
                    result.iteration_time, abs=1e-9
                )
                assert entry.throughput == pytest.approx(
                    result.throughput, rel=1e-9
                )
                assert entry.bubble_ratio == pytest.approx(
                    result.bubble_ratio, abs=1e-9
                )

    def test_budget_prunes_monotonically(self):
        loose = small_plan(memory_budget_bytes=10 * GIB)
        tight = small_plan(memory_budget_bytes=3 * GIB)
        assert len(tight) <= len(loose)
        assert all(e.peak_memory_bytes <= 3 * GIB for e in tight)
        tight_cells = {(e.scheme, e.width, e.depth, e.micro_batch) for e in tight}
        loose_cells = {(e.scheme, e.width, e.depth, e.micro_batch) for e in loose}
        assert tight_cells <= loose_cells

    def test_budget_exactly_at_peak_keeps_the_candidate(self):
        """Boundary regression: a budget set to a candidate's *exact*
        modeled peak must keep that candidate. The peak is assembled by
        float accumulation, so a strict ``<=`` on the raw floats used to
        drop configurations whose peak equaled the budget on paper."""
        loose = small_plan(memory_budget_bytes=10 * GIB)
        top = loose[0]
        pinned = small_plan(memory_budget_bytes=top.peak_memory_bytes)
        cells = {(e.scheme, e.width, e.depth, e.micro_batch) for e in pinned}
        assert (top.scheme, top.width, top.depth, top.micro_batch) in cells
        assert all(
            e.peak_memory_bytes <= top.peak_memory_bytes * (1 + 1e-9)
            for e in pinned
        )

    def test_tight_budget_favors_memory_controllable_schemes(self):
        """Under a tight budget (offload axis off) the memory-controllable
        family must fill the top ranks the fast-but-hungry schedules
        vacate; with the host tier available, offload restores the fast
        schedules at no worse throughput."""
        tight = small_plan(
            num_workers=16, mini_batch=128, memory_budget_bytes=3 * GIB,
            offload=False,
        )
        assert tight[0].scheme in ("zb_vhalf", "zb_vmin", "zb_h1")
        offloaded = small_plan(
            num_workers=16, mini_batch=128, memory_budget_bytes=3 * GIB
        )
        assert offloaded[0].throughput >= tight[0].throughput

    def test_one_ulp_nudge_leaves_the_ranking_unchanged(self):
        entries = small_plan()
        labels = [e.label() for e in entries]
        assert labels == [e.label() for e in rank_by_throughput(entries[::-1])]
        for i, entry in enumerate(entries):
            for direction in (math.inf, -math.inf):
                nudged = list(entries)
                nudged[i] = replace(
                    entry, throughput=math.nextafter(entry.throughput, direction)
                )
                assert [e.label() for e in rank_by_throughput(nudged)] == labels

    def test_near_ties_rank_by_label(self):
        entry = small_plan(top_k=1)[0]
        # dapple vs gpipe 4.3e-16 apart: whichever is a few ulps faster,
        # the label decides; a real gap still ranks by throughput.
        for fast, slow in (("gpipe", "dapple"), ("dapple", "gpipe")):
            ranked = rank_by_throughput(
                [
                    replace(entry, scheme=slow, throughput=1.0),
                    replace(entry, scheme=fast, throughput=1.0 + 4.3e-16),
                    replace(entry, scheme="gems", throughput=1.0 + 1e-6),
                ]
            )
            assert [e.scheme for e in ranked] == ["gems", "dapple", "gpipe"]

    def test_format_plan_renders_every_entry(self):
        entries = small_plan(top_k=4)
        text = format_plan(entries)
        for entry in entries:
            assert entry.label() in text


class TestFailureModes:
    def test_too_few_workers(self):
        with pytest.raises(ConfigurationError, match="at least two workers"):
            plan_configurations(PIZ_DAINT, BERT48, num_workers=1, mini_batch=64)

    def test_unknown_scheme_lists_available(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            plan_configurations(
                PIZ_DAINT, BERT48, num_workers=8, mini_batch=64,
                schemes=("megatron",),
            )

    def test_empty_scheme_list(self):
        with pytest.raises(ConfigurationError, match="empty scheme list"):
            plan_configurations(
                PIZ_DAINT, BERT48, num_workers=8, mini_batch=64, schemes=()
            )

    def test_no_factorization_of_p(self):
        """P=7 with 48 layers: depth 7 divides neither workers evenly into
        a chimera pair nor the layer count — no (W, D) survives."""
        with pytest.raises(ConfigurationError, match="no valid \\(W, D\\)"):
            plan_configurations(PIZ_DAINT, BERT48, num_workers=7, mini_batch=64)

    def test_no_factorization_message_is_actionable(self):
        with pytest.raises(ConfigurationError, match="min_depth"):
            plan_configurations(PIZ_DAINT, BERT48, num_workers=7, mini_batch=64)

    def test_no_micro_batch_fits_budget(self):
        """A sub-GiB budget cannot even hold the weights: every candidate
        OOMs and the error names the budget and the closest candidate."""
        with pytest.raises(ConfigurationError, match="memory.*budget") as err:
            small_plan(memory_budget_bytes=0.5 * GIB)
        assert "overshoots" in str(err.value)
        assert "raise the budget" in str(err.value)

    def test_bad_mini_batch(self):
        with pytest.raises(ConfigurationError, match="mini-batch"):
            plan_configurations(PIZ_DAINT, BERT48, num_workers=8, mini_batch=0)

    def test_unknown_field_is_a_type_error(self):
        """The keyword surface is PlanRequest's fields and nothing else."""
        with pytest.raises(TypeError, match="lowered"):
            plan_configurations(
                PIZ_DAINT, BERT48, num_workers=8, mini_batch=64, lowered=False
            )


class TestHarnessBudgetThreading:
    def cfg(self, budget):
        return ExperimentConfig(
            scheme="dapple",
            machine=PIZ_DAINT,
            workload=BERT48,
            width=2,
            depth=4,
            micro_batch=4,
            mini_batch=64,
            memory_budget_bytes=budget,
        )

    def test_budget_tightens_capacity(self):
        assert self.cfg(None).capacity_bytes == PIZ_DAINT.usable_memory_bytes
        assert self.cfg(2 * GIB).capacity_bytes == 2 * GIB
        # A budget looser than the device clamps to the hardware.
        assert self.cfg(99 * GIB).capacity_bytes == PIZ_DAINT.usable_memory_bytes

    def test_budget_can_force_recompute_or_oom(self):
        free = run_configuration(self.cfg(None))
        assert not free.oom
        squeezed = run_configuration(self.cfg(1.0 * GIB))
        assert squeezed.oom or squeezed.recompute

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError, match="budget"):
            self.cfg(-1.0)


class TestPassAxes:
    """Schedule passes as planning axes: recompute on/off and fused comm."""

    def test_tight_budget_needs_the_recompute_pass(self):
        """Acceptance: under a tight budget (offload axis off) the planner
        selects a recompute configuration that the pass-less planner
        (``recompute=False``) must reject as OOM."""
        budget = dict(
            num_workers=8, mini_batch=64, memory_budget_bytes=1.5 * GIB
        )
        entries = plan_configurations(
            PIZ_DAINT, BERT48, offload=False, **budget
        )
        assert entries and all(e.recompute for e in entries)
        with pytest.raises(ConfigurationError, match="memory.*budget"):
            plan_configurations(
                PIZ_DAINT, BERT48, recompute=False, offload=False, **budget
            )

    def test_recompute_forced_on(self):
        entries = small_plan(recompute=True)
        assert entries and all(e.recompute for e in entries)

    def test_recompute_entries_match_harness(self):
        """A recompute plan entry is exactly the harness outcome — the
        pass runs through the same cached artifacts."""
        entry = small_plan(recompute=True, top_k=1)[0]
        cfg = ExperimentConfig(
            scheme=entry.scheme,
            machine=PIZ_DAINT,
            workload=BERT48,
            width=entry.width,
            depth=entry.depth,
            micro_batch=entry.micro_batch,
            mini_batch=64,
            recompute=True,
        )
        result = run_configuration(cfg)
        assert result.recompute
        assert result.throughput == pytest.approx(entry.throughput, rel=1e-9)
        assert result.iteration_time == pytest.approx(
            entry.iteration_time, rel=1e-9
        )

    def test_fused_ranking_matches_harness_and_feasible_set(self):
        """A ``fuse_comm`` pipeline ranks the same feasible set (fusion
        never changes memory) and each entry equals its harness outcome."""
        lowered = small_plan(pipeline="lower_p2p")
        fused = small_plan(pipeline="lower_p2p,fuse_comm")
        assert {e.label() for e in fused} == {e.label() for e in lowered}
        entry = fused[0]
        cfg = ExperimentConfig(
            scheme=entry.scheme,
            machine=PIZ_DAINT,
            workload=BERT48,
            width=entry.width,
            depth=entry.depth,
            micro_batch=entry.micro_batch,
            mini_batch=64,
            recompute=entry.recompute,
            pipeline=("lower_p2p", "fuse_comm"),
        )
        result = run_configuration(cfg)
        assert result.throughput == pytest.approx(entry.throughput, rel=1e-9)

    def test_fused_requires_lowered(self):
        with pytest.raises(ConfigurationError, match="fuse_comm.*lower_p2p"):
            small_plan(pipeline="fuse_comm")
