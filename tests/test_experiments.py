"""The per-figure experiment drivers run and reproduce the paper's shapes."""

import pytest

from repro.bench.experiments import (
    figure1,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure19,
    planner_table,
    table2,
    table3,
    table4,
)


class TestTables:
    def test_table2_analytic_matches_measured(self):
        for row in table2.rows(8, 8):
            if row.scheme in ("pipedream", "pipedream_2bw", "gems"):
                continue
            assert row.measured_bubble == pytest.approx(
                row.analytic_bubble, abs=1e-9
            ), row.scheme

    def test_table2_chimera_signature(self):
        rows = {r.scheme: r for r in table2.rows(8, 8)}
        chimera = rows["chimera"]
        assert chimera.act_units_min == 5 and chimera.act_units_max == 8
        assert chimera.weight_copies == 2 and chimera.synchronous

    def test_table3_formulas_exact(self):
        for row in table3.rows(8):
            assert row.measured_bubble == pytest.approx(row.analytic_bubble)
            assert row.act_min_measured == pytest.approx(row.act_min_analytic)

    def test_table4_param_errors_small(self):
        text = table4.run()
        assert "bert-48" in text and "gpt2-64" in text

    def test_runners_return_text(self):
        for mod in (table2, table3, table4):
            assert isinstance(mod.run(fast=True), str)


class TestFigure1:
    def test_chimera_wins_and_speedup_range(self):
        res = figure1.results(num_workers=512, mini_batch=512)
        by = {r.config.scheme: r for r in res}
        chimera = by["chimera"]
        for scheme in ("gpipe", "gems", "dapple", "pipedream_2bw"):
            assert chimera.throughput > by[scheme].throughput, scheme
        # Paper: 1.16x (2BW) up to 2.34x (GEMS); shapes, not exact factors.
        assert chimera.throughput / by["gems"].throughput > 1.8
        assert chimera.throughput / by["pipedream_2bw"].throughput < 1.6

    def test_chimera_runs_without_recompute(self):
        res = figure1.results(num_workers=512, mini_batch=512)
        chimera = next(r for r in res if r.config.scheme == "chimera")
        assert not chimera.recompute and not chimera.oom


class TestPlannerTable:
    def test_budget_sweep_shrinks_and_shifts_to_lean_schemes(self):
        """As the budget tightens the survivor count falls monotonically
        and the winner moves off the memory-hungry end of the registry."""
        from repro.bench.machines import PIZ_DAINT
        from repro.bench.workloads import BERT48

        rows = planner_table.best_per_budget(
            PIZ_DAINT,
            BERT48,
            num_workers=8,
            mini_batch=64,
            budgets_gib=(None, 3.0, 0.25),
            schemes=("dapple", "zb_v", "zb_vhalf", "zb_vmin"),
            pipeline=(),
        )
        counts = [count for _, _, count in rows]
        assert counts == sorted(counts, reverse=True)
        assert rows[0][1] is not None and rows[1][1] is not None
        # Throughput can only fall as the budget tightens.
        assert rows[1][1].throughput <= rows[0][1].throughput
        # A sub-GiB budget holds nothing: the row degrades gracefully.
        assert rows[2][1] is None and rows[2][2] == 0


class TestFigure9:
    def test_runs_with_v_shaped_schemes(self):
        """The scheme sweep survives the 2D-chunk placements (the memory
        model is calibrated per the schedule's own stage count, and stage
        counts that do not divide the layers are skipped, not crashed)."""
        text = figure9.run(fast=True)
        assert "zb_vmin" in text

    def test_memory_shape_signatures(self):
        from repro.bench.workloads import GPT2_32

        schemes = {}
        for scheme in ("chimera", "dapple", "gpipe", "gems", "pipedream"):
            schemes[scheme] = figure9.memory_report(GPT2_32, 1, 32, 1, 512, scheme)
        # GPipe's N in-flight activations dominate.
        assert schemes["gpipe"].peak_bytes > schemes["dapple"].peak_bytes
        # Chimera is flatter than DAPPLE.
        assert schemes["chimera"].imbalance < schemes["dapple"].imbalance
        # GEMS is the smallest.
        assert schemes["gems"].peak_bytes == min(
            r.peak_bytes for r in schemes.values()
        )

    def test_chimera_peak_close_to_dapple(self):
        """Despite 2 model replicas, Chimera's peak stays comparable to
        DAPPLE's (within 25%) thanks to the balanced distribution (§4.1)."""
        from repro.bench.workloads import BERT48

        chim = figure9.memory_report(BERT48, 2, 16, 8, 512, "chimera")
        dap = figure9.memory_report(BERT48, 2, 16, 8, 512, "dapple")
        assert chim.peak_bytes < dap.peak_bytes * 1.25


class TestTuningFigures:
    def test_figure10_dapple_best_is_w8_d4(self):
        _, best = figure10.tune("dapple", fast=True)
        assert best is not None
        assert (best.config.width, best.config.depth) == (8, 4)

    def test_figure10_gems_prefers_larger_micro_batch_than_dapple(self):
        """GEMS gains nothing from a small B (its bubbles do not shrink),
        so its best micro-batch is at least DAPPLE's (paper: B=32 vs 4)."""
        _, gems = figure10.tune("gems", fast=True)
        _, dapple = figure10.tune("dapple", fast=True)
        assert gems is not None and dapple is not None
        assert gems.config.micro_batch >= dapple.config.micro_batch

    def test_figure11_runs(self):
        text = figure11.run(fast=True)
        assert "gpipe" in text and "*" in text


class TestSyncAndModelFigures:
    def test_figure12_opt_never_slower(self):
        for workers, bb in ((16, 256), (32, 512)):
            t = figure12.throughputs(workers, bb)
            assert t["eager_opt"] >= t["eager"] * 0.999
            assert t["eager_opt"] >= t["lazy"] * 0.999

    def test_figure13_model_error_within_10_percent(self):
        from repro.bench.workloads import BERT48

        rows = figure13.evaluate(BERT48, 32, 256, (2, 4, 8, 16))
        assert rows
        assert all(r.error < 0.10 for r in rows)

    def test_figure13_model_selects_best(self):
        from repro.bench.workloads import BERT48

        rows = figure13.evaluate(BERT48, 32, 256, (2, 4, 8, 16))
        best_sim = max(rows, key=lambda r: r.simulated)
        best_model = max(rows, key=lambda r: r.modelled)
        assert best_sim.depth == best_model.depth


class TestScalingFigures:
    def test_figure14_chimera_beats_synchronous_and_on_par_with_async(self):
        data = figure14.scaling_results()
        for i in range(3):
            chimera = data["chimera"][i].throughput
            for scheme in ("dapple", "gpipe", "gems"):
                assert chimera >= data[scheme][i].throughput, (scheme, i)
            # "On-par with PipeDream-2BW ... but more convergence-friendly".
            assert chimera >= 0.85 * data["pipedream_2bw"][i].throughput

    def test_figure14_gems_is_slowest_synchronous(self):
        data = figure14.scaling_results()
        gems = data["gems"][-1].throughput
        for scheme in ("chimera", "dapple", "gpipe"):
            assert data[scheme][-1].throughput > gems

    def test_figure15_text_reports_efficiency(self):
        text = figure15.run(fast=True)
        assert "efficiency" in text

    def test_figure16_chimera_best_synchronous_on_v100(self):
        """The same conclusions hold on the newer machine: Chimera beats
        every synchronous baseline; the asynchronous 2BW is on par (the
        paper gives Chimera a small edge, we give 2BW one — both within
        the paper's own "on-par" characterization)."""
        text = figure16.run(fast=True)
        assert "sync winner: chimera" in text


class TestLargeMiniBatchFigures:
    def test_figure17_chimera_beats_gems_everywhere(self):
        text = figure17.run(fast=True)
        assert "chimera" in text

    def test_figure17_marks_only_invalid_configurations(self, monkeypatch):
        from repro.common.errors import ConfigurationError

        def broken(cfg):
            raise RuntimeError("library bug")

        monkeypatch.setattr(figure17, "run_configuration", broken)
        with pytest.raises(RuntimeError, match="library bug"):
            figure17.run(fast=True)

        def invalid(cfg):
            raise ConfigurationError("no such configuration")

        monkeypatch.setattr(figure17, "run_configuration", invalid)
        rows = figure17.run(fast=True).splitlines()
        dapple = [row for row in rows if row.lstrip().startswith("dapple")]
        assert dapple and dapple[0].split()[-3:] == ["-", "-", "-"]

    def test_figure18_doubling_beats_direct(self):
        from repro.bench.harness import ExperimentConfig, run_configuration
        from repro.bench.machines import PIZ_DAINT
        from repro.bench.workloads import GPT2_64

        def thr(concat):
            return run_configuration(
                ExperimentConfig(
                    scheme="chimera",
                    machine=PIZ_DAINT,
                    workload=GPT2_64,
                    width=16,
                    depth=8,
                    micro_batch=1,
                    mini_batch=256,
                    recompute=True,
                    options={"concat": concat},
                )
            ).throughput

        assert thr("doubling") > thr("direct")


class TestFigure19:
    def test_bidirectional_beats_single_pipeline(self):
        data = dict(figure19.panel(4, 16, max_pipes=4))
        assert data[2] > data[1]

    def test_tradeoff_reverses_as_stages_coarsen(self):
        """W=4, D=16: the allreduce overhead eventually outweighs the
        bubble savings — 8 pipes lose to fewer pipes (the paper's turnover
        happens one notch earlier, at 4 pipes; see EXPERIMENTS.md)."""
        data = dict(figure19.panel(4, 16, max_pipes=8))
        best = max(data, key=data.get)
        assert best < 8
        assert data[8] < data[best]

    def test_deep_narrow_tolerates_more_pipes(self):
        """W=2, D=32: with deeper pipelines, more pipes keep helping
        longer (paper: 4 pipes best) before the collective cost wins."""
        deep = dict(figure19.panel(2, 32, max_pipes=16))
        shallow = dict(figure19.panel(4, 16, max_pipes=16))
        best_deep = max(deep, key=deep.get)
        best_shallow = max(shallow, key=shallow.get)
        assert best_deep >= best_shallow
        assert deep[16] < deep[best_deep]  # and it still turns over
