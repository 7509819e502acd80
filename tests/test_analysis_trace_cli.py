"""Closed-form analysis module, trace export, and the CLI."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.cli import main as cli_main
from repro.schedules.analysis import (
    activation_interval_formula,
    bubble_ratio_formula,
    scheme_properties,
    weight_copies_formula,
)
from repro.schedules.registry import available_schemes, build_schedule, scheme_traits
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.metrics import bubble_ratio
from repro.sim.trace import to_chrome_trace, write_chrome_trace


class TestAnalysisFormulas:
    @pytest.mark.parametrize("scheme", ["gpipe", "dapple", "chimera"])
    @pytest.mark.parametrize("depth,n", [(4, 4), (8, 8), (8, 16)])
    def test_bubble_formula_matches_simulation(self, scheme, depth, n):
        if scheme == "chimera" and n > depth:
            pytest.skip("direct concatenation deviates; covered elsewhere")
        result = simulate(build_schedule(scheme, depth, n), CostModel.practical())
        assert bubble_ratio(result) == pytest.approx(
            bubble_ratio_formula(scheme, depth, n)
        )

    @pytest.mark.parametrize(
        "scheme",
        [s for s in available_schemes() if not scheme_traits(s).cost_parameterized],
    )
    def test_activation_interval_matches_memory_model(self, scheme):
        depth, n = 8, 8
        schedule = build_schedule(scheme, depth, n)
        report = analyze_memory(schedule, MemoryModel(activation_bytes=1.0))
        units = [w.activation_peak_units for w in report.workers]
        lo, hi = activation_interval_formula(scheme, depth, n)
        assert min(units) == pytest.approx(lo)
        assert max(units) == pytest.approx(hi)

    def test_weight_copies(self):
        assert weight_copies_formula("dapple") == 1
        assert weight_copies_formula("gems") == 2
        assert weight_copies_formula("chimera", num_down_pipelines=2) == 4

    def test_scheme_properties_bundle(self):
        props = scheme_properties("chimera", 8, 8)
        assert props.synchronous
        assert props.activation_interval == (5, 8)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            bubble_ratio_formula("nope", 4, 4)


class TestTrace:
    def test_events_cover_all_compute_ops(self):
        schedule = build_schedule("chimera", 4, 4)
        result = simulate(schedule, CostModel.practical())
        events = to_chrome_trace(result)
        compute = [e for e in events if e["cat"] in ("forward", "backward")]
        assert len(compute) == sum(1 for _, op in schedule.compute_ops())

    def test_events_carry_metadata(self):
        result = simulate(build_schedule("chimera", 4, 4), CostModel.practical())
        event = to_chrome_trace(result)[0]
        assert {"replica", "stage", "micro_batches"} <= set(event["args"])

    def test_collectives_exported(self):
        cost = CostModel(forward_time=1.0, stage_grad_bytes=10.0)
        result = simulate(build_schedule("chimera", 4, 4), cost)
        events = to_chrome_trace(result)
        assert any(e["cat"] == "allreduce" for e in events)

    def test_write_round_trips(self, tmp_path):
        result = simulate(build_schedule("dapple", 2, 2), CostModel.practical())
        path = tmp_path / "trace.json"
        write_chrome_trace(result, str(path))
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert "dapple" in payload["otherData"]["schedule"]


class TestCLI:
    def test_show(self, capsys):
        assert cli_main(["show", "--scheme", "chimera", "-D", "4", "-N", "4"]) == 0
        out = capsys.readouterr().out
        assert "P0" in out and "makespan" in out

    def test_simulate(self, capsys):
        rc = cli_main(
            ["simulate", "--scheme", "chimera", "-W", "8", "-D", "4", "-B", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "bubble" in out

    def test_select(self, capsys):
        rc = cli_main(["select", "-P", "32", "--mini-batch", "512"])
        assert rc == 0
        assert "selected" in capsys.readouterr().out

    def test_show_with_passes_and_fusion(self, capsys):
        rc = cli_main(
            [
                "show", "--scheme", "dapple", "-D", "4", "-N", "4",
                "--pipeline", "recompute,lower_p2p,fuse_comm",
                "--link-alpha", "0.2", "--link-beta", "0.2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0r" in out  # explicit RECOMPUTE op on the Gantt
        assert "p2p transfers" in out  # batched transfers on the wire

    def test_show_explicit_pass_spec(self, capsys):
        rc = cli_main(
            [
                "show", "--scheme", "zb_h1", "-D", "4", "-N", "4",
                "--pipeline", "fill_bubbles,lower_p2p,fuse_comm",
            ]
        )
        assert rc == 0
        assert "P0" in capsys.readouterr().out

    def test_show_unknown_pass_is_actionable(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_main(
                ["show", "--scheme", "dapple", "--pipeline", "no_such_pass"]
            )
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown schedule pass" in stderr
        assert "lower_p2p" in stderr  # registered names enumerated

    def test_simulate_fused(self, capsys):
        rc = cli_main(
            [
                "simulate", "--scheme", "dapple", "-W", "8", "-D", "4",
                "-B", "8", "--pipeline", "lower_p2p,fuse_comm",
            ]
        )
        assert rc == 0
        assert "throughput" in capsys.readouterr().out

    def test_plan_pass_axes(self, capsys):
        rc = cli_main(
            [
                "plan", "-P", "8", "--mini-batch", "64",
                "--schemes", "dapple", "zb_vhalf",
                "--budget-gib", "6", "--pipeline", "lower_p2p,fuse_comm",
                "--recompute",
                "--top", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank" in out and ", R)" in out

    def test_plan(self, capsys):
        rc = cli_main(
            [
                "plan",
                "-P", "8",
                "--mini-batch", "64",
                "--schemes", "dapple", "zb_vhalf",
                "--budget-gib", "6",
                "--pipeline", "",
                "--top", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank" in out and "peak GiB" in out and "6 GiB budget" in out

    def test_plan_infeasible_budget_raises_actionable_error(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="budget"):
            cli_main(
                [
                    "plan",
                    "-P", "8",
                    "--mini-batch", "64",
                    "--schemes", "dapple",
                    "--budget-gib", "0.25",
                    "--pipeline", "",
                ]
            )

    def test_module_entry_point_reports_repro_errors(self, tmp_path):
        """``python -m repro`` turns a ReproError into a one-line usage
        error with exit status 2, not a traceback."""
        import os
        import pathlib
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "plan",
                "--machine", "piz-daint", "--workload", "gpt2-64",
                "-P", "4", "--mini-batch", "64", "--budget-gib", "6",
                "--schemes", "gpipe", "gems", "dapple", "chimera",
                "pipedream", "pipedream_2bw",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("repro: error: no micro-batch size fits")
        assert (
            "closest candidate gpipe(W=1, D=4, B=1, R, O) overshoots by "
            "1.54 GiB" in out.stderr
        )
        assert "Traceback" not in out.stderr
        assert len(out.stderr.splitlines()) == 1

    def test_figure(self, capsys):
        rc = cli_main(["figure", "table4"])
        assert rc == 0
        assert "bert-48" in capsys.readouterr().out

    def test_trace(self, tmp_path, capsys):
        out_file = tmp_path / "t.json"
        rc = cli_main(["trace", "-D", "4", "-N", "4", "-o", str(out_file)])
        assert rc == 0
        assert out_file.exists()
