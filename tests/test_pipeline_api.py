"""The pipeline-spec API: one canonical way to name pass transforms.

``pipeline=("recompute", "offload", "lower_p2p")`` is the only spelling
of schedule transforms everywhere one is configured —
:class:`~repro.bench.harness.ExperimentConfig`,
:class:`~repro.perf.planner.PlanRequest`, the trainer, the CLI and the
serve schema — and it means the same thing everywhere: the base
transforms on top of the scheme's defaults, with the recompute/offload
axes composing on top by one shared rule. Every entry point must reject
malformed specs with the registered pass names enumerated.
"""

import pytest

from repro.bench.harness import ExperimentConfig, run_configuration
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.cli import main as cli_main
from repro.common.errors import ConfigurationError
from repro.common.units import GIB, parse_gib
from repro.perf.planner import PlanRequest, plan_configurations, plan_many
from repro.schedules.cache import ScheduleCache, schedule_artifacts
from repro.schedules.passes import FillBubblesPass, resolve_pipeline
from repro.schedules.passes.base import PassManager, SchedulePass
from repro.schedules.passes.pipeline import (
    SPEC_MEMO_SIZE,
    PipelineParts,
    attempt_pipelines,
    normalize_pipeline,
    split_pipeline,
)
from repro.serve.service import parse_plan_request


# ------------------------------------------------------- normalization
class TestNormalizePipeline:
    def test_none_and_empty_mean_no_passes(self):
        assert normalize_pipeline(None) == ()
        assert normalize_pipeline("") == ()
        assert normalize_pipeline([]) == ()

    def test_string_and_sequence_forms_agree(self):
        assert normalize_pipeline("offload, lower_p2p") == normalize_pipeline(
            ["offload", "lower_p2p"]
        )

    def test_canonical_order_is_spelling_independent(self):
        """recompute hoists to the head, lower_p2p/fuse_comm sink to the
        tail — every permutation keys the schedule cache identically."""
        canonical = ("recompute", "offload", "lower_p2p", "fuse_comm")
        for spec in (
            "recompute,offload,lower_p2p,fuse_comm",
            "fuse_comm,lower_p2p,offload,recompute",
            "offload,fuse_comm,recompute,lower_p2p",
        ):
            assert normalize_pipeline(spec) == canonical

    def test_pass_arguments_survive(self):
        assert normalize_pipeline("insert_sync:eager,offload") == (
            "insert_sync:eager",
            "offload",
        )

    def test_unknown_pass_enumerates_registered_names(self):
        with pytest.raises(ConfigurationError, match="unknown schedule pass"):
            normalize_pipeline("bogus")
        with pytest.raises(ConfigurationError) as err:
            normalize_pipeline("bogus")
        for name in ("offload", "recompute", "lower_p2p", "fuse_comm"):
            assert name in str(err.value)

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError, match="appears twice"):
            normalize_pipeline("offload,offload")

    def test_fuse_without_lower_rejected(self):
        with pytest.raises(ConfigurationError, match="fuse_comm.*lower_p2p"):
            normalize_pipeline("fuse_comm")

    def test_split_round_trips(self):
        parts = split_pipeline("fuse_comm,offload,recompute,lower_p2p")
        assert parts == PipelineParts(
            base=("recompute", "offload"), tail=("lower_p2p", "fuse_comm")
        )
        assert parts.recompute and parts.offload
        assert parts.pipeline() == (
            "recompute",
            "offload",
            "lower_p2p",
            "fuse_comm",
        )

    def test_build_options_omit_empty_passes(self):
        """The pre-lowering part, recompute at its head, is the one
        ``passes`` option; a pipeline without one builds with no options."""
        assert split_pipeline("lower_p2p").build_options() == {}
        assert split_pipeline("recompute").build_options() == {
            "passes": ("recompute",)
        }
        assert split_pipeline("offload,recompute,lower_p2p").build_options() == {
            "passes": ("recompute", "offload"),
        }


# ------------------------------------------------------- normalization memo
class TagPass(SchedulePass):
    """A pass that takes any arguments (``"tag:x"``)."""

    name = "tag"

    def __init__(self, *args):
        self.args = args

    def run(self, schedule):
        return schedule


class PlainTagPass(TagPass):
    """The same pass name, rejecting every argument."""

    def __init__(self):
        super().__init__()


class TestNormalizeMemo:
    def test_failed_spec_fails_again_with_the_same_message(self):
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigurationError) as err:
                normalize_pipeline("offload,bogus")
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "unknown schedule pass 'bogus'" in messages[0]

    def test_one_shot_iterables_are_read_once(self):
        for _ in range(2):
            specs = iter(["lower_p2p", "recompute"])
            assert normalize_pipeline(specs) == ("recompute", "lower_p2p")

    def test_register_invalidates_the_memo(self):
        manager = PassManager()
        with pytest.raises(ConfigurationError, match="unknown schedule pass"):
            normalize_pipeline("tag:x", manager=manager)
        manager.register("tag", TagPass)
        assert normalize_pipeline("tag:x", manager=manager) == ("tag:x",)
        manager.register("tag", PlainTagPass, replace=True)
        with pytest.raises(ConfigurationError, match="bad arguments"):
            normalize_pipeline("tag:x", manager=manager)
        assert normalize_pipeline("tag", manager=manager) == ("tag",)

    def test_memo_is_bounded(self):
        manager = PassManager()
        manager.register("tag", TagPass)
        for i in range(SPEC_MEMO_SIZE + 10):
            assert normalize_pipeline(f"tag:{i}", manager=manager) == (f"tag:{i}",)
        assert len(manager.normalized_specs) <= SPEC_MEMO_SIZE


# ------------------------------------------------------- one spelling
class TestSpecIsTheOnlySpelling:
    """A transform is named by its spec and nothing else, so the
    ``passes`` part of a cache key identifies the build completely."""

    @pytest.mark.parametrize(
        "passes",
        [lambda: [FillBubblesPass()], lambda: resolve_pipeline("lower_p2p")],
        ids=["pass-object", "pipeline-object"],
    )
    def test_pass_objects_are_rejected(self, passes):
        with pytest.raises(ConfigurationError, match="comma-separated") as err:
            schedule_artifacts("zb_v", 2, 4, passes=passes())
        assert "register_pass" in str(err.value)

    @pytest.mark.parametrize("pipeline", ["", "lower_p2p", "lower_p2p,fuse_comm"])
    def test_attempt_options_key_their_pre_lowering_spec(self, pipeline):
        """Every attempt of a recompute-and-offload request keys the cache
        exactly as the pre-lowering part of its pipeline does."""
        attempts = attempt_pipelines(pipeline, recompute=None, offload=None)
        assert len(attempts) == 4
        for attempt in attempts:
            pre = tuple(s for s in attempt if s not in ("lower_p2p", "fuse_comm"))
            assert ScheduleCache.key(
                "dapple", 4, 8, split_pipeline(attempt).build_options()
            ) == ScheduleCache.key("dapple", 4, 8, {"passes": pre})


# ------------------------------------------------------- parse_gib
class TestParseGib:
    def test_none_passes_through(self):
        assert parse_gib(None) is None

    def test_gib_to_bytes(self):
        assert parse_gib(2.5) == 2.5 * GIB
        assert parse_gib(1) == GIB

    @pytest.mark.parametrize("bad", [0, -1.0, float("nan"), True])
    def test_rejects_non_positive_and_non_numeric(self, bad):
        with pytest.raises(ConfigurationError, match="budget"):
            parse_gib(bad)

    def test_error_names_the_field(self):
        with pytest.raises(ConfigurationError, match="host budget"):
            parse_gib(-2, field="host budget")


# ------------------------------------------------------- harness
CFG = dict(
    scheme="dapple",
    machine=PIZ_DAINT,
    workload=BERT48,
    width=2,
    depth=4,
    micro_batch=4,
    mini_batch=64,
)


class TestHarnessPipeline:
    def test_fused_requires_lowered(self):
        with pytest.raises(ConfigurationError, match="fuse_comm.*lower_p2p"):
            ExperimentConfig(**CFG, pipeline="fuse_comm")

    def test_offload_pipeline_reports_host_tier(self):
        result = run_configuration(
            ExperimentConfig(**CFG, pipeline=("offload",))
        )
        base = run_configuration(ExperimentConfig(**CFG))
        assert result.host_peak_memory_bytes > 0.0
        assert base.host_peak_memory_bytes == 0.0
        assert result.peak_memory_bytes < base.peak_memory_bytes


# ------------------------------------------------------- planner pinning
class TestPlannerPipeline:
    PLAN = dict(num_workers=8, mini_batch=64, schemes=("dapple", "chimera"))

    def test_explicit_pipeline_pins_every_entry(self):
        entries = plan_configurations(
            PIZ_DAINT, BERT48, pipeline="offload,recompute", **self.PLAN
        )
        assert entries
        for e in entries:
            assert e.pipeline == ("recompute", "offload")
            assert e.recompute and e.offload
        # At least the deep cells actually park stashes on the host
        # (N=1 cells have nothing worth offloading).
        assert any(e.host_peak_memory_bytes > 0.0 for e in entries)

    def test_offload_axis_off_means_no_offloaded_entries(self):
        entries = plan_configurations(
            PIZ_DAINT, BERT48, offload=False, **self.PLAN
        )
        assert entries and not any(e.offload for e in entries)

    def test_tight_budget_winner_offloads(self):
        """Acceptance: with a budget too tight for the plain schedules,
        the ranked table's best entry uses the host tier and beats the
        best recompute-only plan at the same device budget."""
        budget = dict(self.PLAN, memory_budget_bytes=1.5 * GIB)
        entries = plan_configurations(PIZ_DAINT, BERT48, **budget)
        no_offload = plan_configurations(
            PIZ_DAINT, BERT48, offload=False, **budget
        )
        assert any(e.offload for e in entries)
        assert entries[0].throughput >= no_offload[0].throughput
        assert entries[0].peak_memory_bytes <= 1.5 * GIB

    def test_host_budget_prunes_offload(self):
        """A host tier too small for the stashes rejects the offloaded
        attempts; with the axis forced on, nothing survives."""
        with pytest.raises(ConfigurationError, match="memory.*budget"):
            plan_configurations(
                PIZ_DAINT,
                BERT48,
                offload=True,
                recompute=False,
                memory_budget_bytes=1.5 * GIB,
                host_memory_budget_bytes=1,
                **self.PLAN,
            )



# ------------------------------------------------------- the attempt rule
PLAN = dict(num_workers=8, mini_batch=64, schemes=("dapple", "chimera"))

#: The two configuration surfaces that share the attempt rule, each as
#: ``(build, rank)``: build one configuration from keyword overrides, and
#: rank it under a memory budget into result rows carrying ``recompute``
#: and ``pipeline``.
SURFACES = {
    "experiment": (
        lambda **kw: ExperimentConfig(**CFG, **kw),
        lambda cfg: [run_configuration(cfg)],
    ),
    "request": (
        lambda **kw: PlanRequest(machine=PIZ_DAINT, workload=BERT48, **PLAN, **kw),
        lambda request: plan_many([request])[0].raise_or_entries(),
    ),
}

#: Each surface's axis fields, as it feeds them to the one attempt rule:
#: a configuration offloads exactly when its pipeline names the pass, a
#: request carries an ``offload`` axis of its own.
AXES = {
    "experiment": lambda cfg: dict(
        recompute=cfg.recompute, offload=split_pipeline(cfg.pipeline).offload
    ),
    "request": lambda request: dict(
        recompute=request.recompute, offload=request.offload
    ),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
class TestAttemptRule:
    """One rule for both surfaces: the pipeline is the base, a pass it
    names pins that axis on, and a ``None`` axis is explored."""

    def test_named_pass_pins_its_axis(self, surface):
        build, _ = SURFACES[surface]

        def attempts(config):
            return attempt_pipelines(config.pipeline, **AXES[surface](config))

        named = build(pipeline="offload,recompute,lower_p2p")
        assert attempts(named) == (("recompute", "offload", "lower_p2p"),)
        offloaded = build(pipeline="offload", recompute=False)
        assert attempts(offloaded) == (("offload",),)

    def test_false_against_a_named_pass_raises(self, surface):
        build, _ = SURFACES[surface]
        with pytest.raises(ConfigurationError, match="recompute=False"):
            build(pipeline="recompute,lower_p2p", recompute=False)

    def test_tight_budget_recomputes_on_top_of_the_pipeline(self, surface):
        """An explicit pipeline is a base, not a pin: where the plain
        attempt overshoots the device budget (and a 1-byte host tier
        rules out offload), the recompute axis still applies."""
        build, rank = SURFACES[surface]
        config = build(
            pipeline="lower_p2p",
            memory_budget_bytes=3 * GIB,
            host_memory_budget_bytes=1,
        )
        recomputed = [row for row in rank(config) if row.recompute]
        assert recomputed
        for row in recomputed:
            assert row.pipeline == ("recompute", "lower_p2p")
            assert row.peak_memory_bytes <= 3 * GIB


# ------------------------------------------------------- CLI
class TestCLIPipeline:
    def test_simulate_pipeline_spec(self, capsys):
        rc = cli_main(
            [
                "simulate", "--scheme", "dapple", "-W", "8", "-D", "4",
                "-B", "8", "--pipeline", "offload,lower_p2p",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pipeline" in out and "offload,lower_p2p" in out
        assert "host stash" in out

    def test_bad_pipeline_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_main(
                [
                    "simulate", "--scheme", "dapple", "-W", "8", "-D", "4",
                    "-B", "8", "--pipeline", "bogus",
                ]
            )
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "unknown schedule pass" in stderr
        assert "offload" in stderr  # registered names enumerated

    def test_plan_offload_axis(self, capsys):
        rc = cli_main(
            [
                "plan", "-P", "8", "--mini-batch", "64",
                "--schemes", "dapple", "chimera", "--budget-gib", "1.5",
                "--top", "3",
            ]
        )
        assert rc == 0
        assert ", O)" in capsys.readouterr().out


# ------------------------------------------------------- serve schema
GOOD = {
    "machine": "piz-daint",
    "workload": "bert-48",
    "num_workers": 4,
    "mini_batch": 16,
    "schemes": ["chimera", "dapple"],
}


class TestServePipeline:
    def test_pipeline_field_round_trips(self):
        req = parse_plan_request({**GOOD, "pipeline": "offload,lower_p2p"})
        assert req.pipeline == ("offload", "lower_p2p")
        req = parse_plan_request({**GOOD, "pipeline": ["offload"]})
        assert req.pipeline == ("offload",)

    def test_offload_and_host_budget_fields(self):
        req = parse_plan_request(
            {**GOOD, "offload": False, "host_memory_budget_bytes": 2 * GIB}
        )
        assert req.offload is False
        assert req.host_memory_budget_bytes == 2 * GIB

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({**GOOD, "pipeline": 7}, "field 'pipeline'"),
            ({**GOOD, "pipeline": [1]}, "field 'pipeline'"),
            ({**GOOD, "pipeline": "bogus"}, "unknown schedule pass"),
            ({**GOOD, "pipeline": "bogus"}, "offload"),
            ({**GOOD, "pipeline": "fuse_comm"}, "lower_p2p"),
            ({**GOOD, "offload": "yes"}, "'offload' must be a boolean"),
            ({**GOOD, "host_memory_budget_bytes": "2GiB"},
             "'host_memory_budget_bytes' must be a number"),
            ({**GOOD, "pipeline": "offload", "offload": False},
             "offload=False"),
        ],
    )
    def test_rejections_name_the_problem(self, payload, fragment):
        with pytest.raises(ConfigurationError) as exc:
            parse_plan_request(payload)
        assert fragment in str(exc.value)
