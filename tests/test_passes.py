"""The composable pass layer: manager, pipelines, and pass algebra.

Deterministic unit tests cover the manager (registration, spec parsing,
ordering validation, signatures as cache keys) and each pass's structural
postconditions; hypothesis property tests cover the *algebra* the rest of
the system leans on:

* pipeline signatures are stable — pure functions of the spec, identical
  across spellings, usable as cache keys;
* ``fuse_comm`` and ``fill_bubbles`` are idempotent;
* ``recompute`` commutes op-for-op with ``lower_p2p`` and ``fuse_comm``;
* ``fuse_comm`` preserves the makespan to 1e-9 at zero link occupancy for
  every scheme under arbitrary cost models;
* the array kernel reproduces the event engine to 1e-9 on passed
  (recomputed / filled / lowered / fused) schedules.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, ScheduleError
from repro.schedules.cache import ScheduleCache
from repro.schedules.ir import OpKind, Operation
from repro.schedules.passes import (
    DEFAULT_PASS_MANAGER,
    FillBubblesPass,
    FuseCommPass,
    InsertSyncPass,
    LowerP2PPass,
    PassManager,
    PassPipeline,
    RecomputePass,
    SchedulePass,
    pipeline_signature,
    resolve_pipeline,
    schedule_facts,
)
from repro.schedules.registry import available_schemes, build_schedule, scheme_traits
from repro.schedules.validate import validate_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.kernel import simulate_fast
from repro.sim.memory import MemoryModel, analyze_memory
from repro.sim.network import FlatTopology, LinkSpec

SETTINGS = settings(max_examples=30, deadline=None)

schemes = st.sampled_from(available_schemes())
even_depths = st.sampled_from([2, 4, 6, 8])
micro_batches = st.integers(min_value=1, max_value=12)
cost_units = st.floats(
    min_value=0.1, max_value=4.0, allow_nan=False, allow_infinity=False
)


def _zero_occupancy_model(alpha: float = 0.05) -> CostModel:
    return CostModel(
        forward_time=1.0,
        topology=FlatTopology(LinkSpec(alpha=alpha, beta=0.0)),
        activation_message_bytes=1.0,
    )


# ------------------------------------------------------------------ manager
class TestManager:
    def test_builtins_registered(self):
        names = DEFAULT_PASS_MANAGER.available()
        for expected in (
            "fill_bubbles",
            "fuse_comm",
            "insert_sync",
            "lower_p2p",
            "recompute",
        ):
            assert expected in names

    def test_unknown_pass_name(self):
        with pytest.raises(ConfigurationError, match="unknown schedule pass"):
            resolve_pipeline("no_such_pass")

    def test_bad_pass_args(self):
        with pytest.raises(ScheduleError, match="lazy.*eager"):
            resolve_pipeline("insert_sync:sometimes")
        with pytest.raises(ConfigurationError, match="bad arguments"):
            resolve_pipeline("lower_p2p:extra")

    def test_spec_spellings_share_a_signature(self):
        a = resolve_pipeline("recompute,lower_p2p,fuse_comm")
        b = resolve_pipeline(["recompute", "lower_p2p", "fuse_comm"])
        c = resolve_pipeline(
            [RecomputePass(), LowerP2PPass(), FuseCommPass()]
        )
        d = resolve_pipeline(a)
        assert a.signature() == b.signature() == c.signature() == d.signature()
        assert pipeline_signature(None) == ()

    def test_duplicate_registration_rejected(self):
        manager = PassManager()
        manager.register("x", RecomputePass)
        with pytest.raises(ConfigurationError, match="already registered"):
            manager.register("x", RecomputePass)
        manager.register("x", FuseCommPass, replace=True)

    def test_custom_pass_usable_end_to_end(self):
        """register_pass is the extension point: a user pass slots into
        build_schedule's ``passes=`` and the cache key without new code."""

        class TagPass(SchedulePass):
            name = "tag"

            def run(self, schedule):
                return schedule.with_metadata(tagged=True)

        manager = DEFAULT_PASS_MANAGER
        manager.register("tag", TagPass, replace=True)
        try:
            schedule = build_schedule("dapple", 2, 2, passes="tag")
            assert schedule.metadata["tagged"]
            assert "tag" in schedule.metadata["passes"]
        finally:
            manager._factories.pop("tag", None)

    def test_ordering_validation(self):
        dapple = build_schedule("dapple", 2, 2)
        with pytest.raises(ScheduleError, match="requires fact 'lowered'"):
            resolve_pipeline("fuse_comm").run(dapple)
        with pytest.raises(ScheduleError, match="cannot run once fact"):
            resolve_pipeline("lower_p2p,insert_sync").run(dapple)
        with pytest.raises(ScheduleError, match="cannot run once fact"):
            resolve_pipeline("lower_p2p,fill_bubbles").run(
                build_schedule("zb_h1", 2, 2)
            )
        # The canonical full pipeline is valid.
        resolve_pipeline("recompute,fill_bubbles,lower_p2p,fuse_comm").run(
            build_schedule("zb_h1", 2, 4)
        )

    def test_facts_derived_from_schedule(self):
        plain = build_schedule("dapple", 2, 2)
        assert "sync" in schedule_facts(plain)
        lowered = build_schedule("dapple", 2, 2, passes="lower_p2p")
        assert "lowered" in schedule_facts(lowered)
        fused = build_schedule("dapple", 2, 2, passes="lower_p2p,fuse_comm")
        assert {"lowered", "fused_comm"} <= schedule_facts(fused)
        recomputed = build_schedule("dapple", 2, 2, recompute=True)
        assert "recompute" in schedule_facts(recomputed)

    def test_pipeline_recorded_in_metadata(self):
        s = build_schedule("gpipe", 2, 2, recompute=True, passes="lower_p2p")
        # Signatures are canonical: option-bearing passes spell out their
        # parameters, so "insert_sync" and "insert_sync:lazy" share one.
        assert s.metadata["passes"] == (
            "insert_sync:mode=lazy",
            "recompute",
            "lower_p2p",
        )

    def test_default_pipelines_declared_in_traits(self):
        for scheme in available_schemes():
            declared = scheme_traits(scheme).default_passes
            if scheme in ("pipedream", "chimera"):
                assert declared == ()  # scheme-managed synchronization
            else:
                assert declared == ("insert_sync",)
            resolve_pipeline(declared)  # every spec must parse


# ----------------------------------------------------------------- caching
def test_cache_keys_on_pipeline_signature():
    key = ScheduleCache.key
    base = key("dapple", 4, 4, {})
    assert key("dapple", 4, 4, {"passes": None}) == base
    assert key("dapple", 4, 4, {"passes": ""}) == base
    spelled = key("dapple", 4, 4, {"passes": "lower_p2p,fuse_comm"})
    listed = key("dapple", 4, 4, {"passes": ["lower_p2p", "fuse_comm"]})
    objs = key("dapple", 4, 4, {"passes": [LowerP2PPass(), FuseCommPass()]})
    assert spelled == listed == objs != base
    with_mode = key("dapple", 4, 4, {"passes": "insert_sync:eager"})
    assert with_mode != key("dapple", 4, 4, {"passes": "insert_sync"})


def test_cached_fused_artifacts_are_shared():
    cache = ScheduleCache()
    arts = cache.artifacts("dapple", 4, 4)
    fused = ("lower_p2p", "fuse_comm")
    assert arts.schedule_for(fused) is arts.fused()
    assert arts.graph_for(fused) is arts.fused_graph()
    assert arts.fused().metadata["fused_comm"]
    # Only the comm tail picks the form: pre-lowering passes key the entry.
    assert arts.schedule_for(("offload", "lower_p2p")) is arts.lowered()


# ----------------------------------------------------------- individual passes
class TestInsertSync:
    def test_eager_places_after_last_producer(self):
        schedule = InsertSyncPass("eager").run(
            build_schedule("gpipe", 4, 4)
        )
        validate_schedule(schedule, require_sync_ops=True)
        for worker, ops in enumerate(schedule.worker_ops):
            for i, op in enumerate(ops):
                if op.kind is OpKind.ALLREDUCE:
                    prev = ops[i - 1]
                    assert prev.produces_weight_grads
                    assert (prev.replica, prev.stage) == (op.replica, op.stage)

    def test_re_placement_is_mode_roundtrip(self):
        lazy = build_schedule("gpipe", 4, 4)  # default insert_sync (lazy)
        eager = InsertSyncPass("eager").run(lazy)
        back = InsertSyncPass("lazy").run(eager)
        assert back.worker_ops == lazy.worker_ops

    def test_rejects_per_micro_batch_sync(self):
        with pytest.raises(ScheduleError, match="scheme-managed"):
            InsertSyncPass().run(build_schedule("pipedream", 2, 2))


class TestRecomputePass:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_memory_drops_or_matches_minimal(self, scheme):
        """Acceptance: peak activation memory drops for every scheme (GEMS
        is already at the 1-stash minimum, where the rematerialized
        activation itself is the floor)."""
        depth, n = 4, 8
        model = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.25)
        base = analyze_memory(build_schedule(scheme, depth, n), model)
        recomputed = analyze_memory(
            build_schedule(scheme, depth, n, recompute=True), model
        )
        if scheme == "gems":
            assert recomputed.peak_bytes <= base.peak_bytes
        else:
            assert recomputed.peak_bytes < base.peak_bytes

    def test_skips_flagged_backwards(self):
        """Chimera forward doubling bakes flag-recomputation into its
        shape; the pass must not double-charge those micro-batches."""
        schedule = build_schedule(
            "chimera", 4, 8, concat="doubling", recompute=True
        )
        validate_schedule(schedule)
        flagged = {
            (op.replica, op.stage, mb)
            for _, op in schedule.all_ops()
            if op.is_backward and op.recompute
            for mb in op.micro_batches
        }
        explicit = {
            (op.replica, op.stage, mb)
            for _, op in schedule.all_ops()
            if op.is_recompute
            for mb in op.micro_batches
        }
        assert flagged and not (flagged & explicit)

    def test_total_cost_matches_flag_model(self):
        """An explicit RECOMPUTE op carries exactly the forward-equivalent
        the flag path buried in the backward, so total busy time agrees."""
        cost = CostModel.practical()
        schedule = build_schedule("gpipe", 2, 3, recompute=True)
        result = simulate(schedule, cost)
        busy = sum(result.busy_time(w) for w in range(schedule.num_workers))
        n, stages = 3, 2
        expected = n * stages * (1.0 + cost.recompute_backward_ratio)
        assert busy == pytest.approx(expected)

    def test_remat_prefetches_into_bubbles(self):
        """The explicit op's only dependency is the stashed input, so the
        simulator hoists it into idle time — recompute costs less wall
        time than the paper's B=3F critical-path model."""
        cost = CostModel.practical()
        plain = simulate(build_schedule("dapple", 4, 8), cost)
        recomputed = simulate(
            build_schedule("dapple", 4, 8, recompute=True), cost
        )
        flag_model = 8 * 4  # N * (1F + 3F) steady lower bound per stage
        assert recomputed.compute_makespan < flag_model + 3 * 4
        assert recomputed.compute_makespan >= plain.compute_makespan


class TestFillBubbles:
    def test_noop_without_split_backwards(self):
        s = build_schedule("gpipe", 4, 4)
        assert FillBubblesPass().run(s).worker_ops == s.worker_ops

    def test_improves_a_naive_split_schedule(self):
        """W parked right after its Bi (the naive order) gets re-seated
        into drain bubbles — the generalized ZB-H1 tail-fill."""
        from dataclasses import replace

        from repro.schedules.ir import freeze_worker_ops

        base = build_schedule("zb_h1", 4, 8)
        rows = []
        for ops in base.worker_ops:
            row = []
            for op in ops:
                if op.is_backward_weight:
                    continue
                row.append(op)
                if op.is_backward_input:
                    row.append(
                        Operation(
                            OpKind.BACKWARD_WEIGHT,
                            op.replica,
                            op.stage,
                            op.micro_batches,
                            op.part,
                        )
                    )
            rows.append(row)
        naive = replace(base, worker_ops=freeze_worker_ops(rows))
        cm = CostModel(
            forward_time=1.0,
            backward_ratio=2.0,
            backward_input_ratio=1.0,
            backward_weight_ratio=1.0,
        )
        filled = FillBubblesPass().run(naive)
        validate_schedule(filled, require_sync_ops=True)
        assert (
            simulate_fast(filled, cm).compute_makespan
            < simulate_fast(naive, cm).compute_makespan
        )


# ------------------------------------------------------------ pass algebra
@SETTINGS
@given(scheme=schemes, depth=even_depths, n=micro_batches)
def test_fuse_comm_idempotent(scheme, depth, n):
    fused = build_schedule(scheme, depth, n, passes="lower_p2p,fuse_comm")
    again = FuseCommPass().run(fused)
    assert again.worker_ops == fused.worker_ops


@SETTINGS
@given(
    scheme=st.sampled_from(["zb_h1", "zb_v", "zb_vhalf", "zb_vmin"]),
    depth=even_depths,
    n=micro_batches,
)
def test_fill_bubbles_idempotent(scheme, depth, n):
    filled = build_schedule(scheme, depth, n, passes="fill_bubbles")
    again = FillBubblesPass().run(filled)
    assert again.worker_ops == filled.worker_ops


@SETTINGS
@given(scheme=schemes, depth=even_depths, n=micro_batches)
def test_recompute_lowering_commute(scheme, depth, n):
    """The declared commutation: recompute∘lower == lower∘recompute (and
    the same through fuse_comm), op-for-op."""
    base = build_schedule(scheme, depth, n)
    a = LowerP2PPass().run(RecomputePass().run(base))
    b = RecomputePass().run(LowerP2PPass().run(base))
    assert a.worker_ops == b.worker_ops
    fa = FuseCommPass().run(a)
    fb = RecomputePass().run(FuseCommPass().run(LowerP2PPass().run(base)))
    assert fa.worker_ops == fb.worker_ops
    validate_schedule(fa)


@SETTINGS
@given(
    scheme=schemes,
    depth=even_depths,
    n=micro_batches,
    alpha=st.floats(min_value=0.0, max_value=2.0),
    f=cost_units,
    b=cost_units,
    w=cost_units,
)
def test_fuse_comm_makespan_parity_at_zero_occupancy(
    scheme, depth, n, alpha, f, b, w
):
    """Acceptance: batching SEND/RECV pairs moves no op at beta = 0, for
    any scheme, latency, and f/b/w split."""
    cost = CostModel(
        forward_time=f,
        backward_ratio=(b + w) / f,
        backward_input_ratio=b / f,
        backward_weight_ratio=w / f,
        topology=FlatTopology(LinkSpec(alpha=alpha, beta=0.0)),
        activation_message_bytes=1.0,
    )
    lowered = build_schedule(scheme, depth, n, passes="lower_p2p")
    fused = FuseCommPass().run(lowered)
    assert fused.count(OpKind.RECV) == 0
    assert sum(len(r) for r in fused.worker_ops) < sum(
        len(r) for r in lowered.worker_ops
    )
    low = simulate(lowered, cost)
    fus = simulate(fused, cost)
    assert abs(low.compute_makespan - fus.compute_makespan) < 1e-9
    assert abs(low.iteration_time - fus.iteration_time) < 1e-9


@SETTINGS
@given(
    scheme=schemes,
    depth=even_depths,
    n=micro_batches,
    recompute=st.booleans(),
    fused=st.booleans(),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    f=cost_units,
    b=cost_units,
    w=cost_units,
)
def test_kernel_matches_engine_on_passed_schedules(
    scheme, depth, n, recompute, fused, alpha, f, b, w
):
    """The array kernel stays engine-exact (1e-9) across the whole pass
    product: recompute × {lowered, fused} × random cost models."""
    specs = "lower_p2p,fuse_comm" if fused else "lower_p2p"
    schedule = build_schedule(
        scheme, depth, n, recompute=recompute, passes=specs
    )
    cost = CostModel(
        forward_time=f,
        backward_ratio=(b + w) / f,
        backward_input_ratio=b / f,
        backward_weight_ratio=w / f,
        topology=FlatTopology(LinkSpec(alpha=alpha, beta=0.0)),
        activation_message_bytes=1.0,
    )
    event = simulate(schedule, cost)
    fast = simulate_fast(schedule, cost)
    assert abs(event.compute_makespan - fast.compute_makespan) < 1e-9
    assert abs(event.iteration_time - fast.iteration_time) < 1e-9


@SETTINGS
@given(scheme=schemes, depth=even_depths, n=micro_batches)
def test_signature_stability_and_metadata(scheme, depth, n):
    """One spec, many spellings, one signature — and the signature built
    twice (fresh pass objects) is identical, so cache keys are stable."""
    spec = "recompute,lower_p2p,fuse_comm"
    sig1 = pipeline_signature(spec)
    sig2 = resolve_pipeline(spec.split(",")).signature()
    assert sig1 == sig2 == ("recompute", "lower_p2p", "fuse_comm")
    schedule = build_schedule(scheme, depth, n, passes=spec)
    assert tuple(schedule.metadata["passes"])[-3:] == sig1


def test_pipeline_object_reusable():
    pipeline = PassPipeline([LowerP2PPass(), FuseCommPass()])
    for scheme in ("gpipe", "zb_v"):
        out = pipeline.run(build_schedule(scheme, 2, 3))
        assert out.lowered and out.metadata["fused_comm"]
