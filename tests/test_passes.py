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

import functools

import pytest
from hypothesis import given, settings, strategies as st

import repro.schedules.registry as registry

from repro.common.errors import ConfigurationError, ScheduleError
from repro.schedules.cache import ScheduleArtifacts, ScheduleCache
from repro.schedules.diskcache import DiskScheduleCache
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
        with pytest.raises(
            ConfigurationError, match="'insert_sync:sometimes'.*lazy.*eager"
        ):
            resolve_pipeline("insert_sync:sometimes")
        with pytest.raises(ConfigurationError, match="bad arguments"):
            resolve_pipeline("lower_p2p:extra")
        # fill_bubbles has no configuration: it always replays under the
        # unit reference model, so "fill_bubbles" names all of it.
        with pytest.raises(ConfigurationError, match="bad arguments"):
            resolve_pipeline("fill_bubbles:x")

    @pytest.mark.parametrize(
        "spec",
        [
            *DEFAULT_PASS_MANAGER.available(),
            "insert_sync:eager",
            "insert_sync:mode=eager",
            "offload:3",
            "offload:min_gap=3",
        ],
    )
    def test_signature_round_trips_through_create(self, spec):
        made = DEFAULT_PASS_MANAGER.create(spec)
        again = DEFAULT_PASS_MANAGER.create(made.signature())
        assert type(again) is type(made)
        assert again.signature() == made.signature()

    def test_recorded_passes_feed_back(self):
        s = build_schedule("gpipe", 2, 3, passes="offload:min_gap=2")
        assert s.metadata["passes"] == ("insert_sync:mode=lazy", "offload:min_gap=2")
        again = build_schedule("gpipe", 2, 3, passes=s.metadata["passes"][1:])
        assert again.worker_ops == s.worker_ops

    @pytest.mark.parametrize(
        "spec",
        [
            "offload:x",
            "offload:0",
            "offload:min_gap=0",
            "offload:gap=3",
            "insert_sync:mode=sometimes",
            "insert_sync:eager:mode=lazy",
        ],
    )
    def test_bad_values_name_the_spec(self, spec):
        with pytest.raises(ConfigurationError, match=f"in spec {spec!r}"):
            resolve_pipeline(spec)

    def test_spec_spellings_share_a_signature(self):
        a = resolve_pipeline("recompute,lower_p2p,fuse_comm")
        b = resolve_pipeline(["recompute", "lower_p2p", "fuse_comm"])
        c = resolve_pipeline([" recompute", "lower_p2p ", "", "fuse_comm"])
        assert a.signature() == b.signature() == c.signature()
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
        recomputed = build_schedule("dapple", 2, 2, passes="recompute")
        assert "recompute" in schedule_facts(recomputed)

    def test_pipeline_recorded_in_metadata(self):
        s = build_schedule("gpipe", 2, 2, passes="recompute,lower_p2p")
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
    assert spelled == listed != base
    with_mode = key("dapple", 4, 4, {"passes": "insert_sync:eager"})
    assert with_mode != key("dapple", 4, 4, {"passes": "insert_sync"})


#: Registered specs the key-soundness property draws pipelines from.
KEYED_SPECS = (
    "insert_sync:lazy",
    "insert_sync:eager",
    "recompute",
    "offload",
    "fill_bubbles",
)


def _respell(specs: list[str]) -> str:
    """The same pipeline as a comma string, with the default-mode
    ``insert_sync`` spelling and stray whitespace."""
    return ", ".join("insert_sync" if s == "insert_sync:lazy" else s for s in specs)


def _built_ops(scheme, depth, n, passes):
    try:
        return build_schedule(scheme, depth, n, passes=passes).worker_ops
    except (ConfigurationError, ScheduleError) as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(["dapple", "zb_v", "chimera"]),
    depth=st.sampled_from([2, 4]),
    n=st.integers(min_value=1, max_value=6),
    a=st.lists(st.sampled_from(KEYED_SPECS), max_size=3),
    b=st.lists(st.sampled_from(KEYED_SPECS), max_size=3),
    respell=st.booleans(),
)
def test_equal_keys_build_equal_schedules(scheme, depth, n, a, b, respell):
    """The cache's contract: two pipeline specs that key one entry build
    one schedule (or fail alike). ``respell`` pairs ``a`` with another
    spelling of itself, the case where keys must collide."""
    other = _respell(a) if respell else b
    key_a = ScheduleCache.key(scheme, depth, n, {"passes": a})
    key_b = ScheduleCache.key(scheme, depth, n, {"passes": other})
    if respell:
        assert key_a == key_b
    if key_a == key_b:
        assert _built_ops(scheme, depth, n, a) == _built_ops(scheme, depth, n, other)


@pytest.mark.parametrize(
    "scheme,options",
    [
        ("chimera", {"num_down_pipelines": 1}),
        ("chimera", {"sync_mode": "eager_opt", "slot_model": "practical"}),
        ("zb_h1", {"max_in_flight": None}),
        ("zb_v", {"max_in_flight": None, "passes": ""}),
    ],
)
def test_options_at_their_defaults_share_the_plain_entry(tmp_path, scheme, options):
    """A builder option passed at its declared default keys the entry
    (memory and disk) that leaving it out keys."""
    cache = ScheduleCache(disk=DiskScheduleCache(tmp_path))
    plain = cache.artifacts(scheme, 4, 8)
    assert cache.artifacts(scheme, 4, 8, **options) is plain
    assert cache.stats().entries == 1
    assert len(list(tmp_path.rglob("*.pkl"))) == 1


def test_options_off_their_defaults_key_their_own_entries():
    key = ScheduleCache.key
    plain = key("chimera", 4, 8, {})
    assert key("chimera", 4, 8, {"num_down_pipelines": 2}) != plain
    # Equal but of another type is not the declared default.
    assert key("chimera", 4, 8, {"num_down_pipelines": True}) != plain
    assert key("zb_h1", 4, 8, {"max_in_flight": 2}) != key("zb_h1", 4, 8, {})


#: The planner's attempt pipelines, alone and with a lowered tail.
VARIANT_PIPELINES = tuple(
    base + tail
    for base in ("recompute", "offload", "recompute,offload")
    for tail in ("", ",lower_p2p")
)


@pytest.mark.parametrize("passes", VARIANT_PIPELINES)
@pytest.mark.parametrize("scheme", available_schemes())
def test_pass_variant_equals_one_shot_build(tmp_path, scheme, passes):
    """A variant the cache derives from its base entry is the schedule a
    one-shot ``build_schedule(..., passes=p)`` returns: same ops, same
    metadata in the same key order, and a disk file with the same bytes
    as an entry made from the one-shot build."""
    cache = ScheduleCache(disk=DiskScheduleCache(tmp_path / "derived"))
    cache.artifacts(scheme, 4, 6)  # the base entry, asked first as in planning
    variant = cache.artifacts(scheme, 4, 6, passes=passes).schedule
    built = build_schedule(scheme, 4, 6, passes=passes)
    assert variant.worker_ops == built.worker_ops
    assert list(variant.metadata.items()) == list(built.metadata.items())
    assert list(variant.metadata)[-1] == "passes"

    key = ScheduleCache.key(scheme, 4, 6, {"passes": passes})
    one_shot = ScheduleArtifacts(built)
    one_shot.memory_profile()  # the cache's first write carries it too
    disk = DiskScheduleCache(tmp_path / "one_shot")
    assert disk.store(key, one_shot.snapshot())
    derived = cache.disk.entry_path(key).read_bytes()
    assert derived == disk.entry_path(key).read_bytes()


def test_pass_variant_miss_runs_the_builder_once(monkeypatch):
    """On an empty memory tier, a variant miss builds its base entry and
    runs only its extra passes on it; later variants and the base itself
    are served without running the builder again."""
    builder = registry._BUILDERS["dapple"]
    runs = []

    @functools.wraps(builder)
    def counting(*args, **kwargs):
        runs.append(args)
        return builder(*args, **kwargs)

    monkeypatch.setitem(registry._BUILDERS, "dapple", counting)
    cache = ScheduleCache()
    cache.artifacts("dapple", 4, 6, passes="recompute,offload")
    assert runs == [(4, 6)]
    cache.artifacts("dapple", 4, 6, passes="offload")
    cache.artifacts("dapple", 4, 6)
    assert runs == [(4, 6)]
    assert cache.stats().entries == 3


def test_cached_fused_artifacts_are_shared():
    cache = ScheduleCache()
    arts = cache.artifacts("dapple", 4, 4)
    fused = ("lower_p2p", "fuse_comm")
    schedule = arts.schedule_for(fused)
    assert arts.schedule_for("lower_p2p,fuse_comm") is schedule
    assert arts.graph_for(fused) is arts.graph_for(fused)
    assert arts.graph_for(fused).schedule is schedule
    assert schedule.metadata["fused_comm"]
    # Only the comm tail picks the form: pre-lowering passes key the entry.
    lowered = arts.schedule_for(("lower_p2p",))
    assert arts.schedule_for(("offload", "lower_p2p")) is lowered


def test_an_entry_lowers_and_fuses_once(monkeypatch):
    """"fused" derives from "lowered", and lowering yields the lowered
    schedule together with its graph: an entry lowers and fuses once. A
    lowered graph the kernel dropped is rebuilt from the held lowered
    schedule, not by lowering again."""
    import repro.schedules.cache as cache_mod

    calls: list[str] = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for attr, name in (
        ("lower_schedule", "lower"),
        ("build_dependency_graph", "graph"),
    ):
        monkeypatch.setattr(cache_mod, attr, counting(name, getattr(cache_mod, attr)))
    monkeypatch.setattr(FuseCommPass, "run", counting("fuse", FuseCommPass.run))
    arts = ScheduleCache().artifacts("dapple", 4, 4)
    fused, lowered = ("lower_p2p", "fuse_comm"), ("lower_p2p",)
    arts.graph_for(fused)
    arts.graph_for(lowered)
    arts.kernel_for(lowered)
    assert calls == ["graph", "lower", "fuse", "graph"]
    assert not arts._graphs  # the kernel dropped them
    calls.clear()
    graph = arts.graph_for(lowered)
    assert calls == ["graph"]
    assert graph.schedule is arts.schedule_for(lowered)


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
            build_schedule(scheme, depth, n, passes="recompute"), model
        )
        if scheme == "gems":
            assert recomputed.peak_bytes <= base.peak_bytes
        else:
            assert recomputed.peak_bytes < base.peak_bytes

    def test_skips_flagged_backwards(self):
        """Chimera forward doubling bakes flag-recomputation into its
        shape; the pass must not double-charge those micro-batches."""
        schedule = build_schedule(
            "chimera", 4, 8, concat="doubling", passes="recompute"
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
        schedule = build_schedule("gpipe", 2, 3, passes="recompute")
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
            build_schedule("dapple", 4, 8, passes="recompute"), cost
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
    if recompute:
        specs = "recompute," + specs
    schedule = build_schedule(scheme, depth, n, passes=specs)
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
