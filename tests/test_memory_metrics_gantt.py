"""Memory model, metrics, and the Gantt renderer."""

import functools
import hashlib
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MemoryModelError
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.passes import attempt_pipelines, split_pipeline
from repro.schedules.placement import StagePlacement
from repro.bench.machines import MACHINES
from repro.bench.workloads import WORKLOADS
from repro.perf.calibration import calibrate_memory_model
from repro.schedules.registry import available_schemes, build_schedule
from repro.sim.cost import CostModel
from repro.sim.engine import simulate
from repro.sim.gantt import render_gantt
from repro.schedules.cache import ScheduleArtifacts
from repro.schedules.diskcache import dumps
from repro.sim.memory import (
    MemoryModel,
    analyze_memory,
    compile_memory_profile,
    weight_versions,
)
from repro.sim.metrics import (
    bubble_ratio,
    parallel_efficiency,
    throughput_samples_per_sec,
    worker_busy_times,
)


class TestMemoryModel:
    def test_recompute_stores_stash_only(self):
        plain = build_schedule("dapple", 4, 4)
        recomp = build_schedule("dapple", 4, 4, passes="recompute")
        mm = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.1)
        p = analyze_memory(plain, mm)
        r = analyze_memory(recomp, mm)
        assert r.peak_bytes < p.peak_bytes

    def test_recompute_transient_counted(self):
        """During a recomputed backward the full activation briefly lives."""
        recomp = build_schedule("gems", 4, 2, passes="recompute")
        mm = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.1)
        r = analyze_memory(recomp, mm)
        # 1 stash (0.1) rematerializing to 1.0 at the peak.
        assert r.workers[0].activation_peak_bytes == pytest.approx(1.0)

    def test_per_stage_weight_bytes(self):
        schedule = build_schedule("dapple", 2, 2)
        mm = MemoryModel(activation_bytes=0.0, weight_bytes=(5.0, 1.0))
        report = analyze_memory(schedule, mm)
        assert report.workers[0].weight_bytes == 5.0
        assert report.workers[1].weight_bytes == 1.0

    def test_weight_versions_per_scheme(self):
        assert weight_versions("pipedream", 4, 0) == 4
        assert weight_versions("pipedream", 4, 3) == 1
        assert weight_versions("pipedream_2bw", 4, 0) == 2
        assert weight_versions("dapple", 4, 0) == 1
        # analyze_memory charges exactly those versions.
        mm = MemoryModel(activation_bytes=0.0, weight_bytes=1.0,
                         weight_stash_bytes=0.5)
        report = analyze_memory(build_schedule("pipedream", 4, 4), mm)
        assert [w.weight_bytes for w in report.workers] == [2.5, 2.0, 1.5, 1.0]

    def test_imbalance_and_fits(self):
        report = analyze_memory(
            build_schedule("dapple", 4, 4), MemoryModel(activation_bytes=1.0)
        )
        assert report.imbalance == pytest.approx(4.0)
        assert report.fits(report.peak_bytes)
        assert not report.fits(report.peak_bytes - 0.5)

    def test_summaries_are_taken_when_the_report_is_made(self):
        """A report's peaks are fields filled at construction (reports are
        memoized and shared, so each is summarized once), equal to the
        per-worker max/min, and invisible to ``==`` and ``repr``."""
        from dataclasses import replace

        from repro.sim.memory import MemoryReport

        report = analyze_memory(
            build_schedule("chimera", 4, 8, passes="offload"),
            MemoryModel(activation_bytes=1.0, weight_bytes=0.5),
        )
        totals = [w.total_bytes for w in report.workers]
        assert vars(report)["peak_bytes"] == max(totals)
        assert vars(report)["min_bytes"] == min(totals)
        assert vars(report)["host_peak_bytes"] == max(
            w.host_peak_bytes for w in report.workers
        )
        assert report.host_peak_bytes > 0
        assert report == MemoryReport(workers=report.workers)
        assert repr(report) == f"MemoryReport(workers={report.workers!r})"
        first = replace(report, workers=report.workers[:1])
        assert first.peak_bytes == first.workers[0].total_bytes

    def test_fits_absorbs_float_accumulation_drift(self):
        """A peak assembled by float additions must not be rejected against
        an exactly-equal budget: 0.1 + 0.2 > 0.3 in binary floats, and the
        planner's budget prune feeds exact peaks back in as capacities."""
        from repro.sim.memory import MemoryReport, WorkerMemory

        drifted = MemoryReport(workers=(WorkerMemory(0, 0.0, 0.1 + 0.2, 3.0),))
        assert drifted.peak_bytes > 0.3  # the classic drift
        assert drifted.fits(0.3)
        assert not drifted.fits(0.3 - 1e-6)

    def test_backward_without_forward_raises(self):
        placement = StagePlacement.linear(1)
        rows = [[Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,))]]
        schedule = Schedule(
            scheme="toy",
            placement=placement,
            num_micro_batches=1,
            worker_ops=freeze_worker_ops(rows),
        )
        with pytest.raises(MemoryModelError):
            analyze_memory(schedule, MemoryModel())

    def test_per_stage_sequence_out_of_range(self):
        mm = MemoryModel(activation_bytes=(1.0,))
        schedule = build_schedule("dapple", 2, 2)
        with pytest.raises(MemoryModelError):
            analyze_memory(schedule, mm)


def _toy(*ops: Operation) -> Schedule:
    """A one-stage, one-worker schedule running ``ops`` in order."""
    return Schedule(
        scheme="toy",
        placement=StagePlacement.linear(1),
        num_micro_batches=1,
        worker_ops=freeze_worker_ops([list(ops)]),
    )


_F = Operation(OpKind.FORWARD, 0, 0, micro_batches=(0,))
_B = Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,))
_OFFLOAD = Operation(OpKind.OFFLOAD, 0, 0, micro_batches=(0,), payload="stash")
_RELOAD = Operation(OpKind.RELOAD, 0, 0, micro_batches=(0,), payload="stash")


@pytest.mark.parametrize(
    "ops, message",
    [
        (
            (_OFFLOAD, _RELOAD, _F, _B),
            "OFFLOAD of micro-batch 0 at stage 0 without a live forward "
            "stash on worker 0",
        ),
        (
            (_F, _OFFLOAD, _OFFLOAD, _RELOAD, _B),
            "micro-batch 0 at stage 0 offloaded twice on worker 0",
        ),
        (
            (_F, _RELOAD, _B),
            "RELOAD of micro-batch 0 at stage 0 without an offloaded stash "
            "on worker 0",
        ),
        (
            (Operation(OpKind.RECOMPUTE, 0, 0, micro_batches=(0,)), _F, _B),
            "RECOMPUTE of micro-batch 0 at stage 0 without a live forward "
            "stash on worker 0",
        ),
        (
            (
                Operation(OpKind.BACKWARD_INPUT, 0, 0, micro_batches=(0,)),
                _F,
                Operation(OpKind.BACKWARD_WEIGHT, 0, 0, micro_batches=(0,)),
            ),
            "input gradient of micro-batch 0 at stage 0 without a live "
            "forward stash on worker 0",
        ),
        (
            (_B, _F),
            "backward of micro-batch 0 at stage 0 without a live forward "
            "stash on worker 0",
        ),
    ],
    ids=[
        "offload-without-stash",
        "offload-twice",
        "reload-without-offload",
        "recompute-without-stash",
        "input-gradient-without-stash",
        "backward-without-stash",
    ],
)
def test_liveness_error_names_the_op(ops, message):
    with pytest.raises(MemoryModelError) as err:
        analyze_memory(_toy(*ops), MemoryModel())
    assert str(err.value) == message
    # Raised by the compile step, before any memory model is involved.
    with pytest.raises(MemoryModelError, match=message):
        compile_memory_profile(_toy(*ops))


class TestMemoryProfile:
    def test_short_sequence_raises_when_pricing_a_profile(self):
        profile = compile_memory_profile(build_schedule("dapple", 2, 2))
        for field in (
            "activation_bytes",
            "stash_input_bytes",
            "weight_bytes",
            "weight_stash_bytes",
        ):
            with pytest.raises(MemoryModelError, match=field):
                analyze_memory(profile, MemoryModel(**{field: (1.0,)}))

    def test_short_sequence_raises_on_every_call(self):
        """A pricing that raises stores nothing, so it raises again."""
        profile = compile_memory_profile(build_schedule("dapple", 2, 2))
        model = MemoryModel(activation_bytes=(1.0,))
        for _ in range(2):
            with pytest.raises(MemoryModelError, match="activation_bytes"):
                analyze_memory(profile, model)

    def test_reports_memoize_per_profile_and_model_value(self):
        profile = compile_memory_profile(build_schedule("dapple", 4, 4))

        def model(weights):
            return MemoryModel(stash_input_bytes=0.1, weight_bytes=weights)

        report = analyze_memory(profile, model((1.0, 2.0, 3.0, 4.0)))
        # An equal model, built separately, returns the same report.
        assert analyze_memory(profile, model((1.0, 2.0, 3.0, 4.0))) is report
        # A list field is unhashable: priced every time, never stored.
        listed = [analyze_memory(profile, model([1.0, 2.0, 3.0, 4.0])) for _ in "ab"]
        assert listed[0] == listed[1] == report
        assert listed[0] is not listed[1]
        # A schedule argument is compiled and priced every time.
        schedule = build_schedule("dapple", 4, 4)
        again = analyze_memory(schedule, model((1.0, 2.0, 3.0, 4.0)))
        assert again == report and again is not report
        assert analyze_memory(profile, model((1.0, 2.0, 3.0, 4.0))) is report

    def test_compact_tables_and_no_host_tier_without_offload(self):
        plain = compile_memory_profile(build_schedule("chimera", 4, 8))
        assert plain.host is None
        assert plain.device.stage.dtype.name == "int16"
        assert plain.device.code.dtype.name == "int8"
        offloaded = compile_memory_profile(
            build_schedule("chimera", 4, 8, passes="offload")
        )
        assert offloaded.host is not None
        assert analyze_memory(offloaded, MemoryModel()).host_peak_bytes > 0.0

    def test_artifacts_compile_the_profile_once_and_persist_it(self):
        arts = ScheduleArtifacts(build_schedule("zb_h1", 4, 8, passes="recompute"))
        profile = arts.memory_profile()
        assert arts.memory_profile() is profile
        model = MemoryModel(activation_bytes=1.0, stash_input_bytes=0.1)
        assert analyze_memory(profile, model) == analyze_memory(arts.schedule, model)
        restored = ScheduleArtifacts.from_snapshot(
            pickle.loads(dumps(arts.snapshot()))
        )
        assert restored.memory_profile() is not profile
        assert analyze_memory(restored.memory_profile(), model) == analyze_memory(
            profile, model
        )
        # Restored, not recompiled: no schedule form was unpickled.
        assert restored._forms is None


# --------------------------------------------------------------------------
# Memory-report parity: every digest below was recorded from the per-op
# running-total walk (``_reference_walk`` further down), so the compiled
# analysis must reproduce each report bitwise, before and after the
# profile's disk round trip. If a change to a builder or pass is meant to
# reshape schedules, regenerate the table with ``_parity_digests(case)[0]``
# and review the diff.

PARITY_SHAPES = ((4, 4), (4, 8), (8, 16))
#: Pipeline column: a pass spec, ``"implicit"`` for none, or
#: ``"recompute=True"`` for the planner's recompute retry (see
#: :func:`_recompute_retry_options`).
PARITY_PIPELINES = (
    "implicit",
    "recompute",
    "offload",
    "offload,recompute",
    "recompute=True",
)


def _recompute_retry_options() -> dict:
    """Build options of the §3.4 retry: the one attempt pinned
    ``recompute=True, offload=False``, split for the cache the way the
    planner splits it. Its schedule must equal ``passes="recompute"``."""
    (attempt,) = attempt_pipelines(None, recompute=True, offload=False)
    return split_pipeline(attempt).build_options()


def _synthetic_model(num_stages: int) -> MemoryModel:
    """Per-stage bytes with the stash at or above the full activations on
    some stages (both sides of a recompute promotion) and non-dyadic
    sizes (float accumulation order matters)."""
    act = tuple(1.0 + 0.1 * s for s in range(num_stages))
    stash = tuple(
        act[s] * 1.5 if s % 4 == 0 else act[s] if s % 4 == 1 else 0.3
        for s in range(num_stages)
    )
    return MemoryModel(
        activation_bytes=act,
        stash_input_bytes=stash,
        weight_bytes=tuple(0.7 + 0.05 * s for s in range(num_stages)),
        weight_stash_bytes=0.2,
    )


#: Model column: two calibrated models, the synthetic one, and scalars.
PARITY_MODELS = {
    "piz-daint/gpt2-32": lambda stages: calibrate_memory_model(
        MACHINES["piz-daint"], WORKLOADS["gpt2-32"], depth=stages, micro_batch=4
    ),
    "v100/bert-48": lambda stages: calibrate_memory_model(
        MACHINES["v100"], WORKLOADS["bert-48"], depth=stages, micro_batch=8
    ),
    "synthetic": _synthetic_model,
    "scalar": lambda stages: MemoryModel(
        activation_bytes=1.0, stash_input_bytes=0.1, weight_bytes=0.3
    ),
}

PARITY_CASES = [
    f"{scheme}-{d}x{n}-{pipeline}"
    for scheme in available_schemes()
    for d, n in PARITY_SHAPES
    for pipeline in PARITY_PIPELINES
] + [
    f"chimera_doubling-{d}x{n}-{pipeline}"
    for d, n in PARITY_SHAPES
    for pipeline in PARITY_PIPELINES
]


def _parity_schedule(case: str) -> Schedule:
    scheme, shape, pipeline = case.split("-")
    d, n = (int(x) for x in shape.split("x"))
    options: dict = {}
    if scheme == "chimera_doubling":
        scheme, options["concat"] = "chimera", "doubling"
    if pipeline == "recompute=True":
        options.update(_recompute_retry_options())
    elif pipeline != "implicit":
        options["passes"] = pipeline
    return build_schedule(scheme, d, n, **options)


def _report_digest(report) -> str:
    """sha256 (first 16 hex digits) of every worker's four floats."""
    h = hashlib.sha256()
    for w in report.workers:
        fields = (
            w.weight_bytes,
            w.activation_peak_bytes,
            w.activation_peak_units,
            w.host_peak_bytes,
        )
        h.update(("|".join(float.hex(float(x)) for x in fields) + ";").encode())
    return h.hexdigest()[:16]


def _round_trip(arts: ScheduleArtifacts):
    """The entry's profile as a restarted process reads it: snapshotted,
    pickled like a disk payload and restored, not recompiled."""
    restored = ScheduleArtifacts.from_snapshot(
        pickle.loads(dumps(arts.snapshot()))
    )
    profile = restored.memory_profile()
    assert restored._forms is None  # no schedule form was unpickled
    return profile


def _parity_digests(case: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """One digest per model, every model pricing one compiled profile,
    then the same profile after its disk round trip; analyzing the
    schedule directly must give the compiled profile's reports."""
    schedule = _parity_schedule(case)
    arts = ScheduleArtifacts(schedule)
    profile = arts.memory_profile()
    restored = _round_trip(arts)
    compiled, round_tripped = [], []
    for model in PARITY_MODELS.values():
        memory = model(schedule.num_stages)
        report = analyze_memory(profile, memory)
        assert analyze_memory(schedule, memory) == report
        compiled.append(_report_digest(report))
        round_tripped.append(_report_digest(analyze_memory(restored, memory)))
    return tuple(compiled), tuple(round_tripped)


#: Case -> one digest per :data:`PARITY_MODELS` entry, in order.
PARITY_EXPECTED: dict[str, str] = {
    "pipedream-4x4-implicit":
        "4f19844b20023f9a 7b21f8e2f1ffa886 1f1814a2372e2556 5b2518da61647350",
    "pipedream-4x4-recompute":
        "625fef07da22dd07 e7e262da5b0cc3bb ff6393d04bfe61f5 df95ec6a4c886a7c",
    "pipedream-4x4-offload":
        "8eed0ec3d7010532 784cea5b04147b5f 6b56c58a0e97182d db6c7ab9e7765bd3",
    "pipedream-4x4-offload,recompute":
        "8cd015fb1580180c 36a7c0d989125fd1 736b653a1f320cb3 7609353524df3523",
    "pipedream-4x4-recompute=True":
        "625fef07da22dd07 e7e262da5b0cc3bb ff6393d04bfe61f5 df95ec6a4c886a7c",
    "pipedream-4x8-implicit":
        "4f19844b20023f9a 7b21f8e2f1ffa886 1f1814a2372e2556 5b2518da61647350",
    "pipedream-4x8-recompute":
        "625fef07da22dd07 e7e262da5b0cc3bb ff6393d04bfe61f5 df95ec6a4c886a7c",
    "pipedream-4x8-offload":
        "8eed0ec3d7010532 784cea5b04147b5f 6b56c58a0e97182d db6c7ab9e7765bd3",
    "pipedream-4x8-offload,recompute":
        "8cd015fb1580180c 36a7c0d989125fd1 736b653a1f320cb3 7609353524df3523",
    "pipedream-4x8-recompute=True":
        "625fef07da22dd07 e7e262da5b0cc3bb ff6393d04bfe61f5 df95ec6a4c886a7c",
    "pipedream-8x16-implicit":
        "eb903a8f2417f17a d9d8b8796ec3509a 95dc9b5518496eb5 a17e78a8f1d35dc0",
    "pipedream-8x16-recompute":
        "4a27f357af5968ec 472044547163cee1 b461d594af706ac7 0e504e7556733abe",
    "pipedream-8x16-offload":
        "a910aad922cce1d4 c68f833943e5931f 21d18b5aea58bb5a 270e466157a971cc",
    "pipedream-8x16-offload,recompute":
        "ffb05f32a3237fdf 6335decf162570ed 82546ff029a4ed93 07fa3a78bcca2d1a",
    "pipedream-8x16-recompute=True":
        "4a27f357af5968ec 472044547163cee1 b461d594af706ac7 0e504e7556733abe",
    "pipedream_2bw-4x4-implicit":
        "d46235a97dad9027 4f57a3a3239863b4 babe6712253fdd25 5b2518da61647350",
    "pipedream_2bw-4x4-recompute":
        "8b70cd6a783da4db 30323c9ac236afb2 460d53828b4342b2 df95ec6a4c886a7c",
    "pipedream_2bw-4x4-offload":
        "b3e4204ee0205545 89c9630826c7bea0 f17619bf864644dd db6c7ab9e7765bd3",
    "pipedream_2bw-4x4-offload,recompute":
        "2f0d202ff04711d8 d2137770ddf88c89 1c918ca4f7084a4d 7609353524df3523",
    "pipedream_2bw-4x4-recompute=True":
        "8b70cd6a783da4db 30323c9ac236afb2 460d53828b4342b2 df95ec6a4c886a7c",
    "pipedream_2bw-4x8-implicit":
        "d46235a97dad9027 4f57a3a3239863b4 babe6712253fdd25 5b2518da61647350",
    "pipedream_2bw-4x8-recompute":
        "8b70cd6a783da4db 30323c9ac236afb2 460d53828b4342b2 df95ec6a4c886a7c",
    "pipedream_2bw-4x8-offload":
        "b3e4204ee0205545 89c9630826c7bea0 f17619bf864644dd db6c7ab9e7765bd3",
    "pipedream_2bw-4x8-offload,recompute":
        "2f0d202ff04711d8 d2137770ddf88c89 1c918ca4f7084a4d 7609353524df3523",
    "pipedream_2bw-4x8-recompute=True":
        "8b70cd6a783da4db 30323c9ac236afb2 460d53828b4342b2 df95ec6a4c886a7c",
    "pipedream_2bw-8x16-implicit":
        "18a569f536a63111 35b026eaf95a2cec 3173bac80e039f2c a17e78a8f1d35dc0",
    "pipedream_2bw-8x16-recompute":
        "6fc9fc9e4e711fb9 10860fc93cb03fef 2cedd9948bec67c6 0e504e7556733abe",
    "pipedream_2bw-8x16-offload":
        "b1a5aa0aa70d797f bff1b405f00de7d0 605162cee1b97850 270e466157a971cc",
    "pipedream_2bw-8x16-offload,recompute":
        "4ff2b8a45f9ee54b f86ce68dc40f9f93 d18737f3566a756b 07fa3a78bcca2d1a",
    "pipedream_2bw-8x16-recompute=True":
        "6fc9fc9e4e711fb9 10860fc93cb03fef 2cedd9948bec67c6 0e504e7556733abe",
    "gpipe-4x4-implicit":
        "0d4d4216a9d178a5 d52fc63253a25fec 3d76da7ec475c0b1 c21285098d10489b",
    "gpipe-4x4-recompute":
        "18633b33f6bc9806 69a233751a9cde83 19d354d38daecd5f 2489338a207585d2",
    "gpipe-4x4-offload":
        "b7bae92e2e3c0269 24d24e2f75c82f67 474f75afc0d627e7 e9b6117293fbb3e0",
    "gpipe-4x4-offload,recompute":
        "db980877d8404b7c ec75cfb7c0519048 b0791922026613bb 706ba0bd523901ef",
    "gpipe-4x4-recompute=True":
        "18633b33f6bc9806 69a233751a9cde83 19d354d38daecd5f 2489338a207585d2",
    "gpipe-4x8-implicit":
        "8cd4e2cfbd911f30 c032fb2e2dad2e6f 8e986ba775a027d0 130cc80d26d7aad6",
    "gpipe-4x8-recompute":
        "b19f40ed7e459927 9452ce332e926742 a1c49748068a6602 e9c6a11c88e4871f",
    "gpipe-4x8-offload":
        "62f1e7a8e612f6e5 8f7fb8ae0c2768a5 394bd69121a8bf74 f2f7b98a977e68c2",
    "gpipe-4x8-offload,recompute":
        "c97ba065cf24bf86 380650ad3818a2ee 00efa25f952a638c 91b55d743cecbad7",
    "gpipe-4x8-recompute=True":
        "b19f40ed7e459927 9452ce332e926742 a1c49748068a6602 e9c6a11c88e4871f",
    "gpipe-8x16-implicit":
        "9282553d3c06b542 2294254532e50283 6519f4f6a4c2d70e b7ffe5eb6e0d09ce",
    "gpipe-8x16-recompute":
        "02c0827c4f7d9e49 5a8b650c23a6294f abdbdb6c2aef9ac4 da0353fc71028917",
    "gpipe-8x16-offload":
        "2d0652d8be366efd 237b28c632bd3a53 68900f03de22b084 faa249aef79d8851",
    "gpipe-8x16-offload,recompute":
        "c80d051330b83f81 8df54df552f23fe3 8f8e49932d74f5da cf4aefbac29014c3",
    "gpipe-8x16-recompute=True":
        "02c0827c4f7d9e49 5a8b650c23a6294f abdbdb6c2aef9ac4 da0353fc71028917",
    "gems-4x4-implicit":
        "57b1fb07c99bb7e7 d08585b0e1c18323 ba6679b3932ce246 c1b04d12e028ec1c",
    "gems-4x4-recompute":
        "57b1fb07c99bb7e7 d08585b0e1c18323 562afda79f06ba1f c1b04d12e028ec1c",
    "gems-4x4-offload":
        "57b1fb07c99bb7e7 d08585b0e1c18323 ba6679b3932ce246 c1b04d12e028ec1c",
    "gems-4x4-offload,recompute":
        "57b1fb07c99bb7e7 d08585b0e1c18323 562afda79f06ba1f c1b04d12e028ec1c",
    "gems-4x4-recompute=True":
        "57b1fb07c99bb7e7 d08585b0e1c18323 562afda79f06ba1f c1b04d12e028ec1c",
    "gems-4x8-implicit":
        "57b1fb07c99bb7e7 d08585b0e1c18323 ba6679b3932ce246 c1b04d12e028ec1c",
    "gems-4x8-recompute":
        "57b1fb07c99bb7e7 d08585b0e1c18323 562afda79f06ba1f c1b04d12e028ec1c",
    "gems-4x8-offload":
        "57b1fb07c99bb7e7 d08585b0e1c18323 ba6679b3932ce246 c1b04d12e028ec1c",
    "gems-4x8-offload,recompute":
        "57b1fb07c99bb7e7 d08585b0e1c18323 562afda79f06ba1f c1b04d12e028ec1c",
    "gems-4x8-recompute=True":
        "57b1fb07c99bb7e7 d08585b0e1c18323 562afda79f06ba1f c1b04d12e028ec1c",
    "gems-8x16-implicit":
        "251358de2255604e 006813e156d164ce 721f90891789e57d 4e378403e91dccf2",
    "gems-8x16-recompute":
        "251358de2255604e 006813e156d164ce cf5b936b6def4932 4e378403e91dccf2",
    "gems-8x16-offload":
        "251358de2255604e 006813e156d164ce 721f90891789e57d 4e378403e91dccf2",
    "gems-8x16-offload,recompute":
        "251358de2255604e 006813e156d164ce cf5b936b6def4932 4e378403e91dccf2",
    "gems-8x16-recompute=True":
        "251358de2255604e 006813e156d164ce cf5b936b6def4932 4e378403e91dccf2",
    "dapple-4x4-implicit":
        "1b6c4518f5ddc04b 12843f10524f2fcb ed691f893a47a02f 5b2518da61647350",
    "dapple-4x4-recompute":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "dapple-4x4-offload":
        "92b7dcdf9cc6eb09 a71f8c550e9a7eea 766e18f1c557d2a4 db6c7ab9e7765bd3",
    "dapple-4x4-offload,recompute":
        "d893e3586412ac0c a359b4cb56aa2915 17f180017df416ad 7609353524df3523",
    "dapple-4x4-recompute=True":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "dapple-4x8-implicit":
        "1b6c4518f5ddc04b 12843f10524f2fcb ed691f893a47a02f 5b2518da61647350",
    "dapple-4x8-recompute":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "dapple-4x8-offload":
        "92b7dcdf9cc6eb09 a71f8c550e9a7eea 766e18f1c557d2a4 db6c7ab9e7765bd3",
    "dapple-4x8-offload,recompute":
        "d893e3586412ac0c a359b4cb56aa2915 17f180017df416ad 7609353524df3523",
    "dapple-4x8-recompute=True":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "dapple-8x16-implicit":
        "10131f8a93ef0582 54bed92f99239639 6a8f4490b16aed60 a17e78a8f1d35dc0",
    "dapple-8x16-recompute":
        "1e05253c5399d083 4647729ff92d98db 3fe13fb69ed81a99 0e504e7556733abe",
    "dapple-8x16-offload":
        "bdeb1bab3cf4b7e4 c2e82c1ac5492288 77f4719dd9814c2e 270e466157a971cc",
    "dapple-8x16-offload,recompute":
        "b8c91335c6c57986 f5524f18a8b49947 3d547157b7637c27 07fa3a78bcca2d1a",
    "dapple-8x16-recompute=True":
        "1e05253c5399d083 4647729ff92d98db 3fe13fb69ed81a99 0e504e7556733abe",
    "chimera-4x4-implicit":
        "cac4f732a5663a63 2e92be9ab15341cf 473f4d0821f97134 8398147361d03fa1",
    "chimera-4x4-recompute":
        "8e7215d8c0a18b07 c0c5eaf7a1f0b48f 92d1b95e33468c0b 95a0a1e987bc9ae7",
    "chimera-4x4-offload":
        "8d53f850cedcd84c 600cc6c0e34a7f8c d03a2939e2888d7c 4a44c10904147461",
    "chimera-4x4-offload,recompute":
        "15acc4d0b3f584cf ce8e2c5071cf90b5 72a69385a1b32ca0 b7fcb393fc905f60",
    "chimera-4x4-recompute=True":
        "8e7215d8c0a18b07 c0c5eaf7a1f0b48f 92d1b95e33468c0b 95a0a1e987bc9ae7",
    "chimera-4x8-implicit":
        "d4117247082af9e5 4bb5c72a98d2749b a7adc652598dbb69 522301de3a5204d3",
    "chimera-4x8-recompute":
        "a915211987b8b63d 5c65d0ef7fb20bd5 70946448354c60fb 4c2bf2f276bb5c2f",
    "chimera-4x8-offload":
        "e6ec28c773e12f0b 9e37fedca2c271d1 fac9ce09b5692783 aa8bdefe9a1ad1eb",
    "chimera-4x8-offload,recompute":
        "48ffce73d84b32ad c50baf03474f7645 86d4cb0f802b685f 03be74e3273654d5",
    "chimera-4x8-recompute=True":
        "a915211987b8b63d 5c65d0ef7fb20bd5 70946448354c60fb 4c2bf2f276bb5c2f",
    "chimera-8x16-implicit":
        "6a66eda5e9058199 64655fb5590e15a7 5903c3c36b8e32f9 89793bf7a77c1ec3",
    "chimera-8x16-recompute":
        "70c4fcdd8f397df4 f8ec12b180a24fea b7db8d8e2d2e9e93 06a4fa9f71db0e28",
    "chimera-8x16-offload":
        "edb42d93eefb0292 8806999c2d9e1cac e443036d54821bed d4a5da3b31781e37",
    "chimera-8x16-offload,recompute":
        "5553cfaf6e8a72bc 190474b021ba76cb 3b22d47e5618e939 1b1475e89a739f0f",
    "chimera-8x16-recompute=True":
        "70c4fcdd8f397df4 f8ec12b180a24fea b7db8d8e2d2e9e93 06a4fa9f71db0e28",
    "zb_h1-4x4-implicit":
        "1b6c4518f5ddc04b 12843f10524f2fcb ed691f893a47a02f 5b2518da61647350",
    "zb_h1-4x4-recompute":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "zb_h1-4x4-offload":
        "92b7dcdf9cc6eb09 a71f8c550e9a7eea 766e18f1c557d2a4 db6c7ab9e7765bd3",
    "zb_h1-4x4-offload,recompute":
        "d893e3586412ac0c a359b4cb56aa2915 17f180017df416ad 7609353524df3523",
    "zb_h1-4x4-recompute=True":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "zb_h1-4x8-implicit":
        "1b6c4518f5ddc04b 12843f10524f2fcb ed691f893a47a02f 5b2518da61647350",
    "zb_h1-4x8-recompute":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "zb_h1-4x8-offload":
        "92b7dcdf9cc6eb09 a71f8c550e9a7eea 766e18f1c557d2a4 db6c7ab9e7765bd3",
    "zb_h1-4x8-offload,recompute":
        "d893e3586412ac0c a359b4cb56aa2915 17f180017df416ad 7609353524df3523",
    "zb_h1-4x8-recompute=True":
        "39e5978c20fcdaf0 1a99df59ccefd6da 737d8b624692e690 df95ec6a4c886a7c",
    "zb_h1-8x16-implicit":
        "10131f8a93ef0582 54bed92f99239639 6a8f4490b16aed60 a17e78a8f1d35dc0",
    "zb_h1-8x16-recompute":
        "1e05253c5399d083 4647729ff92d98db 3fe13fb69ed81a99 0e504e7556733abe",
    "zb_h1-8x16-offload":
        "bdeb1bab3cf4b7e4 c2e82c1ac5492288 77f4719dd9814c2e 270e466157a971cc",
    "zb_h1-8x16-offload,recompute":
        "b8c91335c6c57986 f5524f18a8b49947 3d547157b7637c27 07fa3a78bcca2d1a",
    "zb_h1-8x16-recompute=True":
        "1e05253c5399d083 4647729ff92d98db 3fe13fb69ed81a99 0e504e7556733abe",
    "zb_v-4x4-implicit":
        "abf997220642051c 6f5f38373c5a56a0 3bd2c274e58c9b7f fe9989ad7e38c873",
    "zb_v-4x4-recompute":
        "15d127ab2f62c19c 73aa34623d874888 b4629ab83ec6797b c6108794deeb15f1",
    "zb_v-4x4-offload":
        "68505acf09c6f4c9 bb80824d3fdff50b b6cf152c4f4847e4 b1c28bb2081af623",
    "zb_v-4x4-offload,recompute":
        "f15a9d985d55ae4c 228021a9693ae48d f798acaa76fd36cd d97fba4c971be84e",
    "zb_v-4x4-recompute=True":
        "15d127ab2f62c19c 73aa34623d874888 b4629ab83ec6797b c6108794deeb15f1",
    "zb_v-4x8-implicit":
        "037209ed13b011dd 4cabf079441e69a6 18155a7142bcbbdc fe9989ad7e38c873",
    "zb_v-4x8-recompute":
        "fa209c2d3d2cbeae 7cccd3c4dbbab1ea bdbf4101dce63d1a 3dfcccc5ed40a89f",
    "zb_v-4x8-offload":
        "ab4e73249cce222f 31a4394f77aad197 0e85a26838638e95 8a950d0b904740de",
    "zb_v-4x8-offload,recompute":
        "ea13f9deffa0a104 02da4f1ae12a5173 3e5a261730b477e3 5eaebc56c7804f6e",
    "zb_v-4x8-recompute=True":
        "fa209c2d3d2cbeae 7cccd3c4dbbab1ea bdbf4101dce63d1a 3dfcccc5ed40a89f",
    "zb_v-8x16-implicit":
        "863012766832ecc8 4f98847e7c09d3fa 5188feeac3507794 2b9f6abc69036932",
    "zb_v-8x16-recompute":
        "ee113fdc12a6f5c2 c0a84a0e24978180 0a275ff6f5e4e220 f823670fc4496e4c",
    "zb_v-8x16-offload":
        "56314a7a308c4629 6fb52f65813330ed 1137be47332b3d8e 5849d25a41bd8214",
    "zb_v-8x16-offload,recompute":
        "4413ae626356c43b db3878a50f8a6c4d f364326dbd1fee5a 04d7382f903fe8c2",
    "zb_v-8x16-recompute=True":
        "ee113fdc12a6f5c2 c0a84a0e24978180 0a275ff6f5e4e220 f823670fc4496e4c",
    "zb_vhalf-4x4-implicit":
        "ccf1092f7fc6197c e2acb3ef3723c440 25eb9aedd9871ab0 9e769674355b630a",
    "zb_vhalf-4x4-recompute":
        "f09dec73d63da3b9 3bc79faca0fd58c3 6a027fc0455d668c 18f02c3a5617f350",
    "zb_vhalf-4x4-offload":
        "2ff8c4a9ff670981 1599f3dfe61a8324 48d54b2a7e8720ea e1642f2f1c16419c",
    "zb_vhalf-4x4-offload,recompute":
        "12d49021dc466a87 de0aaf06ea11f38b bf681fb34cb87f1e b45ea34f1302877d",
    "zb_vhalf-4x4-recompute=True":
        "f09dec73d63da3b9 3bc79faca0fd58c3 6a027fc0455d668c 18f02c3a5617f350",
    "zb_vhalf-4x8-implicit":
        "acf28e5d0aee3231 8c7c385bbcadb733 a10ca2024e19f494 34f64dfa571daa44",
    "zb_vhalf-4x8-recompute":
        "fc0cb4c73580db7f 2ef5f4cf5f1264fc fd27904c0429bb8f 3d01c285221c3c70",
    "zb_vhalf-4x8-offload":
        "8614cd5b484eaf39 23f653b8906fedf1 6e85a0ecea4040b7 080c2c2415a99cb6",
    "zb_vhalf-4x8-offload,recompute":
        "3fc3224cb2fb00a6 1400e938f3d5886d 3767082b9df12d79 555474e6f92cb90a",
    "zb_vhalf-4x8-recompute=True":
        "fc0cb4c73580db7f 2ef5f4cf5f1264fc fd27904c0429bb8f 3d01c285221c3c70",
    "zb_vhalf-8x16-implicit":
        "884387687eacf205 bd63b96b61a1f299 706e7db2ee7d0ba5 b9b1d1463540fe78",
    "zb_vhalf-8x16-recompute":
        "ad7805beb6d63dbd c3563d96ac5849b8 293e01a531716ee1 7765f70af5e1c786",
    "zb_vhalf-8x16-offload":
        "4677623fb95f046a 5d8f095d11fb90d1 33fe657c9488df0c fea719d60697f602",
    "zb_vhalf-8x16-offload,recompute":
        "f6d3f1da6597eec1 9156473fce572e09 5b2bbc3fd5e4eec9 6a6126900a5fab09",
    "zb_vhalf-8x16-recompute=True":
        "ad7805beb6d63dbd c3563d96ac5849b8 293e01a531716ee1 7765f70af5e1c786",
    "zb_vmin-4x4-implicit":
        "dce93096e6ff95db d1a2f2c07b8a5055 7b70d075526430a9 522301de3a5204d3",
    "zb_vmin-4x4-recompute":
        "3f35bda59e0800c8 1eb4cb78c03ef60c f04d33ee4b2fd137 a4f490d9493ba0bb",
    "zb_vmin-4x4-offload":
        "abd2d662428c08c6 5cfa68e545f7c201 1e0be621a87d9bb0 85b7dc972ef69892",
    "zb_vmin-4x4-offload,recompute":
        "f09b4b7eb9adbebe a1d686db3f635144 f9a5b341b49d13ba 0f15b5c351b48d92",
    "zb_vmin-4x4-recompute=True":
        "3f35bda59e0800c8 1eb4cb78c03ef60c f04d33ee4b2fd137 a4f490d9493ba0bb",
    "zb_vmin-4x8-implicit":
        "dce93096e6ff95db d1a2f2c07b8a5055 7b70d075526430a9 522301de3a5204d3",
    "zb_vmin-4x8-recompute":
        "3f35bda59e0800c8 1eb4cb78c03ef60c f04d33ee4b2fd137 a4f490d9493ba0bb",
    "zb_vmin-4x8-offload":
        "abd2d662428c08c6 5cfa68e545f7c201 1e0be621a87d9bb0 85b7dc972ef69892",
    "zb_vmin-4x8-offload,recompute":
        "f09b4b7eb9adbebe a1d686db3f635144 f9a5b341b49d13ba 0f15b5c351b48d92",
    "zb_vmin-4x8-recompute=True":
        "3f35bda59e0800c8 1eb4cb78c03ef60c f04d33ee4b2fd137 a4f490d9493ba0bb",
    "zb_vmin-8x16-implicit":
        "7221428e369578a8 e439bbc58b259b3c 344a6dde7468ded1 ec19ef799b21f31c",
    "zb_vmin-8x16-recompute":
        "bfad550fe10b75f9 8a8552955cd9d5ad 9aeee936c44de808 3344ede651fb42b4",
    "zb_vmin-8x16-offload":
        "9c78e5b5c56d9c51 17e720c5ebf02374 4add62809e9fc834 be9aa7623e57a75d",
    "zb_vmin-8x16-offload,recompute":
        "1b54a6c349ba9090 765f66471fce2d76 924a85d9c9c72a43 c4d447cea7ab2aa9",
    "zb_vmin-8x16-recompute=True":
        "bfad550fe10b75f9 8a8552955cd9d5ad 9aeee936c44de808 3344ede651fb42b4",
    "synthesize-4x4-implicit":
        "cac4f732a5663a63 2e92be9ab15341cf 473f4d0821f97134 8398147361d03fa1",
    "synthesize-4x4-recompute":
        "8e7215d8c0a18b07 c0c5eaf7a1f0b48f 92d1b95e33468c0b 95a0a1e987bc9ae7",
    "synthesize-4x4-offload":
        "8d53f850cedcd84c 600cc6c0e34a7f8c d03a2939e2888d7c 4a44c10904147461",
    "synthesize-4x4-offload,recompute":
        "15acc4d0b3f584cf ce8e2c5071cf90b5 72a69385a1b32ca0 b7fcb393fc905f60",
    "synthesize-4x4-recompute=True":
        "8e7215d8c0a18b07 c0c5eaf7a1f0b48f 92d1b95e33468c0b 95a0a1e987bc9ae7",
    "synthesize-4x8-implicit":
        "d4117247082af9e5 4bb5c72a98d2749b a7adc652598dbb69 522301de3a5204d3",
    "synthesize-4x8-recompute":
        "a915211987b8b63d 5c65d0ef7fb20bd5 70946448354c60fb 4c2bf2f276bb5c2f",
    "synthesize-4x8-offload":
        "e6ec28c773e12f0b 9e37fedca2c271d1 fac9ce09b5692783 aa8bdefe9a1ad1eb",
    "synthesize-4x8-offload,recompute":
        "48ffce73d84b32ad c50baf03474f7645 86d4cb0f802b685f 03be74e3273654d5",
    "synthesize-4x8-recompute=True":
        "a915211987b8b63d 5c65d0ef7fb20bd5 70946448354c60fb 4c2bf2f276bb5c2f",
    "synthesize-8x16-implicit":
        "6a66eda5e9058199 64655fb5590e15a7 5903c3c36b8e32f9 89793bf7a77c1ec3",
    "synthesize-8x16-recompute":
        "70c4fcdd8f397df4 f8ec12b180a24fea b7db8d8e2d2e9e93 06a4fa9f71db0e28",
    "synthesize-8x16-offload":
        "edb42d93eefb0292 8806999c2d9e1cac e443036d54821bed d4a5da3b31781e37",
    "synthesize-8x16-offload,recompute":
        "5553cfaf6e8a72bc 190474b021ba76cb 3b22d47e5618e939 1b1475e89a739f0f",
    "synthesize-8x16-recompute=True":
        "70c4fcdd8f397df4 f8ec12b180a24fea b7db8d8e2d2e9e93 06a4fa9f71db0e28",
    "chimera_doubling-4x4-implicit":
        "cac4f732a5663a63 2e92be9ab15341cf 473f4d0821f97134 8398147361d03fa1",
    "chimera_doubling-4x4-recompute":
        "8e7215d8c0a18b07 c0c5eaf7a1f0b48f 92d1b95e33468c0b 95a0a1e987bc9ae7",
    "chimera_doubling-4x4-offload":
        "8d53f850cedcd84c 600cc6c0e34a7f8c d03a2939e2888d7c 4a44c10904147461",
    "chimera_doubling-4x4-offload,recompute":
        "15acc4d0b3f584cf ce8e2c5071cf90b5 72a69385a1b32ca0 b7fcb393fc905f60",
    "chimera_doubling-4x4-recompute=True":
        "8e7215d8c0a18b07 c0c5eaf7a1f0b48f 92d1b95e33468c0b 95a0a1e987bc9ae7",
    "chimera_doubling-4x8-implicit":
        "badb1eb7e1cbb324 d68d4c8b7d80dc90 484ee2ddbc1d1b71 7008c8c9c7122ad5",
    "chimera_doubling-4x8-recompute":
        "badb1eb7e1cbb324 d68d4c8b7d80dc90 484ee2ddbc1d1b71 7008c8c9c7122ad5",
    "chimera_doubling-4x8-offload":
        "6ed6b83da65bafc9 dd6413c4f3e1a7bc 668c24054ded19d4 a25f3bc9d4c5e3fa",
    "chimera_doubling-4x8-offload,recompute":
        "6ed6b83da65bafc9 dd6413c4f3e1a7bc 668c24054ded19d4 a25f3bc9d4c5e3fa",
    "chimera_doubling-4x8-recompute=True":
        "badb1eb7e1cbb324 d68d4c8b7d80dc90 484ee2ddbc1d1b71 7008c8c9c7122ad5",
    "chimera_doubling-8x16-implicit":
        "957a12687d800b91 37d09fa498da00d1 fb74deaf83982d85 e301105b7d0eae25",
    "chimera_doubling-8x16-recompute":
        "957a12687d800b91 37d09fa498da00d1 fb74deaf83982d85 e301105b7d0eae25",
    "chimera_doubling-8x16-offload":
        "b5e0e5a102531389 e21ccba2ca805996 fe2199ecf37ee5e1 35e198d4875e2bf7",
    "chimera_doubling-8x16-offload,recompute":
        "b5e0e5a102531389 e21ccba2ca805996 fe2199ecf37ee5e1 35e198d4875e2bf7",
    "chimera_doubling-8x16-recompute=True":
        "957a12687d800b91 37d09fa498da00d1 fb74deaf83982d85 e301105b7d0eae25",
}


def test_parity_table_covers_every_registered_scheme():
    assert sorted(PARITY_CASES) == sorted(PARITY_EXPECTED)


@pytest.mark.parametrize("case", PARITY_CASES)
def test_memory_report_matches_recorded_digest(case):
    expected = tuple(PARITY_EXPECTED[case].split())
    compiled, round_tripped = _parity_digests(case)
    assert compiled == expected
    assert round_tripped == expected



def _reference_walk(schedule: Schedule, model: MemoryModel) -> list[tuple]:
    """The per-op liveness walk the compiled analysis replaced, as the
    test reference: each worker's ``(weight, activation peak, peak units,
    host peak)`` from running totals over its ops (schedules are assumed
    valid; the error paths are tested above)."""
    recompute, explicit = set(), set()
    for _, op in schedule.all_ops():
        keys = {(op.replica, op.stage, mb) for mb in op.micro_batches}
        if op.is_backward and op.recompute:
            recompute |= keys
        elif op.is_recompute:
            explicit |= keys
    stash_only = recompute | explicit
    out = []
    for worker in range(schedule.num_workers):
        live = units = peak = peak_units = host = host_peak = 0.0
        parts, stash_of = {}, {}
        for op in schedule.worker_ops[worker]:
            keys = [(op.replica, op.stage, mb) for mb in op.micro_batches]
            full = model.act(op.stage) if op.is_compute else 0.0
            if op.is_offload or op.is_reload:
                sign = -1.0 if op.is_offload else 1.0
                for key in keys:
                    moved = stash_of[key] * parts[key]
                    live += sign * moved
                    units += sign * parts[key]
                    host -= sign * moved
                    if op.is_offload:
                        host_peak = max(host_peak, host)
                    else:
                        peak = max(peak, live)
                        peak_units = max(peak_units, units)
            elif op.is_forward:
                for key in keys:
                    stored = model.stash(op.stage) if key in stash_only else full
                    stash_of[key], parts[key] = stored, 1.0
                    live += stored
                    units += 1.0
                peak = max(peak, live)
                peak_units = max(peak_units, units)
            elif op.is_recompute or op.is_backward_input:
                for key in keys:
                    promotes = op.is_recompute or key in recompute
                    if promotes and stash_of[key] < full:
                        live += (full - stash_of[key]) * parts[key]
                        stash_of[key] = full
                peak = max(peak, live)
            elif op.is_compute:
                transient = 0.0
                for key in keys:
                    if op.kind is OpKind.BACKWARD and key in recompute:
                        transient += full - stash_of[key]
                peak = max(peak, live + max(0.0, transient))
                for key in keys:
                    parts[key] -= 1.0 / op.part[1]
                    live -= stash_of[key] * (1.0 / op.part[1])
                    units -= 1.0 / op.part[1]
        weights = 0.0
        for _, stage in schedule.placement.stages_on_worker(worker):
            versions = weight_versions(
                schedule.scheme, schedule.placement.num_stages, stage
            )
            weights += model.weights(stage)
            weights += (versions - 1) * model.weight_stash(stage)
        out.append((weights, peak, peak_units, host_peak))
    return out


#: Schedules covering every event kind: promotions by RECOMPUTE ops and
#: by flagged input gradients, flagged transients on doubled forwards,
#: backward halving, split backwards, and both tiers.
REFERENCE_SCHEDULES = {
    "chimera-doubling": ("chimera", 4, 8, {"concat": "doubling"}),
    "chimera-recompute=True": ("chimera", 4, 8, _recompute_retry_options()),
    "zb_h1-offload,recompute": ("zb_h1", 4, 8, {"passes": "offload,recompute"}),
    "zb_v-recompute=True": ("zb_v", 4, 8, _recompute_retry_options()),
    "pipedream-offload": ("pipedream", 4, 8, {"passes": "offload"}),
    "gems-recompute": ("gems", 4, 4, {"passes": "recompute"}),
}
_BYTES = st.floats(min_value=0.0, max_value=1e3, allow_subnormal=False)


@functools.cache
def _reference_case(name: str):
    """A reference schedule and its profile, compiled once per test run."""
    scheme, d, n, options = REFERENCE_SCHEDULES[name]
    schedule = build_schedule(scheme, d, n, **options)
    return schedule, compile_memory_profile(schedule)


@pytest.mark.parametrize("name", sorted(REFERENCE_SCHEDULES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compiled_profile_equals_the_reference_walk(name, data):
    """Bitwise equality with the running-total walk under arbitrary
    per-stage sizes (stash below, equal to or above act), for one
    profile priced under many models."""
    schedule, profile = _reference_case(name)
    sizes = st.lists(
        _BYTES, min_size=schedule.num_stages, max_size=schedule.num_stages
    ).map(tuple)
    model = MemoryModel(
        activation_bytes=data.draw(sizes),
        stash_input_bytes=data.draw(st.one_of(_BYTES, sizes)),
        weight_bytes=data.draw(sizes),
        weight_stash_bytes=data.draw(st.one_of(_BYTES, sizes)),
    )
    report = analyze_memory(profile, model)
    assert [
        (
            w.weight_bytes,
            w.activation_peak_bytes,
            w.activation_peak_units,
            w.host_peak_bytes,
        )
        for w in report.workers
    ] == _reference_walk(schedule, model)


class TestMetrics:
    def test_worker_busy_times_uniform_for_balanced(self):
        r = simulate(build_schedule("chimera", 4, 4), CostModel.practical())
        busy = worker_busy_times(r)
        assert all(b == pytest.approx(busy[0]) for b in busy)

    def test_throughput_definition(self):
        r = simulate(build_schedule("dapple", 2, 2), CostModel.practical())
        thr = throughput_samples_per_sec(r, micro_batch_size=4, data_parallel_width=3)
        assert thr == pytest.approx(2 * 4 * 3 / r.iteration_time)

    def test_async_default_steady_state(self):
        r = simulate(build_schedule("pipedream", 4, 32), CostModel.practical())
        assert bubble_ratio(r) < bubble_ratio(r, steady_state=False)

    def test_parallel_efficiency(self):
        assert parallel_efficiency(100.0, 16, 400.0, 64) == pytest.approx(1.0)
        assert parallel_efficiency(100.0, 16, 200.0, 64) == pytest.approx(0.5)


class TestGantt:
    def test_renders_all_workers(self):
        text = render_gantt(build_schedule("chimera", 4, 4))
        for w in range(4):
            assert f"P{w}" in text

    def test_marks_backwards(self):
        text = render_gantt(build_schedule("dapple", 2, 2))
        assert "*" in text

    def test_reports_makespan(self):
        text = render_gantt(build_schedule("gpipe", 2, 2))
        assert "makespan" in text

    def test_accepts_simulation_result(self):
        r = simulate(build_schedule("gems", 4, 2), CostModel.practical())
        assert "gems" in render_gantt(r)
