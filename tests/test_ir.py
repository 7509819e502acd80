"""Schedule IR: operation identity, work units, schedule views."""

import pytest

from repro.common.errors import ScheduleError
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.placement import StagePlacement


def F(mb, stage=0, replica=0, **kw):
    return Operation(OpKind.FORWARD, replica, stage, micro_batches=(mb,), **kw)


def B(mb, stage=0, replica=0, **kw):
    return Operation(OpKind.BACKWARD, replica, stage, micro_batches=(mb,), **kw)


class TestOperation:
    def test_work_units_single(self):
        assert F(0).work_units == 1.0

    def test_work_units_chunk(self):
        op = Operation(OpKind.FORWARD, 0, 0, micro_batches=(0, 1))
        assert op.work_units == 2.0

    def test_work_units_half(self):
        op = Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,), part=(1, 2))
        assert op.work_units == 0.5

    def test_allreduce_work_units_zero(self):
        assert Operation(OpKind.ALLREDUCE, 0, 2).work_units == 0.0

    def test_key_distinguishes_parts(self):
        a = Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,), part=(0, 2))
        b = Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,), part=(1, 2))
        assert a.key() != b.key()

    def test_negative_stage_rejected(self):
        with pytest.raises(ScheduleError):
            Operation(OpKind.FORWARD, 0, -1, micro_batches=(0,))

    def test_compute_op_needs_micro_batches(self):
        with pytest.raises(ScheduleError):
            Operation(OpKind.FORWARD, 0, 0)

    def test_duplicate_micro_batches_rejected(self):
        with pytest.raises(ScheduleError):
            Operation(OpKind.FORWARD, 0, 0, micro_batches=(1, 1))

    def test_invalid_part_rejected(self):
        with pytest.raises(ScheduleError):
            Operation(OpKind.BACKWARD, 0, 0, micro_batches=(0,), part=(2, 2))

    def test_short_rendering(self):
        assert F(3).short() == "F3"
        assert B(3).short() == "B3"
        half = Operation(OpKind.BACKWARD, 0, 0, micro_batches=(1,), part=(1, 2))
        assert half.short() == "B1.1/2"
        assert Operation(OpKind.ALLREDUCE, 1, 2).short() == "S2r1"

    def test_with_recompute(self):
        op = B(0)
        assert not op.recompute
        assert op.with_recompute().recompute


class TestSchedule:
    def _schedule(self):
        placement = StagePlacement.linear(2)
        rows = [
            [F(0, 0), B(0, 0)],
            [F(0, 1), B(0, 1)],
        ]
        return Schedule(
            scheme="toy",
            placement=placement,
            num_micro_batches=1,
            worker_ops=freeze_worker_ops(rows),
        )

    def test_views(self):
        s = self._schedule()
        assert s.num_stages == 2
        assert s.num_workers == 2
        assert s.num_replicas == 1
        assert s.count(OpKind.FORWARD) == 2
        assert s.count(OpKind.BACKWARD) == 2
        assert sum(op.work_units for op in s.ops_on(0)) == 2.0

    def test_worker_count_mismatch_rejected(self):
        placement = StagePlacement.linear(2)
        with pytest.raises(ScheduleError):
            Schedule(
                scheme="bad",
                placement=placement,
                num_micro_batches=1,
                worker_ops=((),),
            )

    def test_zero_micro_batches_rejected(self):
        placement = StagePlacement.linear(1)
        with pytest.raises(ScheduleError):
            Schedule(
                scheme="bad",
                placement=placement,
                num_micro_batches=0,
                worker_ops=((),),
            )

    def test_with_metadata_merges(self):
        s = self._schedule().with_metadata(alpha=1)
        s2 = s.with_metadata(beta=2)
        assert s2.metadata["alpha"] == 1 and s2.metadata["beta"] == 2

    def test_describe_mentions_scheme_and_shape(self):
        text = self._schedule().describe()
        assert "toy" in text and "D=2" in text and "N=1" in text


#: Every schedule form an entry holds, per pre-lowering pipeline.
PIPELINES = ["", "recompute", "offload"]
#: Schedule form -> the comm tail that selects it.
FORM_PIPELINES = {
    "schedule": (),
    "lowered": ("lower_p2p",),
    "fused": ("lower_p2p", "fuse_comm"),
}


def _forms(scheme: str, passes: str) -> dict[str, Schedule]:
    from repro.schedules.cache import ScheduleArtifacts
    from repro.schedules.registry import build_schedule

    options = {"passes": passes} if passes else {}
    arts = ScheduleArtifacts(build_schedule(scheme, 4, 8, **options))
    return {form: arts.schedule_for(FORM_PIPELINES[form]) for form in FORM_PIPELINES}


class TestOpTable:
    """The op table (one walk per form) and the format-6 forms blob
    built from it rebuild every registered scheme's forms."""

    @pytest.mark.parametrize("passes", PIPELINES, ids=["implicit", *PIPELINES[1:]])
    def test_table_rebuilds_every_form(self, passes):
        from repro.schedules.registry import available_schemes

        for scheme in available_schemes():
            for name, form in _forms(scheme, passes).items():
                table = form.op_table()
                assert form.op_table() is table  # one walk per form
                ops = table.operations()
                rows = [[] for _ in form.worker_ops]
                workers, positions = table.worker.tolist(), table.pos.tolist()
                for op, worker, pos in zip(ops, workers, positions):
                    assert pos == len(rows[worker])
                    rows[worker].append(op)
                assert freeze_worker_ops(rows) == form.worker_ops, (scheme, name)
                assert [vars(op) for op in ops] == [
                    vars(op) for row in form.worker_ops for op in row
                ]

    @pytest.mark.parametrize("passes", PIPELINES, ids=["implicit", *PIPELINES[1:]])
    def test_forms_blob_round_trips_with_shared_ops(self, passes):
        from repro.schedules.cache import ScheduleArtifacts
        from repro.schedules.registry import available_schemes

        for scheme in available_schemes():
            forms = _forms(scheme, passes)
            arts = ScheduleArtifacts(forms["schedule"])
            arts._forms.update(forms)
            restored = ScheduleArtifacts.from_snapshot(arts.snapshot())
            back = {
                form: restored.schedule_for(pipeline)
                for form, pipeline in FORM_PIPELINES.items()
            }
            for name, form in forms.items():
                assert back[name] == form, (scheme, name)
                assert dict(back[name].metadata) == dict(form.metadata)
            implicit = {op.key(): op for _, op in back["schedule"].all_ops()}
            for name in ("lowered", "fused"):
                shared = [
                    op for _, op in back[name].all_ops() if op.key() in implicit
                ]
                assert len(shared) == len(implicit), (scheme, name)
                assert all(op is implicit[op.key()] for op in shared)

    def test_kind_code_constants_name_their_kinds(self):
        from repro.schedules import ir

        for kind in OpKind:
            assert ir.OP_KINDS[getattr(ir, f"{kind.name}_CODE")] is kind

    def test_table_is_not_pickled(self):
        import pickle

        from repro.schedules.registry import build_schedule

        schedule = build_schedule("chimera", 4, 8)
        schedule.op_table()
        assert "_op_table" in vars(schedule)
        copy = pickle.loads(pickle.dumps(schedule))
        assert copy == schedule and "_op_table" not in vars(copy)
