"""Dependency extraction and structural validation."""

import re

import pytest

from repro.common.errors import ScheduleError, ValidationError
from repro.schedules.dependencies import (
    ACTIVATION,
    DEFERRAL,
    DELIVERY,
    EDGE_KINDS,
    ENQUEUE,
    GRADIENT,
    STASH,
    SYNC,
    TRANSFER,
    EdgeKind,
    build_dependency_graph,
)
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.placement import StagePlacement
from repro.schedules.registry import available_schemes, build_schedule
from repro.schedules.validate import validate_schedule


def F(mb, stage, replica=0):
    return Operation(OpKind.FORWARD, replica, stage, micro_batches=(mb,))


def B(mb, stage, replica=0, part=(0, 1)):
    return Operation(OpKind.BACKWARD, replica, stage, micro_batches=(mb,), part=part)


def toy(rows, depth=2, n=1):
    return Schedule(
        scheme="toy",
        placement=StagePlacement.linear(depth),
        num_micro_batches=n,
        worker_ops=freeze_worker_ops(rows),
    )


class TestDependencyGraph:
    def test_forward_chain_edges(self):
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1), B(0, 1)]])
        g = build_dependency_graph(s)
        deps = {e.kind for e in g.deps[F(0, 1).key()]}
        assert deps == {EdgeKind.ACTIVATION}

    def test_backward_needs_gradient_and_stash(self):
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1), B(0, 1)]])
        g = build_dependency_graph(s)
        kinds = sorted(e.kind.value for e in g.deps[B(0, 0).key()])
        assert kinds == ["gradient", "stash"]

    def test_last_stage_backward_needs_only_stash(self):
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1), B(0, 1)]])
        g = build_dependency_graph(s)
        kinds = [e.kind for e in g.deps[B(0, 1).key()]]
        assert kinds == [EdgeKind.STASH]

    def test_p2p_edges_cross_workers_only(self):
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1), B(0, 1)]])
        g = build_dependency_graph(s)
        p2p = [
            (g.dep_src[e], dst)
            for dst in range(len(g.ops_flat))
            for e in range(g.dep_ptr[dst], g.dep_ptr[dst + 1])
            if g.dep_kind[e] in (ACTIVATION, GRADIENT)
            and g.op_worker[g.dep_src[e]] != g.op_worker[dst]
        ]
        assert len(p2p) == 2  # one activation, one gradient

    def test_allreduce_depends_on_local_backwards(self):
        sched = build_schedule("chimera", 4, 4)
        g = build_dependency_graph(sched)
        for worker, op in sched.all_ops():
            if op.kind is OpKind.ALLREDUCE:
                incoming = g.deps[op.key()]
                assert incoming, f"allreduce {op.short()} has no producers"
                assert all(e.kind is EdgeKind.SYNC for e in incoming)

    def test_missing_forward_producer_raises(self):
        # Stage-1 forward exists but stage-0 forward is missing entirely.
        s = toy([[], [F(0, 1), B(0, 1)]])
        with pytest.raises(ValidationError, match="no stage-0 producer"):
            build_dependency_graph(s)

    def test_duplicate_op_raises(self):
        s = toy([[F(0, 0), F(0, 0)], []])
        with pytest.raises(ValidationError):
            build_dependency_graph(s)

    def test_kind_codes_index_edge_kinds(self):
        codes = (ACTIVATION, GRADIENT, STASH, DEFERRAL, SYNC, ENQUEUE, TRANSFER, DELIVERY)
        assert [EDGE_KINDS[c] for c in codes] == [
            EdgeKind.ACTIVATION,
            EdgeKind.GRADIENT,
            EdgeKind.STASH,
            EdgeKind.DEFERRAL,
            EdgeKind.SYNC,
            EdgeKind.ENQUEUE,
            EdgeKind.TRANSFER,
            EdgeKind.DELIVERY,
        ]

    def test_part_splits_resolve_per_part(self):
        rows = [
            [F(0, 0), B(0, 0, part=(0, 2)), B(0, 0, part=(1, 2))],
            [F(0, 1), B(0, 1, part=(0, 2)), B(0, 1, part=(1, 2))],
        ]
        g = build_dependency_graph(toy(rows))
        edge_kinds = [e.kind for e in g.deps[B(0, 0, part=(1, 2)).key()]]
        assert EdgeKind.GRADIENT in edge_kinds


class TestValidator:
    @pytest.mark.parametrize("scheme", available_schemes())
    def test_all_builders_produce_valid_schedules(self, scheme):
        schedule = build_schedule(scheme, 4, 8)
        validate_schedule(schedule, require_sync_ops=(scheme != "pipedream"))

    def test_missing_backward_detected(self):
        # The dependency builder already catches the missing gradient
        # producer for the upstream backward.
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1)]])
        with pytest.raises(ValidationError, match="gradient producer"):
            validate_schedule(s)

    def test_missing_final_backward_detected(self):
        s = toy([[F(0, 0)], [F(0, 1)]])
        with pytest.raises(ValidationError, match="no backward"):
            validate_schedule(s)

    def test_missing_micro_batch_detected(self):
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1), B(0, 1)]], n=2)
        with pytest.raises(ValidationError, match="never enter"):
            validate_schedule(s)

    def test_wrong_worker_detected(self):
        rows = [[F(0, 1), B(0, 1)], [F(0, 0), B(0, 0)]]
        with pytest.raises(ValidationError, match="placed on worker"):
            validate_schedule(toy(rows))

    def test_incomplete_backward_parts_detected(self):
        rows = [
            [F(0, 0), B(0, 0, part=(0, 2))],
            [F(0, 1), B(0, 1, part=(0, 2)), B(0, 1, part=(1, 2))],
        ]
        with pytest.raises(ValidationError, match="parts"):
            validate_schedule(toy(rows))

    def test_deadlock_detected(self):
        # Worker 1 runs the backward before its own forward is even
        # possible: B(0,1) needs F(0,1) which is ordered after it.
        rows = [
            [F(0, 0), B(0, 0)],
            [B(0, 1), F(0, 1)],
        ]
        with pytest.raises(ValidationError, match="cycle|deadlock"):
            validate_schedule(toy(rows))

    def test_sync_coverage_enforced(self):
        s = toy([[F(0, 0), B(0, 0)], [F(0, 1), B(0, 1)]])
        with pytest.raises(ValidationError, match="synchronization"):
            validate_schedule(s, require_sync_ops=True)


class TestCycleErrors:
    """Every levelization reports a cycle with its own exact message."""

    #: Worker 1 runs B(0,1) before the F(0,1) it consumes: B(0,1),
    #: F(0,1) and the B(0,0) waiting on B(0,1)'s gradient never run.
    CYCLIC_ROWS = [[F(0, 0), B(0, 0)], [B(0, 1), F(0, 1)]]

    def test_validator_names_count_and_first_stuck_ops(self):
        stuck = [B(0, 0).key(), B(0, 1).key(), F(0, 1).key()]
        with pytest.raises(ValidationError) as info:
            validate_schedule(toy(self.CYCLIC_ROWS))
        assert str(info.value) == (
            "schedule has a dependency cycle / deadlock; 3 operations can "
            f"never run, e.g. {stuck}"
        )

    def test_kernel_levelization_stuck(self):
        from repro.sim.kernel import kernel_of

        graph = build_dependency_graph(toy(self.CYCLIC_ROWS))
        with pytest.raises(ScheduleError) as info:
            kernel_of(graph)
        assert str(info.value) == (
            "kernel levelization stuck: 3 ops sit on a dependency cycle"
        )

    def test_blocking_collectives_deadlock(self):
        from dataclasses import replace

        from repro.sim.cost import CostModel
        from repro.sim.kernel import simulate_fast

        # Chimera D=2 synchronizes stage 1, then stage 0, on both
        # workers. Worker 1 swapped to stage 0 first: each worker blocks
        # in a collective the other reaches only after its own.
        schedule = build_schedule("chimera", 2, 2)
        rows = [list(row) for row in schedule.worker_ops]
        assert [op.short() for op in rows[1][-2:]] == ["S1r0", "S0r1"]
        rows[1][-2:] = rows[1][-1:-3:-1]
        deadlocked = replace(schedule, worker_ops=freeze_worker_ops(rows))
        validate_schedule(deadlocked)  # acyclic without the barriers
        assert simulate_fast(deadlocked, CostModel.unit()).iteration_time > 0
        with pytest.raises(ScheduleError) as info:
            simulate_fast(deadlocked, CostModel.unit(), blocking_sync=True)
        assert str(info.value) == (
            "blocking collectives deadlock: 2 ops depend on a collective "
            "that can never resolve"
        )


def _op(kind, mbs, stage, replica=0, part=(0, 1), payload=""):
    return Operation(
        kind, replica, stage, micro_batches=tuple(mbs), part=part, payload=payload
    )


def Fm(mbs, stage):
    return _op(OpKind.FORWARD, mbs, stage)


def Bm(mbs, stage):
    return _op(OpKind.BACKWARD, mbs, stage)


def W(mbs, stage):
    return _op(OpKind.BACKWARD_WEIGHT, mbs, stage)


def R(mbs, stage):
    return _op(OpKind.RECOMPUTE, mbs, stage)


def Tx(mbs, stage, payload="act"):
    return _op(OpKind.SEND, mbs, stage, payload=payload)


def Rx(mbs, stage, payload="act"):
    return _op(OpKind.RECV, mbs, stage, payload=payload)


def Ho(mbs, stage=0):
    return _op(OpKind.OFFLOAD, mbs, stage, payload="stash")


def Hr(mbs, stage=0):
    return _op(OpKind.RELOAD, mbs, stage, payload="stash")


#: One hand-built schedule per ``raise ValidationError`` site of
#: ``build_dependency_graph``, in source order, with the full message.
BUILDER_ERRORS = [
    (
        "scheduled_twice",
        [[F(0, 0), F(0, 0)], []],
        "operation F0 (replica 0, stage 0) scheduled twice",
    ),
    (
        "two_forwards",
        [[Fm((0, 1), 0), F(0, 0)], []],
        "micro-batch 0 has two forwards at stage 0 of replica 0",
    ),
    (
        "two_backwards",
        [[F(0, 0), Bm((0, 1), 0), B(0, 0)], []],
        "micro-batch 0 part (0, 1) has two backwards at stage 0 of replica 0",
    ),
    (
        "two_weight_grad_producers",
        [[F(0, 0), B(0, 0), W((0,), 0)], []],
        "micro-batch 0 part (0, 1) has two weight-gradient producers at "
        "stage 0 of replica 0",
    ),
    (
        "two_recomputes",
        [[F(0, 0), R((0, 1), 0), R((0,), 0)], []],
        "micro-batch 0 has two RECOMPUTE ops at stage 0 of replica 0",
    ),
    (
        "two_receives",
        [[F(0, 0)], [Rx((0, 1), 1), Rx((0,), 1)]],
        "micro-batch 0 has two act receives at stage 1 of replica 0",
    ),
    (
        "two_offloads",
        [[F(0, 0), Ho((0, 1)), Ho((0,))], []],
        "micro-batch 0 has two OFFLOAD ops at stage 0 of replica 0",
    ),
    (
        "two_reloads",
        [[F(0, 0), Hr((0, 1)), Hr((0,))], []],
        "micro-batch 0 has two RELOAD ops at stage 0 of replica 0",
    ),
    (
        "offload_without_reload",
        [[F(0, 0), Ho((0,)), B(0, 0)], []],
        "OFFLOAD of micro-batch 0 at stage 0 (replica 0) has no matching RELOAD",
    ),
    (
        "offload_reload_coverage",
        [[Fm((0, 1), 0), Ho((0, 1)), Hr((0,)), Hr((1,)), Bm((0, 1), 0)], []],
        "OFFLOAD Ho0,1s0 and RELOAD Hr0s0 cover different micro-batches "
        "(replica 0, stage 0)",
    ),
    (
        "reload_without_consumer",
        [[F(0, 0), Ho((0,)), Hr((0,))], []],
        "RELOAD Hr0s0 (replica 0) has no consuming backward or RECOMPUTE "
        "after it on worker 0",
    ),
    (
        "forward_without_producer",
        [[], [F(0, 1), B(0, 1)]],
        "forward of micro-batch 0 at stage 1 (replica 0) has no stage-0 producer",
    ),
    (
        "backward_without_forward",
        [[B(0, 0)], []],
        "backward of micro-batch 0 at stage 0 (replica 0) has no matching forward",
    ),
    (
        "backward_without_gradient",
        [[F(0, 0), B(0, 0)], [F(0, 1)]],
        "backward of micro-batch 0 part (0, 1) at stage 0 (replica 0) has no "
        "stage-1 gradient producer",
    ),
    (
        "recompute_without_forward",
        [[R((0,), 0)], []],
        "RECOMPUTE of micro-batch 0 at stage 0 (replica 0) has no matching forward",
    ),
    (
        "weight_grad_without_bi",
        [[F(0, 0), W((0,), 0)], []],
        "weight gradient of micro-batch 0 part (0, 1) at stage 0 (replica 0) "
        "has no matching input-gradient (Bi) producer",
    ),
    (
        "send_without_producer",
        [[Tx((0,), 0)], []],
        "Tx[act]0s0 (replica 0) has no local act producer for micro-batch 0",
    ),
    (
        "recv_without_send",
        [[F(0, 0)], [Rx((0,), 1), F(0, 1)]],
        "Rx[act]0s1 (replica 0) has no matching SEND at stage 0",
    ),
    (
        "offload_without_forward",
        [[Ho((0,)), Hr((0,)), B(0, 0)], []],
        "OFFLOAD of micro-batch 0 at stage 0 (replica 0) has no matching forward",
    ),
    (
        "reload_without_offload",
        [[F(0, 0), Hr((0,)), B(0, 0)], []],
        "RELOAD of micro-batch 0 at stage 0 (replica 0) has no matching OFFLOAD",
    ),
]


class TestBuilderErrors:
    @pytest.mark.parametrize(
        "rows, message",
        [pytest.param(rows, msg, id=name) for name, rows, msg in BUILDER_ERRORS],
    )
    def test_each_builder_check_fires_with_its_message(self, rows, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_dependency_graph(toy(rows))

    def test_every_raise_site_is_covered(self):
        import inspect

        from repro.schedules import dependencies

        source = inspect.getsource(dependencies)
        assert source.count("raise ValidationError") == len(BUILDER_ERRORS)


class TestBuilderCost:
    @pytest.mark.parametrize("scheme", ["pipedream", "chimera"])
    def test_one_key_per_op_and_no_replica_rescans(self, scheme, monkeypatch):
        # pipedream synchronizes per micro-batch, chimera per stage: both
        # ALLREDUCE wirings must read indexes built in the first pass.
        schedule = build_schedule(scheme, 8, 16)
        calls = {"key": 0}
        key = Operation.key

        def counted_key(op):
            calls["key"] += 1
            return key(op)

        monkeypatch.setattr(Operation, "key", counted_key)
        build_dependency_graph(schedule)
        num_ops = sum(len(row) for row in schedule.worker_ops)
        assert calls["key"] <= num_ops


class TestColumnBuilderCost:
    @pytest.mark.parametrize("passes", ["recompute", "offload"])
    @pytest.mark.parametrize("scheme", ["pipedream", "chimera"])
    def test_variant_graph_and_kernel_make_no_ops(self, scheme, passes, monkeypatch):
        # The builder reads the op table: a table-backed variant's
        # inserted ops stay unbuilt, and no op identity is hashed.
        from repro.sim.kernel import kernel_of

        schedule = build_schedule(scheme, 8, 16, passes=passes)
        calls = {"key": 0}
        key = Operation.key

        def counted_key(op):
            calls["key"] += 1
            return key(op)

        monkeypatch.setattr(Operation, "key", counted_key)
        kernel_of(build_dependency_graph(schedule))
        assert "worker_ops" not in schedule.__dict__
        assert calls["key"] == 0
