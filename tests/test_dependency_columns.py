"""The column-reading dependency-graph builder against its oracle.

:func:`repro.schedules.dependencies.build_dependency_graph` reads the
schedule's op table. ``tests/reference_dependencies.py`` keeps the same
builder over ``Operation`` objects. For every registered scheme, under
each pipeline below, both must build the same tables; for every
malformed schedule of the builder-error catalogue, and for an exact
duplicate of each op kind, both must raise the same message.
"""

import pytest

from repro.common.errors import ValidationError
from repro.schedules.dependencies import build_dependency_graph
from repro.schedules.ir import Operation, OpKind
from repro.schedules.registry import available_schemes, build_schedule
from tests import reference_dependencies as reference
from tests.test_dependencies_validate import BUILDER_ERRORS, toy

PIPELINES = [None, "recompute", "offload", "lower_p2p", "lower_p2p,fuse_comm"]
SHAPES = [(2, 3), (2, 4), (4, 6), (4, 8)]


def tables(graph):
    return (
        graph.op_worker,
        graph.row_pos,
        graph.dep_ptr,
        graph.dep_src,
        graph.dep_kind,
        graph.dep_units,
    )


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("scheme", available_schemes())
def test_column_builder_equals_the_oracle(scheme, pipeline):
    for depth, n in SHAPES:
        schedule = build_schedule(scheme, depth, n, passes=pipeline)
        graph = build_dependency_graph(schedule)
        expected = reference.build_dependency_graph(schedule)
        assert graph.schedule is schedule
        assert tables(graph) == tables(expected), (depth, n)
        assert [type(u) for u in graph.dep_units] == [
            type(u) for u in expected.dep_units
        ]


def message_of(build, schedule):
    with pytest.raises(ValidationError) as caught:
        build(schedule)
    return str(caught.value)


@pytest.mark.parametrize(
    "rows, message",
    [pytest.param(rows, msg, id=name) for name, rows, msg in BUILDER_ERRORS],
)
def test_builder_errors_match_the_oracle(rows, message):
    schedule = toy(rows)
    assert message_of(reference.build_dependency_graph, schedule) == message
    assert message_of(build_dependency_graph, schedule) == message


def _op(kind, mbs, stage=0, **fields):
    return Operation(kind, 0, stage, micro_batches=mbs, **fields)


F = _op(OpKind.FORWARD, (0,))
B = _op(OpKind.BACKWARD, (0,))
Bi = _op(OpKind.BACKWARD_INPUT, (0,))
W = _op(OpKind.BACKWARD_WEIGHT, (0,))
R = _op(OpKind.RECOMPUTE, (0,))
S = _op(OpKind.ALLREDUCE, ())
Tx = _op(OpKind.SEND, (0,), payload="act")
Rx = _op(OpKind.RECV, (0,), stage=1, payload="act")
Ho = _op(OpKind.OFFLOAD, (0,), payload="stash")
Hr = _op(OpKind.RELOAD, (0,), payload="stash")

#: One schedule per op kind whose last op on worker 0 or 1 repeats an
#: earlier one exactly (the recompute flag is not part of an op's
#: identity), with the op the message names.
DUPLICATES = {
    "forward": ([[F, F], []], F),
    "backward": ([[F, B, B], []], B),
    "backward_recompute_flag": ([[F, B, B.with_recompute()], []], B),
    "backward_input": ([[F, Bi, Bi, W], []], Bi),
    "backward_weight": ([[F, Bi, W, W], []], W),
    "recompute": ([[F, R, R, B], []], R),
    "allreduce": ([[F, B, S, S], []], S),
    "send": ([[F, Tx, Tx], []], Tx),
    "recv": ([[F, Tx], [Rx, Rx]], Rx),
    "offload": ([[F, Ho, Ho, Hr, B], []], Ho),
    "reload": ([[F, Ho, Hr, Hr, B], []], Hr),
}


@pytest.mark.parametrize("rows, op", DUPLICATES.values(), ids=list(DUPLICATES))
def test_exact_duplicates_are_scheduled_twice(rows, op):
    schedule = toy(rows)
    message = (
        f"operation {op.short()} (replica {op.replica}, stage {op.stage}) "
        f"scheduled twice"
    )
    assert message_of(reference.build_dependency_graph, schedule) == message
    assert message_of(build_dependency_graph, schedule) == message
