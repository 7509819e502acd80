"""The table-reading recompute and offload passes against their oracle.

:class:`~repro.schedules.passes.recompute.RecomputePass` and
:class:`~repro.schedules.passes.offload.OffloadPass` plan and insert on
their input's op table and return table-backed schedules.
``tests/reference_passes.py`` keeps the same passes over ``Operation``
objects. Every registered scheme, under each pass chain below, must
produce the oracle's ops in the oracle's order and its metadata; the
spliced table must equal the walk of those ops column for column; and
neither pass (nor its check hook) may make a validated ``Operation``.
"""

import re
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest

from repro.common.errors import ScheduleError
from repro.schedules.ir import Operation, OpKind, OpTable
from repro.schedules.lowering import lower_schedule
from repro.schedules.passes import OffloadPass, RecomputePass
from repro.schedules.registry import available_schemes, build_schedule
from tests import reference_passes as reference

#: Pass chains, each step (table pass, oracle step).
CHAINS = {
    "recompute": [(RecomputePass(), reference.recompute)],
    "offload": [(OffloadPass(), reference.offload)],
    "recompute,offload": [
        (RecomputePass(), reference.recompute),
        (OffloadPass(), reference.offload),
    ],
    "offload,recompute": [
        (OffloadPass(), reference.offload),
        (RecomputePass(), reference.recompute),
    ],
    "offload:2": [(OffloadPass(2), lambda s: reference.offload(s, 2))],
    "offload,offload": [
        (OffloadPass(), reference.offload),
        (OffloadPass(), reference.offload),
    ],
}
SHAPES = [(2, 3), (4, 6)]


@lru_cache(maxsize=None)
def built(scheme, depth, n):
    """The base schedule, built once for every test here."""
    return build_schedule(scheme, depth, n)


@pytest.fixture
def validated(monkeypatch):
    """The ``Operation``\\ s validated (``__post_init__`` calls) so far."""
    made = []
    post_init = Operation.__post_init__

    def counted(op):
        made.append(op)
        post_init(op)

    monkeypatch.setattr(Operation, "__post_init__", counted)
    return made


def assert_table_matches_ops(schedule):
    table, walked = schedule.op_table(), OpTable.of(schedule.worker_ops)
    for name in OpTable.__dataclass_fields__:
        column, expected = getattr(table, name), getattr(walked, name)
        assert column.dtype == expected.dtype, name
        np.testing.assert_array_equal(column, expected, err_msg=name)


def raises_if(condition, match):
    """``pytest.raises(ScheduleError, match=match)`` when ``condition``."""
    return pytest.raises(ScheduleError, match=match) if condition else nullcontext()


def run_step(step, schedule, made):
    """``step`` over ``schedule`` with its check hook; asserts neither
    validates an ``Operation``."""
    del made[:]
    after = step.run(schedule)
    step.check(schedule, after)
    assert made == [], step
    return after


@pytest.mark.parametrize("chain", list(CHAINS))
@pytest.mark.parametrize("scheme", available_schemes())
def test_table_passes_equal_the_oracle(scheme, chain, validated):
    for depth, n in SHAPES:
        schedule = expected = built(scheme, depth, n)
        for step, oracle in CHAINS[chain]:
            schedule = run_step(step, schedule, validated)
            expected = oracle(expected)
        assert schedule.worker_ops == expected.worker_ops, (depth, n)
        assert dict(schedule.metadata) == dict(expected.metadata)
        assert_table_matches_ops(schedule)


@pytest.mark.parametrize("scheme", available_schemes())
def test_recompute_after_lowering_equals_the_oracle(scheme, validated):
    """Recompute over a lowered (table-backed) schedule: the oracle's ops,
    and the same ops as lowering the recomputed schedule."""
    for depth, n in SHAPES:
        base = built(scheme, depth, n)
        lowered = lower_schedule(base).schedule
        after = run_step(RecomputePass(), lowered, validated)
        expected = reference.recompute(lowered)
        assert after.worker_ops == expected.worker_ops, (depth, n)
        assert dict(after.metadata) == dict(expected.metadata)
        assert_table_matches_ops(after)
        commuted = lower_schedule(RecomputePass().run(base)).schedule
        assert after.worker_ops == commuted.worker_ops


@pytest.mark.parametrize("scheme", available_schemes())
def test_checks_follow_the_oracle_rules(scheme):
    """Each check, given an input without the pass, reports what the
    oracle's rule finds missing."""
    base = built(scheme, 4, 6)
    uncovered = reference.recompute_uncovered(base)
    message = f"left {len(uncovered)} .* = {re.escape(str(min(uncovered, default=0)))}"
    with raises_if(uncovered, message):
        RecomputePass().check(base, base)
    offload_after, _ = reference.offload_plan(base)
    wanted = sum(map(len, offload_after.values()))
    with raises_if(wanted, f"planned {wanted} stash"):
        OffloadPass().check(base, base)
    OffloadPass().check(base, OffloadPass().run(base))


def test_inserted_ops_are_made_on_first_read(validated):
    """The passes' output answers counts from its table; its ops are made
    on the first read of ``worker_ops``, the input's reused by identity."""
    base = build_schedule("dapple", 4, 6)
    del validated[:]
    after = OffloadPass().run(RecomputePass().run(base))
    assert after.count(OpKind.OFFLOAD) == after.count(OpKind.RELOAD) > 0
    assert "worker_ops" not in vars(after)
    ops = [op for row in after.worker_ops for op in row]
    assert validated == []
    inserted = (OpKind.RECOMPUTE, OpKind.OFFLOAD, OpKind.RELOAD)
    kept = [op for op in ops if op.kind not in inserted]
    reused = [op for row in base.worker_ops for op in row]
    assert len(kept) == len(reused)
    assert all(a is b for a, b in zip(kept, reused))
