"""The benchmark's inputs: reproducible, seed-sensitive where seeded, balanced."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

import streams


def _take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_same_seed_same_streams_and_other_seed_differs():
    for client in (0, 1):
        a = _take(streams.client_stream(7, client), 40)
        assert a == _take(streams.client_stream(7, client), 40)
        assert a != _take(streams.client_stream(8, client), 40)
    other = _take(streams.client_stream(7, 1), 40)
    assert _take(streams.client_stream(7, 0), 40) != other

    same = zip(_take(streams.train_batches(7), 3), _take(streams.train_batches(7), 3))
    for step_a, step_b in same:
        for (ta, ya), (tb, yb) in zip(step_a, step_b):
            assert np.array_equal(ta, tb) and np.array_equal(ya, yb)
    first_a = _take(streams.train_batches(7), 1)[0][0][0]
    first_b = _take(streams.train_batches(8), 1)[0][0][0]
    assert not np.array_equal(first_a, first_b)


def test_plan_stream_is_a_balanced_fraction_of_the_space():
    stream = streams.PLAN_STREAM
    cells = [(shape, mb) for shape, _, _, mb, _ in stream]
    every = itertools.product(streams.SHAPES, streams.MINI_BATCHES)
    assert sorted(cells) == sorted(every)
    assert Counter(m for _, m, _, _, _ in stream) == {m: 3 for m in streams.MACHINES}
    assert Counter(w for _, _, w, _, _ in stream) == {w: 2 for w in streams.MODELS}
    assert Counter(b for *_, b in stream) == {b: 2 for b in streams.BUDGETS_GIB}
    on_machines = {(shape, m) for shape, m, *_ in stream}
    assert on_machines == set(itertools.product(streams.SHAPES, streams.MACHINES))


def test_hot_set_covers_both_mini_batches_on_both_machines():
    hot = streams.HOT_SET
    assert len(set(hot)) == 4
    assert {(m, mb) for m, _, mb in hot} == set(
        itertools.product(streams.MACHINES, streams.MINI_BATCHES)
    )
    for seed in range(5):
        blocks = _take(streams.client_stream(seed, 0), 4 * len(hot))
        assert set(Counter(blocks).values()) == {4}


def test_payloads_parse_with_the_service_schema():
    from repro.serve.service import parse_plan_request

    for payload in streams.plan_payloads() + streams.hot_payloads():
        request = parse_plan_request(payload)
        assert request.num_workers in (4, 8, 16)
