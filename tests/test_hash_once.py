"""Value types that hash once (:func:`repro.common.memo.hash_once`).

The frozen types that key the planner's memos and LRUs (cost and memory
models, machine and workload specs, links, host channels, topologies)
keep their hash after the first ``hash()``. The cache must stay
invisible: equality, ``repr``, ``dataclasses.fields``/``asdict``/
``replace`` and the hash value itself are what they were. It must stay
in its process: string hashes are salted per process, so a hash carried
over a pickle would break equal-key lookups in a spawned worker. And an
instance with an unhashable field must keep raising.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro.common.memo import hash_once
from repro.sim.memory import MemoryModel

#: Builds one instance of every cached value type, the same on each call.
VALUES = """
from repro.bench.machines import PIZ_DAINT, V100_CLUSTER
from repro.bench.workloads import BERT48
from repro.perf.calibration import calibrate_cost_model, calibrate_memory_model


def values():
    flat = calibrate_cost_model(PIZ_DAINT, BERT48, depth=4, micro_batch=2)
    hier = calibrate_cost_model(
        V100_CLUSTER, BERT48, depth=8, micro_batch=4, data_parallel_width=2
    )
    memory = calibrate_memory_model(PIZ_DAINT, BERT48, depth=4, micro_batch=2)
    return [
        flat,
        hier,
        memory,
        PIZ_DAINT,
        V100_CLUSTER,
        BERT48,
        PIZ_DAINT.inter_link,
        PIZ_DAINT.host_channel(),
        flat.topology,
        hier.topology,
    ]
"""

#: Hashes every value, then writes them pickled to stdout.
DUMP = VALUES + """
import pickle, sys

objs = values()
for obj in objs:
    hash(obj)
sys.stdout.buffer.write(pickle.dumps(objs))
"""

#: Loads the values from stdin; each must equal, and hash like, a fresh
#: equal instance, and find it in a dict.
LOAD = VALUES + """
import pickle, sys

loaded = pickle.loads(sys.stdin.buffer.read())
fresh = values()
assert [type(obj) for obj in loaded] == [type(obj) for obj in fresh]
for got, want in zip(loaded, fresh):
    assert got == want, (got, want)
    assert hash(got) == hash(want), type(want).__name__
    assert {want: 1}[got] == 1
print(len(loaded))
"""


def namespace() -> dict:
    scope: dict = {}
    exec(VALUES, scope)
    return scope


def run(script: str, seed: int, stdin: bytes = b"") -> bytes:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        env=env,
        check=False,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_every_memo_key_type_hashes_once():
    cached = Pair.__hash__.__code__
    for value in namespace()["values"]():
        assert type(value).__hash__.__code__ is cached, type(value).__name__


def test_pickled_hash_is_not_carried_to_another_process():
    blob = run(DUMP, seed=1)
    assert run(LOAD, seed=2, stdin=blob).strip() == b"10"


def test_pickle_round_trip_drops_the_cached_hash():
    for value in namespace()["values"]():
        want = hash(value)
        copy = pickle.loads(pickle.dumps(value))
        assert vars(copy).keys() == vars(value).keys() - {"_hash_once"}
        assert copy == value and hash(copy) == want


@pytest.mark.parametrize("hashed", [False, True], ids=["fresh", "hashed"])
def test_cache_is_invisible(hashed):
    for value in namespace()["values"]():
        if not dataclasses.is_dataclass(value):
            continue
        other = pickle.loads(pickle.dumps(value))
        before = (repr(value), dataclasses.fields(value), dataclasses.asdict(value))
        if hashed:
            hash(value)
        assert (repr(value), dataclasses.fields(value)) == before[:2]
        assert dataclasses.asdict(value) == before[2]
        assert value == other and other == value
        copy = dataclasses.replace(value)
        assert copy == value and "_hash_once" not in vars(copy)
        assert hash(copy) == hash(value)


def uncached_hash(value) -> int:
    """The hash a value's class defines: its compared fields' tuple for a
    dataclass, its ``_key()`` for a topology."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return hash(tuple(getattr(value, f.name) for f in fields if f.compare))
    return hash(value._key())


def test_hash_value_is_the_uncached_one():
    for value in namespace()["values"]():
        want = uncached_hash(value)
        assert hash(value) == want
        assert hash(value) == want  # the cached read


@hash_once
@dataclasses.dataclass(frozen=True)
class Pair:
    left: object
    right: object = 0


def test_unhashable_field_raises_every_time():
    # WeakMemo and the planner's floor memo compute, and never store, a
    # value keyed by a model with a list field.
    for value in (Pair([1, 2]), MemoryModel(activation_bytes=[1.0, 2.0])):
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(value)
        assert "_hash_once" not in vars(value)
    assert hash(Pair((1, 2))) == hash(((1, 2), 0))
