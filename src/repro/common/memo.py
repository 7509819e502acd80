"""Results memoized on the artifact they were computed from.

A :class:`WeakMemo` keeps, for each live *owner* object (a schedule
kernel, a memory profile), a small table of results keyed by a value-
compared model. The owner is held by weak reference, so an owner's
results die with it and whatever bounds the owners (the schedule
cache's memory tier) bounds the memo too; each owner keeps at most
:data:`WeakMemo.MAX_KEYS_PER_OWNER` keys, dropping the oldest first.

Keys are compared by value: an unhashable key (a frozen dataclass with a
list field) is never looked up or stored, so its caller computes it
every time. Stored values are shared between callers and must be
immutable. A lock guards every table, so the server's concurrent
handler threads may share one memo.

The value types those keys are made of (cost and memory models, machine
and workload specs, links and topologies) hash once per instance
(:func:`hash_once`): a hot request looks each of them up many times, and
their generated ``__hash__`` would otherwise recurse through every field
on every lookup.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Hashable


#: Instance attribute holding a :func:`hash_once` instance's hash.
_HASH = "_hash_once"


def hash_once(cls: type) -> type:
    """Class decorator: cache the value of ``cls.__hash__`` per instance.

    The hash is the one ``cls`` already defines (a frozen dataclass's
    generated hash, or a ``_key()`` hash), taken on the first ``hash()``
    and kept in the instance's ``__dict__``. It is not a field, so
    ``==``, ``repr``, ``dataclasses.fields``/``asdict``/``replace`` never
    see it. An instance with an unhashable field raises ``TypeError`` on
    every call and caches nothing. Pickling drops it: string hashes are
    salted per process (the planner's spawned workers each have their
    own seed), so an unpickled instance hashes afresh.
    """
    compute = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self.__dict__[_HASH]
        except KeyError:
            value = self.__dict__[_HASH] = compute(self)
            return value

    def __getstate__(self) -> dict:
        state = self.__dict__
        if _HASH in state:
            state = dict(state)
            del state[_HASH]
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


def _hashable(key: object) -> bool:
    try:
        hash(key)
    except TypeError:
        return False
    return True


class WeakMemo:
    """``owner -> {key: value}``, weak on the owner, bounded per owner."""

    #: Keys kept per owner; inserting one more drops the oldest.
    MAX_KEYS_PER_OWNER = 64

    def __init__(self) -> None:
        self._tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    def get(self, owner: object, key: Hashable) -> Any:
        """The value stored for ``(owner, key)``, or ``None``."""
        with self._lock:
            table = self._tables.get(owner)
            if table is None:
                return None
            try:
                return table.get(key)
            except TypeError:  # unhashable: never stored
                return None

    def put(self, owner: object, key: Hashable, value: Any) -> None:
        """Store ``value`` for ``(owner, key)``; unhashable keys are dropped."""
        if not _hashable(key):
            return
        with self._lock:
            table = self._tables.get(owner)
            if table is None:
                table = self._tables[owner] = {}
            table[key] = value
            if len(table) > self.MAX_KEYS_PER_OWNER:
                del table[next(iter(table))]

    def __len__(self) -> int:
        """The number of live owners with stored results."""
        with self._lock:
            return len(self._tables)

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
