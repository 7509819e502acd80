"""Process-wide memoization of schedule-construction artifacts.

Everything downstream of a schedule builder is a pure function of the
builder's inputs: ``build_schedule(scheme, D, N, **options)`` fully
determines the schedule, its dependency graph, the lowered schedule, the
lowered schedule's graph, and each graph's array kernel. Yet before this
module existed every planner sweep, experiment grid, and benchmark case
re-derived the whole chain from scratch — at D=32 a single ZB-V build
costs ~2 s while simulating it costs ~40 ms, so configuration searches
over ``(scheme, W, D, B)`` grids were dominated by rebuilding identical
schedules (``W`` and ``B`` only change the cost model, never the
schedule, which depends on ``N = B̂ / (W * B)``).

:func:`schedule_artifacts` is the single entry point: it returns a
:class:`ScheduleArtifacts` handle whose derived forms (graph, lowered
schedule, lowered graph, fused schedule, fused graph, and a kernel per
form) materialize lazily. What stays resident is schedules, kernels and
the schedule's memory profile (:meth:`ScheduleArtifacts.memory_profile`,
which every memory model the entry is analyzed under prices): dict
dependency graphs are transient build inputs, dropped once a form's
kernel exists and rebuilt on demand. The lowered form, and a pass
variant's schedule when its passes only insert ops (``recompute``,
``offload``), are table-backed
(:meth:`~repro.schedules.ir.Schedule.from_table`) until a caller reads
their ops (:meth:`ScheduleArtifacts.graph_for` does): compiling the
memory profile, building a lowered kernel and writing the entry to disk
make no inserted ``Operation``. The cache is
a bounded LRU keyed on ``(scheme, depth, num_micro_batches,
sorted(options))`` — the options map covers chunking/variant knobs such
as Chimera's ``concat`` and ``num_down_pipelines`` and the zero-bubble
``max_in_flight``. The ``passes`` option (a pipeline spec, see
:mod:`repro.schedules.passes`) is the only way to name a transform such
as ``recompute``; it is normalized to the pipeline's stable *signature*
before entering the key, so equivalent spellings — a comma string, a
list, ``insert_sync`` for ``insert_sync:lazy`` — share one entry, and
two processes derive identical keys for identical pipelines. A spec
names a pass's whole configuration, so equal keys build equal
schedules. A builder option passed at its declared default shares the
entry that leaving it out keys.

A pass variant derives from its base entry: an entry whose key names
passes builds nothing itself but looks up the entry of the same builder
invocation without ``passes`` and runs only the extra passes over that
schedule (:func:`~repro.schedules.registry.run_passes`), so one grid
point's builder runs once per process. ``build_schedule(..., passes=p)``
is the same composition, and a pipeline writes ``"passes"`` as the last
metadata key, so a derived variant equals a one-shot build in its ops,
its metadata and its key order, and its disk payload has the same
bytes.

Safety
------
Cached schedules are shared across callers, so the cache hardens them
against accidental mutation: the one mutable field of the frozen
:class:`~repro.schedules.ir.Schedule` dataclass — its ``metadata`` dict —
is wrapped in a read-only :class:`types.MappingProxyType` before the
schedule enters the cache. In-place poisoning attempts raise
``TypeError``; the sanctioned ``with_metadata`` path returns a fresh copy
and leaves the cached instance untouched. Dependency graphs are shared
read-only structures; engine-side derived forms (the dense schedule and
the array kernel) attach to the graph and are themselves immutable caches.

Builder options that are not hashable bypass the cache entirely (the
artifacts are built fresh and not retained), so exotic callers never
break — they just don't get memoization.

Disk tier
---------
Beneath the LRU sits a persistent, content-addressed store
(:mod:`repro.schedules.diskcache`): a memory miss consults the disk before
building, a built schedule is written through at once (with its memory
profile), and every array kernel is written through as it is built.
Inside a write-back scope (:func:`write_back`; the planner plans each
request in one) those writes are deferred instead: each entry the scope
built or extended is stored once, when the outermost scope exits, so an
entry whose kernel follows its build in the same request is not written
twice. Either way a restarted process (a fresh ``repro plan``, a
redeployed ``repro serve``) skips schedule builds, passes, graph
construction, kernel construction and the memory walk. The disk tier
stores no dict graph: each payload holds one pickled blob of the
schedule forms' op tables
(:meth:`~repro.schedules.ir.Schedule.op_table`; an op an earlier form
holds is stored as a reference, and a lowered form still held as its
table packs from it), a ``kernels`` map keyed by form and
the :class:`~repro.sim.memory.MemoryProfile`. A restored entry keeps
the blob as bytes until a schedule form is asked for, so synchronous
planning, which reads only kernels and profiles, rebuilds no schedule
form. A stored kernel that is not a
:class:`~repro.sim.kernel.ScheduleKernel` is dropped on load, so that
form's kernel rebuilds from its schedule. The disk key is exactly the
LRU key, the format is versioned, and corrupt entries are evicted on
load, never propagated; a forms blob that fails to decode when first
used is rebuilt from the builder inputs and written back. With the
tier absent or disabled an entry never snapshots itself.

Builds and disk loads run with CPython's cyclic collector paused
(:mod:`repro.common.gcpause`): the artifacts are immutable and acyclic,
so there is nothing for a mid-build collection to reclaim, and each full
collection would rescan every artifact already cached.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, count, repeat
from types import MappingProxyType
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.common.errors import ReproError
from repro.common.gcpause import collector_paused
from repro.schedules.dependencies import DependencyGraph, build_dependency_graph
from repro.schedules.diskcache import DiskCacheStats, DiskScheduleCache, dumps
from repro.schedules.ir import OpTable, Schedule
from repro.schedules.lowering import lower_schedule
from repro.schedules.passes import FuseCommPass, pipeline_signature
from repro.schedules.passes.pipeline import split_pipeline
from repro.schedules.registry import (
    build_schedule,
    builder_fingerprint,
    is_builder_default,
    run_passes,
)

#: Default bound on retained entries (LRU eviction beyond it). A cached
#: entry holds its schedule forms plus their kernels (and, until a
#: kernel exists, the dict graphs it is built from); bounding the count
#: keeps long planner sessions from accumulating every grid point ever
#: touched.
DEFAULT_MAX_ENTRIES = 128


def _freeze(schedule: Schedule) -> Schedule:
    """Return ``schedule`` with a read-only metadata mapping (a
    table-backed schedule stays table-backed)."""
    if isinstance(schedule.metadata, MappingProxyType):
        return schedule
    return schedule.restamp(MappingProxyType(dict(schedule.metadata)))


#: The op-table columns a forms blob stores per row (a row's worker and
#: position follow from the form's row lengths).
_STORED_COLUMNS = tuple(
    name for name in OpTable.__dataclass_fields__ if name not in ("worker", "pos")
)
#: The schedule fields a forms blob stores besides its rows.
_SCHEDULE_FIELDS = tuple(f.name for f in fields(Schedule) if f.name != "worker_ops")


def _narrow(column: np.ndarray) -> np.ndarray:
    """An integer ``column`` in the smallest dtype that holds its values."""
    if column.dtype == bool or not len(column):
        return column
    low, high = column.min().item(), column.max().item()
    return column.astype(
        np.result_type(np.min_scalar_type(low), np.min_scalar_type(high))
    )


def _pack_forms(forms: dict[str, Schedule]) -> dict:
    """The content of a forms blob (disk formats 6 and 7): per form, its
    schedule fields, row lengths and op table. An op an earlier form
    holds is stored as a reference instead of a row: ``shared`` gives its
    index among the earlier forms' ops (their rows in turn), ``-1`` for
    the form's own rows, whose columns ``ops`` holds in row order. A form
    spliced from an earlier one (its ``splice``) packs from its table,
    its reused rows referencing that form's ops; only a form made from
    rows, after an earlier form, makes the earlier forms' ops to find
    the ones it shares."""
    packed = {}
    held = list(forms.values())
    index: dict[int, int] = {}  # id(op) -> an index of the op so far
    indexed = 0  # how many of the held forms ``index`` covers
    start: dict[int, int] = {}  # id(form) -> the index of its first op
    offset = 0  # how many ops the earlier forms hold
    for position, (name, form) in enumerate(forms.items()):
        table = form.op_table()
        shared = np.full(len(table.kind), -1, dtype=np.int64)
        splice = form.splice
        if splice is not None and id(splice[0]) in start:
            source, reused = splice
            shared[reused] = start[id(source)] + np.arange(int(reused.sum()))
        elif position:
            for earlier in held[indexed:position]:
                flat = chain.from_iterable(earlier.worker_ops)
                index.update(zip(map(id, flat), count(start[id(earlier)])))
            indexed = position
            flat = list(chain.from_iterable(form.worker_ops))
            shared = np.fromiter(
                map(index.get, map(id, flat), repeat(-1)), np.int64, len(flat)
            )
        own = table.take(shared < 0)
        packed[name] = {
            "schedule": {
                **{field: getattr(form, field) for field in _SCHEDULE_FIELDS},
                "metadata": form.metadata,
            },
            "rows": _narrow(np.bincount(table.worker, minlength=form.num_workers)),
            "shared": _narrow(shared),
            "ops": {
                column: _narrow(getattr(own, column)) for column in _STORED_COLUMNS
            },
        }
        start[id(form)] = offset
        offset += len(shared)
    return packed


def _unpack_forms(packed: dict) -> dict[str, Schedule]:
    """The schedule forms :func:`_pack_forms` stored. A reference comes
    back as the earlier form's op object, and own rows as new objects
    (:meth:`~repro.schedules.ir.OpTable.operations`)."""
    forms = {}
    pool = np.zeros(0, dtype=object)  # every earlier form's ops, in turn
    for name, form in packed.items():
        rows = form["rows"].astype(np.int64)
        shared = form["shared"].astype(np.int64)
        own = shared < 0
        worker = np.repeat(np.arange(len(rows)), rows)
        pos = np.arange(len(shared)) - np.repeat(np.cumsum(rows) - rows, rows)
        table = OpTable(worker=worker[own], pos=pos[own], **form["ops"])
        ops = np.empty(len(shared), dtype=object)
        ops[own] = table.operations()
        ops[~own] = pool[shared[~own]]
        pool = np.concatenate((pool, ops))
        flat = ops.tolist()
        ends = np.cumsum(rows).tolist()
        forms[name] = Schedule(
            worker_ops=tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends)),
            **form["schedule"],
        )
    return forms


class ScheduleArtifacts:
    """One cache entry: a schedule plus its lazily derived forms.

    The entry holds up to three schedule forms (:attr:`_FORMS`): the
    implicit schedule, the lowered one and the fused one. Each form's
    schedule, dependency graph and kernel is built at most once per entry
    while it is held, through :meth:`schedule_for`, :meth:`graph_for` and
    :meth:`kernel_for`; these are idempotent and safe under concurrent use
    (a rare race builds a duplicate which is immediately discarded in
    favour of the first).

    The resident and persisted forms are the schedule forms, the array
    kernels and the memory profile (:meth:`memory_profile`). The lowered
    form is lowering's table-backed schedule, whose ops are made when a
    caller of :meth:`schedule_for` or :meth:`graph_for` first reads
    them. Dependency graphs are transient: lowering and kernel
    construction read them (lowering returns the lowered graph with the
    lowered form, so a lowered entry builds one graph, not two),
    :meth:`kernel_for` drops them once its kernel exists, and
    :meth:`graph_for` rebuilds one on demand. The disk payload
    (:meth:`snapshot`) is one pickled blob of the schedule forms' op
    tables, the kernels keyed by form, and the profile; building a
    kernel writes the entry through (or, inside :func:`write_back`,
    once at the scope's exit). An entry
    restored from disk (:meth:`from_snapshot`) keeps the blob as bytes
    and decodes it on the first use of a schedule form, so ranking from
    kernels and profiles rebuilds no schedule form.
    """

    __slots__ = (
        "_forms",
        "_blob",
        "_graphs",
        "_kernels",
        "_memory_profile",
        "_lock",
        "_persist",
        "_rebuild",
    )

    #: The schedule forms in derivation order: lowering derives
    #: ``lowered`` from ``schedule``, and fuse_comm ``fused`` from
    #: ``lowered``. The names are also the keys of the forms blob and of
    #: the payload's ``kernels`` map.
    _FORMS = ("schedule", "lowered", "fused")

    def __init__(
        self,
        schedule: Schedule | None,
        persist: "Callable[[ScheduleArtifacts], None] | None" = None,
        rebuild: Callable[[], Schedule] | None = None,
    ):
        #: Form name -> schedule; None while a restored entry holds only
        #: the ``_blob`` of its forms.
        self._forms: dict[str, Schedule] | None = (
            {"schedule": _freeze(schedule)} if schedule is not None else None
        )
        self._blob: bytes | None = None
        #: Form name -> dependency graph, until a kernel exists.
        self._graphs: dict[str, DependencyGraph] = {}
        #: Form name -> memoized kernel of that form.
        self._kernels: dict[str, object] = {}
        self._memory_profile = None
        self._lock = threading.Lock()
        self._persist = persist
        #: Builds the implicit schedule again when a restored blob does
        #: not decode.
        self._rebuild = rebuild

    def snapshot(self) -> dict:
        """The disk payload: ``forms``, one pickle of the op tables of
        every schedule form the entry holds (keyed by form name; an op
        an earlier form holds is stored once, see :func:`_pack_forms`),
        plus ``memory_profile`` once compiled and ``kernels`` (form name
        -> kernel) once any exist. A restored entry whose forms were
        never decoded reuses its blob. Kernels are sorted by form, so
        the layout does not depend on the order they were built in."""
        with self._lock:
            blob = self._blob
            forms = dict(self._forms) if blob is None else None
            profile = self._memory_profile
            kernels = dict(sorted(self._kernels.items()))
        if blob is None:
            held = {name: forms[name] for name in self._FORMS if name in forms}
            blob = dumps(_pack_forms(held))
        out: dict = {"forms": blob}
        if profile is not None:
            out["memory_profile"] = profile
        if kernels:
            out["kernels"] = kernels
        return out

    @classmethod
    def from_snapshot(
        cls,
        payload: dict,
        persist: "Callable[[ScheduleArtifacts], None] | None" = None,
        rebuild: Callable[[], Schedule] | None = None,
    ) -> "ScheduleArtifacts":
        """Rehydrate an entry from a disk payload (missing forms stay lazy).

        The forms blob stays bytes until a schedule form is asked for;
        if it then fails to decode (say, a pickled class moved),
        ``rebuild`` builds the implicit schedule again, the other forms
        are derived anew, and ``persist`` overwrites the bad entry.
        A stored kernel that is not a
        :class:`~repro.sim.kernel.ScheduleKernel` is dropped, and so is a
        stored profile that is not a
        :class:`~repro.sim.memory.MemoryProfile`: :meth:`kernel_for` and
        :meth:`memory_profile` rebuild them from the schedule.
        """
        from repro.sim.kernel import ScheduleKernel
        from repro.sim.memory import MemoryProfile

        blob = payload["forms"]
        if not isinstance(blob, bytes):
            raise TypeError("the schedule forms must be one pickled blob")
        arts = cls(None, persist=persist, rebuild=rebuild)
        arts._blob = blob
        kernels = payload.get("kernels")
        if isinstance(kernels, dict):
            arts._kernels = {
                form: kernel
                for form, kernel in kernels.items()
                if isinstance(kernel, ScheduleKernel)
            }
        profile = payload.get("memory_profile")
        if isinstance(profile, MemoryProfile):
            arts._memory_profile = profile
        return arts

    def _held_forms(self) -> dict[str, Schedule]:
        """Form name -> schedule for every form the entry holds; a
        restored entry decodes its blob here, all forms at once (or
        rebuilds its schedule when the blob does not decode)."""
        forms = self._forms
        if forms is None:
            repaired = False
            with self._lock, collector_paused():
                if self._forms is None:
                    try:
                        forms = _unpack_forms(pickle.loads(self._blob))
                        if not isinstance(forms.get("schedule"), Schedule):
                            raise TypeError("the forms blob holds no schedule")
                    except Exception:
                        if self._rebuild is None:
                            raise
                        forms = {"schedule": _freeze(self._rebuild())}
                        repaired = True
                    self._forms = forms
                    self._blob = None
                forms = self._forms
            if repaired and self._persist is not None:
                self._persist(self)
        return forms

    def _memo(self, table: dict, form: str, build: Callable[[], object]):
        """``table[form]``, built on first use (first insert wins).

        The build runs with the cyclic collector paused: it allocates only
        immutable, acyclic structures, so a collection triggered mid-build
        could only rescan the artifacts already cached.
        """
        value = table.get(form)
        if value is None:
            with collector_paused():
                built = build()
            with self._lock:
                value = table.setdefault(form, built)
        return value

    @property
    def schedule(self) -> Schedule:
        """The (implicit-communication) schedule."""
        return self._held_forms()["schedule"]

    def _schedule(self, form: str) -> Schedule:
        """Schedule form ``form``: ``lowered`` comes with lowering's graph
        (:meth:`_graph`), ``fused`` is fuse_comm over ``lowered``."""
        forms = self._held_forms()
        if form == "fused":
            return self._memo(
                forms,
                form,
                lambda: _freeze(FuseCommPass().run(self._schedule("lowered"))),
            )
        if form not in forms:
            self._graph(form)
        return forms[form]

    def _graph(self, form: str) -> DependencyGraph:
        """Dependency graph of schedule form ``form``. A lowered form the
        entry does not hold yet comes from lowering, which returns the
        lowered schedule with its graph; any other graph is built from
        its form (after :meth:`kernel_for` dropped it, too)."""
        if form != "lowered" or form in self._held_forms():
            return self._memo(
                self._graphs,
                form,
                lambda: build_dependency_graph(self._schedule(form)),
            )

        def lower() -> DependencyGraph:
            return lower_schedule(self.schedule, graph=self._graph("schedule"))

        graph = self._memo(self._graphs, form, lower)
        with self._lock:
            self._forms.setdefault(form, graph.schedule)
        return graph

    def memory_profile(self):
        """The schedule's :class:`~repro.sim.memory.MemoryProfile`, compiled
        once per entry: every memory model the entry is analyzed under
        (one per machine, workload and micro-batch size sharing the
        schedule) prices the same profile. A built entry's first disk
        write carries it, so a restored entry does not walk its schedule
        again. Imported lazily like :meth:`kernel_for`."""
        from repro.sim.memory import compile_memory_profile

        profile = self._memory_profile
        if profile is None:
            with collector_paused():
                built = compile_memory_profile(self.schedule)
            with self._lock:
                if self._memory_profile is None:
                    self._memory_profile = built
                profile = self._memory_profile
        return profile

    @staticmethod
    def _form(pipeline: Sequence[str]) -> str:
        """Name of the schedule form ``pipeline`` runs on.

        Only the pipeline's ``lower_p2p``/``fuse_comm`` tail selects the
        form; its pre-lowering passes are part of the entry's key.
        """
        return split_pipeline(pipeline).form

    def schedule_for(self, pipeline: Sequence[str] = ()) -> Schedule:
        """The implicit, lowered, or fused schedule ``pipeline`` runs on."""
        return self._schedule(self._form(pipeline))

    def graph_for(self, pipeline: Sequence[str] = ()) -> DependencyGraph:
        """The dependency graph of :meth:`schedule_for`'s form (rebuilt
        if :meth:`kernel_for` dropped it)."""
        return self._graph(self._form(pipeline))

    def kernel_for(self, pipeline: Sequence[str] = ()):
        """The array kernel of :meth:`schedule_for`'s form (levelization,
        edge, FIFO tables), built once per entry, restored from the disk
        tier when stored there.

        Planner ranking, the harness and the bench suite reuse the same
        arrays across every cost model they evaluate. The kernel holds
        everything simulation reads, so once it exists the entry drops
        its dict graphs and writes itself to the disk tier: through at
        once, or at the exit of the thread's :func:`write_back` scope.
        Imported lazily to keep the schedule layer importable without the
        simulation stack.
        """
        from repro.sim.kernel import kernel_of

        form = self._form(pipeline)
        kernel = self._kernels.get(form)
        if kernel is not None:
            return kernel_of(kernel)  # every kernel lookup passes kernel_of
        with collector_paused():
            built = kernel_of(self._graph(form))
            with self._lock:
                kernel = self._kernels.setdefault(form, built)
                self._graphs.clear()
            if kernel is built and self._persist is not None:
                self._persist(self)
        return kernel


#: Per thread: ``pending`` maps ``(disk tier, key)`` to the entry to
#: store there while a :func:`write_back` scope is open, else is None.
_WRITE_BACK = threading.local()


@contextmanager
def write_back() -> Iterator[None]:
    """Store each disk-tier entry the block writes once, at its exit.

    Inside the block an entry's disk write (a new entry's first write, a
    kernel build's, a repaired forms blob's) records the entry under its
    key instead of storing it. When the outermost block exits, normally
    or by an exception, each recorded entry is stored once, from its
    snapshot at that moment, so the file holds what the last write
    through would have. Nested blocks fold into the outermost one. The
    scope is per thread: another thread's writes neither see nor join
    this thread's pending entries. A recorded entry is held until the
    exit, so one the memory LRU evicts meanwhile is still stored.
    """
    if getattr(_WRITE_BACK, "pending", None) is not None:
        yield
        return
    pending: dict[tuple[DiskScheduleCache, tuple], ScheduleArtifacts] = {}
    _WRITE_BACK.pending = pending
    try:
        yield
    finally:
        _WRITE_BACK.pending = None
        for (disk, key), arts in pending.items():
            disk.store(key, arts.snapshot())


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of a :class:`ScheduleCache`."""

    hits: int
    misses: int
    entries: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ScheduleCache:
    """Bounded LRU of :class:`ScheduleArtifacts`, keyed on builder inputs.

    ``disk`` layers a persistent tier beneath the LRU: memory misses
    consult it before building, built entries write through to it as
    their derived forms materialize, or once per :func:`write_back`
    scope. ``disk=None`` runs memory-only.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        *,
        disk: DiskScheduleCache | None = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.disk = disk
        self._entries: OrderedDict[tuple, ScheduleArtifacts] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    @staticmethod
    def key(
        scheme: str, depth: int, num_micro_batches: int, options: dict
    ) -> tuple | None:
        """Cache key for one builder invocation, or None if unhashable.

        A ``passes`` option is replaced by its resolved pipeline
        *signature* (:func:`repro.schedules.passes.pipeline_signature`) —
        the stable identity the pass manager guarantees — so every
        spelling of one pipeline maps to one entry, and an empty
        pipeline keys the no-options entry. A spec that does not resolve
        (an unknown pass name, an item that is not a spec string) makes
        the invocation uncacheable: the build itself raises the real
        error. A builder option passed at its declared default (same type,
        equal value) is dropped, so it shares the no-options entry.

        Cost-parameterized schemes (``synthesize``) extend the key with
        their registered ``builder_fingerprint``: the fingerprint
        canonicalizes every builder option (defaults filled in), so it
        *replaces* the raw builder options in the key — two different
        cost models or budgets can never alias one entry, while an
        explicit-default caller shares the no-options caller's entry.
        The fingerprint is appended as a fifth element, so classic
        schemes keep their existing 4-tuple keys (and therefore their
        existing disk-tier content addresses). A fingerprint hook that
        raises makes the invocation uncacheable; the build itself then
        raises the authoritative error.
        """
        try:
            fingerprint = builder_fingerprint(scheme, options)
            normalized = {}
            for k, v in options.items():
                if k == "passes":
                    sig = pipeline_signature(v)  # stable, hashable
                    if not sig:
                        continue
                    v = sig
                elif fingerprint is not None:
                    continue  # builder option: the fingerprint covers it
                elif is_builder_default(scheme, k, v):
                    continue  # builds what leaving it out builds
                normalized[k] = v
            items = tuple(sorted(normalized.items()))
            hash((items, fingerprint))
        except (TypeError, ReproError):
            return None
        if fingerprint is None:
            return (scheme, depth, num_micro_batches, items)
        return (scheme, depth, num_micro_batches, items, fingerprint)

    def artifacts(
        self, scheme: str, depth: int, num_micro_batches: int, **options: object
    ) -> ScheduleArtifacts:
        """The cached artifacts for one builder invocation (LRU-updated).

        A miss loads or builds with the cyclic collector paused (see
        :meth:`ScheduleArtifacts._memo`).
        """
        key = self.key(scheme, depth, num_micro_batches, options)
        if key is None:  # unhashable options: build fresh, don't retain
            with collector_paused():
                return ScheduleArtifacts(
                    build_schedule(scheme, depth, num_micro_batches, **options)
                )
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return entry
            self._misses += 1
        # Build (or load from disk) outside the lock: builders can take
        # seconds at depth 32, and a concurrent duplicate is harmless
        # (first insert wins).
        with collector_paused():
            entry = self._load_or_build(key, scheme, depth, num_micro_batches, options)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def _load_or_build(
        self,
        key: tuple,
        scheme: str,
        depth: int,
        num_micro_batches: int,
        options: dict,
    ) -> ScheduleArtifacts:
        """Disk-tier lookup, falling back to a fresh build.

        The entry's writes go through at once, or, inside the thread's
        :func:`write_back` scope, are recorded under ``key`` and stored
        once at the scope's exit. An entry made while the disk tier is
        absent or disabled never writes, so it neither pickles snapshots
        nor compiles its memory profile ahead of use.
        """

        def rebuild() -> Schedule:
            return self._build(scheme, depth, num_micro_batches, options)

        disk = self.disk
        if disk is None or not disk.enabled:
            return ScheduleArtifacts(rebuild())

        def persist(arts: ScheduleArtifacts) -> None:
            pending = getattr(_WRITE_BACK, "pending", None)
            if pending is None:
                disk.store(key, arts.snapshot())
            else:
                pending[disk, key] = arts

        payload = disk.load(key)
        if payload is not None:
            try:
                return ScheduleArtifacts.from_snapshot(
                    payload, persist=persist, rebuild=rebuild
                )
            except (KeyError, TypeError, AttributeError, ReproError):
                pass  # malformed payload: rebuild below
        entry = ScheduleArtifacts(rebuild(), persist=persist)
        # The first write carries the profile, so a restarted process
        # never walks this schedule for memory again.
        try:
            entry.memory_profile()
        except ReproError:
            pass  # raised again when the profile is asked for
        persist(entry)
        return entry

    def _build(
        self, scheme: str, depth: int, num_micro_batches: int, options: dict
    ) -> Schedule:
        """The schedule of one cacheable builder invocation: the builder
        and its default passes, or, for a pass variant, only its extra
        passes over its base entry's schedule (looked up here, so a grid
        point's builder runs once however many variants it has)."""
        if not pipeline_signature(options.get("passes")):
            return build_schedule(scheme, depth, num_micro_batches, **options)
        builder_options = dict(options)
        passes = builder_options.pop("passes")
        base = self.artifacts(scheme, depth, num_micro_batches, **builder_options)
        return run_passes(base.schedule, passes)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def stats(self) -> CacheStats:
        """Current hit/miss/entry counters."""
        with self._lock:
            return CacheStats(self._hits, self._misses, len(self._entries))


#: The process-wide default cache used by the memoized entry points below
#: (and, through them, by the experiment harness, the planner, the serve
#: layer, and the benchmark suite). Its disk tier resolves its directory
#: lazily from ``REPRO_CACHE_DIR`` (default ``~/.cache/repro``) and can be
#: disabled with ``REPRO_CACHE_DISABLE=1``.
SCHEDULE_CACHE = ScheduleCache(disk=DiskScheduleCache())


def schedule_artifacts(
    scheme: str, depth: int, num_micro_batches: int, **options: object
) -> ScheduleArtifacts:
    """Memoized schedule + derived forms for one builder invocation."""
    return SCHEDULE_CACHE.artifacts(scheme, depth, num_micro_batches, **options)


def cached_build_schedule(
    scheme: str, depth: int, num_micro_batches: int, **options: object
) -> Schedule:
    """Drop-in memoized :func:`repro.schedules.registry.build_schedule`."""
    return schedule_artifacts(scheme, depth, num_micro_batches, **options).schedule


def clear_schedule_cache(*, disk: bool = False) -> int:
    """Reset the process-wide cache (tests, long-lived services).

    ``disk=True`` also deletes the persistent tier's entries; returns how
    many disk files were removed (0 for a memory-only clear).
    """
    SCHEDULE_CACHE.clear()
    if disk and SCHEDULE_CACHE.disk is not None:
        return SCHEDULE_CACHE.disk.clear()
    return 0


def schedule_cache_stats() -> CacheStats:
    """Counters of the process-wide cache."""
    return SCHEDULE_CACHE.stats()


def disk_cache_stats() -> DiskCacheStats | None:
    """Counters/footprint of the process-wide disk tier (None if absent)."""
    if SCHEDULE_CACHE.disk is None:
        return None
    return SCHEDULE_CACHE.disk.stats()
