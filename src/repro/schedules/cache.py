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
form) materialize lazily. What stays resident is schedules and kernels:
once a form's kernel exists the entry releases its dict dependency
graphs, which the disk tier keeps (see below). The cache is a bounded
LRU keyed on ``(scheme, depth, num_micro_batches, sorted(options))`` —
the options map covers chunking/variant knobs such as ``recompute``,
Chimera's ``concat`` and ``num_down_pipelines``, and the zero-bubble
``max_in_flight``. A ``passes`` option (extra pipeline stages, see
:mod:`repro.schedules.passes`) is normalized to the pipeline's stable
*signature* before entering the key, so equivalent spec spellings — a
comma string, a list, pre-built pass objects — share one entry, and two
processes derive identical keys for identical pipelines.

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
building, and every derived schedule and dependency graph is written
through as it materializes, so a restarted process (a fresh ``repro
plan``, a redeployed ``repro serve``) skips schedule builds, passes and
graph construction. Graphs are stored without the engine's dense form and
the array kernel: a process rebuilds each kernel once, on first use, and
then drops the graphs; a later write-through copies the released graphs
over from the stored payload, so the disk tier never loses a slot. The
disk key is exactly the LRU key, the format is versioned, and corrupt
entries are evicted on load, never propagated.

Builds and disk loads run with CPython's cyclic collector paused
(:mod:`repro.common.gcpause`): the artifacts are immutable and acyclic,
so there is nothing for a mid-build collection to reclaim, and each full
collection would rescan every artifact already cached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Sequence

from repro.common.errors import ReproError
from repro.common.gcpause import collector_paused
from repro.schedules.dependencies import DependencyGraph, build_dependency_graph
from repro.schedules.diskcache import DiskCacheStats, DiskScheduleCache
from repro.schedules.ir import Schedule
from repro.schedules.lowering import lower_schedule
from repro.schedules.passes import FuseCommPass, pipeline_signature
from repro.schedules.passes.pipeline import FUSE_PASS, split_pipeline
from repro.schedules.registry import build_schedule, builder_fingerprint

#: Default bound on retained entries (LRU eviction beyond it). A cached
#: entry holds its schedule forms plus their kernels (or, until a kernel
#: exists, dict graphs); bounding the count keeps long planner sessions
#: from accumulating every grid point ever touched.
DEFAULT_MAX_ENTRIES = 128


def _freeze(schedule: Schedule) -> Schedule:
    """Return ``schedule`` with a read-only metadata mapping."""
    if isinstance(schedule.metadata, MappingProxyType):
        return schedule
    return replace(schedule, metadata=MappingProxyType(dict(schedule.metadata)))


class ScheduleArtifacts:
    """One cache entry: a schedule plus its lazily derived forms.

    Each derived form is built at most once per entry while it is held;
    accessors are idempotent and safe under concurrent use (a rare race
    builds a duplicate which is immediately discarded in favour of the
    first).

    The resident simulation form is the array kernel: once
    :meth:`kernel_for` has built a kernel, the entry drops its dict
    dependency graphs (:attr:`released` names them). The disk tier keeps
    storing them, and :meth:`graph_for` rebuilds one on demand.
    """

    __slots__ = (
        "schedule",
        "_graph",
        "_lowered",
        "_lowered_graph",
        "_fused",
        "_fused_graph",
        "_kernels",
        "released",
        "_lock",
        "_persist",
    )

    #: Serialized artifact slots, in materialization order. ``snapshot``
    #: and ``from_snapshot`` iterate this list, so the disk payload layout
    #: has one source of truth.
    _SLOTS = (
        ("graph", "_graph"),
        ("lowered", "_lowered"),
        ("lowered_graph", "_lowered_graph"),
        ("fused", "_fused"),
        ("fused_graph", "_fused_graph"),
    )

    #: The dict-graph slots :meth:`kernel_for` releases.
    _GRAPH_SLOTS = ("graph", "lowered_graph", "fused_graph")

    def __init__(
        self,
        schedule: Schedule,
        persist: "Callable[[ScheduleArtifacts], None] | None" = None,
    ):
        self.schedule = _freeze(schedule)
        self._graph: DependencyGraph | None = None
        self._lowered: Schedule | None = None
        self._lowered_graph: DependencyGraph | None = None
        self._fused: Schedule | None = None
        self._fused_graph: DependencyGraph | None = None
        #: Graph accessor name -> memoized kernel of that form.
        self._kernels: dict[str, object] = {}
        #: Snapshot slot names of the graphs dropped for their kernels.
        self.released: frozenset[str] = frozenset()
        self._lock = threading.Lock()
        self._persist = persist

    def snapshot(self) -> dict:
        """Every form the entry holds, keyed by slot name (disk payload;
        released graphs are not held)."""
        out: dict = {"schedule": self.schedule}
        with self._lock:
            for name, attr in self._SLOTS:
                value = getattr(self, attr)
                if value is not None:
                    out[name] = value
        return out

    @classmethod
    def from_snapshot(
        cls,
        payload: dict,
        persist: "Callable[[ScheduleArtifacts], None] | None" = None,
    ) -> "ScheduleArtifacts":
        """Rehydrate an entry from a disk payload (missing slots stay lazy)."""
        arts = cls(payload["schedule"], persist=persist)
        for name, attr in cls._SLOTS:
            value = payload.get(name)
            if value is not None:
                setattr(arts, attr, value)
        return arts

    def _derive(self, attr: str, build: Callable[[], object], persist: bool):
        """Slot ``attr``, built on first use (first insert wins).

        ``persist`` writes the entry through to the disk tier once the
        slot is set. The build and the write-through run with the cyclic
        collector paused: they allocate only immutable, acyclic
        structures, so a collection triggered mid-build could only rescan
        the artifacts already cached.
        """
        value = getattr(self, attr)
        if value is None:
            with collector_paused():
                built = build()
                with self._lock:
                    value = getattr(self, attr)
                    if value is None:
                        value = built
                        setattr(self, attr, built)
                if persist and self._persist is not None:
                    self._persist(self)
        return value

    def graph(self) -> DependencyGraph:
        """Dependency graph of the (implicit-communication) schedule."""
        return self._derive(
            "_graph", lambda: build_dependency_graph(self.schedule), persist=True
        )

    def lowered(self) -> Schedule:
        """The schedule with explicit SEND/RECV communication ops."""
        return self._derive(
            "_lowered",
            lambda: _freeze(lower_schedule(self.schedule, graph=self.graph())),
            persist=False,
        )

    def lowered_graph(self) -> DependencyGraph:
        """Dependency graph of the lowered schedule."""
        return self._derive(
            "_lowered_graph",
            lambda: build_dependency_graph(self.lowered()),
            persist=True,
        )

    def fused(self) -> Schedule:
        """The lowered schedule with SEND/RECV pairs batched (fuse_comm)."""
        return self._derive(
            "_fused",
            lambda: _freeze(FuseCommPass().run(self.lowered())),
            persist=False,
        )

    def fused_graph(self) -> DependencyGraph:
        """Dependency graph of the fused schedule."""
        return self._derive(
            "_fused_graph",
            lambda: build_dependency_graph(self.fused()),
            persist=True,
        )

    def schedule_for(self, pipeline: Sequence[str] = ()) -> Schedule:
        """The implicit, lowered, or fused schedule ``pipeline`` runs on.

        Only the pipeline's ``lower_p2p``/``fuse_comm`` tail selects the
        form; its pre-lowering passes are part of this entry's key.
        """
        tail = split_pipeline(pipeline).tail
        if FUSE_PASS in tail:
            return self.fused()
        return self.lowered() if tail else self.schedule

    @staticmethod
    def _graph_slot(pipeline: Sequence[str]) -> str:
        """Name of the graph accessor (and snapshot slot) of a form."""
        tail = split_pipeline(pipeline).tail
        if FUSE_PASS in tail:
            return "fused_graph"
        return "lowered_graph" if tail else "graph"

    def graph_for(self, pipeline: Sequence[str] = ()) -> DependencyGraph:
        """The dependency graph of :meth:`schedule_for`'s form (rebuilt
        if :meth:`kernel_for` released it)."""
        return getattr(self, self._graph_slot(pipeline))()

    def kernel_for(self, pipeline: Sequence[str] = ()):
        """The array kernel of :meth:`schedule_for`'s form (levelization,
        edge, FIFO tables), built once per entry and process.

        Planner ranking, the harness and the bench suite reuse the same
        arrays across every cost model they evaluate. The kernel holds
        everything simulation reads, so once it exists the entry releases
        its dict graphs: they were written through to the disk tier when
        they materialized, and the disk tier stores graphs without their
        kernel. Imported lazily to keep the schedule layer importable
        without the simulation stack.
        """
        from repro.sim.kernel import kernel_of

        slot = self._graph_slot(pipeline)
        kernel = self._kernels.get(slot)
        if kernel is not None:
            return kernel_of(kernel)  # every kernel lookup passes kernel_of
        kernel = kernel_of(getattr(self, slot)())
        with self._lock:
            kernel = self._kernels.setdefault(slot, kernel)
            held = {
                name
                for name in self._GRAPH_SLOTS
                if getattr(self, f"_{name}") is not None
            }
            for name in held:
                setattr(self, f"_{name}", None)
            self.released |= held
        return kernel


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
    their derived forms materialize. ``disk=None`` runs memory-only.
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

        ``recompute=False`` is normalized away: it is every builder's
        default, so an explicit-False caller and a no-options caller must
        share one entry instead of building the same schedule twice. A
        ``passes`` option is replaced by its resolved pipeline
        *signature* (:func:`repro.schedules.passes.pipeline_signature`) —
        the stable identity the pass manager guarantees — so every
        spelling of one pipeline maps to one entry. Unknown pass names
        make the spec unhashable-equivalent (no retention): the build
        itself will raise the real error.

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
                if k == "recompute":
                    if v is False:
                        continue
                elif k == "passes":
                    sig = pipeline_signature(v)  # stable, hashable
                    if not sig:
                        continue
                    v = sig
                elif fingerprint is not None:
                    continue  # builder option: the fingerprint covers it
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
        :meth:`ScheduleArtifacts._derive`).
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
        """Disk-tier lookup, falling back to a fresh build (write-through)."""
        persist = None
        if self.disk is not None:
            disk = self.disk

            def persist(arts: ScheduleArtifacts, _key=key) -> None:
                payload = arts.snapshot()
                # Graphs released for their kernels are on disk already;
                # carry them over instead of dropping them from the payload.
                missing = arts.released - payload.keys()
                if missing:
                    stored = disk.load(_key) or {}
                    payload.update((n, stored[n]) for n in missing if n in stored)
                disk.store(_key, payload)

            payload = disk.load(key)
            if payload is not None:
                try:
                    return ScheduleArtifacts.from_snapshot(payload, persist=persist)
                except (KeyError, TypeError, AttributeError, ReproError):
                    pass  # malformed payload: rebuild below
        entry = ScheduleArtifacts(
            build_schedule(scheme, depth, num_micro_batches, **options),
            persist=persist,
        )
        if persist is not None:
            persist(entry)
        return entry

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
