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
kernel exists and rebuilt on demand. The cache is a bounded
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
building, a built schedule is written through at once (with its memory
profile), and every array kernel is written through as it is built, so
a restarted process (a fresh ``repro plan``, a redeployed ``repro
serve``) skips schedule builds, passes, graph construction, kernel
construction and the memory walk. The disk tier stores no dict graph:
each payload holds one pickled blob of the schedule forms, a
``kernels`` map keyed by form and the
:class:`~repro.sim.memory.MemoryProfile`. A restored entry keeps the
blob as bytes until a schedule form is asked for, so synchronous
planning, which reads only kernels and profiles, unpickles no
schedule form. A stored kernel that is not a
:class:`~repro.sim.kernel.ScheduleKernel` is dropped on load, so that
form's kernel rebuilds from its schedule. The disk key is exactly the
LRU key, the format is versioned, and corrupt entries are evicted on
load, never propagated; a forms blob that fails to unpickle when first
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
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Sequence

from repro.common.errors import ReproError
from repro.common.gcpause import collector_paused
from repro.schedules.dependencies import DependencyGraph, build_dependency_graph
from repro.schedules.diskcache import DiskCacheStats, DiskScheduleCache, dumps
from repro.schedules.ir import Schedule
from repro.schedules.lowering import lower_schedule
from repro.schedules.passes import FuseCommPass, pipeline_signature
from repro.schedules.passes.pipeline import FUSE_PASS, split_pipeline
from repro.schedules.registry import build_schedule, builder_fingerprint

#: Default bound on retained entries (LRU eviction beyond it). A cached
#: entry holds its schedule forms plus their kernels (and, until a
#: kernel exists, the dict graphs it is built from); bounding the count
#: keeps long planner sessions from accumulating every grid point ever
#: touched.
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

    The resident and persisted forms are the schedule forms, the array
    kernels and the memory profile (:meth:`memory_profile`). Dependency
    graphs are transient: lowering and kernel construction read them
    (lowering returns the lowered graph with the lowered schedule, so a
    lowered entry builds one graph, not two), :meth:`kernel_for` drops
    them once its kernel exists, and :meth:`graph_for` rebuilds one on
    demand. The disk payload (:meth:`snapshot`) is one pickled blob of
    the schedule forms, the kernels keyed by form, and the profile;
    building a kernel writes the entry through. An entry restored from
    disk (:meth:`from_snapshot`) keeps the blob as bytes and unpickles
    it on the first use of a schedule form, so ranking from kernels and
    profiles unpickles no schedule form.
    """

    __slots__ = (
        "_forms",
        "_blob",
        "_graph",
        "_lowered_graph",
        "_fused_graph",
        "_kernels",
        "_memory_profile",
        "_lock",
        "_persist",
        "_rebuild",
    )

    #: Schedule form -> the accessor of its dependency graph. The form
    #: names are also the keys of the pickled forms blob and of the
    #: payload's ``kernels`` map.
    _FORMS = {"schedule": "graph", "lowered": "lowered_graph", "fused": "fused_graph"}

    def __init__(
        self,
        schedule: Schedule | None,
        persist: "Callable[[ScheduleArtifacts], None] | None" = None,
        rebuild: Callable[[], Schedule] | None = None,
    ):
        #: Form name -> schedule; None while a restored entry holds only
        #: the pickled ``_blob`` of its forms.
        self._forms: dict[str, Schedule] | None = (
            {"schedule": _freeze(schedule)} if schedule is not None else None
        )
        self._blob: bytes | None = None
        self._graph: DependencyGraph | None = None
        self._lowered_graph: DependencyGraph | None = None
        self._fused_graph: DependencyGraph | None = None
        #: Form name -> memoized kernel of that form.
        self._kernels: dict[str, object] = {}
        self._memory_profile = None
        self._lock = threading.Lock()
        self._persist = persist
        #: Builds the implicit schedule again when a restored blob does
        #: not unpickle.
        self._rebuild = rebuild

    def snapshot(self) -> dict:
        """The disk payload: ``forms``, one pickle of every schedule form
        the entry holds (keyed by form name, so ops the forms share are
        stored once), plus ``memory_profile`` once compiled and
        ``kernels`` (form name -> kernel) once any exist. A restored
        entry whose forms were never unpickled reuses its blob. Kernels
        are sorted by form, so the layout does not depend on the order
        they were built in."""
        with self._lock:
            blob = self._blob
            forms = dict(self._forms) if blob is None else None
            profile = self._memory_profile
            kernels = dict(sorted(self._kernels.items()))
        if blob is None:
            blob = dumps({name: forms[name] for name in self._FORMS if name in forms})
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

        The forms blob stays pickled until a schedule form is asked for;
        if it then fails to unpickle (say, a pickled class moved),
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
        restored entry unpickles its blob here, all forms at once (or
        rebuilds its schedule when the blob does not unpickle)."""
        forms = self._forms
        if forms is None:
            repaired = False
            with self._lock, collector_paused():
                if self._forms is None:
                    try:
                        forms = pickle.loads(self._blob)
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

    def _add_form(self, name: str, schedule: Schedule) -> Schedule:
        """Keep ``schedule`` as form ``name`` (first insert wins)."""
        with self._lock:
            return self._forms.setdefault(name, schedule)

    @property
    def schedule(self) -> Schedule:
        """The (implicit-communication) schedule."""
        return self._held_forms()["schedule"]

    def _derive(self, attr: str, build: Callable[[], object]):
        """Slot ``attr``, built on first use (first insert wins).

        The build runs with the cyclic collector paused: it allocates only
        immutable, acyclic structures, so a collection triggered mid-build
        could only rescan the artifacts already cached.
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
        return value

    def graph(self) -> DependencyGraph:
        """Dependency graph of the (implicit-communication) schedule."""
        return self._derive("_graph", lambda: build_dependency_graph(self.schedule))

    def lowered(self) -> Schedule:
        """The schedule with explicit SEND/RECV communication ops."""
        if "lowered" not in self._held_forms():
            self.lowered_graph()
        return self._forms["lowered"]

    def lowered_graph(self) -> DependencyGraph:
        """Dependency graph of the lowered schedule: the one lowering
        returns, or rebuilt from a lowered schedule the entry kept or
        restored without its graph."""
        lowered = self._held_forms().get("lowered")
        if lowered is not None:
            return self._derive(
                "_lowered_graph", lambda: build_dependency_graph(lowered)
            )
        graph = self._derive("_lowered_graph", self._lower)
        self._add_form("lowered", graph.schedule)
        return graph

    def _lower(self) -> DependencyGraph:
        """Lowering's graph, carrying the frozen lowered schedule."""
        graph = lower_schedule(self.schedule, graph=self.graph())
        return replace(graph, schedule=_freeze(graph.schedule))

    def fused(self) -> Schedule:
        """The lowered schedule with SEND/RECV pairs batched (fuse_comm)."""
        fused = self._held_forms().get("fused")
        if fused is None:
            with collector_paused():
                built = _freeze(FuseCommPass().run(self.lowered()))
            fused = self._add_form("fused", built)
        return fused

    def fused_graph(self) -> DependencyGraph:
        """Dependency graph of the fused schedule."""
        return self._derive(
            "_fused_graph", lambda: build_dependency_graph(self.fused())
        )

    def memory_profile(self):
        """The schedule's :class:`~repro.sim.memory.MemoryProfile`, compiled
        once per entry: every memory model the entry is analyzed under
        (one per machine, workload and micro-batch size sharing the
        schedule) prices the same profile. A built entry's first disk
        write carries it, so a restored entry does not walk its schedule
        again. Imported lazily like :meth:`kernel_for`."""
        from repro.sim.memory import compile_memory_profile

        return self._derive(
            "_memory_profile", lambda: compile_memory_profile(self.schedule)
        )

    @staticmethod
    def _form(pipeline: Sequence[str]) -> str:
        """Name of the schedule form ``pipeline`` runs on.

        Only the pipeline's ``lower_p2p``/``fuse_comm`` tail selects the
        form; its pre-lowering passes are part of the entry's key.
        """
        tail = split_pipeline(pipeline).tail
        if FUSE_PASS in tail:
            return "fused"
        return "lowered" if tail else "schedule"

    def schedule_for(self, pipeline: Sequence[str] = ()) -> Schedule:
        """The implicit, lowered, or fused schedule ``pipeline`` runs on."""
        form = self._form(pipeline)
        return self.schedule if form == "schedule" else getattr(self, form)()

    def graph_for(self, pipeline: Sequence[str] = ()) -> DependencyGraph:
        """The dependency graph of :meth:`schedule_for`'s form (rebuilt
        if :meth:`kernel_for` dropped it)."""
        return getattr(self, self._FORMS[self._form(pipeline)])()

    def kernel_for(self, pipeline: Sequence[str] = ()):
        """The array kernel of :meth:`schedule_for`'s form (levelization,
        edge, FIFO tables), built once per entry, restored from the disk
        tier when stored there.

        Planner ranking, the harness and the bench suite reuse the same
        arrays across every cost model they evaluate. The kernel holds
        everything simulation reads, so once it exists the entry drops
        its dict graphs and writes itself through to the disk tier.
        Imported lazily to keep the schedule layer importable without the
        simulation stack.
        """
        from repro.sim.kernel import kernel_of

        form = self._form(pipeline)
        kernel = self._kernels.get(form)
        if kernel is not None:
            return kernel_of(kernel)  # every kernel lookup passes kernel_of
        with collector_paused():
            built = kernel_of(self.graph_for(pipeline))
            with self._lock:
                kernel = self._kernels.setdefault(form, built)
                self._graph = self._lowered_graph = self._fused_graph = None
            if kernel is built and self._persist is not None:
                self._persist(self)
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
        """Disk-tier lookup, falling back to a fresh build (write-through).

        An entry made while the disk tier is absent or disabled never
        writes through, so it neither pickles snapshots nor compiles its
        memory profile ahead of use.
        """

        def rebuild() -> Schedule:
            return build_schedule(scheme, depth, num_micro_batches, **options)

        disk = self.disk
        if disk is None or not disk.enabled:
            return ScheduleArtifacts(rebuild())

        def persist(arts: ScheduleArtifacts) -> None:
            disk.store(key, arts.snapshot())

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
