"""Persistent on-disk tier of the schedule-artifact cache.

The in-memory :class:`~repro.schedules.cache.ScheduleCache` dies with the
process, so every fresh ``repro plan`` / ``repro serve`` start used to pay
the full schedule -> graph -> lowered -> kernel construction chain again —
seconds per cell at depth 32, against ~20 ms to deserialize the same
artifacts. This module is the layer beneath the LRU: a content-addressed
store of pickled :class:`~repro.schedules.cache.ScheduleArtifacts`
snapshots under ``~/.cache/repro/`` (overridable via ``REPRO_CACHE_DIR``),
keyed on exactly the in-memory cache key — ``(scheme, D, N, options)``
with the ``passes`` option already normalized to its stable pipeline
signature — so two processes that would share an LRU entry share a disk
entry, and a restarted process goes straight to warm-cache speed.

Format and corruption tolerance
-------------------------------
Each entry is one file named by the SHA-256 of its key (two-level fan-out
directories keep listings fast). The payload is a pickle of a *versioned
wrapper*: ``{"format": FORMAT_VERSION, "library": repro.__version__,
"key": key, "forms_sha256": ..., "artifacts": {...}}``. A load only succeeds when the magic
prefix, format version, library version, stored key and the forms
blob's digest all match; any mismatch — or any exception while unpickling, including truncated or
bit-flipped files — **evicts the entry and returns a miss**. A bad disk
entry can cost a rebuild, never a crash or a wrong plan.

Writes are atomic (temp file + ``os.replace``) and best-effort: an
unwritable or full cache directory degrades to the in-memory behaviour
instead of failing the caller. Set ``REPRO_CACHE_DISABLE=1`` to turn the
tier off entirely (every lookup misses, nothing is written).

Each payload holds three things: ``forms``, one pickled blob of every
*materialized* schedule form (the implicit schedule and, once derived,
the lowered and fused ones); ``kernels``, the array kernel of each form
that has one; and ``memory_profile``, the schedule's compiled
:class:`~repro.sim.memory.MemoryProfile`. So a warm process skips
``build_schedule``, the passes, graph construction, kernel construction
and the memory walk. The blob stores each form's op table
(:meth:`~repro.schedules.ir.Schedule.op_table`) in narrow integer
columns, not pickled ``Operation`` objects, and an op an earlier form
holds (every implicit op the lowered form keeps, every op the fused
form keeps) as a reference to it, so shared ops are stored once and
come back as one object. The blob is decoded only when something asks
for a schedule form (:class:`~repro.schedules.cache.ScheduleArtifacts`
restores it lazily): synchronous planning ranks from kernels and
profiles alone. Because the blob is opaque bytes until then, the
wrapper records its SHA-256 (``forms_sha256``) and
:meth:`DiskScheduleCache.load` checks it, so bit rot inside the blob
still evicts at load time. A blob that passes its digest but fails to
decode when first used (say, a pickled class was moved) makes the entry
rebuild its schedule from the builder inputs and overwrite the stored
entry. Dict dependency graphs are never stored. On the end-to-end
benchmark's ``plan_cold`` stream (seed 1) this stores 32.9 MB in 372
writes and leaves 206 entries (30.8 MB): 2.9 MB of forms blobs (8.6 MB
of pickled ops in format 5), 26.1 MB of kernels and 1.8 MB of profiles.
The payload bytes do not depend on call order (see
:meth:`repro.sim.kernel.ScheduleKernel.__getstate__`).
Frozen schedule metadata (:class:`types.MappingProxyType`) pickles
through a custom dispatch-table entry and is re-frozen on load.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import os
import pathlib
import pickle
import threading
from dataclasses import dataclass
from types import MappingProxyType

#: Bumped whenever the serialized layout or the pickled classes change
#: incompatibly. Part of the content address, so old-format entries are
#: simply never found (and are swept by ``clear``), not misread.
#: v2: host-memory tier — kernels carry per-op host-channel direction
#: tables (``send_host_dir``) and schedules may contain OFFLOAD/RELOAD.
#: v3: payloads store array kernels (``kernels``) instead of dict
#: dependency graphs. Any change to the attributes of
#: :class:`~repro.sim.kernel.ScheduleKernel` needs a bump too (a test in
#: ``tests/test_diskcache.py`` pins the pair).
#: v4: kernels built from the graph's tables drop the unread
#: ``send_cls``, ``send_ids``, ``_edge_cls_list`` and ``_edge_send_list``.
#: v5: the schedule forms are one pickled blob (``forms``, checked by
#: ``forms_sha256``), the payload carries the memory profile, and
#: kernels drop ``ops_flat`` and record ``num_stages`` and
#: ``num_micro_batches``. A stored profile is priced as stored, so any
#: change to :class:`~repro.sim.memory.MemoryProfile`'s fields, its
#: event tables or value codes, or to what
#: :func:`~repro.sim.memory.compile_memory_profile` emits needs a bump
#: too (another test in ``tests/test_diskcache.py`` pins that pair).
#: v6: the forms blob stores op tables instead of pickled ``Operation``
#: lists: ``{form: {"schedule": the other Schedule fields, "rows": row
#: lengths, "shared": per op, its index among the earlier forms' ops
#: (their rows in turn) or -1, "ops": the op-table columns of the -1
#: rows}}``, every integer column in the narrowest dtype that holds it.
#: Fused forms thus re-encode their batched SEND micro-batches as CSR
#: columns (``mb_ptr``, ``mb``).
#: v7: kernels make their shape representatives from op-table rows
#: (:meth:`~repro.schedules.ir.OpTable.operations`), so equal
#: micro-batch and part tuples are one object and pickle once.
FORMAT_VERSION = 7

#: First bytes of every entry file; a cheap pre-pickle sanity check that
#: rejects foreign files dropped into the cache directory.
MAGIC = b"repro-artifact-cache\n"

ENV_DIR = "REPRO_CACHE_DIR"
ENV_DISABLE = "REPRO_CACHE_DISABLE"


def default_cache_dir() -> pathlib.Path:
    """The resolved cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.

    Resolved lazily on every access, so tests (and services) can redirect
    the tier by setting the environment variable at any point — there is
    no import-time snapshot to invalidate.
    """
    env = os.environ.get(ENV_DIR, "").strip()
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path("~/.cache/repro").expanduser()


def disk_cache_enabled() -> bool:
    """False when ``REPRO_CACHE_DISABLE`` is set to a truthy value."""
    return os.environ.get(ENV_DISABLE, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def _library_version() -> str:
    from repro import __version__

    return __version__


def _rebuild_proxy(mapping: dict) -> MappingProxyType:
    """Reconstructor for pickled read-only schedule metadata."""
    return MappingProxyType(mapping)


class _ArtifactPickler(pickle.Pickler):
    """Pickler for artifact payloads: re-freezes schedule metadata."""

    dispatch_table = copyreg.dispatch_table.copy()
    dispatch_table[MappingProxyType] = lambda mp: (_rebuild_proxy, (dict(mp),))


def dumps(obj: object) -> bytes:
    """``obj`` pickled the way payloads are (frozen metadata included);
    ``pickle.loads`` reverses it."""
    buf = io.BytesIO()
    _ArtifactPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


@dataclass(frozen=True)
class DiskCacheStats:
    """Counters and on-disk footprint of one :class:`DiskScheduleCache`.

    ``hits``/``misses``/``stores``/``evictions`` are per-process counters
    (reset on restart); ``entries``/``total_bytes`` are measured from the
    directory, so they reflect every process sharing the cache root.
    """

    hits: int
    misses: int
    stores: int
    evictions: int
    entries: int
    total_bytes: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DiskScheduleCache:
    """Content-addressed pickle store for schedule artifacts.

    ``root=None`` (the default, used by the process-wide cache) re-resolves
    :func:`default_cache_dir` on every operation; an explicit root pins the
    directory regardless of the environment.
    """

    def __init__(self, root: str | os.PathLike | None = None):
        self._root = pathlib.Path(root) if root is not None else None
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0

    @property
    def root(self) -> pathlib.Path:
        return self._root if self._root is not None else default_cache_dir()

    @property
    def enabled(self) -> bool:
        return disk_cache_enabled()

    def _entries_dir(self) -> pathlib.Path:
        return self.root / "schedules"

    def entry_path(self, key: tuple) -> pathlib.Path:
        """Content address of one cache key (stable across processes)."""
        digest = hashlib.sha256(
            repr((FORMAT_VERSION, _library_version(), key)).encode()
        ).hexdigest()
        return self._entries_dir() / digest[:2] / f"{digest}.pkl"

    # ------------------------------------------------------------------ io
    def load(self, key: tuple) -> dict | None:
        """The stored artifact payload for ``key``, or None on a miss.

        Corrupt, truncated, foreign, stale-format, or colliding entries
        are deleted (counted as evictions) and reported as misses.
        """
        if not self.enabled:
            return None
        path = self.entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            with self._lock:
                self._misses += 1
            return None
        try:
            if not blob.startswith(MAGIC):
                raise ValueError("bad magic")
            wrapper = pickle.loads(blob[len(MAGIC) :])
            if (
                wrapper["format"] != FORMAT_VERSION
                or wrapper["library"] != _library_version()
                or wrapper["key"] != key
            ):
                raise ValueError("stale or mismatched entry")
            payload = wrapper["artifacts"]
            forms = payload["forms"]
            if hashlib.sha256(forms).hexdigest() != wrapper["forms_sha256"]:
                raise ValueError("forms blob does not match its digest")
        except Exception:
            # Never let a bad disk entry crash a plan: evict and rebuild.
            self._evict(path)
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            self._hits += 1
        return payload

    def store(self, key: tuple, artifacts: dict) -> bool:
        """Atomically persist ``artifacts`` under ``key`` (best-effort).

        ``artifacts`` is a :meth:`~repro.schedules.cache.ScheduleArtifacts.snapshot`
        payload; the wrapper records the digest of its ``forms`` blob.

        Returns False without raising when the tier is disabled or the
        directory is unwritable — disk caching is an accelerator, not a
        dependency.
        """
        if not self.enabled:
            return False
        path = self.entry_path(key)
        wrapper = {
            "format": FORMAT_VERSION,
            "library": _library_version(),
            "key": key,
            "forms_sha256": hashlib.sha256(artifacts["forms"]).hexdigest(),
            "artifacts": artifacts,
        }
        data = MAGIC + dumps(wrapper)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        with self._lock:
            self._stores += 1
        return True

    def _evict(self, path: pathlib.Path) -> None:
        # Several processes share one cache directory and may race to
        # evict the same corrupt entry; only the unlink that actually
        # removed the file counts the eviction (missing_ok=True here
        # double-counted — N hammering processes each claimed the single
        # removal).
        try:
            path.unlink()
        except FileNotFoundError:
            return
        except OSError:
            return
        with self._lock:
            self._evictions += 1

    # --------------------------------------------------------------- admin
    def _entry_files(self, pattern: str = "*/*.pkl") -> list[pathlib.Path]:
        root = self._entries_dir()
        if not root.is_dir():
            return []
        return [p for p in root.glob(pattern) if p.is_file()]

    def clear(self) -> int:
        """Delete every entry, and every temp file a store killed before
        its ``os.replace`` left behind; returns how many entries were
        removed."""
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        for path in self._entry_files("*/*.pkl.*.tmp"):
            try:
                path.unlink()
            except OSError:
                continue
        with self._lock:
            self._hits = self._misses = self._stores = self._evictions = 0
        return removed

    def stats(self) -> DiskCacheStats:
        files = self._entry_files()
        total = 0
        for path in files:
            try:
                total += path.stat().st_size
            except OSError:
                continue
        with self._lock:
            return DiskCacheStats(
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                entries=len(files),
                total_bytes=total,
            )
