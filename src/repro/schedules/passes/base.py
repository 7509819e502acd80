"""Pass infrastructure: :class:`SchedulePass`, pipelines, and the manager.

A *schedule pass* is a pure ``Schedule -> Schedule`` transform. Everything
that used to be a one-off mechanism — gradient-sync placement, p2p
lowering, activation recomputation — is expressed as a pass, and new
transforms (communication fusion, bubble filling) slot in beside them.
Callers name passes with a *pipeline spec* (``"recompute,lower_p2p"``,
see :func:`spec_items`) — the registry's default pipelines, the CLI's
``--pipeline`` flag and the schedule cache all speak it — and the
:class:`PassManager` turns a spec into the :class:`PassPipeline` that
runs the passes.

Ordering is validated with *facts*: each pass declares the facts the input
schedule must already have (``requires``), must not have (``forbids``),
and the facts it establishes (``provides``) or destroys
(``invalidates``). :func:`schedule_facts` derives the initial fact set
from a schedule itself, so a pipeline is checked against the actual input
— ``fuse_comm`` before ``lower_p2p`` fails loudly, as does re-lowering.

Every pass has a *signature* — a stable string including its options —
and a pipeline's signature is the tuple of its pass signatures. A pass
is built from its spec string alone, so the signature is a pure function
of the spec (never of runtime state), which is what lets
:mod:`repro.schedules.cache` key memoized artifacts on it and guarantees
two processes agree on the key.

Per-pass ``check`` hooks run after each pass when the pipeline executes
with validation on: cheap structural postconditions live here (op
conservation, comm-op bookkeeping, makespan non-regression for the
bubble filler); the full structural validator
(:mod:`repro.schedules.validate`) stays the heavyweight backstop.

Extension point: :meth:`PassManager.register` adds a new pass under a
name, after which it is usable in default pipelines, ``--pipeline`` specs,
and cache keys without touching any other layer.
"""

from __future__ import annotations

import abc
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.common.errors import ConfigurationError, ScheduleError
from repro.schedules.ir import RECV_CODE, OpKind, OpTable, Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedules.passes.pipeline import PipelineParts

#: An op's kind as its value string (hashed in C, unlike the member).
_kind_value = attrgetter("kind._value_")

# --------------------------------------------------------------------- facts
#: Gradient-synchronization ops are present.
SYNC = "sync"
#: Cross-worker communication is explicit (SEND/RECV ops).
LOWERED = "lowered"
#: SEND/RECV pairs are fused into batched transfer ops (no RECVs).
FUSED_COMM = "fused_comm"
#: Activation recomputation is in effect (flags or explicit RECOMPUTE ops).
RECOMPUTE = "recompute"
#: Activation stashes are offloaded to the host tier (OFFLOAD/RELOAD ops).
OFFLOAD = "offload"


def schedule_facts(schedule: Schedule) -> set[str]:
    """The fact set a pipeline's ordering check starts from.

    Derived from the schedule itself — metadata flags plus op inspection —
    so hand-built schedules and registry products are treated alike.
    """
    facts: set[str] = set()
    if schedule.lowered:
        facts.add(LOWERED)
    if schedule.metadata.get("fused_comm"):
        facts.add(FUSED_COMM)
    if schedule.metadata.get("recompute"):
        facts.add(RECOMPUTE)
    if schedule.metadata.get("offload"):
        facts.add(OFFLOAD)
    ops = list(chain.from_iterable(schedule.worker_ops))
    kinds = set(map(_kind_value, ops))
    flagged = any(op.is_backward for op in ops if op.recompute)
    if OpKind.ALLREDUCE.value in kinds:
        facts.add(SYNC)
    if flagged or OpKind.RECOMPUTE.value in kinds:
        facts.add(RECOMPUTE)
    if kinds & {OpKind.OFFLOAD.value, OpKind.RELOAD.value}:
        facts.add(OFFLOAD)
    return facts


def mb_entries(
    table: OpTable, *, per_worker: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One entry per micro-batch an op covers, in row order: the op's
    row, the micro-batch, and one int64 key of the op's ``(replica,
    stage)`` and the micro-batch (and of the op's worker before them
    when ``per_worker``). The table-reading passes match stashes by it."""
    row = np.repeat(np.arange(len(table.kind)), np.diff(table.mb_ptr))
    mb = table.mb.astype(np.int64)
    stages = int(table.stage.max(initial=0)) + 1
    span = int(mb.max(initial=0)) + 1
    key = (table.replica[row].astype(np.int64) * stages + table.stage[row]) * span
    key += mb
    if per_worker:
        replicas = int(table.replica.max(initial=0)) + 1
        key += table.worker[row].astype(np.int64) * (replicas * stages * span)
    return row, mb, key


def before_recvs(table: OpTable, rows: np.ndarray) -> np.ndarray:
    """For each of ``rows``, the first row of the run of ``RECV`` rows
    directly in front of it on its worker, or the row itself when there
    is none: an op inserted there precedes the row's just-in-time
    receives (if lowering already ran)."""
    ids = np.arange(len(table.kind))
    last_other = np.maximum.accumulate(np.where(table.kind != RECV_CODE, ids, -1))
    previous = np.concatenate(([-1], last_other[:-1]))
    return np.maximum(previous[rows] + 1, rows - table.pos[rows])


class SchedulePass(abc.ABC):
    """One ``Schedule -> Schedule`` transform with declared ordering facts.

    Subclasses set the class attributes and implement :meth:`run`;
    :meth:`check` is an optional postcondition hook executed by
    :meth:`PassPipeline.run` when validation is on.
    """

    #: Registry name; also the head of the signature.
    name: str = ""
    #: Facts the input schedule must already have.
    requires: frozenset[str] = frozenset()
    #: Facts the input schedule must *not* have.
    forbids: frozenset[str] = frozenset()
    #: Facts established by this pass.
    provides: frozenset[str] = frozenset()
    #: Facts destroyed by this pass.
    invalidates: frozenset[str] = frozenset()

    def params(self) -> tuple[tuple[str, object], ...]:
        """Option items folded into the signature (default: none)."""
        return ()

    def signature(self) -> str:
        """Stable identity string: ``name`` or ``name:k=v[:k2=v2...]``,
        itself a spec that :meth:`PassManager.create` accepts.

        Depends only on the pass's configuration, never on runtime state,
        so it is safe inside cache keys.
        """
        params = self.params()
        if not params:
            return self.name
        opts = ":".join(f"{k}={v}" for k, v in sorted(params))
        return f"{self.name}:{opts}"

    @abc.abstractmethod
    def run(self, schedule: Schedule) -> Schedule:
        """Apply the transform and return the new schedule."""

    def check(self, before: Schedule, after: Schedule) -> None:
        """Postcondition hook; raise :class:`ScheduleError` on violation."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.signature()}>"


class PassPipeline:
    """An ordered sequence of passes applied as one transform.

    The pipeline validates its ordering against the input schedule's
    facts before running, executes each pass (with its ``check`` hook when
    ``validate`` is on), and stamps the accumulated pass signatures into
    ``metadata["passes"]``, always the last metadata key, so any schedule
    self-describes how it was produced and a pipeline run in two parts
    leaves the same metadata as one run.
    """

    def __init__(self, passes: Sequence[SchedulePass]):
        self.passes = tuple(passes)

    def __len__(self) -> int:
        return len(self.passes)

    def __iter__(self):
        return iter(self.passes)

    def signature(self) -> tuple[str, ...]:
        """The pipeline's stable identity (cache-key component)."""
        return tuple(p.signature() for p in self.passes)

    def validate_order(self, initial_facts: Iterable[str] = ()) -> None:
        """Check requires/forbids of every pass against the running facts.

        Raises
        ------
        ScheduleError
            Naming the first mis-ordered pass and the missing/offending
            fact, e.g. ``fuse_comm requires fact 'lowered'``.
        """
        facts = set(initial_facts)
        for p in self.passes:
            missing = p.requires - facts
            if missing:
                raise ScheduleError(
                    f"pass {p.signature()!r} requires fact "
                    f"{sorted(missing)[0]!r} — run a pass providing it "
                    f"earlier in the pipeline {list(self.signature())}"
                )
            clash = p.forbids & facts
            if clash:
                raise ScheduleError(
                    f"pass {p.signature()!r} cannot run once fact "
                    f"{sorted(clash)[0]!r} holds — reorder the pipeline "
                    f"{list(self.signature())}"
                )
            facts |= p.provides
            facts -= p.invalidates

    def run(self, schedule: Schedule) -> Schedule:
        """Apply every pass in order, running each pass's check hook on its
        input and output; returns the transformed schedule."""
        self.validate_order(schedule_facts(schedule))
        current = schedule
        for p in self.passes:
            after = p.run(current)
            p.check(current, after)
            current = after
        if self.passes:
            # "passes" is always the last key, so passes run in two steps
            # leave the same metadata, in the same order, as in one.
            # A restamp keeps a table-backed schedule table-backed.
            metadata = dict(current.metadata)
            metadata["passes"] = tuple(metadata.pop("passes", ())) + self.signature()
            current = current.restamp(metadata)
        return current


class PassManager:
    """Name-based registry of pass factories plus spec parsing.

    A *spec* is a pass name with optional colon-separated arguments
    (``"insert_sync:eager"``); pipeline specs are comma-separated strings
    or sequences of specs. The process-wide default instance
    (:data:`DEFAULT_PASS_MANAGER`) is what the schedule registry, the
    cache, and the CLI use; registering a custom pass there makes it
    addressable everywhere at once.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., SchedulePass]] = {}
        #: Pipeline specs already validated against this registry: the
        #: :class:`~repro.schedules.passes.pipeline.PipelineParts` of each,
        #: keyed by the spec as given and by its canonical tuple (see
        #: :func:`~repro.schedules.passes.pipeline.split_pipeline`).
        #: :meth:`register` clears it: a new factory can change which
        #: specs are valid.
        self.normalized_specs: dict[object, PipelineParts] = {}

    def register(
        self,
        name: str,
        factory: Callable[..., SchedulePass],
        *,
        replace: bool = False,
    ) -> None:
        """Register ``factory`` (called with the spec's string args)."""
        if not replace and name in self._factories:
            raise ConfigurationError(f"pass {name!r} is already registered")
        self._factories[name] = factory
        self.normalized_specs.clear()

    def available(self) -> tuple[str, ...]:
        """Registered pass names, sorted."""
        return tuple(sorted(self._factories))

    def create(self, spec: str) -> SchedulePass:
        """Instantiate one pass from its spec string.

        A spec is the pass name, then colon-separated arguments, each a
        value (``insert_sync:eager``, passed in order) or ``name=value``
        (``offload:min_gap=3``, passed by keyword), so a pass's
        :meth:`~SchedulePass.signature` is a spec. The factory gets the
        values as strings. An argument the factory rejects raises
        :class:`~repro.common.errors.ConfigurationError` naming the spec.
        """
        name, _, rest = spec.strip().partition(":")
        factory = self._factories.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown schedule pass {name!r}; available: "
                f"{list(self.available())}"
            )
        args: list[str] = []
        kwargs: dict[str, str] = {}
        for arg in filter(None, rest.split(":")):
            key, eq, value = arg.partition("=")
            if eq:
                kwargs[key.strip()] = value.strip()
            else:
                args.append(arg)
        try:
            return factory(*args, **kwargs)
        except (TypeError, ValueError, ScheduleError) as err:
            raise ConfigurationError(
                f"bad arguments for pass {name!r} in spec {spec!r}: {err}"
            ) from None

    def pipeline(self, specs: str | Sequence[str] | None) -> PassPipeline:
        """Build a :class:`PassPipeline` from a pipeline spec."""
        return PassPipeline([self.create(s) for s in spec_items(specs)])


def spec_items(specs: str | Sequence[str] | None) -> tuple[str, ...]:
    """The pass specs of a pipeline spec, in order, blanks dropped.

    A pipeline spec is ``None``, a comma-separated string or a sequence
    of pass spec strings: the spec alone identifies the transform, which
    is what lets it key the schedule cache. Anything else — a pass
    object, a built :class:`PassPipeline` — raises
    :class:`~repro.common.errors.ConfigurationError`.
    """
    if specs is None:
        return ()
    if isinstance(specs, str):
        items = specs.split(",")
    else:
        try:
            items = list(specs)
        except TypeError:
            items = [specs]
    out = []
    for item in items:
        if not isinstance(item, str):
            raise ConfigurationError(
                f"a pipeline spec names each pass by its registered spec "
                f"(a comma-separated string such as 'recompute,lower_p2p', "
                f"or a sequence of such names), got {item!r}; a custom pass "
                f"is registered with register_pass and named in the spec"
            )
        item = item.strip()
        if item:
            out.append(item)
    return tuple(out)


#: The process-wide pass registry (see :class:`PassManager`).
DEFAULT_PASS_MANAGER = PassManager()


def register_pass(
    name: str, factory: Callable[..., SchedulePass], *, replace: bool = False
) -> None:
    """Register a pass factory on the default manager (extension hook)."""
    DEFAULT_PASS_MANAGER.register(name, factory, replace=replace)


def resolve_pipeline(specs: str | Sequence[str] | None) -> PassPipeline:
    """Parse a pipeline spec against the default manager."""
    return DEFAULT_PASS_MANAGER.pipeline(specs)


def pipeline_signature(specs: str | Sequence[str] | None) -> tuple[str, ...]:
    """The stable signature of a pipeline spec (cache-key form)."""
    return resolve_pipeline(specs).signature()
