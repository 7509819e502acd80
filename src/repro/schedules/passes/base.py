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
from typing import Callable, Iterable, Sequence

from repro.common.errors import ConfigurationError, ScheduleError
from repro.schedules.ir import OpKind, Schedule

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
        """Stable identity string: ``name`` or ``name:k=v,...``.

        Depends only on the pass's configuration, never on runtime state,
        so it is safe inside cache keys.
        """
        params = self.params()
        if not params:
            return self.name
        opts = ",".join(f"{k}={v}" for k, v in sorted(params))
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
    ``metadata["passes"]`` so any schedule self-describes how it was
    produced.
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
            applied = tuple(current.metadata.get("passes", ())) + self.signature()
            current = current.with_metadata(passes=applied)
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
        #: Pipeline specs already validated against this registry, keyed
        #: by the spec as given (see
        #: :func:`~repro.schedules.passes.pipeline.normalize_pipeline`).
        #: :meth:`register` clears it: a new factory can change which
        #: specs are valid.
        self.normalized_specs: dict[object, tuple[str, ...]] = {}

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
        """Instantiate one pass from its spec string."""
        name, _, rest = spec.strip().partition(":")
        factory = self._factories.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown schedule pass {name!r}; available: "
                f"{list(self.available())}"
            )
        args = [a for a in rest.split(":") if a] if rest else []
        try:
            return factory(*args)
        except TypeError:
            raise ConfigurationError(
                f"bad arguments for pass {name!r} in spec {spec!r}"
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
