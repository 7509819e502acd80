"""Canonical pipeline specs: one ordered list of pass names.

A **pipeline spec** is the single way to say which passes run on top of
a scheme's defaults — in :class:`~repro.bench.harness.ExperimentConfig`,
:class:`~repro.perf.planner.PlanRequest`, the trainer, the CLI and the
serve JSON schema. It is a comma-separated string (``"recompute,offload,
lower_p2p"``) or a sequence of pass specs, each resolved and validated
against the :data:`~repro.schedules.passes.base.DEFAULT_PASS_MANAGER`
registry (unknown names raise with the registered names enumerated,
mirroring unknown-scheme errors).

:func:`normalize_pipeline` produces the canonical tuple form:

* ``recompute`` is hoisted to the head — it composes with the other
  pre-lowering passes in either order, and the canonical position keys
  the schedule cache once instead of per-permutation;
* ``lower_p2p`` and ``fuse_comm`` sink to the tail in that order (they
  are structural rewrites every other pass runs before), and
  ``fuse_comm`` without ``lower_p2p`` is rejected;
* duplicate pass names are rejected.

:func:`split_pipeline` decomposes a canonical spec into the
:class:`PipelineParts` the artifact cache consumes: the pre-lowering
part, ``recompute`` included, is the ``passes`` option of
:func:`~repro.schedules.cache.schedule_artifacts` that keys a cache
entry, and the ``lower_p2p``/``fuse_comm`` tail selects its derived
form (:attr:`PipelineParts.form`). Both functions read one memo on the
pass manager, which maps each spec to its parts, so a spec the process
has seen is validated, ordered and split once.

:func:`attempt_pipelines` is the one rule for the memory-relief axes,
shared by the harness and the planner: the pipeline is the *base*, a
pass it names pins that axis on, an axis pinned ``False`` against a
named pass is a :class:`~repro.common.errors.ConfigurationError`, and a
``None`` axis is explored (plain → offload → recompute → both). Callers
split the attempts once (per request or configuration) and pass the
:class:`PipelineParts` down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.common.errors import ConfigurationError
from repro.schedules.passes.base import (
    DEFAULT_PASS_MANAGER,
    PassManager,
    spec_items,
)

#: Registered names of the passes the canonical ordering special-cases.
RECOMPUTE_PASS = "recompute"
OFFLOAD_PASS = "offload"
LOWER_PASS = "lower_p2p"
FUSE_PASS = "fuse_comm"

#: Accepted spec forms for a pipeline: ``None``, a comma-separated
#: string, or a sequence of pass specs.
PipelineSpec = "str | Sequence[str] | None"

#: Keys a pass manager's spec memo keeps before it starts over (each
#: spec keys it as given and as its canonical tuple).
SPEC_MEMO_SIZE = 1024


def _spec_name(spec: str) -> str:
    return spec.strip().partition(":")[0]


def normalize_pipeline(
    spec: str | Sequence[str] | None, *, manager: PassManager | None = None
) -> tuple[str, ...]:
    """Validate a pipeline spec into its canonical tuple form.

    Accepts ``None`` (empty pipeline), a comma-separated string, or a
    sequence of pass specs (each a registered name with optional
    colon-separated arguments, e.g. ``"insert_sync:eager"``). Raises
    :class:`~repro.common.errors.ConfigurationError` for an item that
    is not a spec string, unknown pass names (enumerating the registered
    ones), bad pass arguments, duplicates, or ``fuse_comm`` without
    ``lower_p2p``.

    Reads the same memo as :func:`split_pipeline`.
    """
    return split_pipeline(spec, manager=manager).pipeline()


@dataclass(frozen=True)
class PipelineParts:
    """A canonical pipeline, decomposed for the artifact cache.

    ``base`` is the pre-lowering part, ``recompute`` at its head (e.g.
    ``("recompute", "offload")``) — the ``passes=`` option of
    :func:`~repro.schedules.cache.schedule_artifacts`, which keys a
    cache entry. ``tail`` is the ``lower_p2p``/``fuse_comm`` suffix,
    which selects the entry's derived form rather than keying a new
    entry. The other fields derive from those two when the parts are
    made, and take no part in ``==`` or ``repr``.
    """

    base: tuple[str, ...] = ()
    tail: tuple[str, ...] = ()
    #: Does the pipeline include the recompute pass?
    recompute: bool = field(init=False, repr=False, compare=False)
    #: Does the pipeline include the offload pass?
    offload: bool = field(init=False, repr=False, compare=False)
    #: The schedule form the pipeline runs on: ``"schedule"`` (implicit
    #: communication), ``"lowered"`` or ``"fused"``.
    form: str = field(init=False, repr=False, compare=False)
    _canonical: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = {_spec_name(s) for s in self.base}
        if FUSE_PASS in self.tail:
            form = "fused"
        else:
            form = "lowered" if self.tail else "schedule"
        object.__setattr__(self, "recompute", RECOMPUTE_PASS in names)
        object.__setattr__(self, "offload", OFFLOAD_PASS in names)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "_canonical", self.base + self.tail)

    def pipeline(self) -> tuple[str, ...]:
        """The canonical pipeline tuple."""
        return self._canonical

    def build_options(self) -> dict[str, object]:
        """Builder/cache options for the pre-lowering part of the spec:
        ``{"passes": base}``, or ``{}`` when there is no such part (so a
        pass-less pipeline keys the no-options entry)."""
        return {"passes": self.base} if self.base else {}


def split_pipeline(
    spec: str | Sequence[str] | None, *, manager: PassManager | None = None
) -> PipelineParts:
    """Validate and decompose a pipeline spec (see :func:`normalize_pipeline`).

    The parts of each spec are memoized on ``manager``
    (``manager.normalized_specs``, bounded at :data:`SPEC_MEMO_SIZE` keys
    and cleared by :meth:`~repro.schedules.passes.base.PassManager.register`),
    keyed by the spec as given and by its canonical tuple: every spelling
    of one pipeline shares one :class:`PipelineParts`. A spec that raises
    is never memoized.
    """
    manager = manager or DEFAULT_PASS_MANAGER
    if spec is None:
        spec = ()
    # Materialize once: a one-shot iterable is both the key and the input.
    key = spec if isinstance(spec, (str, tuple)) else spec_items(spec)
    memo = manager.normalized_specs
    try:
        parts = memo.get(key)
    except TypeError:  # an unhashable item: _split names it
        parts = None
    if parts is None:
        parts = _split(key, manager)
        parts = memo.get(parts.pipeline(), parts)
        if len(memo) >= SPEC_MEMO_SIZE - 1:
            memo.clear()
        memo[key] = memo[parts.pipeline()] = parts
    return parts


def _split(spec: str | tuple[str, ...], manager: PassManager) -> PipelineParts:
    """Validate ``spec`` against ``manager`` and split its canonical form."""
    specs = spec_items(spec)
    seen: set[str] = set()
    head: list[str] = []
    middle: list[str] = []
    tail: list[str] = []
    for item in specs:
        manager.create(item)  # validates the name and its arguments
        name = _spec_name(item)
        if name in seen:
            raise ConfigurationError(
                f"pass {name!r} appears twice in pipeline {specs!r}"
            )
        seen.add(name)
        if name == RECOMPUTE_PASS:
            head.append(item)
        elif name in (LOWER_PASS, FUSE_PASS):
            tail.append(item)
        else:
            middle.append(item)
    if FUSE_PASS in seen and LOWER_PASS not in seen:
        raise ConfigurationError(
            f"pipeline {specs!r} has {FUSE_PASS!r} without {LOWER_PASS!r} "
            f"(fuse_comm batches the SEND/RECV pairs the lowering pass "
            f"creates)"
        )
    tail.sort(key=lambda item: _spec_name(item) == FUSE_PASS)
    return PipelineParts(base=tuple(head + middle), tail=tuple(tail))


def attempt_pipelines(
    spec: str | Sequence[str] | None,
    *,
    recompute: bool | None,
    offload: bool | None,
) -> tuple[tuple[str, ...], ...]:
    """Pipelines to try in order until one fits memory.

    ``spec`` is the base pipeline. Each axis (``recompute``, ``offload``)
    is pinned on when ``spec`` names its pass; otherwise ``None``
    explores it (off first, then on) and a boolean pins it. Attempts run
    plain → offload → recompute → offload+recompute, cheapest relief
    first (offload keeps backward at its un-recomputed cost).

    Raises :class:`~repro.common.errors.ConfigurationError` when an axis
    is pinned ``False`` but ``spec`` names its pass.
    """
    parts = split_pipeline(spec)
    axes = []
    for name, named, pinned in (
        (RECOMPUTE_PASS, parts.recompute, recompute),
        (OFFLOAD_PASS, parts.offload, offload),
    ):
        if named and pinned is False:
            raise ConfigurationError(
                f"pipeline includes {name!r} but {name}=False disables "
                f"the {name} axis"
            )
        if named:
            axes.append((True,))
        else:
            axes.append((False, True) if pinned is None else (pinned,))
    attempts = []
    for r in axes[0]:
        for o in axes[1]:
            head = (RECOMPUTE_PASS,) if r and not parts.recompute else ()
            added = (OFFLOAD_PASS,) if o and not parts.offload else ()
            attempts.append(head + parts.base + added + parts.tail)
    return tuple(attempts)
