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
form.

:func:`attempt_pipelines` is the one rule for the memory-relief axes,
shared by the harness and the planner: the pipeline is the *base*, a
pass it names pins that axis on, an axis pinned ``False`` against a
named pass is a :class:`~repro.common.errors.ConfigurationError`, and a
``None`` axis is explored (plain → offload → recompute → both). Callers
split the attempts once (per request or configuration) and pass the
:class:`PipelineParts` down.
"""

from __future__ import annotations

from dataclasses import dataclass
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

#: Distinct specs a pass manager's normalization memo keeps before it
#: starts over.
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

    The canonical form of each spec is memoized on ``manager`` (bounded
    at :data:`SPEC_MEMO_SIZE`); a spec that raises is never memoized.
    """
    manager = manager or DEFAULT_PASS_MANAGER
    if spec is None:
        return ()
    # Materialize once: a one-shot iterable is both the key and the input.
    key = spec if isinstance(spec, str) else spec_items(spec)
    memo = manager.normalized_specs
    canonical = memo.get(key)
    if canonical is not None:
        return canonical
    specs = spec_items(key)
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
    canonical = tuple(head + middle + tail)
    if len(memo) >= SPEC_MEMO_SIZE:
        memo.clear()
    memo[key] = canonical
    return canonical


@dataclass(frozen=True)
class PipelineParts:
    """A canonical pipeline, decomposed for the artifact cache.

    ``base`` is the pre-lowering part, ``recompute`` at its head (e.g.
    ``("recompute", "offload")``) — the ``passes=`` option of
    :func:`~repro.schedules.cache.schedule_artifacts`, which keys a
    cache entry. ``tail`` is the ``lower_p2p``/``fuse_comm`` suffix,
    which selects the entry's derived form rather than keying a new
    entry.
    """

    base: tuple[str, ...] = ()
    tail: tuple[str, ...] = ()

    def _has(self, name: str) -> bool:
        return any(_spec_name(s) == name for s in self.base)

    @property
    def recompute(self) -> bool:
        """Does the pipeline include the recompute pass?"""
        return self._has(RECOMPUTE_PASS)

    @property
    def offload(self) -> bool:
        """Does the pipeline include the offload pass?"""
        return self._has(OFFLOAD_PASS)

    def pipeline(self) -> tuple[str, ...]:
        """Reassemble the canonical pipeline tuple."""
        return self.base + self.tail

    def build_options(self) -> dict[str, object]:
        """Builder/cache options for the pre-lowering part of the spec:
        ``{"passes": base}``, or ``{}`` when there is no such part (so a
        pass-less pipeline keys the no-options entry)."""
        return {"passes": self.base} if self.base else {}


def split_pipeline(spec: str | Sequence[str] | None) -> PipelineParts:
    """Decompose a pipeline spec (normalizing it first)."""
    canonical = normalize_pipeline(spec)
    tail = tuple(s for s in canonical if _spec_name(s) in (LOWER_PASS, FUSE_PASS))
    return PipelineParts(base=canonical[: len(canonical) - len(tail)], tail=tail)


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
