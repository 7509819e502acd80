"""Name-based schedule construction, per-scheme traits, default pipelines.

The benchmark harness sweeps over scheme names; this registry maps each name
to its builder with a uniform ``(depth, num_micro_batches, **options)``
signature. ``_BUILDERS`` is ordered: its insertion order *is* the canonical
presentation order (Table 2 comparison order, then the zero-bubble family,
then the memory-controllable V-schedules), and both
:func:`available_schemes` and error messages derive from it so the two can
never drift apart.

:func:`scheme_traits` exposes the structural facts a *caller* needs before
it can even build a schedule — whether the depth must be even, how many
chunk stages each worker hosts (the V-shaped family folds ``2D`` chunks
over ``D`` workers, so the model must split into ``2D`` parts), whether
the scheme is synchronous, and the scheme's **default pass pipeline**
(:mod:`repro.schedules.passes`). Builders emit *compute rows only*; the
cross-cutting transforms — gradient-sync placement, recomputation,
bubble filling, lowering, communication fusion — are passes the registry
composes:

    builder output → default passes → ``recompute`` (if requested)
                   → caller-requested ``passes``

Two schemes keep scheme-managed synchronization (empty default pipeline):
PipeDream synchronizes after every micro-batch inside its builder, and
Chimera's ``eager_opt`` placement needs the merged timeline's bubble
structure.

Options are split in two: ``recompute`` and ``passes`` address the pass
pipeline and work for **every** scheme; everything else must be a keyword
the scheme's builder declares, checked up front — an unknown key raises
:class:`~repro.common.errors.UnknownOptionError` naming the scheme and
the key instead of disappearing into ``**options``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ConfigurationError, UnknownOptionError
from repro.schedules.chimera import build_chimera_schedule
from repro.schedules.dapple import build_dapple_schedule
from repro.schedules.gems import build_gems_schedule
from repro.schedules.gpipe import build_gpipe_schedule
from repro.schedules.ir import Schedule
from repro.schedules.passes import SchedulePass, resolve_pipeline
from repro.schedules.pipedream import build_pipedream_schedule
from repro.schedules.pipedream_2bw import build_pipedream_2bw_schedule
from repro.schedules.placement import StagePlacement
from repro.schedules.zero_bubble import (
    build_zb_h1_schedule,
    build_zb_v_schedule,
    build_zb_vhalf_schedule,
    build_zb_vmin_schedule,
)

_BUILDERS: dict[str, Callable[..., Schedule]] = {
    "pipedream": build_pipedream_schedule,
    "pipedream_2bw": build_pipedream_2bw_schedule,
    "gpipe": build_gpipe_schedule,
    "gems": build_gems_schedule,
    "dapple": build_dapple_schedule,
    "chimera": build_chimera_schedule,
    "zb_h1": build_zb_h1_schedule,
    "zb_v": build_zb_v_schedule,
    "zb_vhalf": build_zb_vhalf_schedule,
    "zb_vmin": build_zb_vmin_schedule,
}

#: Options the registry itself consumes; valid for every scheme and never
#: forwarded to a builder.
PIPELINE_OPTIONS = ("recompute", "passes")


@dataclass(frozen=True)
class SchemeTraits:
    """Structural facts about a scheme, known before building a schedule.

    Attributes
    ----------
    stages_per_worker:
        Model chunks hosted per worker: 1 for the classic one-stage-per-
        worker placements, 2 for the V-shaped zero-bubble family (a
        schedule at depth ``D`` then has ``2D`` stages, and the workload's
        layer count must divide into ``2D`` chunks).
    requires_even_depth:
        True for the bidirectional placements (Chimera, GEMS), whose
        down/up merge needs an even ``D``.
    synchronous:
        False for the flush-free PipeDream family (stale updates).
    default_passes:
        The pass pipeline :func:`build_schedule` always applies to the
        builder's output (before any requested ``recompute`` /
        ``passes``). Empty for schemes whose synchronization is
        scheme-managed inside the builder.
    cost_parameterized:
        True when the builder's output depends on more than
        ``(depth, num_micro_batches)`` — e.g. the ``synthesize`` search,
        whose schedule is a function of the cost model and memory budget.
        Such schemes must register a ``builder_fingerprint`` hook so the
        schedule cache can key on the extra parameters; sweeps that assume
        one schedule per ``(scheme, D, N)`` (paper tables, the perf suite)
        skip them.
    placement:
        ``depth -> StagePlacement`` the builder emits at ``depth`` with its
        default options, or ``None`` when the placement is only known
        after building (``synthesize``). The planner's memory floor
        (:func:`repro.sim.memory.device_floor`) needs nothing else, so
        schemes with a placement skip grid points that cannot fit
        without building them.
    """

    stages_per_worker: int = 1
    requires_even_depth: bool = False
    synchronous: bool = True
    default_passes: tuple[str, ...] = ("insert_sync",)
    cost_parameterized: bool = False
    placement: Callable[[int], StagePlacement] | None = None

    def stage_count(self, depth: int) -> int:
        """Number of model stages a schedule at ``depth`` workers has."""
        return depth * self.stages_per_worker


_LINEAR = StagePlacement.linear
_BIDIRECTIONAL = StagePlacement.bidirectional
_VSHAPED = StagePlacement.vshaped

_TRAITS: dict[str, SchemeTraits] = {
    "pipedream": SchemeTraits(
        synchronous=False, default_passes=(), placement=_LINEAR
    ),
    "pipedream_2bw": SchemeTraits(synchronous=False, placement=_LINEAR),
    "gpipe": SchemeTraits(placement=_LINEAR),
    "gems": SchemeTraits(requires_even_depth=True, placement=_BIDIRECTIONAL),
    "dapple": SchemeTraits(placement=_LINEAR),
    "chimera": SchemeTraits(
        requires_even_depth=True, default_passes=(), placement=_BIDIRECTIONAL
    ),
    "zb_h1": SchemeTraits(placement=_LINEAR),
    "zb_v": SchemeTraits(stages_per_worker=2, placement=_VSHAPED),
    "zb_vhalf": SchemeTraits(stages_per_worker=2, placement=_VSHAPED),
    "zb_vmin": SchemeTraits(stages_per_worker=2, placement=_VSHAPED),
}

assert set(_TRAITS) == set(_BUILDERS), "traits and builders out of sync"

#: Optional per-scheme ``builder_fingerprint`` hooks (see
#: :func:`register_scheme`): ``options -> hashable`` canonicalizations the
#: schedule cache folds into its key for cost-parameterized schemes.
_FINGERPRINTS: dict[str, Callable[[dict], object]] = {}


def available_schemes() -> tuple[str, ...]:
    """All registered scheme names, in canonical comparison order."""
    return tuple(_BUILDERS)


def register_scheme(
    name: str,
    builder: Callable[..., Schedule],
    traits: SchemeTraits,
    *,
    builder_fingerprint: Callable[[dict], object] | None = None,
    replace: bool = False,
) -> None:
    """Register ``builder`` under ``name`` (appended to canonical order).

    Registration is what makes a scheme a first-class citizen: it appears
    in :func:`available_schemes`, in every unknown-scheme error message
    (those enumerate the registry *at raise time*), in ``repro plan``'s
    candidate grid, and in the CLI scheme lists.

    Parameters
    ----------
    builder:
        ``(depth, num_micro_batches, **options) -> Schedule`` with every
        option declared keyword-only (so :func:`builder_options` can
        enumerate them).
    traits:
        The scheme's :class:`SchemeTraits`. A trait with
        ``cost_parameterized=True`` requires a ``builder_fingerprint``.
    builder_fingerprint:
        Canonicalizes a builder-option dict into a hashable value that
        uniquely identifies the builder's output beyond ``(D, N)``; the
        schedule cache folds it into its key (memory and disk tiers). It
        must raise :class:`~repro.common.errors.ReproError` on options it
        cannot cover — returning a partial fingerprint would alias
        distinct schedules.
    replace:
        Allow overwriting an existing registration (tests); by default a
        duplicate name raises :class:`ConfigurationError`.
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"scheme name must be a non-empty string, got {name!r}"
        )
    if name in _BUILDERS and not replace:
        raise ConfigurationError(
            f"scheme {name!r} is already registered; pass replace=True to override"
        )
    if traits.cost_parameterized and builder_fingerprint is None:
        raise ConfigurationError(
            f"cost-parameterized scheme {name!r} must provide a "
            f"builder_fingerprint so cache keys cover its parameters"
        )
    _BUILDERS[name] = builder
    _TRAITS[name] = traits
    if builder_fingerprint is not None:
        _FINGERPRINTS[name] = builder_fingerprint
    else:
        _FINGERPRINTS.pop(name, None)


def unregister_scheme(name: str) -> None:
    """Remove a registered scheme (primarily for tests)."""
    if name not in _BUILDERS:
        raise ConfigurationError(
            f"unknown scheme {name!r}; available: {list(available_schemes())}"
        )
    del _BUILDERS[name]
    del _TRAITS[name]
    _FINGERPRINTS.pop(name, None)


def builder_fingerprint(scheme: str, options: dict) -> object | None:
    """The scheme's canonical builder-parameter fingerprint, or ``None``.

    ``None`` means the scheme's output depends only on ``(D, N)`` and the
    classic cache key suffices. Pipeline options (``recompute``/``passes``)
    are the cache layer's concern and are stripped before the hook runs.
    """
    hook = _FINGERPRINTS.get(scheme)
    if hook is None:
        return None
    return hook({k: v for k, v in options.items() if k not in PIPELINE_OPTIONS})


def scheme_traits(scheme: str) -> SchemeTraits:
    """Structural traits of a registered scheme (see :class:`SchemeTraits`)."""
    try:
        return _TRAITS[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {list(available_schemes())}"
        ) from None


def builder_options(scheme: str) -> tuple[str, ...]:
    """The keyword options a scheme's builder declares (sorted)."""
    try:
        builder = _BUILDERS[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {list(available_schemes())}"
        ) from None
    params = inspect.signature(builder).parameters
    return tuple(
        sorted(
            name
            for name, p in params.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        )
    )


def _check_builder_options(scheme: str, options: dict) -> None:
    known = set(builder_options(scheme))
    for key in options:
        if key not in known:
            raise UnknownOptionError(
                f"scheme {scheme!r} does not accept builder option {key!r}; "
                f"valid options for {scheme}: {sorted(known)} "
                f"(plus the universal pipeline options "
                f"{list(PIPELINE_OPTIONS)})"
            )


def build_schedule(
    scheme: str, depth: int, num_micro_batches: int, **options: object
) -> Schedule:
    """Build a schedule by scheme name and run its pass pipeline.

    Universal pipeline options (any scheme):

    * ``recompute=True`` — append the activation-recomputation pass;
    * ``passes=...`` — extra passes after the defaults: a comma-separated
      spec string (``"fill_bubbles,lower_p2p,fuse_comm"``), a sequence of
      specs / :class:`~repro.schedules.passes.SchedulePass` objects, or a
      pre-built pipeline.

    Everything else is forwarded to the scheme's builder (e.g.
    ``concat=``/``num_down_pipelines=``/``sync_mode=`` for Chimera,
    ``max_in_flight=`` for the greedy zero-bubble pair) and must be a
    keyword the builder declares — an unknown key raises
    :class:`~repro.common.errors.UnknownOptionError` naming the scheme
    and the key.
    """
    try:
        builder = _BUILDERS[scheme]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; available: {list(available_schemes())}"
        ) from None
    recompute = bool(options.pop("recompute", False))
    passes = options.pop("passes", None)
    _check_builder_options(scheme, options)

    schedule = builder(depth, num_micro_batches, **options)

    specs: list[str | SchedulePass] = list(_TRAITS[scheme].default_passes)
    if recompute:
        specs.append("recompute")
    if passes is not None:
        specs.extend(resolve_pipeline(passes).passes)
    return resolve_pipeline(specs).run(schedule)


# The synthesized scheme registers itself through the public path: it is
# the first cost-parameterized builder, and its fingerprint hook is what
# exercises the cache's builder_fingerprint keying. Imported last because
# synthesize derives seed candidates from the registered schemes (lazily,
# via the cache) — the import-time dependency must stay one-way.
from repro.schedules.synthesize import (  # noqa: E402
    build_synthesize_schedule,
    synthesize_fingerprint,
)

register_scheme(
    "synthesize",
    build_synthesize_schedule,
    SchemeTraits(stages_per_worker=2, cost_parameterized=True),
    builder_fingerprint=synthesize_fingerprint,
)
