"""Synthesized schedules: search the (F, Bi, W) placement space directly.

Every other registered scheme is a hand-written stage-order recipe. This
module instead *searches* for a schedule under an arbitrary split-backward
cost model ``(f, b, w, comm)`` and an explicit peak-memory budget:

1. **Seed.** Generate a diverse candidate pool: the stable ZB-V patterns
   (:func:`~repro.schedules.zero_bubble.v_pattern_compute_rows` for
   ``zb_vmin``/``zb_vhalf``), greedy list-scheduling runs under the *actual*
   costs at several in-flight caps on both the linear and the V-shaped
   placement, and — the match-or-beat guarantee — every registered scheme's
   own compute rows with each fused backward split into an adjacent
   ``Bi`` + ``W`` pair (cost- and memory-neutral: a fused backward costs
   ``b + w`` and releases its stash at the same program point, while the
   earlier ``Bi`` completion can only unblock the upstream stage sooner).
2. **Prune.** Drop candidates whose peak live activation exceeds the
   budget, measured in *full-stage* stash units (``Ma``): a chunk stage of
   a ``2D``-stage V placement counts ``1/2``, exactly the units of
   :func:`repro.sim.memory.analyze_memory`'s ``activation_peak_units``
   scaled by ``D / num_stages``.
3. **Score.** Simulate the whole pool in **one**
   :func:`repro.sim.kernel.simulate_batch_many` call under the requested
   cost model and keep the ``beam_width`` best by (makespan, peak).
4. **Refine.** Bounded beam search over weight-gradient placement: a ``W``
   op's only data dependency is its own ``Bi`` and nothing consumes its
   output (gradient sync is inserted later by the ``insert_sync`` pass),
   so swapping a ``W`` one slot earlier or later on its own worker is
   *always* dependency-safe — the move set explores exactly the freedom
   the zero-bubble papers exploit. Each round scores every neighbor of
   every beam member in one batched kernel call.

The builder is **deterministic**: no randomness, identical inputs produce
identical schedules. It is also **cost-parameterized** — the schedule
depends on the cost model and budget, not just ``(scheme, D, N)`` — which
is why registration installs :func:`synthesize_fingerprint` as the
registry's ``builder_fingerprint`` hook: the schedule cache folds the
canonicalized cost/budget/beam parameters into its key (and therefore into
the disk tier's content address), so two synthesized schedules never alias
and an explicit-default caller shares the entry of a no-options caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.common.errors import ConfigurationError, ReproError, ScheduleError
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.placement import StagePlacement
from repro.schedules.zero_bubble import (
    _greedy_split_backward_rows,
    v_pattern_compute_rows,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cost import CostModel

#: Default beam width / refinement rounds. Deliberately small: the seeds
#: already include every registered scheme's schedule, so refinement is a
#: local polish, not the source of competitiveness.
DEFAULT_BEAM_WIDTH = 4
DEFAULT_BEAM_ROUNDS = 3

#: Cap on refinement moves generated per beam member per round, keeping a
#: round's batched kernel call bounded independently of ``D`` and ``N``.
_MAX_MOVES_PER_CANDIDATE = 8

#: Slack absorbing float drift when comparing peak stash units to a budget.
_BUDGET_EPS = 1e-9

#: Builder options covered by :func:`synthesize_fingerprint`. Must match
#: the keyword-only parameters of :func:`build_synthesize_schedule`.
_FINGERPRINT_OPTIONS = (
    "f_time",
    "b_time",
    "w_time",
    "comm_time",
    "memory_budget_units",
    "beam_width",
    "beam_rounds",
)


def synthesize_fingerprint(options: Mapping[str, object]) -> tuple:
    """Canonical cost/budget identity of one ``synthesize`` builder call.

    Installed as the registry's ``builder_fingerprint`` hook: the schedule
    cache replaces the raw builder options with this tuple in its key, so

    * two calls that differ in cost model, budget, or beam parameters can
      never alias one cache entry (in memory or on disk), and
    * a caller spelling out the defaults shares the entry of a caller
      omitting them (every option is resolved to its default here).

    Raises
    ------
    ConfigurationError
        On an unknown or non-numeric option — the cache layer treats the
        key as uncacheable and the builder raises the authoritative error.
    """
    unknown = sorted(set(options) - set(_FINGERPRINT_OPTIONS))
    if unknown:
        raise ConfigurationError(
            f"synthesize fingerprint cannot cover unknown option(s) {unknown}"
        )

    def num(name: str, default: float | None) -> float | None:
        value = options.get(name, default)
        if value is None:
            return None
        try:
            return float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"synthesize option {name!r} must be a number, got {value!r}"
            ) from None
    return (
        "synthesize",
        num("f_time", 1.0),
        num("b_time", 1.0),
        num("w_time", 1.0),
        num("comm_time", 0.0),
        num("memory_budget_units", None),
        int(num("beam_width", DEFAULT_BEAM_WIDTH) or 0),
        int(num("beam_rounds", DEFAULT_BEAM_ROUNDS) or 0),
    )


def synthesis_cost_model(
    f_time: float,
    b_time: float,
    w_time: float,
    comm_time: float = 0.0,
) -> "CostModel":
    """The :class:`~repro.sim.cost.CostModel` a synthesis run scores under.

    ``f``/``b``/``w`` are the split-backward durations (a fused backward
    costs ``b + w``); ``comm_time`` is the flat per-hop activation/gradient
    message latency (0 disables communication entirely).
    """
    from repro.sim.cost import CostModel
    from repro.sim.network import FlatTopology, LinkSpec

    topology = None
    message_bytes = 0.0
    if comm_time > 0:
        topology = FlatTopology(link=LinkSpec(alpha=comm_time, beta=0.0))
        message_bytes = 1.0
    return CostModel(
        forward_time=f_time,
        backward_ratio=(b_time + w_time) / f_time,
        recompute_backward_ratio=(b_time + w_time + f_time) / f_time,
        backward_input_ratio=b_time / f_time,
        backward_weight_ratio=w_time / f_time,
        activation_message_bytes=message_bytes,
        topology=topology,
    )


def peak_stash_units(schedule: Schedule) -> float:
    """Peak live activation stashes per worker, in full-stage (Ma) units.

    Uses :func:`repro.sim.memory.analyze_memory` with a unit model whose
    per-stage activation size is ``num_workers / num_stages`` — 1 for a
    one-stage-per-worker placement, 1/2 for the folded ``2D``-stage V — so
    budgets are comparable across placements: "at most ``x`` conventional
    stages' worth of activations live on any worker".
    """
    from repro.sim.memory import MemoryModel, analyze_memory

    scale = schedule.num_workers / schedule.num_stages
    report = analyze_memory(
        schedule,
        MemoryModel(
            activation_bytes=scale,
            stash_input_bytes=scale / 4.0,
            weight_bytes=0.0,
            weight_stash_bytes=0.0,
        ),
    )
    return report.peak_bytes


@dataclass
class _Candidate:
    """One synthesized-schedule candidate under evaluation."""

    label: str
    schedule: Schedule
    peak_units: float
    makespan: float = float("inf")
    moves: int = 0

    def key(self) -> tuple:
        return tuple(
            tuple(
                (op.kind, op.replica, op.stage, op.micro_batches, op.part)
                for op in row
            )
            for row in self.schedule.worker_ops
        )


def _as_candidate(
    label: str,
    placement: StagePlacement,
    rows: Sequence[Sequence[Operation]],
    num_micro_batches: int,
    moves: int = 0,
) -> _Candidate:
    schedule = Schedule(
        scheme="synthesize",
        placement=placement,
        num_micro_batches=num_micro_batches,
        worker_ops=freeze_worker_ops(rows),
        synchronous=True,
    )
    return _Candidate(
        label=label,
        schedule=schedule,
        peak_units=peak_stash_units(schedule),
        moves=moves,
    )


def _split_backward_rows(schedule: Schedule) -> list[list[Operation]]:
    """A registered scheme's compute rows with fused backwards split.

    Drops synchronization/communication ops (re-inserted by the pass
    pipeline) and replaces each fused ``B`` with an adjacent ``Bi`` + ``W``
    pair covering the same micro-batches and part. Under a cost model with
    ``B = b + w`` the split is cost-neutral on its own worker and can only
    *shorten* the downstream critical path (consumers wait for ``Bi``, not
    the full fused op); the adjacent ``W`` releases the stash at the same
    program point, so the activation peak is unchanged.
    """
    rows: list[list[Operation]] = []
    for ops in schedule.worker_ops:
        row: list[Operation] = []
        for op in ops:
            if op.kind is OpKind.ALLREDUCE or op.is_comm:
                continue
            if op.kind is OpKind.BACKWARD:
                row.append(
                    Operation(
                        OpKind.BACKWARD_INPUT,
                        op.replica,
                        op.stage,
                        micro_batches=op.micro_batches,
                        part=op.part,
                        recompute=op.recompute,
                    )
                )
                row.append(
                    Operation(
                        OpKind.BACKWARD_WEIGHT,
                        op.replica,
                        op.stage,
                        micro_batches=op.micro_batches,
                        part=op.part,
                    )
                )
            else:
                row.append(op)
        rows.append(row)
    return rows


def _seed_candidates(
    depth: int,
    num_micro_batches: int,
    f_time: float,
    b_time: float,
    w_time: float,
) -> list[_Candidate]:
    """The initial candidate pool (patterns, greedy runs, derived schemes)."""
    n = num_micro_batches
    out: list[_Candidate] = []

    vshaped = StagePlacement.vshaped(depth)
    for pattern in ("zb_vmin", "zb_vhalf"):
        rows = v_pattern_compute_rows(pattern, depth, n)
        out.append(_as_candidate(f"pattern:{pattern}", vshaped, rows, n))

    v_caps = sorted({2 * depth, depth + 2, max(2, (2 * depth) // 3 + 2)})
    for cap in v_caps:
        rows = _greedy_split_backward_rows(
            vshaped,
            n,
            caps=[cap] * depth,
            f_time=f_time,
            b_time=b_time,
            w_time=w_time,
        )
        out.append(_as_candidate(f"greedy_v:cap{cap}", vshaped, rows, n))

    linear = StagePlacement.linear(depth)
    h1_caps = [depth - s for s in range(depth)]
    tight = [max(1, min(depth - s, max(1, depth // 2))) for s in range(depth)]
    for name, caps in (("greedy_h:1f1b", h1_caps), ("greedy_h:tight", tight)):
        rows = _greedy_split_backward_rows(
            linear,
            n,
            caps=list(caps),
            f_time=f_time,
            b_time=b_time,
            w_time=w_time,
        )
        out.append(_as_candidate(name, linear, rows, n))

    out.extend(_derived_candidates(depth, n))

    deduped: list[_Candidate] = []
    seen: set[tuple] = set()
    for cand in out:
        key = cand.key()
        if key not in seen:
            seen.add(key)
            deduped.append(cand)
    return deduped


def _derived_candidates(depth: int, num_micro_batches: int) -> list[_Candidate]:
    """Split-backward rewrites of every registered (buildable) scheme.

    These seeds are what guarantees the synthesized schedule matches or
    beats each registered scheme at that scheme's own memory footprint.
    Imported lazily: the registry imports this module to register the
    ``synthesize`` scheme, so the dependency must stay one-way at import
    time. Cost-parameterized schemes (including ``synthesize`` itself) are
    skipped — deriving from them would recurse.
    """
    from repro.schedules.cache import cached_build_schedule
    from repro.schedules.registry import available_schemes, scheme_traits

    out: list[_Candidate] = []
    for scheme in available_schemes():
        if scheme_traits(scheme).cost_parameterized:
            continue
        try:
            source = cached_build_schedule(scheme, depth, num_micro_batches)
        except ReproError:
            continue  # structurally invalid at this (D, N): skip the seed
        rows = _split_backward_rows(source)
        out.append(
            _as_candidate(
                f"scheme:{scheme}", source.placement, rows, num_micro_batches
            )
        )
    return out


def _score(candidates: Sequence[_Candidate], model: "CostModel") -> None:
    """Fill in each candidate's makespan — one batched kernel call."""
    from repro.schedules.dependencies import build_dependency_graph
    from repro.sim.kernel import kernel_of, simulate_batch_many

    if not candidates:
        return
    batch = simulate_batch_many(
        [(kernel_of(build_dependency_graph(c.schedule)), model) for c in candidates]
    )
    for k, cand in enumerate(candidates):
        cand.makespan = float(batch.compute_makespan[k])


def _rank(candidates: list[_Candidate]) -> list[_Candidate]:
    return sorted(candidates, key=lambda c: (c.makespan, c.peak_units, c.label))


def _w_move_neighbors(cand: _Candidate, limit: int) -> list[_Candidate]:
    """Dependency-safe one-slot moves of ``W`` ops, bounded by ``limit``.

    A ``W`` may swap with its predecessor unless that predecessor is its
    own ``Bi`` (the one data dependency), and may always swap with its
    successor — nothing consumes a ``W``'s output before gradient sync.
    Moves are sampled with a stride so successive rounds walk different
    regions of the schedule instead of re-polishing the head.
    """
    rows = [list(row) for row in cand.schedule.worker_ops]
    moves: list[tuple[int, int, int]] = []
    for w, row in enumerate(rows):
        for i, op in enumerate(row):
            if not op.is_backward_weight:
                continue
            if i > 0:
                prev = row[i - 1]
                own_bi = (
                    prev.is_backward_input
                    and prev.replica == op.replica
                    and prev.stage == op.stage
                    and prev.micro_batches == op.micro_batches
                    and prev.part == op.part
                )
                if not own_bi:
                    moves.append((w, i, i - 1))
            if i + 1 < len(row):
                moves.append((w, i, i + 1))
    if not moves:
        return []
    stride = max(1, len(moves) // limit)
    offset = cand.moves % stride  # rotate coverage across rounds
    picked = moves[offset::stride][:limit]

    neighbors: list[_Candidate] = []
    for w, i, j in picked:
        new_rows = [list(row) for row in rows]
        new_rows[w][i], new_rows[w][j] = new_rows[w][j], new_rows[w][i]
        neighbors.append(
            _as_candidate(
                cand.label,
                cand.schedule.placement,
                new_rows,
                cand.schedule.num_micro_batches,
                moves=cand.moves + 1,
            )
        )
    return neighbors


def build_synthesize_schedule(
    depth: int,
    num_micro_batches: int,
    *,
    f_time: float = 1.0,
    b_time: float = 1.0,
    w_time: float = 1.0,
    comm_time: float = 0.0,
    memory_budget_units: float | None = None,
    beam_width: int = DEFAULT_BEAM_WIDTH,
    beam_rounds: int = DEFAULT_BEAM_ROUNDS,
) -> Schedule:
    """Synthesize a split-backward schedule for the given costs and budget.

    Parameters
    ----------
    depth, num_micro_batches:
        Worker count ``D`` and micro-batch count ``N``. The chosen
        placement is part of the search: candidates use both the linear
        ``D``-stage and the folded ``2D``-stage V placement (plus every
        registered scheme's own placement through the derived seeds).
    f_time, b_time, w_time, comm_time:
        The cost model the search optimizes: forward, input-gradient and
        weight-gradient durations, plus a flat per-hop message latency.
    memory_budget_units:
        Peak live activation stashes allowed per worker, in *full-stage*
        units (see :func:`peak_stash_units`); ``None`` leaves memory
        unconstrained. Raises :class:`~repro.common.errors.ScheduleError`
        when no candidate fits, naming the smallest achievable peak.
    beam_width, beam_rounds:
        Beam-search refinement bounds; each round is one batched kernel
        call over every neighbor of every beam member.

    Returns
    -------
    Schedule
        ``scheme="synthesize"``, compute rows only (the registry's default
        pass pipeline inserts gradient synchronization), with the chosen
        seed, cost model, budget, peak, and makespan stamped in metadata.
    """
    if depth < 1:
        raise ScheduleError("synthesize needs at least one worker")
    if num_micro_batches < 1:
        raise ScheduleError("synthesize needs at least one micro-batch")
    for name, value in (("f_time", f_time), ("b_time", b_time), ("w_time", w_time)):
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    if comm_time < 0:
        raise ConfigurationError(f"comm_time must be >= 0, got {comm_time}")
    if memory_budget_units is not None and memory_budget_units <= 0:
        raise ConfigurationError(
            f"memory_budget_units must be positive, got {memory_budget_units}"
        )
    if beam_width < 1:
        raise ConfigurationError(f"beam_width must be >= 1, got {beam_width}")
    if beam_rounds < 0:
        raise ConfigurationError(f"beam_rounds must be >= 0, got {beam_rounds}")

    model = synthesis_cost_model(f_time, b_time, w_time, comm_time)
    pool = _seed_candidates(depth, num_micro_batches, f_time, b_time, w_time)

    if memory_budget_units is not None:
        fitting = [
            c for c in pool if c.peak_units <= memory_budget_units + _BUDGET_EPS
        ]
        if not fitting:
            floor = min(c.peak_units for c in pool)
            raise ScheduleError(
                f"synthesize: no candidate fits memory_budget_units="
                f"{memory_budget_units:g} at D={depth}, N={num_micro_batches}; "
                f"smallest achievable peak is {floor:g} full-stage stashes — "
                f"raise the budget"
            )
        pool = fitting

    _score(pool, model)
    beam = _rank(pool)[:beam_width]
    seen = {c.key() for c in beam}

    for _ in range(beam_rounds):
        neighbors: list[_Candidate] = []
        for cand in beam:
            for nb in _w_move_neighbors(cand, _MAX_MOVES_PER_CANDIDATE):
                if memory_budget_units is not None and (
                    nb.peak_units > memory_budget_units + _BUDGET_EPS
                ):
                    continue
                key = nb.key()
                if key in seen:
                    continue
                seen.add(key)
                neighbors.append(nb)
        if not neighbors:
            break
        _score(neighbors, model)
        best_before = beam[0].makespan
        beam = _rank(beam + neighbors)[:beam_width]
        if not beam[0].makespan < best_before:
            break

    best = beam[0]
    return best.schedule.with_metadata(
        seed=best.label,
        cost=(float(f_time), float(b_time), float(w_time), float(comm_time)),
        memory_budget_units=(
            None if memory_budget_units is None else float(memory_budget_units)
        ),
        peak_units=float(best.peak_units),
        makespan=float(best.makespan),
        beam=(int(beam_width), int(beam_rounds)),
        refinement_moves=int(best.moves),
    )
