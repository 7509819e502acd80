"""Equation (1): Chimera's single-iteration runtime model.

    T = (F_t + Comm_p2p) * C_f + (B_t + Comm_p2p) * C_b
        + max_i Comm_unoverlapped(i)

``C_f`` / ``C_b`` are the forward/backward counts on the pipeline's critical
path (Figure 6: ``C_f = 6``, ``C_b = 10`` for ``N = D = 6``). For Chimera's
merged bidirectional schedule they close to ``C_f = N`` and
``C_b = N + D - 2`` — consistent with the practical makespan
``F_t*N + B_t*(N + D - 2)`` = ``3N + 2(D-2)`` forward-units at ``B = 2F``,
which the simulator reproduces exactly at ``N = D``.

The communication-overlap term (Figure 6's free regions) is evaluated by
timing the *homogeneous* schedule (balanced stages, constant p2p) and
measuring how much of each stage's allreduce fits between its gradient
completion and the end of that worker's compute — exactly the paper's
procedure, evaluated mechanically instead of by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.schedules.chimera import ConcatStrategy, build_chimera_schedule
from repro.schedules.passes import RecomputePass
from repro.sim.cost import CostModel
from repro.sim.kernel import simulate_fast


@dataclass(frozen=True)
class PerfPrediction:
    """Output of the performance model for one (W, D, B) configuration."""

    depth: int
    num_micro_batches: int
    forward_time: float
    backward_time: float
    comm_p2p: float
    c_f: int
    c_b: int
    compute_time: float
    unoverlapped_sync: float

    @property
    def iteration_time(self) -> float:
        return self.compute_time + self.unoverlapped_sync


def chimera_critical_path(depth: int, num_micro_batches: int) -> tuple[int, int]:
    """Forward/backward counts on Chimera's critical path.

    For a full pipeline (``N >= D``): ``C_f = N`` and ``C_b = N + D - 2`` —
    each micro-batch contributes one forward and one backward, plus
    ``D - 2`` extra backwards for the bidirectional fill/drain (Figure 6's
    D = 6, N = 6 example gives exactly C_f = 6, C_b = 10). An underfilled
    pipeline (``N < D``) is bounded below by one micro-batch's full
    traversal, ``D`` forwards and ``D`` backwards.
    """
    if depth < 2 or depth % 2:
        raise ConfigurationError(f"Chimera depth must be even >= 2, got {depth}")
    n = num_micro_batches
    return max(n, depth), max(n + depth - 2, depth)


def predict_closed_form(
    depth: int,
    num_micro_batches: int,
    *,
    forward_time: float,
    comm_p2p: float = 0.0,
    recompute: bool = False,
    backward_ratio: float = 2.0,
    recompute_backward_ratio: float = 3.0,
    max_allreduce_time: float = 0.0,
) -> PerfPrediction:
    """Equation (1) with the pessimistic (no-overlap) synchronization term.

    Useful as an analytic upper bound and for unit tests; the full model
    (:func:`predict_iteration_time`) replaces ``max_allreduce_time`` with
    the measured non-overlapped portion.
    """
    c_f, c_b = chimera_critical_path(depth, num_micro_batches)
    ratio = recompute_backward_ratio if recompute else backward_ratio
    backward_time = forward_time * ratio
    compute = (forward_time + comm_p2p) * c_f + (backward_time + comm_p2p) * c_b
    return PerfPrediction(
        depth=depth,
        num_micro_batches=num_micro_batches,
        forward_time=forward_time,
        backward_time=backward_time,
        comm_p2p=comm_p2p,
        c_f=c_f,
        c_b=c_b,
        compute_time=compute,
        unoverlapped_sync=max_allreduce_time,
    )


def predict_iteration_time(
    depth: int,
    num_micro_batches: int,
    cost_model: CostModel,
    *,
    recompute: bool = False,
    concat: ConcatStrategy | str = ConcatStrategy.DIRECT,
    num_down_pipelines: int = 1,
    sync_mode: str = "eager_opt",
) -> PerfPrediction:
    """Full Equation (1) prediction for a Chimera configuration.

    The compute term uses the closed-form critical path with ``F_t``
    measured at the *bottleneck* stage (the paper measures F_t by micro
    benchmark and assumes balanced stages; the bottleneck stage is what a
    micro-benchmark of the real partition reports, and what governs the
    steady-state rate). The ``Comm_unoverlapped`` term is obtained by
    simulating the schedule under the homogenized model — ignoring the
    residual heterogeneity is one source of the model's <10% error against
    practice (§4.2.2).
    """
    scales = cost_model.stage_scale or tuple([1.0] * depth)
    if len(scales) != depth:
        raise ConfigurationError(
            f"stage_scale has {len(scales)} entries for depth {depth}"
        )
    # Bidirectional placement pairs stage s with stage D-1-s on one worker,
    # so a heavy stage (e.g. the LM-head stage) is balanced by its light
    # twin: the steady-state bottleneck is the heaviest *pair average*, not
    # the heaviest stage. (An emergent load-balancing property of Chimera's
    # placement that a unidirectional pipeline does not enjoy.)
    bottleneck = max(
        (scales[s] + scales[depth - 1 - s]) / 2.0 for s in range(depth)
    )
    forward_time = cost_model.forward_time * bottleneck
    homogeneous = cost_model.with_(stage_scale=None, forward_time=forward_time)
    schedule = build_chimera_schedule(
        depth,
        num_micro_batches,
        num_down_pipelines=num_down_pipelines,
        concat=concat,
        sync_mode=sync_mode,
    )
    if recompute:
        schedule = RecomputePass().run(schedule)
    result = simulate_fast(schedule, homogeneous)
    c_f, c_b = chimera_critical_path(depth, num_micro_batches)
    ratio = (
        cost_model.recompute_backward_ratio
        if recompute
        else cost_model.backward_ratio
    )
    backward_time = forward_time * ratio
    # p2p cost per critical-path hop under the homogeneous model.
    comm_p2p = (
        homogeneous.p2p_time(0, 1, 1.0) if homogeneous.topology is not None else 0.0
    )
    # Fill/drain traverses every stage once (sum of the real per-stage
    # times); the remaining C - D critical-path passes run at the
    # steady-state rate, which the bottleneck stage governs.
    fwd_traversal = sum(cost_model.forward_time * s for s in scales)
    bwd_traversal = fwd_traversal * ratio
    compute = (
        fwd_traversal
        + bwd_traversal
        + (c_f - depth) * forward_time
        + (c_b - depth) * backward_time
        + comm_p2p * (c_f + c_b)
    )
    # Direct concatenation keeps intermediate bubbles between basic units
    # (paper §3.5 / Figure 7b); our list scheduler's measured law is
    # (D - 3) forward-units per extra unit (see tests/test_chimera.py).
    strategy = ConcatStrategy(concat) if isinstance(concat, str) else concat
    if strategy is ConcatStrategy.DIRECT and num_micro_batches > depth:
        extra_units = num_micro_batches / depth - 1
        # Bubble slots are idle time at base stage width (the balanced
        # stages), not at the bottleneck pair.
        compute += cost_model.forward_time * max(0, depth - 3) * extra_units
    return PerfPrediction(
        depth=depth,
        num_micro_batches=num_micro_batches,
        forward_time=forward_time,
        backward_time=backward_time,
        comm_p2p=comm_p2p,
        c_f=c_f,
        c_b=c_b,
        compute_time=compute,
        unoverlapped_sync=max(0.0, result.iteration_time - result.compute_makespan),
    )
