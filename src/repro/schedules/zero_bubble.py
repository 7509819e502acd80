"""Zero-bubble schedule family: ZB-H1 and ZB-V [Qi et al. 2023/2024].

Both schedules exploit the split backward of the IR
(:class:`~repro.schedules.ir.OpKind.BACKWARD_INPUT` /
:class:`~repro.schedules.ir.OpKind.BACKWARD_WEIGHT`): only the
input-gradient half ``B`` sits on the inter-stage critical path, while the
weight-gradient half ``W`` is free to move into the bubbles a 1F1B-style
schedule would otherwise idle through. With the practical cost split
``b = w = F`` this removes roughly two thirds of DAPPLE's ``2(D-1)``
bubbles (ZB-H1) or nearly all of them (ZB-V).

* **ZB-H1** keeps DAPPLE's linear placement and 1F1B shape. Warmup and
  steady state are unchanged — the gain comes from deferring each ``W``
  until the worker would otherwise idle, which fills the backward-drain
  bubbles at the tail. The in-flight cap of ``D - s`` micro-batches per
  stage is enforced on the *full* stash lifetime (forward to ``W``), so the
  activation signature is exactly DAPPLE's ``(1, min(D, N))`` while the
  bubble drops from ``3(D-1)`` to ``2(D-1)`` worker-time units under the
  practical model (makespan ``3N + 2(D-1)`` instead of ``3(N + D - 1)``).
* **ZB-V** splits the model into ``2D`` chunks folded over ``D`` workers in
  a "V": worker ``i`` hosts chunk ``i`` and chunk ``2D - 1 - i``
  (:meth:`~repro.schedules.placement.StagePlacement.vshaped`). Each worker
  owns both an early and a late chunk, so forwards, input-gradients and
  weight-gradients of different micro-batches interleave on every worker
  and the steady state approaches zero bubbles, with per-worker activation
  memory capped at a constant ``2D`` chunk stashes (about ``D`` full-stage
  stashes) independent of ``N``.

Rather than hard-coding the papers' handcrafted tick tables, both builders
run a deterministic greedy list-scheduler (the approach of the zero-bubble
repository's ``zbv_greedy`` module): simulate the pipeline under unit
costs, always run a ready input-gradient first, then a forward permitted by
the memory cap, and only fill genuinely idle time with deferred
weight-gradients. The op *order* this produces per worker is the schedule;
the discrete-event simulator then retimes it under any cost model.

On top of ZB-V sit the **memory-controllable** variants of *Pipeline
Parallelism with Controllable Memory* [Qi et al. 2024, arXiv:2405.15362]:

* **ZB-vhalf** (``zb_vhalf``) — peak activation memory of roughly *half*
  the 1F1B/ZB-V budget (``D + 2`` live chunk stashes per worker, i.e. about
  ``D/2 + 1`` full-stage stashes) at the cost of a longer fill/drain ramp
  (steady state stays bubble-free).
* **ZB-vmin** (``zb_vmin``) — close to the *minimum* feasible budget
  (about ``2D/3 + 2`` chunk stashes, i.e. about ``D/3 + 1`` full-stage
  stashes), trading a little more ramp for the smallest peak.

These two are built differently from the greedy pair: each repeats a
*stable pattern* — per-worker steady-state tick offsets for the four
F/``Bi`` streams (:func:`stable_pattern`), phase-shifted by six ticks per
micro-batch so consecutive micro-batches interleave without collisions.
Sorting the pattern ticks yields the warmup/steady/cooldown op order in one
stroke, and deferred ``W`` ops drop into the idle ticks FIFO (the
controllable-memory repository's ``put_w``). The pattern *is* the unit-cost
timing, so the simulated makespans have exact closed forms
(:mod:`repro.schedules.analysis`).
"""

from __future__ import annotations

from collections import deque
from numbers import Integral

from repro.common.errors import ConfigurationError, ScheduleError
from repro.schedules.ir import Operation, OpKind, Schedule, freeze_worker_ops
from repro.schedules.placement import StagePlacement


def build_zb_h1_schedule(
    depth: int,
    num_micro_batches: int,
    *,
    max_in_flight: int | None = None,
) -> Schedule:
    """Build the ZB-H1 schedule (1F1B shape, W ops fill the tail bubbles).

    Parameters
    ----------
    depth, num_micro_batches:
        Pipeline depth ``D`` (= workers = stages) and micro-batch count.
    max_in_flight:
        Optional tighter cap on live stashes (forward to ``W``) per stage;
        the default is the 1F1B bound ``D - s`` at stage ``s``.

    The greedy scheduler plans with unit costs ``F = B = W = 1``, the
    zero-bubble paper's assumption (a fused backward costs ``B + W = 2F``,
    matching the practical cost model).
    """
    if depth < 1:
        raise ScheduleError("ZB-H1 needs at least one stage")
    if num_micro_batches < 1:
        raise ScheduleError("ZB-H1 needs at least one micro-batch")
    placement = StagePlacement.linear(depth)
    caps = [depth - s for s in range(depth)]
    if max_in_flight is not None:
        cap = _checked_max_in_flight(max_in_flight)
        caps = [min(c, cap) for c in caps]
    rows = _greedy_split_backward_rows(
        placement,
        num_micro_batches,
        caps=caps,
        f_time=1.0,
        b_time=1.0,
        w_time=1.0,
    )
    return Schedule(
        scheme="zb_h1",
        placement=placement,
        num_micro_batches=num_micro_batches,
        worker_ops=freeze_worker_ops(rows),
        synchronous=True,
        metadata={"caps": tuple(caps)},
    )


def build_zb_v_schedule(
    depth: int,
    num_micro_batches: int,
    *,
    max_in_flight: int | None = None,
) -> Schedule:
    """Build the ZB-V schedule (V-shaped two-chunks-per-worker placement).

    ``depth`` is the number of *workers*; the model is split into
    ``2 * depth`` chunks placed per
    :meth:`~repro.schedules.placement.StagePlacement.vshaped`, so each
    chunk carries half a conventional stage's compute. The per-worker cap
    on live chunk stashes (forward to ``W``) defaults to ``2 * depth`` —
    roughly ``D`` full-stage activations, the controllable-memory paper's
    ``V`` budget — and is constant in ``N``. A tighter ``max_in_flight`` is
    best-effort: worker 0 hosts both ends of the V, and a cap below its
    chunk-0 round trip is relaxed just enough to avoid deadlocking the
    pipeline (never beyond the default budget).
    """
    if depth < 1:
        raise ScheduleError("ZB-V needs at least one worker")
    if num_micro_batches < 1:
        raise ScheduleError("ZB-V needs at least one micro-batch")
    placement = StagePlacement.vshaped(depth)
    cap = 2 * depth
    if max_in_flight is not None:
        cap = _checked_max_in_flight(max_in_flight)
    caps = [cap] * depth
    rows = _greedy_split_backward_rows(
        placement,
        num_micro_batches,
        caps=caps,
        f_time=1.0,
        b_time=1.0,
        w_time=1.0,
    )
    return Schedule(
        scheme="zb_v",
        placement=placement,
        num_micro_batches=num_micro_batches,
        worker_ops=freeze_worker_ops(rows),
        synchronous=True,
        metadata={"caps": tuple(caps)},
    )


def _checked_max_in_flight(value: object) -> int:
    """``max_in_flight`` as an ``int``; anything but a positive integer
    (a bool, a float, zero, a negative) raises."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ConfigurationError(
            f"max_in_flight must be a positive integer (or None for the "
            f"default cap), got {value!r}"
        )
    return int(value)


def build_zb_vhalf_schedule(depth: int, num_micro_batches: int) -> Schedule:
    """Build ZB-vhalf: the half-memory controllable V-schedule.

    Same V-shaped placement as ZB-V, but forwards enter on a stretched
    cadence (two ticks apart on the descending arm) so each worker holds at
    most ``D + 2`` live chunk stashes — about half of ZB-V's ``2D`` — while
    the steady state stays bubble-free. The makespan under unit costs is
    ``6N + (7D - 4)/2`` for even ``D`` and ``6N + 7(D - 1)/2`` for odd
    ``D``, exact for ``N >= D``.
    """
    return _build_v_pattern_schedule("zb_vhalf", depth, num_micro_batches)


def build_zb_vmin_schedule(depth: int, num_micro_batches: int) -> Schedule:
    """Build ZB-vmin: the minimum-memory controllable V-schedule.

    The tightest stable pattern of the controllable-memory paper: the V is
    traversed on the 1F1B cadence but the backward wave returns as early as
    dependencies allow, capping each worker at about ``2D/3 + 2`` live
    chunk stashes — one third of the 1F1B activation budget, plus the
    deferred-``W`` lag. The makespan under unit costs is exactly
    ``6N + max(0, 4D + i - 5)`` with ``i = 2`` when ``3 | D`` and
    ``N >= 2`` (the interval correction de-collides consecutive
    micro-batches, so it does not stretch a single-micro-batch ramp),
    else ``i = 0``.
    """
    return _build_v_pattern_schedule("zb_vmin", depth, num_micro_batches)


#: Stable-pattern variants and their steady-state tick-offset generators.
_V_PATTERNS = ("zb_vmin", "zb_vhalf")


def stable_pattern(scheme: str, depth: int) -> tuple[tuple[int, int, int, int], ...]:
    """Steady-state tick offsets of a memory-controllable V-schedule.

    Returns one row per worker ``i``: the start ticks of micro-batch 0's
    four compute streams on that worker — forward of the descending-arm
    chunk ``i``, forward of the ascending-arm chunk ``2D - 1 - i``, input
    gradient of the ascending chunk, input gradient of the descending
    chunk. Micro-batch ``m`` runs the same pattern shifted by ``6 m`` ticks
    (six unit ops per worker per micro-batch: 2 F + 2 Bi + 2 W), and the
    offsets are constructed so that no two streams of one worker share a
    tick residue mod 6 — the interleave is collision-free for every ``N``.

    The ``interval`` corrections (+2 when ``3 | D`` for vmin, +3 for even
    ``D`` for vhalf) restore that residue-distinctness where the plain
    arithmetic pattern would collide.
    """
    p = depth
    if p < 1:
        raise ScheduleError(f"{scheme} needs at least one worker, got {p}")
    if scheme == "zb_vmin":
        interval = 2 if p % 3 == 0 else 0
        return tuple(
            (i, 2 * p - i - 1, 2 * p + interval + i, 4 * p + interval - i - 1)
            for i in range(p)
        )
    if scheme == "zb_vhalf":
        interval = 3 if p % 2 == 0 else 0
        return tuple(
            (
                2 * i,
                3 * p - i - 2,
                3 * p + interval + 2 * i - 1,
                6 * p + interval - i - 2,
            )
            for i in range(p)
        )
    raise ScheduleError(
        f"no stable pattern for scheme {scheme!r}; known: {list(_V_PATTERNS)}"
    )


def v_pattern_compute_rows(
    scheme: str, depth: int, num_micro_batches: int
) -> list[list[Operation]]:
    """Per-worker compute-op order of a stable-pattern V-schedule.

    Expands :func:`stable_pattern` over all micro-batches, sorts each
    worker's F/``Bi`` ops by their pattern tick (which interleaves warmup,
    steady state and cooldown in one pass), and drops each deferred ``W``
    into the earliest idle tick after its ``Bi`` (FIFO), with the backlog
    flushed after the last pattern op. Shared by the builders and by
    :mod:`repro.schedules.analysis`, whose activation-interval numbers for
    this family count stash liveness over exactly these rows.
    """
    p, n = depth, num_micro_batches
    pattern = stable_pattern(scheme, p)
    rows: list[list[Operation]] = []
    for worker in range(p):
        down, up = worker, 2 * p - 1 - worker
        offsets = pattern[worker]
        events: list[tuple[int, int, int]] = []  # (tick, stream, micro-batch)
        for mb in range(n):
            base = 6 * mb
            for stream in range(4):
                events.append((offsets[stream] + base, stream, mb))
        events.sort()
        ops: list[Operation] = []
        pending_w: deque[tuple[int, int]] = deque()
        tick = 0
        for t, stream, mb in events:
            while tick < t and pending_w:
                stage, mb_w = pending_w.popleft()
                ops.append(
                    Operation(OpKind.BACKWARD_WEIGHT, 0, stage, micro_batches=(mb_w,))
                )
                tick += 1
            tick = max(tick, t) + 1
            stage = (down, up, up, down)[stream]
            if stream < 2:
                ops.append(Operation(OpKind.FORWARD, 0, stage, micro_batches=(mb,)))
            else:
                ops.append(
                    Operation(
                        OpKind.BACKWARD_INPUT, 0, stage, micro_batches=(mb,)
                    )
                )
                pending_w.append((stage, mb))
        for stage, mb_w in pending_w:
            ops.append(
                Operation(OpKind.BACKWARD_WEIGHT, 0, stage, micro_batches=(mb_w,))
            )
        rows.append(ops)
    return rows


def _build_v_pattern_schedule(
    scheme: str, depth: int, num_micro_batches: int
) -> Schedule:
    """Wrap the pattern rows into a validated :class:`Schedule`."""
    if depth < 1:
        raise ScheduleError(f"{scheme} needs at least one worker")
    if num_micro_batches < 1:
        raise ScheduleError(f"{scheme} needs at least one micro-batch")
    placement = StagePlacement.vshaped(depth)
    rows = v_pattern_compute_rows(scheme, depth, num_micro_batches)
    return Schedule(
        scheme=scheme,
        placement=placement,
        num_micro_batches=num_micro_batches,
        worker_ops=freeze_worker_ops(rows),
        synchronous=True,
        metadata={"pattern": scheme.removeprefix("zb_")},
    )


def _greedy_split_backward_rows(
    placement: StagePlacement,
    n: int,
    *,
    caps: list[int],
    f_time: float,
    b_time: float,
    w_time: float,
) -> list[list[Operation]]:
    """Greedy list-scheduling of F / Bi / W over a single-replica chain.

    Simulates the pipeline forward in time. Whenever a worker could start
    an operation, priority is: ready input-gradient first (it unblocks the
    upstream stage), then a forward allowed by the worker's in-flight cap,
    and a deferred weight-gradient only when nothing else can start as
    early — which is exactly what parks the ``W`` ops inside bubbles.
    Deterministic: ties break toward later stages (draining the pipeline)
    and lower worker ranks.

    The in-flight cap counts stashes per worker over their full lifetime —
    from the forward until the *weight-gradient* releases them — matching
    :func:`repro.sim.memory.analyze_memory`'s liveness accounting, so the
    cap is a genuine bound on the schedule's activation peak.

    Each worker keeps its smallest candidate key; after an op only the
    keys of the workers the op changed are recomputed, so a step scans
    at most two workers' stages instead of every worker's.
    """
    num_stages = placement.num_stages
    num_workers = placement.num_workers
    worker_of = [placement.worker_of(0, s) for s in range(num_stages)]
    hosted: list[list[int]] = [[] for _ in range(num_workers)]
    for s in range(num_stages):
        hosted[worker_of[s]].append(s)

    f_end: list[list[float | None]] = [[None] * n for _ in range(num_stages)]
    b_end: list[list[float | None]] = [[None] * n for _ in range(num_stages)]
    next_f = [0] * num_stages  # next micro-batch to forward, per stage
    next_b = [0] * num_stages  # next micro-batch to input-grad, per stage
    in_flight = [0] * num_workers
    free = [0.0] * num_workers
    pending_w: list[deque[tuple[int, int]]] = [deque() for _ in range(num_workers)]
    rows: list[list[Operation]] = [[] for _ in range(num_workers)]

    def b_candidate(s: int) -> tuple[float, int] | None:
        """(availability, micro-batch) of stage ``s``'s next input-grad."""
        mb = next_b[s]
        if mb >= n:
            return None
        local = f_end[s][mb]
        if local is None:
            return None
        if s == num_stages - 1:
            return (local, mb)
        upstream = b_end[s + 1][mb]
        if upstream is None:
            return None
        return (max(local, upstream), mb)

    def f_candidate(s: int) -> tuple[float, int] | None:
        """(availability, micro-batch) of stage ``s``'s next forward."""
        mb = next_f[s]
        if mb >= n:
            return None
        if s == 0:
            return (0.0, mb)
        producer = f_end[s - 1][mb]
        if producer is None:
            return None
        return (producer, mb)

    def worker_key(w: int) -> tuple | None:
        """Smallest ``(start, rank, -stage, worker, stage, mb)`` among the
        ops worker ``w`` could start now under its cap, or None."""
        best = None
        for s in hosted[w]:
            cand = b_candidate(s)
            if cand is not None:
                key = (max(free[w], cand[0]), 0, -s, w, s, cand[1])
                if best is None or key < best:
                    best = key
            if in_flight[w] < caps[w]:
                cand = f_candidate(s)
                if cand is not None:
                    key = (max(free[w], cand[0]), 1, -s, w, s, cand[1])
                    if best is None or key < best:
                        best = key
        if pending_w[w]:
            s, mb = pending_w[w][0]
            key = (free[w], 2, -s, w, s, mb)
            if best is None or key < best:
                best = key
        return best

    # Each worker's smallest key; an op changes only its own worker's
    # keys and its neighbour stage's (see the dirty set below).
    keys = [worker_key(w) for w in range(num_workers)]
    total = 3 * num_stages * n
    done = 0
    while done < total:
        best = min((key for key in keys if key is not None), default=None)
        if best is None:
            # Caps alone block every forward (possible when one worker
            # hosts both early and late chunks): relax the cap for the
            # earliest-startable forward instead of deadlocking.
            for w in range(num_workers):
                for s in hosted[w]:
                    cand = f_candidate(s)
                    if cand is not None:
                        start = max(free[w], cand[0])
                        key = (start, 1, -s, w, s, cand[1])
                        if best is None or key < best:
                            best = key
        if best is None:  # pragma: no cover - library bug guard
            raise ScheduleError(
                "greedy zero-bubble scheduler stalled with work remaining"
            )

        start, rank, _neg, w, s, mb = best
        if rank == 0:
            end = start + b_time
            b_end[s][mb] = end
            next_b[s] += 1
            pending_w[w].append((s, mb))
            rows[w].append(
                Operation(OpKind.BACKWARD_INPUT, 0, s, micro_batches=(mb,))
            )
        elif rank == 1:
            end = start + f_time
            f_end[s][mb] = end
            next_f[s] += 1
            in_flight[w] += 1
            rows[w].append(Operation(OpKind.FORWARD, 0, s, micro_batches=(mb,)))
        else:
            end = start + w_time
            pending_w[w].popleft()
            in_flight[w] -= 1
            rows[w].append(
                Operation(OpKind.BACKWARD_WEIGHT, 0, s, micro_batches=(mb,))
            )
        free[w] = end
        done += 1
        # A Bi unblocks the upstream stage's Bi, an F the downstream
        # stage's F; every other change is local to worker w.
        keys[w] = worker_key(w)
        if rank == 0 and s > 0:
            keys[worker_of[s - 1]] = worker_key(worker_of[s - 1])
        elif rank == 1 and s < num_stages - 1:
            keys[worker_of[s + 1]] = worker_key(worker_of[s + 1])
    return rows
