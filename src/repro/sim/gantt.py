"""ASCII Gantt rendering of (timed) schedules.

Reproduces the style of the paper's Figures 2, 3, 7 and 8: one row per
worker, forward cells as the micro-batch number, backward cells shaded
(``*`` suffix), bubbles as dots. Split zero-bubble backwards render their
input-gradient half with a ``b`` suffix and the weight-gradient half with a
``w`` suffix. Used by the quickstart example and invaluable when debugging
schedule builders.

Lowered schedules (:mod:`repro.schedules.lowering`) additionally get
**communication lanes** per worker (the ``P0>`` rows under ``P0``) showing
that worker's outgoing transfers on the wire: ``a``/``g`` for
activation/gradient payloads, the micro-batches, and the destination
worker — e.g. ``a0>1`` is micro-batch 0's activations heading to worker 1.
A transfer cell spans the interval the message is on the link, so queueing
behind an earlier transfer (link contention) is directly visible as a
right-shifted cell; transfers whose wire intervals overlap (the latency
term pipelines) stack onto additional ``P0>`` rows rather than
overwriting each other.

Schedules with the offload pass additionally get **host-channel lanes**
(the ``P0~`` rows): that worker's activation-stash copies on its private
host↔device channel — ``0v`` is micro-batch 0's stash heading down to
host RAM (OFFLOAD, d2h), ``0^`` is the same stash coming back up
(RELOAD, h2d). Host copies never share rows with p2p transfers: they
ride PCIe, not the NIC, and contend only with this worker's other host
copies (queueing shows as the same right-shift as on the wire lanes).
"""

from __future__ import annotations

from repro.schedules.ir import OpKind, Schedule
from repro.sim.cost import CostModel
from repro.sim.engine import SimulationResult
from repro.sim.kernel import simulate_fast

#: Characters per time cell of a rendered chart.
CELL_WIDTH = 4


def render_gantt(
    source: Schedule | SimulationResult,
    *,
    cost_model: CostModel | None = None,
    time_step: float | None = None,
) -> str:
    """Render a schedule (or a simulation result) as an ASCII Gantt chart.

    Cells are :data:`CELL_WIDTH` characters wide. Per-worker transfer lanes
    appear exactly when the simulation produced transfers with nonzero wire
    time (a lowered schedule under a topology with communication costs, or
    an offloaded one).

    Parameters
    ----------
    source:
        A schedule (simulated under ``cost_model`` or the practical default)
        or an existing simulation result.
    time_step:
        Seconds per cell; defaults to the smallest op duration.
    """
    if isinstance(source, SimulationResult):
        result = source
    else:
        result = simulate_fast(source, cost_model or CostModel.practical())

    compute = [t for t in result.timed.values() if t.op.is_compute]
    if not compute:
        return "(empty schedule)"
    if time_step is None:
        time_step = min(t.duration for t in compute if t.duration > 0)
    horizon = result.compute_makespan
    num_cells = max(1, round(horizon / time_step))

    lines = []
    header = f"{result.schedule.describe()}  (1 cell = {time_step:g}s)"
    lines.append(header)
    # Row prefixes share one width so comm lanes align with their compute
    # row at any worker count.
    tag_width = max(4, len(f"P{result.schedule.num_workers - 1}>"))
    for worker in range(result.schedule.num_workers):
        cells = ["." * CELL_WIDTH] * num_cells
        for t in result.timed_ops_on(worker):
            label = _label(t.op)
            first = min(num_cells - 1, round(t.start / time_step))
            last = max(first, min(num_cells - 1, round(t.end / time_step) - 1))
            for c in range(first, last + 1):
                cells[c] = label[:CELL_WIDTH].center(CELL_WIDTH)
        lines.append(f"P{worker}".ljust(tag_width) + "|" + "|".join(cells) + "|")
        # Overlapping transfers (only the beta term serializes; alpha
        # pipelines) stack onto extra lanes instead of overwriting.
        # Host-channel stash copies get their own lane set (``P0~``):
        # they occupy the worker's PCIe channel, never the NIC.
        wire: list[tuple[str, object]] = []
        host: list[tuple[str, object]] = []
        for t in result.transfers_from(worker):
            if t.duration <= 0:
                continue
            if t.payload == "stash":
                direction = (
                    t.channel[2]
                    if isinstance(t.channel, tuple) and len(t.channel) > 2
                    else None
                )
                mark = {"d2h": "v", "h2d": "^"}.get(direction, "~")
                mbs = ",".join(str(m) for m in t.micro_batches)
                host.append((f"{mbs}{mark}", t))
            else:
                label = (
                    f"{'a' if t.payload == 'act' else 'g'}"
                    f"{','.join(str(m) for m in t.micro_batches)}"
                    f">{t.dst_worker}"
                )
                wire.append((label, t))
        for tag, group in ((f"P{worker}>", wire), (f"P{worker}~", host)):
            lanes: list[list[str]] = []
            lane_free: list[float] = []
            for label, t in group:
                for index, free in enumerate(lane_free):
                    if t.start >= free - 1e-12:
                        lane = index
                        break
                else:
                    lanes.append([" " * CELL_WIDTH] * num_cells)
                    lane_free.append(0.0)
                    lane = len(lanes) - 1
                lane_free[lane] = t.end
                first = min(num_cells - 1, round(t.start / time_step))
                last = max(first, min(num_cells - 1, round(t.end / time_step) - 1))
                for c in range(first, last + 1):
                    lanes[lane][c] = label[:CELL_WIDTH].center(CELL_WIDTH)
            for row in lanes:
                lines.append(tag.ljust(tag_width) + "|" + "|".join(row) + "|")
    # Synchronization summary line, in time order (the result lists
    # collectives structurally).
    if result.collectives:
        first = sorted(result.collectives, key=lambda c: (c.start, c.stage))[:8]
        syncs = ", ".join(f"S{c.stage}@[{c.start:g},{c.end:g})" for c in first)
        more = "" if len(result.collectives) <= 8 else ", ..."
        lines.append(f"allreduce: {syncs}{more}")
    p2p = [t for t in result.transfers if t.payload != "stash"]
    stash = [t for t in result.transfers if t.payload == "stash"]
    if p2p:
        lines.append(
            f"p2p transfers: {len(p2p)} "
            f"(wire time {sum(t.duration for t in p2p):g}s, "
            f"occupancy {sum(t.occupancy for t in p2p):g}s)"
        )
    if stash:
        lines.append(
            f"host copies: {len(stash)} "
            f"(wire time {sum(t.duration for t in stash):g}s, "
            f"occupancy {sum(t.occupancy for t in stash):g}s)"
        )
    lines.append(
        f"compute makespan={result.compute_makespan:g}s  "
        f"iteration={result.iteration_time:g}s"
    )
    return "\n".join(lines)


def _label(op) -> str:
    mbs = "+".join(str(m) for m in op.micro_batches)
    if op.kind is OpKind.BACKWARD:
        suffix = "*"
        if op.part != (0, 1):
            suffix = f"*{op.part[0]}"
        return f"{mbs}{suffix}"
    if op.kind is OpKind.BACKWARD_INPUT:
        return f"{mbs}b"
    if op.kind is OpKind.BACKWARD_WEIGHT:
        return f"{mbs}w"
    if op.kind is OpKind.RECOMPUTE:
        return f"{mbs}r"
    return mbs
