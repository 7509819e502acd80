"""Simulation of pipeline schedules on modelled clusters.

The simulator executes a :class:`~repro.schedules.ir.Schedule` against a
:class:`~repro.sim.cost.CostModel` — per-op compute durations, alpha-beta
point-to-point links, and collective (allreduce) cost models — producing a
:class:`~repro.sim.engine.SimulationResult` with per-operation start/end
times, per-worker busy/bubble accounting, and gradient-synchronization
overlap. The kernel's results take their scalars (makespan, iteration
time, busy and bubble time, collective spans) from the solve's arrays and
build the per-op records (``timed``, ``collectives``, ``transfers``)
only when one is read; the event engine builds them eagerly. This substitutes for the paper's 2,048-node Piz Daint runs: every
quantity the paper reports (bubble ratio, throughput, peak memory, the
performance-model error) is a deterministic function of the schedule
structure and these cost models.

The simulator users reach is the array-backed kernel
(:mod:`repro.sim.kernel`): :func:`simulate` (the kernel's
:func:`~repro.sim.kernel.simulate_fast`) times every registered scheme ×
pass pipeline × cost model, contended or not. For *lowered* schedules
(:mod:`repro.schedules.lowering`) it models per-link channel contention:
explicit SEND/RECV transfers occupy link bandwidth, queue FIFO per
channel, contend with collectives, and overlap with compute
(:class:`~repro.sim.engine.TransferRecord`); offloaded schedules queue
their stash copies on per-worker host channels.
:func:`~repro.sim.kernel.simulate_batch_many` evaluates many
``(kernel, cost_model)`` rows in one call for planner-scale sweeps.

The heap-based event queue (:func:`repro.sim.engine.simulate`) defines
the same timing model one event at a time. It is the oracle the kernel's
differential batteries compare against to 1e-9, not a user path. The
two are the only timing implementations, each the other's check. Both
end in one collective epilogue (:mod:`repro.sim.epilogue`: collective
ordering, link serialization, clearance past transfers, the overlap
slowdown); its oracle is the dict-based reference finalizer in
``tests/reference_collectives.py``.
"""

from repro.sim.cost import CostModel
from repro.sim.network import LinkSpec, FlatTopology, HierarchicalTopology
from repro.sim.collectives import (
    allreduce_cost,
    rabenseifner_cost,
    ring_cost,
    recursive_doubling_cost,
)
from repro.sim.engine import (
    CollectiveRecord,
    SimulationResult,
    TimedOp,
    TransferRecord,
)
from repro.sim.kernel import (
    BatchResult,
    ScheduleKernel,
    kernel_of,
    simulate_batch_many,
    simulate_fast as simulate,
)
from repro.sim.memory import MemoryModel, MemoryReport, WorkerMemory, analyze_memory
from repro.sim.metrics import bubble_ratio, throughput_samples_per_sec, worker_busy_times
from repro.sim.gantt import render_gantt
from repro.sim.trace import to_chrome_trace, write_chrome_trace

__all__ = [
    "CostModel",
    "LinkSpec",
    "FlatTopology",
    "HierarchicalTopology",
    "allreduce_cost",
    "rabenseifner_cost",
    "ring_cost",
    "recursive_doubling_cost",
    "SimulationResult",
    "TimedOp",
    "CollectiveRecord",
    "TransferRecord",
    "simulate",
    "BatchResult",
    "ScheduleKernel",
    "kernel_of",
    "simulate_batch_many",
    "MemoryModel",
    "MemoryReport",
    "WorkerMemory",
    "analyze_memory",
    "bubble_ratio",
    "throughput_samples_per_sec",
    "worker_busy_times",
    "render_gantt",
    "to_chrome_trace",
    "write_chrome_trace",
]
