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

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sim.cost": ("CostModel",),
        "repro.sim.network": ("LinkSpec", "FlatTopology", "HierarchicalTopology"),
        "repro.sim.collectives": (
            "allreduce_cost",
            "rabenseifner_cost",
            "ring_cost",
            "recursive_doubling_cost",
        ),
        "repro.sim.engine": (
            "SimulationResult",
            "TimedOp",
            "CollectiveRecord",
            "TransferRecord",
        ),
        "repro.sim.kernel": (
            "simulate_fast as simulate",
            "BatchResult",
            "ScheduleKernel",
            "kernel_of",
            "simulate_batch_many",
        ),
        "repro.sim.memory": (
            "MemoryModel",
            "MemoryReport",
            "WorkerMemory",
            "analyze_memory",
        ),
        "repro.sim.metrics": (
            "bubble_ratio",
            "throughput_samples_per_sec",
            "worker_busy_times",
        ),
        "repro.sim.gantt": ("render_gantt",),
        "repro.sim.trace": ("to_chrome_trace", "write_chrome_trace"),
    },
)
