"""repro — reproduction of Chimera bidirectional pipeline parallelism (SC'21).

The layer stack (schedules IR -> sim -> runtime -> bench) is documented in
``docs/architecture.md``; per-scheme bubble/memory formulas live in
``docs/schedules.md``.

Public API tour
---------------
Schedules (the paper's contribution, every baseline of Table 2, and the
zero-bubble family ``zb_h1``/``zb_v`` built on B/W backward splitting)::

    from repro import build_schedule, validate_schedule
    sched = build_schedule("chimera", depth=8, num_micro_batches=8)
    zb = build_schedule("zb_h1", depth=8, num_micro_batches=8)

Simulation (bubble ratios, memory, throughput on modelled clusters)::

    from repro import simulate, CostModel, render_gantt
    result = simulate(sched, CostModel.practical())
    print(render_gantt(result))

Explicit communication (lowering pass: SEND/RECV ops, link contention,
comm lanes in the Gantt/trace output)::

    from repro import lower_schedule
    lowered = lower_schedule(sched).schedule
    contended = simulate(lowered, CostModel.practical())

Composable schedule passes (``docs/passes.md``): recomputation,
communication fusion, and bubble filling work for every scheme through
the pass pipeline — ``recompute=`` and ``passes=`` are universal
``build_schedule`` options::

    from repro import build_schedule, resolve_pipeline
    r = build_schedule("gpipe", 8, 16, recompute=True)
    fused = build_schedule("zb_v", 8, 16,
                           passes="fill_bubbles,lower_p2p,fuse_comm")
    pipeline = resolve_pipeline("lower_p2p,fuse_comm")   # reusable object

Real training (NumPy transformer through any schedule)::

    from repro import PipelineTrainer, TransformerLMConfig
    trainer = PipelineTrainer(TransformerLMConfig(), scheme="chimera",
                              depth=4, num_micro_batches=4)

Performance model & configuration selection (paper §3.4)::

    from repro import select_configuration
    from repro.bench import PIZ_DAINT, BERT48
    ranked = select_configuration(PIZ_DAINT, BERT48, num_workers=32,
                                  mini_batch=512)

Scheme-agnostic planning under a peak-memory budget (every registered
scheme enumerated over ``(W, D, B)``, pruned by the memory model, ranked
by batched simulation against cached dense schedules)::

    from repro import plan_configurations
    from repro.common.units import GIB
    table = plan_configurations(PIZ_DAINT, BERT48, num_workers=32,
                                mini_batch=512,
                                memory_budget_bytes=8 * GIB)

Batch simulation (many ``(kernel, cost_model)`` rows in one call on
the array kernel; rows sharing a cached kernel vectorize together, and
``repro bench`` gates its throughput in CI)::

    from repro import schedule_artifacts, simulate_batch_many
    arts = schedule_artifacts("chimera", 8, 16)
    kernel = arts.kernel_for()
    models = [CostModel.practical(), CostModel.unit()]
    batch = simulate_batch_many([(kernel, m) for m in models])
"""

from repro.schedules import (
    ConcatStrategy,
    Operation,
    OpKind,
    Schedule,
    StagePlacement,
    DEFAULT_PASS_MANAGER,
    FillBubblesPass,
    FuseCommPass,
    InsertSyncPass,
    LowerP2PPass,
    PassManager,
    PassPipeline,
    RecomputePass,
    SchedulePass,
    available_schemes,
    build_chimera_schedule,
    build_dapple_schedule,
    build_gems_schedule,
    build_gpipe_schedule,
    build_pipedream_2bw_schedule,
    build_pipedream_schedule,
    build_schedule,
    build_zb_h1_schedule,
    build_zb_v_schedule,
    build_zb_vhalf_schedule,
    build_zb_vmin_schedule,
    is_lowered,
    lower_schedule,
    pipeline_signature,
    register_pass,
    resolve_pipeline,
    schedule_artifacts,
    scheme_traits,
    validate_schedule,
)
from repro.sim import (
    BatchResult,
    CostModel,
    MemoryModel,
    SimulationResult,
    TransferRecord,
    analyze_memory,
    bubble_ratio,
    render_gantt,
    simulate,
    simulate_batch_many,
)
from repro.perf import (
    PlanEntry,
    plan_configurations,
    predict_closed_form,
    predict_iteration_time,
    select_configuration,
)
from repro.models import TransformerLMConfig
from repro.runtime import PipelineTrainer, SGD, Adam, Momentum

__version__ = "1.0.0"

__all__ = [
    "ConcatStrategy",
    "Operation",
    "OpKind",
    "Schedule",
    "StagePlacement",
    "available_schemes",
    "build_chimera_schedule",
    "build_dapple_schedule",
    "build_gems_schedule",
    "build_gpipe_schedule",
    "build_pipedream_2bw_schedule",
    "build_pipedream_schedule",
    "build_schedule",
    "build_zb_h1_schedule",
    "build_zb_v_schedule",
    "build_zb_vhalf_schedule",
    "build_zb_vmin_schedule",
    "scheme_traits",
    "is_lowered",
    "lower_schedule",
    "DEFAULT_PASS_MANAGER",
    "PassManager",
    "PassPipeline",
    "SchedulePass",
    "InsertSyncPass",
    "RecomputePass",
    "FillBubblesPass",
    "LowerP2PPass",
    "FuseCommPass",
    "pipeline_signature",
    "register_pass",
    "resolve_pipeline",
    "schedule_artifacts",
    "validate_schedule",
    "BatchResult",
    "CostModel",
    "MemoryModel",
    "SimulationResult",
    "TransferRecord",
    "analyze_memory",
    "bubble_ratio",
    "render_gantt",
    "simulate",
    "simulate_batch_many",
    "PlanEntry",
    "plan_configurations",
    "predict_closed_form",
    "predict_iteration_time",
    "select_configuration",
    "TransformerLMConfig",
    "PipelineTrainer",
    "SGD",
    "Adam",
    "Momentum",
    "__version__",
]
