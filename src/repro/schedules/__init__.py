"""Pipeline-parallel schedule construction.

This package contains the paper's primary contribution — the Chimera
bidirectional schedule (:mod:`repro.schedules.chimera`) — together with every
baseline it is compared against in Table 2 of the paper:

* :mod:`repro.schedules.gpipe` — GPipe [Huang et al. 2019]
* :mod:`repro.schedules.dapple` — DAPPLE / synchronous 1F1B [Fan et al. 2021]
* :mod:`repro.schedules.gems` — GEMS [Jain et al. 2020]
* :mod:`repro.schedules.pipedream` — PipeDream [Narayanan et al. 2019]
* :mod:`repro.schedules.pipedream_2bw` — PipeDream-2BW [Narayanan et al. 2020]

plus the zero-bubble family built on the split backward
(:mod:`repro.schedules.zero_bubble` — ZB-H1 / ZB-V [Qi et al. 2023] and the
memory-controllable ZB-vhalf / ZB-vmin [Qi et al. 2024]), the strongest
modern baselines to compare Chimera against.

All builders produce the same :class:`repro.schedules.ir.Schedule` IR, which
the simulator (:mod:`repro.sim`), the training runtime
(:mod:`repro.runtime`), and the memory model consume uniformly. Builders
emit compute rows; the cross-cutting transforms — gradient-sync
placement, activation recomputation, bubble filling, communication
lowering and fusion — are composable passes
(:mod:`repro.schedules.passes`) that the registry's default pipelines,
the CLI's ``--pipeline`` flag, and the schedule cache all share. The
lowering implementation itself lives in :mod:`repro.schedules.lowering`
and rewrites any scheme — without per-builder code — into a form with
explicit ``SEND``/``RECV`` communication ops, enabling link-contention
simulation and comm-lane rendering.
"""

from repro.schedules.ir import Operation, OpKind, Schedule
from repro.schedules.placement import StagePlacement
from repro.schedules.chimera import build_chimera_schedule, ConcatStrategy
from repro.schedules.gpipe import build_gpipe_schedule
from repro.schedules.dapple import build_dapple_schedule
from repro.schedules.gems import build_gems_schedule
from repro.schedules.pipedream import build_pipedream_schedule
from repro.schedules.pipedream_2bw import build_pipedream_2bw_schedule
from repro.schedules.zero_bubble import (
    build_zb_h1_schedule,
    build_zb_v_schedule,
    build_zb_vhalf_schedule,
    build_zb_vmin_schedule,
    stable_pattern,
)
from repro.schedules.registry import (
    SchemeTraits,
    available_schemes,
    build_schedule,
    builder_fingerprint,
    register_scheme,
    scheme_traits,
    unregister_scheme,
)
from repro.schedules.synthesize import (
    build_synthesize_schedule,
    peak_stash_units,
    synthesis_cost_model,
)
from repro.schedules.lowering import is_lowered, lower_schedule
from repro.schedules.passes import (
    DEFAULT_PASS_MANAGER,
    FillBubblesPass,
    FuseCommPass,
    InsertSyncPass,
    LowerP2PPass,
    PassManager,
    PassPipeline,
    RecomputePass,
    SchedulePass,
    pipeline_signature,
    register_pass,
    resolve_pipeline,
    schedule_facts,
)
from repro.schedules.cache import (
    ScheduleArtifacts,
    ScheduleCache,
    cached_build_schedule,
    clear_schedule_cache,
    schedule_artifacts,
    schedule_cache_stats,
)
from repro.schedules.validate import validate_schedule, validate_synthesized_schedule
from repro.schedules.analysis import (
    bubble_ratio_formula,
    activation_interval_formula,
    weight_copies_formula,
    scheme_properties,
)

__all__ = [
    "Operation",
    "OpKind",
    "Schedule",
    "StagePlacement",
    "ConcatStrategy",
    "build_chimera_schedule",
    "build_gpipe_schedule",
    "build_dapple_schedule",
    "build_gems_schedule",
    "build_pipedream_schedule",
    "build_pipedream_2bw_schedule",
    "build_zb_h1_schedule",
    "build_zb_v_schedule",
    "build_zb_vhalf_schedule",
    "build_zb_vmin_schedule",
    "stable_pattern",
    "build_schedule",
    "build_synthesize_schedule",
    "peak_stash_units",
    "synthesis_cost_model",
    "available_schemes",
    "SchemeTraits",
    "scheme_traits",
    "register_scheme",
    "unregister_scheme",
    "builder_fingerprint",
    "lower_schedule",
    "is_lowered",
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
    "schedule_facts",
    "ScheduleArtifacts",
    "ScheduleCache",
    "cached_build_schedule",
    "clear_schedule_cache",
    "schedule_artifacts",
    "schedule_cache_stats",
    "validate_schedule",
    "validate_synthesized_schedule",
    "bubble_ratio_formula",
    "activation_interval_formula",
    "weight_copies_formula",
    "scheme_properties",
]
