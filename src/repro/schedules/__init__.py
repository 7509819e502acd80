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

from repro.common.exports import lazy_exports

# Importing any pass module runs ``repro.schedules.passes``, which
# registers the built-in passes; that package stays eager.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.schedules.ir": ("Operation", "OpKind", "Schedule"),
        "repro.schedules.placement": ("StagePlacement",),
        "repro.schedules.chimera": ("ConcatStrategy", "build_chimera_schedule"),
        "repro.schedules.gpipe": ("build_gpipe_schedule",),
        "repro.schedules.dapple": ("build_dapple_schedule",),
        "repro.schedules.gems": ("build_gems_schedule",),
        "repro.schedules.pipedream": ("build_pipedream_schedule",),
        "repro.schedules.pipedream_2bw": ("build_pipedream_2bw_schedule",),
        "repro.schedules.zero_bubble": (
            "build_zb_h1_schedule",
            "build_zb_v_schedule",
            "build_zb_vhalf_schedule",
            "build_zb_vmin_schedule",
            "stable_pattern",
        ),
        "repro.schedules.registry": (
            "build_schedule",
            "available_schemes",
            "SchemeTraits",
            "scheme_traits",
            "register_scheme",
            "unregister_scheme",
            "builder_fingerprint",
        ),
        "repro.schedules.synthesize": (
            "build_synthesize_schedule",
            "peak_stash_units",
            "synthesis_cost_model",
        ),
        "repro.schedules.lowering": ("lower_schedule", "is_lowered"),
        "repro.schedules.passes.base": (
            "DEFAULT_PASS_MANAGER",
            "PassManager",
            "PassPipeline",
            "SchedulePass",
            "pipeline_signature",
            "register_pass",
            "resolve_pipeline",
            "schedule_facts",
        ),
        "repro.schedules.passes.sync": ("InsertSyncPass",),
        "repro.schedules.passes.recompute": ("RecomputePass",),
        "repro.schedules.passes.bubbles": ("FillBubblesPass",),
        "repro.schedules.passes.lower": ("LowerP2PPass",),
        "repro.schedules.passes.fuse": ("FuseCommPass",),
        "repro.schedules.cache": (
            "ScheduleArtifacts",
            "ScheduleCache",
            "cached_build_schedule",
            "clear_schedule_cache",
            "schedule_artifacts",
            "schedule_cache_stats",
        ),
        "repro.schedules.validate": (
            "validate_schedule",
            "validate_synthesized_schedule",
        ),
        "repro.schedules.analysis": (
            "bubble_ratio_formula",
            "activation_interval_formula",
            "weight_copies_formula",
            "scheme_properties",
        ),
    },
)
