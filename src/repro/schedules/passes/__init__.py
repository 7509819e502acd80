"""Composable schedule-transform passes.

This package turns the transform layer into the system's extension
point: gradient-sync placement, p2p lowering, activation recomputation,
communication fusion, and bubble filling are all
:class:`~repro.schedules.passes.base.SchedulePass` objects
(``Schedule -> Schedule``), named by pipeline specs
(``"recompute,lower_p2p"``) and run as
:class:`~repro.schedules.passes.base.PassPipeline` pipelines with
validated ordering and a stable signature the schedule cache keys on.

Built-in passes (registered on the default manager):

=================  ========================================================
``insert_sync``    Place per-stage gradient allreduces (``:lazy``/``:eager``)
``recompute``      Insert explicit RECOMPUTE ops; stash only stage inputs
``offload``        Park activation stashes in host memory (OFFLOAD/RELOAD)
``fill_bubbles``   Hoist deferred W ops into idle ticks (ZB tail-fill, generalized)
``lower_p2p``      Rewrite cross-worker edges into SEND/RECV pairs
``fuse_comm``      Batch each SEND/RECV pair into one sender-side transfer
=================  ========================================================

Canonical ordering: sync and compute-shaping passes (``insert_sync``,
``recompute``, ``offload``, ``fill_bubbles``) run before ``lower_p2p``;
``fuse_comm`` requires a lowered schedule. ``recompute`` composes on
either side of lowering/fusion (and commutes op-for-op); ``offload``
composes with ``recompute`` in either order. See ``docs/passes.md``.
"""

from repro.schedules.passes.base import (
    DEFAULT_PASS_MANAGER,
    FUSED_COMM,
    LOWERED,
    OFFLOAD,
    RECOMPUTE,
    SYNC,
    PassManager,
    PassPipeline,
    SchedulePass,
    pipeline_signature,
    register_pass,
    resolve_pipeline,
    schedule_facts,
)
from repro.schedules.passes.pipeline import (
    PipelineParts,
    attempt_pipelines,
    normalize_pipeline,
    split_pipeline,
)
from repro.schedules.passes.bubbles import FillBubblesPass
from repro.schedules.passes.fuse import FuseCommPass
from repro.schedules.passes.lower import LowerP2PPass
from repro.schedules.passes.offload import OffloadPass
from repro.schedules.passes.recompute import RecomputePass
from repro.schedules.passes.sync import InsertSyncPass

register_pass("insert_sync", InsertSyncPass)
register_pass("recompute", RecomputePass)
register_pass("offload", OffloadPass)
register_pass("fill_bubbles", FillBubblesPass)
register_pass("lower_p2p", LowerP2PPass)
register_pass("fuse_comm", FuseCommPass)

__all__ = [
    "DEFAULT_PASS_MANAGER",
    "FUSED_COMM",
    "LOWERED",
    "OFFLOAD",
    "RECOMPUTE",
    "SYNC",
    "PassManager",
    "PassPipeline",
    "SchedulePass",
    "FillBubblesPass",
    "FuseCommPass",
    "InsertSyncPass",
    "LowerP2PPass",
    "OffloadPass",
    "PipelineParts",
    "RecomputePass",
    "attempt_pipelines",
    "normalize_pipeline",
    "pipeline_signature",
    "split_pipeline",
    "register_pass",
    "resolve_pipeline",
    "schedule_facts",
]
