"""High-level training API: a model + a schedule + an optimizer.

``PipelineTrainer`` owns the stage modules (one full set of stage weights
per (group, replica) — exactly the memory layout the paper describes), the
executor, and the per-scheme update semantics:

* synchronous schemes (including the split-backward zero-bubble family) —
  allreduce gradient sums across all stage copies, scale to the mini-batch
  mean, one optimizer step per iteration (algorithmically identical to
  sequential mini-batch SGD);
* ``pipedream`` — weight stashing + an optimizer step after every
  micro-batch's backward (asynchronous, stale weights; runtime supports
  width 1, wider configurations are covered by the simulator);
* ``pipedream_2bw`` — gradient accumulation over the window with a
  one-window-stale application (double-buffered weight versions).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.errors import ConfigurationError, ReproError
from repro.models.layers import Layer
from repro.models.transformer import (
    TransformerLMConfig,
    build_transformer_layers,
    partition_layers,
)
from repro.runtime.executor import PipelineExecutor
from repro.runtime.optimizers import SGD, Optimizer
from repro.runtime.stage_module import StageModule
from repro.schedules.passes.pipeline import normalize_pipeline, split_pipeline
from repro.schedules.registry import build_schedule
from repro.schedules.validate import validate_schedule


class PipelineTrainer:
    """Train a :class:`TransformerLMConfig` model under any scheme.

    ``pipeline=`` configures the schedule transforms on top of the
    scheme's defaults: an ordered pass spec (e.g. ``("offload",
    "lower_p2p")``) resolved against the pass registry, exactly as the
    simulator and planner take it. Every composition is numerically
    identical to the plain path (the parity tests assert it): lowering
    makes each cross-worker transfer an explicit SEND/RECV step,
    fuse_comm batches the pairs, recompute rematerializes activations at
    explicit RECOMPUTE ops, and offload parks the stash in the host tier
    between OFFLOAD/RELOAD ops — all bit-identical.
    """

    def __init__(
        self,
        model_config: TransformerLMConfig,
        *,
        scheme: str = "chimera",
        depth: int,
        num_micro_batches: int,
        width: int = 1,
        optimizer_factory: Callable[[], Optimizer] | None = None,
        pipeline: "str | tuple[str, ...]" = (),
        schedule_options: dict | None = None,
    ) -> None:
        if width < 1:
            raise ConfigurationError("width must be >= 1")
        self.model_config = model_config
        self.scheme = scheme
        self.depth = depth
        self.width = width
        self.pipeline = normalize_pipeline(pipeline)
        recompute = split_pipeline(self.pipeline).recompute
        self.schedule = build_schedule(
            scheme,
            depth,
            num_micro_batches,
            passes=self.pipeline,
            **(schedule_options or {}),
        )
        validate_schedule(self.schedule, require_sync_ops=False)
        if scheme == "pipedream" and width != 1:
            raise ConfigurationError(
                "the runtime implements PipeDream's per-micro-batch updates "
                "for width=1; use the simulator for wider sweeps"
            )

        self.optimizer = (optimizer_factory or (lambda: SGD(0.1)))()
        #: (group, replica, stage) -> StageModule. Every (group, replica)
        #: pair holds a full, identically initialized copy of the model.
        #: Partitioning follows the *schedule's* stage count, which can
        #: exceed ``depth`` (ZB-V folds 2 * depth chunks over the workers).
        self.stages: dict[tuple[int, int, int], StageModule] = {}
        for group in range(width):
            for replica in range(self.schedule.num_replicas):
                layers = build_transformer_layers(model_config)
                for stage, stage_layers in enumerate(
                    partition_layers(layers, self.schedule.num_stages)
                ):
                    self.stages[(group, replica, stage)] = StageModule(
                        stage_layers, recompute=recompute
                    )

        self.executor = PipelineExecutor(
            self.schedule,
            self.stages,
            width=width,
            weight_stashing=(scheme == "pipedream"),
            on_sync_complete=(
                self._pipedream_update if scheme == "pipedream" else None
            ),
        )
        self._pending_grads: dict[tuple[int, int, int], list[np.ndarray]] | None = (
            None
        )
        self.iterations = 0

    # -------------------------------------------------------------- training
    @property
    def num_micro_batches(self) -> int:
        return self.schedule.num_micro_batches

    def train_step(
        self, micro_batches: list[tuple[np.ndarray, np.ndarray]]
    ) -> float:
        """One iteration over ``N * width`` micro-batches; returns the loss."""
        n = self.num_micro_batches
        if len(micro_batches) != n * self.width:
            raise ReproError(
                f"expected {n * self.width} micro-batches, got {len(micro_batches)}"
            )
        data = [micro_batches[g * n : (g + 1) * n] for g in range(self.width)]

        if self.scheme == "pipedream_2bw":
            self._apply_pending()

        for module in self.stages.values():
            module.zero_grads()
        loss = self.executor.run_iteration(data)

        if self.schedule.synchronous:
            scale = 1.0 / (n * self.width)
            for module in self.stages.values():
                module.scale_grads(scale)
            for module in self.stages.values():
                self.optimizer.step(module.layers)
        elif self.scheme == "pipedream_2bw":
            scale = 1.0 / (n * self.width)
            self._pending_grads = {
                key: [g.copy() * scale for g in module.grad_arrays()]
                for key, module in self.stages.items()
            }
        # pipedream updated per micro-batch inside the executor hook.
        self.iterations += 1
        return loss

    def _apply_pending(self) -> None:
        """PipeDream-2BW: apply the previous window's (stale) gradients."""
        if self._pending_grads is None:
            return
        for key, grads in self._pending_grads.items():
            module = self.stages[key]
            for g, pending in zip(module.grad_arrays(), grads):
                g[...] = pending
            self.optimizer.step(module.layers)
            module.zero_grads()
        self._pending_grads = None

    def _pipedream_update(
        self, stage: int, micro_batches: tuple, members: list
    ) -> None:
        """Per-micro-batch update right after the gradient synchronization."""
        for group, replica, member_stage in members:
            module = self.stages[(group, replica, member_stage)]
            module.scale_grads(1.0 / self.width)
            self.optimizer.step(module.layers)
            module.zero_grads()

    # ------------------------------------------------------------ inspection
    def full_model_layers(self) -> list[Layer]:
        """The layers of group 0's replica 0 in forward order (for
        comparisons; :meth:`replicas_in_sync` checks the other copies)."""
        layers: list[Layer] = []
        for stage in range(self.schedule.num_stages):
            layers.extend(self.stages[(0, 0, stage)].layers)
        return layers

    def replicas_in_sync(self, atol: float = 0.0) -> bool:
        """Do all model copies hold (numerically) identical weights?

        True for synchronous schemes after any number of iterations —
        replicas receive identical allreduced gradients.
        """
        for stage in range(self.schedule.num_stages):
            reference = None
            for group in range(self.width):
                for replica in range(self.schedule.num_replicas):
                    params = self.stages[(group, replica, stage)].param_arrays()
                    if reference is None:
                        reference = params
                        continue
                    for a, b in zip(reference, params):
                        if not np.allclose(a, b, atol=atol, rtol=0.0):
                            return False
        return True
