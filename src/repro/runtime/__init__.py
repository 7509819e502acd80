"""Executable pipeline-parallel training runtime.

This package runs any :class:`~repro.schedules.ir.Schedule` on the real
NumPy models of :mod:`repro.models`, with an in-process GLOO-like
communication backend. It is the "does the schedule actually compute the
right thing" half of the reproduction:

* synchronous schemes (Chimera, DAPPLE, GPipe, GEMS) produce weights
  numerically equal to sequential mini-batch SGD (paper §2: "equivalent to
  the standard and well-proved mini-batch SGD");
* the PipeDream family exhibits weight staleness (different weights than
  SGD) while remaining version-consistent and convergent.
"""

from repro.common.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.optimizers": ("Optimizer", "SGD", "Momentum", "Adam"),
        "repro.runtime.backend": ("InProcessBackend",),
        "repro.runtime.collective_algorithms": (
            "CollectiveStats",
            "rabenseifner_allreduce",
            "ring_allreduce",
        ),
        "repro.runtime.stage_module": ("StageModule",),
        "repro.runtime.executor": ("PipelineExecutor",),
        "repro.runtime.trainer": ("PipelineTrainer",),
    },
)
