#!/usr/bin/env python
"""Time and profile pipeline train steps in process.

Builds the ``train`` workload's model and pipelines (chimera and dapple,
the settings in ``benchmarks/e2e/streams.py``, imported, never modified)
and runs ``PipelineTrainer.train_step`` on its seed-1 token batches, the
schemes alternating on each batch as in the workload: ``--warmup`` steps
first, then one timed round of ``--steps`` steps:

    round  steps  ms/step

Then ``--steps`` more steps run under cProfile, and every profiled
function defined in ``src/repro/models/`` (the layers and their NumPy
kernels) prints its call count, self seconds and cumulative seconds,
largest self time first:

    calls  self_s  cumulative_s  function  file:line

cProfile charges array operators and ufunc calls to the Python function
that runs them, so a kernel's self time is mostly the elementwise
arithmetic it spells; array methods such as ``sum`` are entries of their
own and are not listed. The driver is ``tools/profile_driver.py``.
Standard library and NumPy only. From the repository root:

    python tools/profile_train.py
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks" / "e2e"))

import profile_driver  # noqa: E402
import streams  # noqa: E402
from repro.models.transformer import TransformerLMConfig  # noqa: E402
from repro.runtime.optimizers import SGD  # noqa: E402
from repro.runtime.trainer import PipelineTrainer  # noqa: E402

MODELS = REPO / "src" / "repro" / "models"


class Steps:
    """The workload's trainers and seed-1 batches, one train step at a time."""

    def __init__(self) -> None:
        config = TransformerLMConfig(**streams.TRAIN_MODEL)
        self.trainers = [
            PipelineTrainer(
                config,
                scheme=scheme,
                depth=streams.TRAIN_DEPTH,
                num_micro_batches=streams.TRAIN_MICRO_BATCHES,
                optimizer_factory=lambda: SGD(streams.TRAIN_LR),
            )
            for scheme in streams.TRAIN_SCHEMES
        ]
        self.batches = streams.train_batches(1)
        self.batch = None
        self.index = 0

    def run(self, count: int) -> float:
        """Run the next ``count`` steps; return the wall in seconds."""
        start = time.perf_counter()
        for _ in range(count):
            slot = self.index % len(self.trainers)
            if slot == 0:
                self.batch = next(self.batches)
            self.trainers[slot].train_step(self.batch)
            self.index += 1
        return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--warmup", type=int, default=4, help="untimed steps")
    parser.add_argument("--steps", type=int, default=40, help="steps per pass")
    args = parser.parse_args()

    profiler = profile_driver.drive(
        Steps().run, unit="step", warmup=args.warmup, count=args.steps
    )
    profile_driver.report(
        profiler, lambda path, _: pathlib.Path(path).resolve().parent == MODELS
    )


if __name__ == "__main__":
    main()
