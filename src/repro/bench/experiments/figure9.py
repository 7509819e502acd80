"""Figure 9: per-worker memory distribution on 32 GPU nodes.

Six configurations (three Bert-48, three 32-layer GPT-2). For each scheme
we report min/max per-worker memory and whether the configuration OOMs on
a 16 GiB P100. Expected shapes: GPipe OOMs everywhere (N in-flight
activations); PipeDream's weight stashes are the second heaviest;
DAPPLE/2BW peak on the first worker; Chimera is visibly flatter and close
to or below DAPPLE's peak; GEMS is the smallest.
"""

from __future__ import annotations

from repro.bench import harness
from repro.bench.harness import ExperimentConfig, format_table
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48, GPT2_32, TransformerSpec
from repro.schedules.passes.pipeline import PipelineParts
from repro.schedules.registry import available_schemes, scheme_traits
from repro.sim.memory import MemoryReport

#: (workload, W, D, B, B̂) — the six panels of Figure 9.
CONFIGS: tuple[tuple[TransformerSpec, int, int, int, int], ...] = (
    (BERT48, 2, 16, 8, 512),
    (BERT48, 4, 8, 8, 512),
    (BERT48, 4, 8, 16, 512),
    (GPT2_32, 1, 32, 1, 512),
    (GPT2_32, 2, 16, 1, 512),
    (GPT2_32, 2, 16, 2, 512),
)


def memory_report(
    workload: TransformerSpec,
    width: int,
    depth: int,
    micro_batch: int,
    mini_batch: int,
    scheme: str,
) -> MemoryReport:
    """Per-worker memory of one panel's plain schedule on Piz Daint."""
    cfg = ExperimentConfig(
        scheme=scheme,
        machine=PIZ_DAINT,
        workload=workload,
        width=width,
        depth=depth,
        micro_batch=micro_batch,
        mini_batch=mini_batch,
    )
    return harness.memory_report(cfg, PipelineParts())[1]


def run(fast: bool = True) -> str:
    configs = CONFIGS[:3] + CONFIGS[3:4] if fast else CONFIGS
    blocks = []
    capacity = PIZ_DAINT.usable_memory_bytes
    for workload, width, depth, micro_batch, mini_batch in configs:
        body = []
        for scheme in available_schemes():
            if scheme_traits(scheme).cost_parameterized:
                continue  # memory profile depends on the cost model
            stages = scheme_traits(scheme).stage_count(depth)
            if workload.num_layers % stages:
                body.append([scheme, "-", "-", "-", f"{stages} stages ∤ layers"])
                continue
            report = memory_report(
                workload, width, depth, micro_batch, mini_batch, scheme
            )
            body.append(
                [
                    scheme,
                    f"{report.min_bytes / 2**30:.2f}",
                    f"{report.peak_bytes / 2**30:.2f}",
                    f"{report.imbalance:.2f}x",
                    "OOM" if not report.fits(capacity) else "fits",
                ]
            )
        blocks.append(
            f"{workload.name} (W={width}, D={depth}, B={micro_batch}, "
            f"B̂={mini_batch})\n"
            + format_table(
                body,
                headers=["scheme", "min GiB", "max GiB", "imbalance", "16 GiB P100"],
            )
        )
    return "Figure 9 reproduction (memory distribution, 32 nodes)\n\n" + "\n\n".join(
        blocks
    )
