"""Figure 13: performance-model prediction vs simulated practice.

For each candidate (W, D) the paper plots Chimera's modelled and measured
throughput; the model picks the configuration, and its error stays under
10%. Here "practice" is the full heterogeneous-cost simulation and
"model" the Equation (1) prediction over homogenized stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import format_table
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48, GPT2_64, TransformerSpec
from repro.perf.calibration import calibrate_cost_model
from repro.perf.model import predict_iteration_time
from repro.perf.planner import greedy_micro_batch
from repro.schedules.registry import build_schedule
from repro.sim.kernel import simulate_fast


@dataclass(frozen=True)
class ModelVsPractice:
    width: int
    depth: int
    micro_batch: int
    recompute: bool
    modelled: float  # sequences/s
    simulated: float  # sequences/s

    @property
    def error(self) -> float:
        return abs(self.modelled - self.simulated) / self.simulated


def evaluate(
    workload: TransformerSpec,
    num_workers: int,
    mini_batch: int,
    depths: tuple[int, ...],
) -> list[ModelVsPractice]:
    out = []
    for depth in depths:
        if num_workers % depth or workload.num_layers % depth:
            continue
        width = num_workers // depth
        picked = greedy_micro_batch(
            PIZ_DAINT, workload, width=width, depth=depth, mini_batch=mini_batch
        )
        if picked is None:
            continue
        micro_batch, recompute = picked
        n = mini_batch // (width * micro_batch)
        cost = calibrate_cost_model(
            PIZ_DAINT,
            workload,
            depth=depth,
            micro_batch=micro_batch,
            data_parallel_width=width,
        )
        prediction = predict_iteration_time(depth, n, cost, recompute=recompute)
        schedule = build_schedule(
            "chimera", depth, n, passes="recompute" if recompute else None
        )
        practice = simulate_fast(schedule, cost)
        out.append(
            ModelVsPractice(
                width=width,
                depth=depth,
                micro_batch=micro_batch,
                recompute=recompute,
                modelled=mini_batch / prediction.iteration_time,
                simulated=mini_batch / practice.iteration_time,
            )
        )
    return out


def run(fast: bool = True) -> str:
    panels = [
        ("Bert-48, 32 nodes, B̂=256", BERT48, 32, 256, (2, 4, 8, 16)),
    ]
    if not fast:
        panels.append(("GPT-2, 512 nodes, B̂=512", GPT2_64, 512, 512, (8, 16, 32, 64)))
    else:
        panels.append(("GPT-2, 128 nodes, B̂=128", GPT2_64, 128, 128, (8, 16, 32, 64)))
    blocks = []
    for title, workload, p, bb, depths in panels:
        rows = evaluate(workload, p, bb, depths)
        body = [
            [
                f"W={r.width}, D={r.depth}, B={r.micro_batch}" + (", R" if r.recompute else ""),
                f"{r.simulated:.1f}",
                f"{r.modelled:.1f}",
                f"{r.error * 100:.1f}%",
            ]
            for r in rows
        ]
        blocks.append(
            f"{title}\n"
            + format_table(body, headers=["config", "practice seq/s", "model seq/s", "error"])
        )
    return "Figure 13 reproduction (performance model accuracy)\n\n" + "\n\n".join(blocks)
