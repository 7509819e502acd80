"""Figure 17: scaling to large mini-batches — Bert-48, 32 nodes.

Sweep B̂ up to 4,096 with per-scheme best micro-batches. Chimera runs all
three §3.5 concatenation strategies. Expected shapes: *direct* is
Chimera's best on Bert-48 (intermediate bubbles double as p2p slack);
at B̂ >= 1024 Chimera(direct) approaches PipeDream-2BW and beats GPipe
(recompute tax), GEMS (bubbles), and edges DAPPLE.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentConfig, format_table, run_configuration
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.common.errors import ConfigurationError, ScheduleError

NUM_WORKERS = 32

#: label -> (scheme, depth, micro_batch, options)
SERIES = {
    "chimera-direct (B=8)": ("chimera", 4, 8, {"concat": "direct"}),
    "chimera-doubling (B=8)": ("chimera", 4, 8, {"concat": "doubling"}),
    "chimera-halving (B=4)": ("chimera", 4, 4, {"concat": "halving"}),
    "dapple (B=8)": ("dapple", 4, 8, {}),
    "gpipe (B=8)": ("gpipe", 4, 8, {}),
    "gems (B=32)": ("gems", 4, 32, {}),
    "pipedream_2bw (B=32)": ("pipedream_2bw", 4, 32, {}),
    "pipedream (B=48->fixed)": ("pipedream", 8, 12, {}),
}


def mini_batches(fast: bool) -> tuple[int, ...]:
    return (512, 1024, 2048) if fast else (512, 1024, 2048, 4096)


def run(fast: bool = True) -> str:
    bbs = mini_batches(fast)
    body = []
    for label, (scheme, depth, micro_batch, options) in SERIES.items():
        width = NUM_WORKERS // depth
        row = [label]
        for bb in bbs:
            eff_bb = width * micro_batch if scheme == "pipedream" else bb
            try:
                r = run_configuration(
                    ExperimentConfig(
                        scheme=scheme,
                        machine=PIZ_DAINT,
                        workload=BERT48,
                        width=width,
                        depth=depth,
                        micro_batch=micro_batch,
                        mini_batch=eff_bb,
                        options=options,
                    )
                )
                row.append("OOM" if r.oom else f"{r.throughput:.1f}")
            except (ConfigurationError, ScheduleError):
                row.append("-")
        body.append(row)
    return (
        f"Figure 17 reproduction (Bert-48, {NUM_WORKERS} nodes, large B̂)\n"
        + format_table(body, headers=["series"] + [f"B̂={bb}" for bb in bbs])
    )
