"""Figure 18: scaling to large mini-batches — GPT-2, 512 nodes.

Everything runs with recomputation at this model size (B = 1 barely fits),
which flips the §3.5 preference: *forward doubling* removes the
intermediate bubbles at no extra cost (recompute is already paid), so
Chimera(doubling) leads; GPipe's regular schedule overtakes DAPPLE.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentConfig, format_table, run_configuration
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import GPT2_64
from repro.common.errors import ConfigurationError, ScheduleError

#: label -> (scheme, depth, micro_batch, options)
SERIES = {
    "chimera-direct (B=1, R)": ("chimera", 8, 1, {"concat": "direct"}),
    "chimera-doubling (B=1, R)": ("chimera", 8, 1, {"concat": "doubling"}),
    "dapple (B=1, R)": ("dapple", 8, 1, {}),
    "gpipe (B=1, R)": ("gpipe", 8, 1, {}),
    "gems (B=2)": ("gems", 8, 2, {}),
    "pipedream_2bw (B=1, R)": ("pipedream_2bw", 8, 1, {}),
    "pipedream (B=128, R)": ("pipedream", 8, 2, {}),
}


def run(fast: bool = True) -> str:
    num_workers = 128 if fast else 512
    bbs = (128, 256, 512) if fast else (512, 1024, 1536, 2048)
    body = []
    for label, (scheme, depth, micro_batch, options) in SERIES.items():
        width = num_workers // depth
        row = [label]
        for bb in bbs:
            eff_bb = width * micro_batch if scheme == "pipedream" else bb
            try:
                r = run_configuration(
                    ExperimentConfig(
                        scheme=scheme,
                        machine=PIZ_DAINT,
                        workload=GPT2_64,
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
        f"Figure 18 reproduction (GPT-2, {num_workers} nodes, large B̂)\n"
        + format_table(body, headers=["series"] + [f"B̂={bb}" for bb in bbs])
    )
