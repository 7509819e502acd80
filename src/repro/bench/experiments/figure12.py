"""Figure 12: eager-sync vs eager-sync-opt gradient synchronization.

Bert-48 with D = 4, B = 8; B̂ scales 256 -> 1024 as P scales 16 -> 64.
``eager-sync`` posts non-blocking allreduces for *every* stage right after
its gradients complete; ``eager-sync-opt`` skips the middle stages, whose
gradients only finish at the end of local compute — the eager launch there
cannot overlap anything and its progression overhead sits on the critical
path (§3.2). Expected: eager-sync-opt consistently faster (paper: up to
1.09x at 64 nodes).
"""

from __future__ import annotations

from repro.bench.harness import format_table
from repro.bench.machines import PIZ_DAINT
from repro.bench.workloads import BERT48
from repro.perf.calibration import calibrate_cost_model
from repro.schedules.chimera import build_chimera_schedule
from repro.sim.kernel import simulate_fast

DEPTH = 4
MICRO_BATCH = 8


def throughputs(num_workers: int, mini_batch: int) -> dict[str, float]:
    """sequences/s for lazy / eager / eager_opt at one scale."""
    width = num_workers // DEPTH
    n = mini_batch // (width * MICRO_BATCH)
    cost = calibrate_cost_model(
        PIZ_DAINT,
        BERT48,
        depth=DEPTH,
        micro_batch=MICRO_BATCH,
        data_parallel_width=width,
        # The progression overhead of posting a non-blocking collective is
        # the effect this figure isolates; GLOO's helper threads cost a
        # noticeable slice of a (small) stage forward...
        sync_launch_overhead_fraction=0.25,
        # ...and contend with compute while the collective is in flight.
    ).with_(sync_overlap_slowdown=0.8)
    out = {}
    for mode in ("lazy", "eager", "eager_opt"):
        schedule = build_chimera_schedule(DEPTH, n, sync_mode=mode)
        result = simulate_fast(schedule, cost)
        out[mode] = mini_batch / result.iteration_time
    return out


def run(fast: bool = True) -> str:
    scales = ((16, 256), (32, 512), (64, 1024))
    body = []
    for num_workers, mini_batch in scales:
        t = throughputs(num_workers, mini_batch)
        body.append(
            [
                f"{num_workers} nodes",
                f"{t['lazy']:.1f}",
                f"{t['eager']:.1f}",
                f"{t['eager_opt']:.1f}",
                f"{t['eager_opt'] / t['eager']:.3f}x",
            ]
        )
    return (
        "Figure 12 reproduction (Bert-48, D=4, B=8; sync strategies)\n"
        + format_table(
            body,
            headers=["scale", "lazy", "eager-sync", "eager-sync-opt", "opt/eager"],
        )
    )
